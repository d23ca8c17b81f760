"""Parsing tests: intervals, GeoJSON frames, GPX traces, directory loading."""

import json
import math
from array import array
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import frame_feature, frames_doc, gpx_doc, ts
from framelocal.errors import (
    BadLineString,
    CoincidentPoints,
    FramesFileUnreadable,
    MalformedInterval,
    MalformedXml,
    NoEvents,
    NotFeatureCollection,
    NoTimedPoints,
    NoTraces,
    PolarOrigin,
    ReversedInterval,
)
from framelocal.ingest import (
    _parse_instant,
    format_interval,
    load_inputs,
    parse_frames,
    parse_gpx,
    parse_interval,
)
from framelocal.model import EventInterval, normalize_longitude, utc_us

ORIGIN = (-37.85, 145.0)
TARGET = (-37.84, 145.001)


class TestParseInterval:
    def test_canonical_form(self):
        interval = parse_interval("2017-06-10T05:00:00Z/2017-06-10T05:20:00Z")
        assert interval.begin_utc == ts(5, 0)
        assert interval.end_utc == ts(5, 20)
        assert interval.duration_s == 1200.0
        assert interval.label == "e0"

    def test_offset_normalized_to_utc(self):
        interval = parse_interval("2017-06-10T15:00:00+10:00/2017-06-10T05:20:00Z")
        assert interval.begin_utc == ts(5, 0)
        assert interval.end_utc == ts(5, 20)
        assert interval.begin_utc.tzinfo == timezone.utc

    def test_reversed_rejected(self):
        with pytest.raises(ReversedInterval):
            parse_interval("2017-06-10T05:20:00Z/2017-06-10T05:00:00Z")

    @pytest.mark.parametrize("text", [
        "PT20M/2017-06-10T05:20:00Z",
        "2017-06-10T05:00:00Z/PT20M",
        "P1D/2017-06-10T05:20:00Z",
    ])
    def test_duration_forms_rejected(self, text):
        with pytest.raises(MalformedInterval):
            parse_interval(text)

    @pytest.mark.parametrize("text", [
        "2017-06-10T05:00:00Z",
        "not an interval",
        "a/b/c",
        "/2017-06-10T05:20:00Z",
        "2017-06-10T05:00:00Z/",
        "2017-06-10T05:00:00Z/oops",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(MalformedInterval):
            parse_interval(text)

    def test_endpoint_out_of_range_in_utc_rejected(self):
        with pytest.raises(MalformedInterval, match="out of range in UTC"):
            parse_interval("2017-06-10T05:00:00Z/9999-12-31T23:59:59-01:00")

    def test_empty_label_rejected(self):
        with pytest.raises(MalformedInterval, match="label"):
            parse_interval("2017-06-10T05:00:00Z/2017-06-10T05:20:00Z", label="")

    def test_naive_assumed_utc_with_warning(self):
        warnings = []
        interval = parse_interval("2017-06-10T05:00:00/2017-06-10T05:20:00Z",
                                  on_warning=warnings.append)
        assert interval.begin_utc == ts(5, 0)
        assert len(warnings) == 1
        assert "assuming UTC" in warnings[0]

    def test_fractional_seconds_kept(self):
        interval = parse_interval(
            "2017-06-10T05:00:00.250Z/2017-06-10T05:00:01.750Z")
        assert interval.begin_utc.microsecond == 250000
        assert interval.duration_s == 1.5

    def test_custom_label(self):
        assert parse_interval("2017-06-10T05:00:00Z/2017-06-10T05:20:00Z",
                              label="round1").label == "round1"

    @given(begin=st.datetimes(timezones=st.just(timezone.utc),
                              min_value=ts(0).replace(tzinfo=None),
                              max_value=ts(12).replace(tzinfo=None)),
           extra=st.integers(0, 10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_format_parse_round_trip(self, begin, extra):
        from datetime import timedelta
        interval = EventInterval(begin_utc=begin,
                                 end_utc=begin + timedelta(seconds=extra * 1e-3),
                                 label="e0")
        assert parse_interval(format_interval(interval)) == interval

    @given(text=st.one_of(
        st.datetimes(timezones=st.none() | st.timezones()).map(
            lambda d: d.isoformat().replace("+00:00", "Z")),
        st.text(st.sampled_from("0123456789-:T.,+Zz W\t\n"), max_size=30),
        st.builds(lambda digits, tail: f"2017-06-10T{digits}{tail}",
                  st.text(st.sampled_from("0123456789:.,"), max_size=12),
                  st.sampled_from(["", "Z", "z", " Z", "Z ", "+00:00", "-0130"]))))
    @settings(max_examples=300, deadline=None)
    def test_instant_read_as_it_stands_or_cleaned_alike(self, text):
        def cleaned(raw):  # strip, then a trailing Z/z read as +00:00
            raw = raw.strip()
            if raw.endswith(("Z", "z")):
                raw = raw[:-1] + "+00:00"
            parsed = datetime.fromisoformat(raw)
            if parsed.tzinfo is None:
                return parsed.replace(tzinfo=timezone.utc), True
            return parsed, False

        try:
            expected = cleaned(text)
        except ValueError as exc:
            with pytest.raises(MalformedInterval) as raised:
                _parse_instant(text)
            assert str(raised.value) == f"bad datetime {text!r}: {exc}"
            return
        instant, naive = _parse_instant(text)
        assert (instant, naive) == expected
        assert instant.utcoffset() == expected[0].utcoffset()


class TestParseFrames:
    def test_events_array(self):
        doc = frames_doc([frame_feature(
            None, ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        frames = parse_frames(doc)
        assert len(frames) == 1
        frame, events = frames[0]
        assert frame.id == "f0"
        assert [e.label for e in events] == ["e0"]
        assert frame.length_m > 0.0
        assert 0.0 <= frame.azimuth_deg < 360.0

    def test_named_scalar_properties(self):
        doc = frames_doc([frame_feature(
            None, ORIGIN, TARGET,
            {"round1": "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z",
             "round2": "2017-06-10T06:00:00Z/2017-06-10T06:20:00Z"})])
        [(_, events)] = parse_frames(doc)
        assert [e.label for e in events] == ["round1", "round2"]

    def test_three_point_linestring_rejected(self):
        feature = frame_feature("bad", ORIGIN, TARGET, {"events": []})
        feature["geometry"]["coordinates"].append([145.002, -37.83])
        with pytest.raises(BadLineString, match="bad"):
            parse_frames(frames_doc([feature]))

    def test_not_feature_collection(self):
        with pytest.raises(NotFeatureCollection):
            parse_frames(json.dumps({"type": "Feature"}))
        with pytest.raises(NotFeatureCollection):
            parse_frames("{not json")

    def test_swapped_coordinate_order_caught(self):
        # [lat, lon] instead of [lon, lat] puts 145 where a latitude belongs
        doc = frames_doc([frame_feature(
            "swapped", (145.0, -37.85), (145.001, -37.84),
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        with pytest.raises(BadLineString, match="swapped"):
            parse_frames(doc)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_position_rejected(self, value):
        # json.dumps writes the tokens NaN, Infinity and -Infinity, which are
        # not JSON (RFC 8259 §6)
        doc = frames_doc([frame_feature(
            "nonfinite", (ORIGIN[0], value), TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        with pytest.raises(NotFeatureCollection, match="not a JSON number"):
            parse_frames(doc)

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "1" + "0" * 400])
    def test_position_past_the_float_range_rejected(self, number):
        feature = frame_feature("huge", ORIGIN, TARGET, {
            "events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})
        feature["geometry"]["coordinates"][0][0] = "NUMBER"
        doc = frames_doc([feature]).replace('"NUMBER"', number)
        with pytest.raises(BadLineString, match="huge.*finite"):
            parse_frames(doc)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("place", ["id", "coordinate", "events"])
    def test_non_json_number_token_rejected(self, place, token):
        feature = frame_feature("f0", ORIGIN, TARGET, {
            "events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})
        if place == "id":
            feature["id"] = "TOKEN"
        elif place == "coordinate":
            feature["geometry"]["coordinates"][0][0] = "TOKEN"
        else:
            feature["properties"]["events"].append("TOKEN")
        doc = frames_doc([feature]).replace('"TOKEN"', token)
        with pytest.raises(NotFeatureCollection,
                           match=f"not valid JSON: {token} is not a JSON number"):
            parse_frames(doc)

    @pytest.mark.parametrize("coordinates", [
        [[True, False], ["1_0", "0.5"]],
        [[145.0, False], [145.001, -37.84]],
        [["145", -37.85], [145.001, -37.84]],
        [[145.0, -37.85], [145.001, None]],
        ["12", [145.001, -37.84]],
        [[145.0, -37.85], [{"lon": 145.001}, -37.84]],
    ])
    def test_position_must_be_json_numbers(self, coordinates):
        feature = frame_feature(
            "typed", ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})
        feature["geometry"]["coordinates"] = coordinates
        with pytest.raises(BadLineString, match="typed.*not numeric"):
            parse_frames(frames_doc([feature]))

    def test_integer_too_large_for_a_float_rejected(self):
        doc = frames_doc([frame_feature(
            "huge", ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        with pytest.raises(BadLineString, match="huge.*finite"):
            parse_frames(doc.replace("145.0", "1" + "0" * 400, 1))
        # past the int-from-string digit limit json.loads raises ValueError
        with pytest.raises(NotFeatureCollection):
            parse_frames(doc.replace("145.0", "1" + "0" * 5000, 1))

    def test_coincident_endpoints(self):
        doc = frames_doc([frame_feature(
            "dup", ORIGIN, ORIGIN,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        with pytest.raises(CoincidentPoints, match="dup"):
            parse_frames(doc)

    def test_polar_origin_names_feature(self):
        doc = frames_doc([frame_feature(
            "pole", (89.95, 0.0), (89.96, 10.0),
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        with pytest.raises(PolarOrigin, match="'pole'.*89.95 is poleward"):
            parse_frames(doc)

    def test_no_events_is_an_error(self):
        doc = frames_doc([frame_feature("empty", ORIGIN, TARGET,
                                        {"name": "empty", "surface": "grass"})])
        with pytest.raises(NoEvents, match="empty"):
            parse_frames(doc)

    def test_malformed_interval_names_feature(self):
        doc = frames_doc([frame_feature(
            "oops", ORIGIN, TARGET, {"events": ["2017-06-10T05:00:00Z/nope"]})])
        with pytest.raises(MalformedInterval, match="oops"):
            parse_frames(doc)

    def test_out_of_range_interval_names_feature(self):
        doc = frames_doc([frame_feature(
            "late", ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/9999-12-31T23:59:59-01:00"]})])
        with pytest.raises(MalformedInterval, match="late"):
            parse_frames(doc)

    def test_interval_under_empty_property_name_ignored(self):
        interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
        doc = frames_doc([frame_feature("blank", ORIGIN, TARGET,
                                        {"": interval, "round1": interval})])
        [(_, events)] = parse_frames(doc)
        assert [e.label for e in events] == ["round1"]
        doc = frames_doc([frame_feature("blank", ORIGIN, TARGET, {"": interval})])
        with pytest.raises(NoEvents, match="blank"):
            parse_frames(doc)

    @pytest.mark.parametrize("member", ["properties", "geometry"])
    @pytest.mark.parametrize("value", [[1], [], "x", 0, False])
    def test_member_that_is_no_object_names_feature(self, member, value):
        feature = frame_feature(
            "odd", ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})
        feature[member] = value
        with pytest.raises(NotFeatureCollection, match=f"'odd': {member}"):
            parse_frames(frames_doc([feature]))

    def test_null_members_taken_as_empty(self):
        warnings = []
        feature = frame_feature(
            "bare", ORIGIN, TARGET,
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})
        feature["geometry"] = None
        assert parse_frames(frames_doc([feature]), on_warning=warnings.append) == []
        assert warnings == ["frame 'bare': geometry is not a LineString; skipped"]
        with pytest.raises(NoEvents, match="bare"):
            parse_frames(frames_doc([frame_feature("bare", ORIGIN, TARGET, None)]))

    def test_reversed_scalar_property_is_an_error(self):
        doc = frames_doc([frame_feature(
            "rev", ORIGIN, TARGET,
            {"round1": "2017-06-10T05:20:00Z/2017-06-10T05:00:00Z"})])
        with pytest.raises(ReversedInterval, match="rev"):
            parse_frames(doc)

    def test_non_linestring_skipped_with_warning(self):
        warnings = []
        doc = frames_doc([
            {"type": "Feature", "id": "pt",
             "geometry": {"type": "Point", "coordinates": [145.0, -37.85]},
             "properties": {}},
            frame_feature("line", ORIGIN, TARGET,
                          {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]}),
        ])
        frames = parse_frames(doc, on_warning=warnings.append)
        assert [frame.id for frame, _ in frames] == ["line"]
        assert any("pt" in w for w in warnings)

    def test_warnings_given_before_a_later_feature_fails(self):
        warnings = []
        naive = "2017-06-10T05:00:00/2017-06-10T05:20:00"
        three_points = frame_feature("bad", ORIGIN, TARGET, {"events": [naive]})
        three_points["geometry"]["coordinates"].append([145.002, -37.83])
        doc = frames_doc([
            {"type": "Feature", "id": "pt",
             "geometry": {"type": "Point", "coordinates": [145.0, -37.85]},
             "properties": {}},
            frame_feature("naive", ORIGIN, TARGET, {"events": [naive]}),
            three_points,
        ])
        with pytest.raises(BadLineString, match="bad"):
            parse_frames(doc, on_warning=warnings.append)
        assert warnings == [
            "frame 'pt': geometry is not a LineString; skipped",
            f"frame 'naive': interval {naive!r} has no UTC offset; assuming UTC"]

    def test_id_fallbacks(self):
        interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
        doc = frames_doc([
            frame_feature("explicit", ORIGIN, TARGET, {"events": [interval]}),
            frame_feature(None, ORIGIN, TARGET,
                          {"name": "named", "events": [interval]}),
            frame_feature(None, ORIGIN, TARGET, {"events": [interval]}),
        ])
        frames = parse_frames(doc)
        assert [frame.id for frame, _ in frames] == ["explicit", "named", "f2"]

    def test_number_ids_become_their_text(self):
        interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
        doc = frames_doc([frame_feature(frame_id, ORIGIN, TARGET, {"events": [interval]})
                          for frame_id in (7, 1.5, "")])
        frames = parse_frames(doc)
        assert [frame.id for frame, _ in frames] == ["7", "1.5", "f2"]

    @pytest.mark.parametrize("frame_id", [True, False, [[]], [], {"a": 1}, {}],
                             ids=["true", "false", "nested-array", "array", "object",
                                  "empty-object"])
    def test_id_neither_string_nor_number_is_not_a_feature_collection(self, frame_id):
        # RFC 7946 §3.2: an id is a string or a number
        interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
        doc = frames_doc([
            frame_feature("ok", ORIGIN, TARGET, {"events": [interval]}),
            frame_feature(frame_id, ORIGIN, TARGET,
                          {"name": "named", "events": [interval]})])
        with pytest.raises(NotFeatureCollection,
                           match=r"^features\[1\]: id is neither a string"):
            parse_frames(doc)

    def test_coordinates_are_lon_lat_order(self):
        # a due-north frame: same lon, increasing lat
        doc = frames_doc([frame_feature(
            "north", (10.0, 20.0), (10.1, 20.0),
            {"events": ["2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"]})])
        [(frame, _)] = parse_frames(doc)
        assert frame.origin_lat_deg == 10.0
        assert frame.origin_lon_deg == 20.0
        assert frame.azimuth_deg == pytest.approx(0.0, abs=1e-9)

    def test_document_order_preserved(self):
        interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
        doc = frames_doc([
            frame_feature(f"z{9 - i}", ORIGIN, TARGET, {"events": [interval]})
            for i in range(4)
        ])
        frames = parse_frames(doc)
        assert [frame.id for frame, _ in frames] == ["z9", "z8", "z7", "z6"]


class TestParseGpx:
    def test_single_segment(self):
        text = gpx_doc([(-37.85, 145.0, ts(5, 0, i)) for i in range(3)])
        trace = parse_gpx(text, "t1")
        assert trace.id == "t1"
        assert list(trace.time_us) == [utc_us(ts(5, 0, i)) for i in range(3)]
        assert list(trace.lat_deg) == [-37.85] * 3
        assert list(trace.lon_deg) == [145.0] * 3

    def test_two_segments_flattened(self):
        seg = "".join(
            f'<trkpt lat="1.0" lon="2.0"><time>2017-06-10T05:00:{i:02d}Z</time></trkpt>'
            for i in range(5))
        seg2 = "".join(
            f'<trkpt lat="1.0" lon="2.0"><time>2017-06-10T05:01:{i:02d}Z</time></trkpt>'
            for i in range(5))
        text = ('<?xml version="1.0"?>'
                '<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
                f'<trk><trkseg>{seg}</trkseg><trkseg>{seg2}</trkseg></trk></gpx>')
        assert len(parse_gpx(text, "t").time_us) == 10

    def test_all_points_untimed_is_an_error(self):
        text = gpx_doc([(-37.85, 145.0, None), (-37.84, 145.0, None)])
        with pytest.raises(NoTimedPoints):
            parse_gpx(text, "t")

    def test_untimed_points_skipped_with_warning(self):
        warnings = []
        text = gpx_doc([(-37.85, 145.0, ts(5)), (-37.84, 145.0, None)])
        trace = parse_gpx(text, "t", on_warning=warnings.append)
        assert list(trace.lat_deg) == [-37.85]
        assert len(warnings) == 1

    def test_points_sorted_by_time(self):
        text = gpx_doc([(0.0, 0.0, ts(5, 0, 2)), (0.0, 0.1, ts(5, 0, 0)),
                        (0.0, 0.2, ts(5, 0, 1))])
        trace = parse_gpx(text, "t")
        assert list(trace.time_us) == [utc_us(ts(5, 0, i)) for i in range(3)]
        assert list(trace.lon_deg) == [0.1, 0.2, 0.0]

    def test_gpx_10_namespace(self):
        text = ('<?xml version="1.0"?>'
                '<gpx version="1.0" xmlns="http://www.topografix.com/GPX/1/0">'
                '<trk><trkseg><trkpt lat="1.0" lon="2.0">'
                '<time>2017-06-10T05:00:00Z</time></trkpt></trkseg></trk></gpx>')
        assert list(parse_gpx(text, "t").lon_deg) == [2.0]

    def test_gpx_10_without_namespace(self):
        text = gpx_doc([(1.0, 2.0, ts(5)), (1.0, 2.1, None), (1.0, 2.2, ts(6))],
                       version="1.0", namespace=False)
        warnings = []
        trace = parse_gpx(text, "t", on_warning=warnings.append)
        assert list(trace.lon_deg) == [2.0, 2.2]
        assert warnings == ["track point without <time> skipped"]

    def test_garmin_extensions_in_other_namespace(self):
        ext = ('<extensions><gpxtpx:TrackPointExtension><gpxtpx:hr>{}</gpxtpx:hr>'
               '</gpxtpx:TrackPointExtension></extensions>')
        rows = "".join(
            f'<trkpt lat="1.0" lon="2.{i}"><ele>31.{i}</ele>'
            f'<time>2017-06-10T05:00:0{i}Z</time>{ext.format(140 + i)}</trkpt>'
            for i in range(4))
        text = ('<?xml version="1.0" encoding="UTF-8"?>'
                '<gpx version="1.1" creator="Garmin Connect"'
                ' xmlns="http://www.topografix.com/GPX/1/1"'
                ' xmlns:gpxtpx="http://www.garmin.com/xmlschemas/TrackPointExtension/v1">'
                '<metadata><time>2017-06-10T04:00:00Z</time></metadata>'
                f'<trk><name>Run</name><trkseg>{rows}</trkseg></trk></gpx>')
        warnings = []
        trace = parse_gpx(text.encode("utf-8"), "t", on_warning=warnings.append)
        assert list(trace.lon_deg) == [2.0, 2.1, 2.2, 2.3]
        assert trace.time_us[-1] == utc_us(ts(5, 0, 3))
        assert warnings == []

    def test_malformed_xml(self):
        with pytest.raises(MalformedXml):
            parse_gpx("<gpx><trk>", "t")

    def test_waypoints_and_routes_ignored(self):
        text = ('<?xml version="1.0"?>'
                '<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
                '<wpt lat="9.0" lon="9.0"><time>2017-06-10T04:00:00Z</time></wpt>'
                '<rte><rtept lat="8.0" lon="8.0">'
                '<time>2017-06-10T04:00:00Z</time></rtept></rte>'
                '<trk><trkseg><trkpt lat="1.0" lon="2.0">'
                '<time>2017-06-10T05:00:00Z</time></trkpt></trkseg></trk></gpx>')
        trace = parse_gpx(text, "t")
        assert list(trace.lat_deg) == [1.0]

    def test_subsecond_times_not_truncated(self):
        text = gpx_doc([(0.0, 0.0, ts(5, 0, 0, 123000))])
        assert list(parse_gpx(text, "t").time_us) == [utc_us(ts(5, 0, 0, 123000))]

    def test_naive_gpx_time_taken_as_utc(self):
        text = ('<?xml version="1.0"?>'
                '<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
                '<trk><trkseg><trkpt lat="1.0" lon="2.0">'
                '<time>2017-06-10T05:00:00</time></trkpt></trkseg></trk></gpx>')
        assert list(parse_gpx(text, "t").time_us) == [utc_us(ts(5))]

    def test_offset_gpx_time_converted_to_utc(self):
        text = gpx_doc([(1.0, 2.0, ts(5))]).replace(
            "2017-06-10T05:00:00Z", "2017-06-10T15:00:00+10:00")
        assert list(parse_gpx(text, "t").time_us) == [utc_us(ts(5))]

    def test_time_out_of_range_in_utc_skipped_with_warning(self):
        warnings = []
        text = gpx_doc([(-37.84, 145.0, ts(5, 1))]).replace(
            "</trkseg>", '<trkpt lat="-37.85" lon="145.0">'
            "<time>9999-12-31T23:59:59-01:00</time></trkpt></trkseg>")
        trace = parse_gpx(text, "t", on_warning=warnings.append)
        assert list(trace.time_us) == [utc_us(ts(5, 1))]
        assert warnings == ["track point skipped: time_utc 9999-12-31T23:59:59-01:00 "
                            "is out of range in UTC"]

    def test_bad_latitude_skipped_with_warning(self):
        warnings = []
        text = gpx_doc([(95.0, 145.0, ts(5)), (-37.84, 145.0, ts(5, 1))])
        trace = parse_gpx(text, "t", on_warning=warnings.append)
        assert list(trace.lat_deg) == [-37.84]
        assert warnings == ["track point skipped: latitude 95.0 outside [-90, 90]"]

    @pytest.mark.parametrize("lon", [math.inf, -math.inf, math.nan])
    def test_non_finite_longitude_skipped_with_warning(self, lon):
        warnings = []
        text = gpx_doc([(-37.85, lon, ts(5)), (-37.84, 145.0, ts(5, 1))])
        trace = parse_gpx(text, "t", on_warning=warnings.append)
        assert list(trace.lon_deg) == [145.0]
        assert warnings == [f"track point skipped: longitude {lon} is not finite"]

    def test_longitude_normalized(self):
        # in range, bit for bit: normalize_longitude gives -73.98000000000002
        lons = [190.0, -180.0, 540.0, -73.98, -0.1, 180.0]
        text = gpx_doc([(10.0, lon, ts(5, i)) for i, lon in enumerate(lons)])
        assert (parse_gpx(text, "t").lon_deg.tobytes()
                == array("d", [-170.0, 180.0, 180.0, -73.98, -0.1, 180.0]).tobytes())

    @given(lon=st.floats(allow_nan=False, allow_infinity=False))
    @settings(deadline=None)
    def test_longitude_kept_in_range_else_normalized(self, lon):
        # max_examples comes from the active profile (tests/conftest.py)
        expected = lon if -180.0 < lon <= 180.0 else normalize_longitude(lon)
        trace = parse_gpx(gpx_doc([(10.0, lon, ts(5))]), "t")
        assert trace.lon_deg.tobytes() == array("d", [expected]).tobytes()

    @pytest.mark.parametrize("lat, lon", [
        ("-3_7.85", "145.0"), ("-37.85", "1_45"), ("-37.85", "\uff11\uff14\uff15")])
    def test_lat_lon_that_is_no_xml_number_skipped(self, lat, lon):
        warnings = []
        text = (gpx_doc([(-37.84, 145.0, ts(5, 1))])
                .replace('lat="-37.84" lon="145.0"', f'lat="{lat}" lon="{lon}"'))
        with pytest.raises(NoTimedPoints):
            parse_gpx(text, "t", on_warning=warnings.append)
        assert warnings == ["track point with non-numeric lat/lon skipped"]


def _write_two_field_inputs(base):
    interval = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
    frames_path = base / "frames.geojson"
    frames_path.write_text(frames_doc(
        [frame_feature("f0", ORIGIN, TARGET, {"events": [interval]})]),
        encoding="utf-8")
    traces = base / "traces"
    traces.mkdir()
    return frames_path, traces


class TestLoadInputs:
    def test_extension_filter(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        (traces / "b.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        (traces / "notes.txt").write_text("not a trace")
        frames, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["a", "b"]
        assert [len(events) for _, events in frames] == [1]
        assert report.warnings == []

    def test_corrupt_file_isolated(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        (traces / "broken.gpx").write_text("<gpx><trk>")
        (traces / "c.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        _, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["a", "c"]
        assert len(report.warnings) == 1
        assert "broken.gpx" in report.warnings[0][0]

    def test_empty_directory(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        with pytest.raises(NoTraces):
            load_inputs(frames_path, traces)

    def test_missing_directory(self, tmp_path):
        frames_path, _ = _write_two_field_inputs(tmp_path)
        with pytest.raises(NoTraces):
            load_inputs(frames_path, tmp_path / "nowhere")

    def test_unreadable_frames_file(self, tmp_path):
        with pytest.raises(FramesFileUnreadable):
            load_inputs(tmp_path / "missing.geojson", tmp_path)

    def test_gpx_encoding_declaration_honoured(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        text = gpx_doc([(0.0, 0.0, ts(5))]).replace(
            'encoding="UTF-8"', 'encoding="ISO-8859-1"').replace(
            "<trk>", "<trk><name>Zürich</name>")
        (traces / "latin1.gpx").write_bytes(text.encode("latin-1"))
        _, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["latin1"]
        assert report.warnings == []

    @pytest.mark.parametrize("codec", [
        "Shift_JIS", "GB2312", "Big5", "EUC-JP", "UTF-16", "no-such-codec"])
    def test_ascii_gpx_under_unsupported_declaration_loads(self, tmp_path,
                                                           codec):
        # expat cannot decode these declarations from bytes; the ASCII body
        # still loads, as it does when the file is read as UTF-8 text.
        frames_path, traces = _write_two_field_inputs(tmp_path)
        text = gpx_doc([(0.0, 0.0, ts(5))]).replace(
            'encoding="UTF-8"', f'encoding="{codec}"')
        (traces / "a.gpx").write_bytes(text.encode("ascii"))
        _, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["a"]
        assert report.warnings == []

    @pytest.mark.parametrize("raw", [
        b"<gpx><trk><name>Z\xfcrich</name></trk></gpx>",
        b'<?xml version="1.0" encoding="no-such-codec"?><gpx/>',
        b'<?xml version="1.0" encoding="Shift_JIS"?>'
        b"<gpx><trk><name>\x93\x8c\x8b\x9e</name></trk></gpx>",
        b'<?xml version="1.0" encoding="ISO-8859-1"?><gpx><trk>',
    ], ids=["invalid-utf8", "unknown-encoding", "multibyte-non-utf8",
            "latin1-malformed"])
    def test_undecodable_gpx_isolated(self, tmp_path, raw):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        (traces / "bad.gpx").write_bytes(raw)
        _, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["a"]
        assert len(report.warnings) == 1
        assert "bad.gpx" in report.warnings[0][0]

    def test_file_without_usable_points_says_so(self, tmp_path):
        # the only point is timed; it is dropped for its coordinate
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        (traces / "bad.gpx").write_text(gpx_doc([(0.0, math.inf, ts(5))]))
        _, traces_loaded, report = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["a"]
        assert [message for _, message in report.warnings] == [
            "track point skipped: longitude inf is not finite",
            "trace skipped: no usable track points in GPX input"]

    def test_recursion_flag(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        nested = traces / "sub"
        nested.mkdir()
        (nested / "b.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        _, flat, _ = load_inputs(frames_path, traces)
        assert [t.id for t in flat] == ["a"]
        _, deep, _ = load_inputs(frames_path, traces, recurse=True)
        assert [t.id for t in deep] == ["a", "b"]

    def test_duplicate_stems_suffixed(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        nested = traces / "sub"
        nested.mkdir()
        (nested / "a.gpx").write_text(gpx_doc([(0.0, 0.0, ts(6))]))
        _, traces_loaded, _ = load_inputs(frames_path, traces, recurse=True)
        assert [t.id for t in traces_loaded] == ["a", "a_2"]

    def test_uppercase_extension_accepted(self, tmp_path):
        frames_path, traces = _write_two_field_inputs(tmp_path)
        (traces / "A.GPX").write_text(gpx_doc([(0.0, 0.0, ts(5))]))
        _, traces_loaded, _ = load_inputs(frames_path, traces)
        assert [t.id for t in traces_loaded] == ["A"]
