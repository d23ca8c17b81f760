"""Fuzzing the command line with mutated GPX bytes and GeoJSON text: no input
raises out of cli.main, the exit code is 0, 2 or 3, every CSV written
re-parses to the exact bits of the series the engine computes, and exit 3
means that the engine itself failed, e.g. on a permutation with no fix that
projects (never that a far fix among good ones cost the run). Every CSV
name fits in 255 bytes. With --plot, the overlay draws one polyline per
CSV, and exists only on an exit 0 that wrote a CSV. Trace file
names come from any bytes, frame ids from any JSON value, labels from any
text, lone surrogates included, and a frames document may nest to any
depth."""

import io
import json
import os
import struct
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixtures import frame_feature, frames_doc, gpx_doc, iso, ts
from framelocal.cli import main
from framelocal.engine import clip_to_event, run
from framelocal.errors import FrameLocalError, OutOfDomain
from framelocal.geodesy import WGS84, hom_forward, hom_setup
from framelocal.ingest import load_inputs
from framelocal.output import OutputLayout

ORIGIN = (-37.85, 145.0)
TARGET = (-37.84, 145.001)
INTERVAL = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
# a time that parses, but lies past the year 9999 once converted to UTC
LATE = "9999-12-31T23:59:59-01:00"

_WEIRD_NUMBERS = ["", "nan", "inf", "-inf", "1e400", "-0", "abc", " 1.5 ",
                  "90.0000001", "-180", "540"]


def _mostly(usual: st.SearchStrategy, other: st.SearchStrategy) -> st.SearchStrategy:
    """other in about one draw of four, so that most runs get as far as
    writing CSVs; hypothesis favours small integers, so 3 picks other"""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else usual)


def _number_text(near: float) -> st.SearchStrategy[str]:
    return _mostly(st.floats(near - 0.01, near + 0.01).map(repr),
                   st.one_of(st.sampled_from(_WEIRD_NUMBERS),
                             st.floats().map(repr)))


_TIMES = _mostly(
    st.datetimes(min_value=datetime(2017, 6, 10, 5, 0),
                 max_value=datetime(2017, 6, 10, 5, 25),
                 timezones=st.just(timezone.utc)).map(iso),
    st.one_of(st.none(), st.sampled_from([
        "", "2017-06-10T05:01:00", "2017-06-10T15:01:00+10:00",
        "2017-13-10T05:00:00Z", "yesterday", "2017-06-10T05:00:00.5Z", LATE])))

# fixes the projection cannot take from a Melbourne origin: null island, the
# far hemisphere, poleward of its latitude limit
_FAR_POSITIONS = st.sampled_from([("0", "0"), ("37.85", "-35.0"),
                                  ("89.95", "145.0"), ("-90", "145.0")])

_TRKPTS = st.lists(st.tuples(
    _mostly(st.tuples(_number_text(ORIGIN[0]), _number_text(ORIGIN[1])),
            _FAR_POSITIONS),
    _TIMES), min_size=1, max_size=12)

# (offset, replacement): overwrite bytes at offset modulo the length; an
# empty replacement truncates there
_SPLICES = st.lists(st.tuples(st.integers(0, 1 << 16), st.binary(max_size=4)),
                    min_size=1, max_size=2)


def _splice(data: bytes, splices) -> bytes:
    for offset, chunk in splices:
        at = offset % (len(data) + 1)
        data = data[:at] + chunk + (data[at + len(chunk):] if chunk else b"")
    return data


@st.composite
def _gpx_bytes(draw) -> bytes:
    rows = "".join(
        f'<trkpt lat="{lat}" lon="{lon}">'
        + ("" if when is None else f"<time>{when}</time>") + "</trkpt>"
        for (lat, lon), when in draw(_TRKPTS))
    xmlns = draw(st.sampled_from(
        ["", ' xmlns="http://www.topografix.com/GPX/1/0"',
         ' xmlns="http://www.topografix.com/GPX/1/1"']))
    text = (f'<?xml version="1.0" encoding="UTF-8"?><gpx version="1.1"{xmlns}>'
            f"<trk><trkseg>{rows}</trkseg></trk></gpx>")
    return _splice(text.encode("utf-8"), draw(_mostly(st.just([]), _SPLICES)))


# any text, lone surrogates (category Cs) included: such a name has no UTF-8
# form, and a JSON escape or a file name's undecodable byte brings it in
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)

# file name stems as bytes, undecodable ones included; the caller appends
# each file's index, so a run's names stay distinct
_NAME_BYTES = _mostly(st.just(b"t"), st.binary(min_size=1, max_size=4).filter(
    lambda name: b"/" not in name and b"\0" not in name))

# what a frames document nests: the whole document, or one member's value,
# as a JSON array depth deep
_NEST_PLACES = ["document", "id", "events", "property", "coordinates"]
_NEST_DEPTHS = st.one_of(st.integers(1, 1200), st.sampled_from([5_000, 200_000]))

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(), st.text(max_size=4))
_POSITION_VALUES = st.one_of(
    st.floats(-37.86, 145.01), st.sampled_from([float("nan"), float("inf")]),
    _JSON_SCALARS)


@st.composite
def _frames_text(draw) -> bytes:
    # at most one part is broken, so that half of the runs get past it
    broken = draw(st.sampled_from(["", "", "", "", "", "", "positions", "events",
                                   "geometry", "members", "names", "bytes",
                                   "nesting"]))
    nest = draw(st.sampled_from(_NEST_PLACES)) if broken == "nesting" else None
    positions = [[ORIGIN[1], ORIGIN[0]], [TARGET[1], TARGET[0]]]
    if broken == "positions":
        positions = draw(st.lists(st.one_of(
            st.sampled_from(positions), st.lists(_POSITION_VALUES, max_size=3)),
            max_size=3))
    events = [INTERVAL]
    if broken == "events":
        events = draw(st.lists(st.one_of(
            st.sampled_from([INTERVAL, f"{INTERVAL[:20]}/{LATE}"]),
            st.text(max_size=12), _JSON_SCALARS), max_size=3))
    if nest == "events":
        events = [INTERVAL, "NEST"]
    properties = {"events": events}
    if broken == "names":  # an interval under an odd property name, mostly ""
        name = draw(_mostly(st.just(""), _ANY_TEXT))
        properties = draw(st.sampled_from([{name: INTERVAL},
                                           {name: INTERVAL, **properties}]))
    if nest == "property":
        properties["extra"] = "NEST"
    if nest == "coordinates":
        positions = ["NEST", positions[1]]
    # an id that is neither a string nor a number is an exit 2; one of 300
    # characters makes CSV names that are cut to fit in 255 bytes
    feature_id = "NEST" if nest == "id" else draw(
        _mostly(st.sampled_from(["f0", "", None]),
                st.one_of(_ANY_TEXT, _JSON_SCALARS, st.just("f" * 300),
                          st.lists(_JSON_SCALARS, max_size=2))))
    feature = {"type": "Feature", "id": feature_id,
               "geometry": {"type": "Point" if broken == "geometry" else "LineString",
                            "coordinates": positions},
               "properties": properties}
    if broken == "members":  # a non-object member (null is allowed)
        feature[draw(st.sampled_from(["properties", "geometry"]))] = draw(
            st.one_of(st.lists(_JSON_SCALARS, max_size=2), _JSON_SCALARS))
    text = json.dumps({"type": "FeatureCollection", "features": [feature]})
    if nest is not None:
        depth = draw(_NEST_DEPTHS)
        array = "[" * depth + "]" * depth
        text = (array[:depth] + text + array[depth:] if nest == "document"
                else text.replace('"NEST"', array))
    return _splice(text.encode("utf-8"), draw(_SPLICES) if broken == "bytes" else [])


def _projects(params, lat_deg, lon_deg) -> bool:
    try:
        hom_forward(params, lat_deg, lon_deg)
    except OutOfDomain:
        return False
    return True


def _some_permutation_projects_nothing(traces, frame_list) -> bool:
    for frame, events in frame_list:
        params = hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg)
        for trace in traces:
            for event in events:
                clipped = clip_to_event(trace, event)
                if clipped and not any(
                        _projects(params, trace.lat_deg[i], trace.lon_deg[i])
                        for i in clipped):
                    return True
    return False


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@given(gpx=st.lists(st.tuples(_NAME_BYTES, _gpx_bytes()), min_size=1, max_size=2),
       frames=_frames_text(), plot=st.booleans())
@example(gpx=[(b"t", gpx_doc([(*ORIGIN, ts(5, 1)), (*TARGET, ts(5, 2))]).encode())],
         frames=frames_doc([frame_feature("f0", ORIGIN, TARGET,
                                          {"events": [INTERVAL]})]).encode(),
         plot=True)
@settings(deadline=None)
def test_cli_survives_mutated_input(tmp_path_factory, gpx, frames, plot):
    base = tmp_path_factory.mktemp("fuzz")
    frames_path = base / "frames.geojson"
    frames_path.write_bytes(frames)
    traces_dir = base / "traces"
    traces_dir.mkdir()
    for i, (name, data) in enumerate(gpx):
        (traces_dir / os.fsdecode(name + b"%d.gpx" % i)).write_bytes(data)
    out_dir = base / "out"
    svg = base / "overlay.svg"
    args = ["--frames", str(frames_path), "--traces", str(traces_dir),
            "--out", str(out_dir)] + (["--plot", str(svg)] if plot else [])

    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(args)

    assert code in (0, 2, 3)
    if code != 0:
        assert not svg.exists()
    if code == 2:
        return
    frame_list, traces, report = load_inputs(frames_path, traces_dir)
    if code == 3:
        try:
            run(traces, frame_list)
        except FrameLocalError as failure:
            if isinstance(failure, OutOfDomain):
                assert _some_permutation_projects_nothing(traces, frame_list)
            return
        raise AssertionError("exit 3, though the engine ran")
    result = run(traces, frame_list)
    layout = OutputLayout(out_dir=out_dir)
    expected = {layout.path_for(series): series for series in result.series}
    assert set(out_dir.iterdir()) == set(expected)
    assert all(len(os.fsencode(path.name)) <= 255 for path in expected)
    unplotted = plot and not expected
    assert (f"framelocal: warning: no series to plot; skipped {svg}\n"
            in err.getvalue()) == unplotted
    warnings = len(report.warnings) + len(result.warnings) + unplotted
    assert out.getvalue() == (f"{len(expected)} series written, {result.skipped_empty} "
                              f"permutations skipped (empty), {warnings} warnings\n")
    if plot and expected:
        assert svg.read_text(encoding="utf-8").count("<polyline ") == len(expected)
    else:
        assert not svg.exists()
    for path, series in expected.items():
        header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
        assert header == "x,y,t"
        assert [[_bits(float(cell)) for cell in row.split(",")] for row in rows] == [
            [_bits(x), _bits(y), _bits(t)] for x, y, t in series.points]
