"""Pipeline core: clipping, projection, and the permutation loop."""

import math
import struct
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import line_walk, ts
from framelocal import engine
from framelocal.engine import clip_to_event, project_series, run, seconds_since
from framelocal.errors import OutOfDomain
from framelocal.geodesy import WGS84, hom_forward_many, hom_setup
from framelocal.ingest import build_frame_line
from framelocal.model import EPOCH, EventInterval, Trace, utc_us

ORIGIN = (-37.85, 145.0)


def _frame(frame_id="f0", azimuth=40.0, length=100.0, origin=ORIGIN):
    target = oracles.vincenty_direct(origin[0], origin[1], azimuth, length)
    return build_frame_line(frame_id, origin[0], origin[1], *target)


def _trace(points, trace_id="t0"):
    """A Trace of (lat, lon, datetime) fixes."""
    lats, lons, times = zip(*points)
    return Trace(trace_id, lats, lons, list(map(utc_us, times)))


def _interval(begin, end, label="e0"):
    return EventInterval(begin_utc=begin, end_utc=end, label=label)


def _projected(params, trace):
    return hom_forward_many(params, trace.lat_deg, trace.lon_deg)


def _rows(params, trace, event):
    """The rows project_series takes for every fix of the trace: its (x, y)
    projection, or that projection's OutOfDomain, and its t since the event
    began."""
    t_s = seconds_since(utc_us(event.begin_utc), trace.time_us)
    return [xy + (t,) if isinstance(xy, tuple) else xy
            for xy, t in zip(_projected(params, trace), t_s)]


def _when(trace, index):
    """The time of the trace's fix at index, as a datetime."""
    return EPOCH + timedelta(microseconds=trace.time_us[index])


class TestClipToEvent:
    def test_closed_bounds(self):
        trace = _trace([(0.0, 0.0, ts(4, 59)), (0.0, 0.0, ts(5, 0)),
                        (0.0, 0.0, ts(5, 10)), (0.0, 0.0, ts(5, 20)),
                        (0.0, 0.0, ts(5, 21))])
        clipped = clip_to_event(trace, _interval(ts(5, 0), ts(5, 20)))
        assert [_when(trace, i) for i in clipped] == [
            ts(5, 0), ts(5, 10), ts(5, 20)]

    def test_interval_between_samples(self):
        trace = _trace([(0.0, 0.0, ts(5, 0)), (0.0, 0.0, ts(5, 10))])
        clipped = clip_to_event(trace, _interval(ts(5, 2), ts(5, 8)))
        assert list(clipped) == []

    def test_degenerate_interval_on_sample(self):
        trace = _trace([(0.0, 0.0, ts(5, 0)), (0.0, 0.0, ts(5, 10))])
        clipped = clip_to_event(trace, _interval(ts(5, 10), ts(5, 10)))
        assert [_when(trace, i) for i in clipped] == [ts(5, 10)]

    def test_order_preserved(self):
        trace = _trace([(0.0, float(i) / 1000.0, ts(5, 0, i)) for i in range(10)])
        clipped = clip_to_event(trace, _interval(ts(5, 0, 2), ts(5, 0, 7)))
        assert [_when(trace, i).second for i in clipped] == [2, 3, 4, 5, 6, 7]

    def test_duplicate_timestamps_kept_in_sequence(self):
        trace = _trace([(0.0, 0.000, ts(5, 0, 0)), (0.0, 0.001, ts(5, 0, 1)),
                        (0.0, 0.002, ts(5, 0, 1)), (0.0, 0.003, ts(5, 0, 2))])
        clipped = clip_to_event(trace, _interval(ts(5, 0, 1), ts(5, 0, 1)))
        assert [trace.lon_deg[i] for i in clipped] == [0.001, 0.002]


class TestProjectSeries:
    def test_origin_point_at_event_start(self):
        frame = _frame()
        params = hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg)
        event = _interval(ts(5, 0), ts(5, 20))
        trace = _trace([(*ORIGIN, ts(5, 0))])
        series = project_series(trace, range(1), _rows(params, trace, event),
                                frame, event)
        assert series.points[0] == (0.0, 0.0, 0.0)

    def test_target_point(self):
        frame = _frame(length=100.0)
        params = hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg)
        event = _interval(ts(5, 0), ts(5, 20))
        trace = _trace([(frame.target_lat_deg, frame.target_lon_deg,
                         ts(5, 0) + timedelta(seconds=30))])
        series = project_series(trace, range(1), _rows(params, trace, event),
                                frame, event)
        x, y, t = series.points[0]
        assert abs(x) <= 1e-3
        assert y == pytest.approx(frame.length_m, abs=1e-3)
        assert t == 30.0

    def test_centerline_walk(self):
        frame = _frame(length=60.0)
        params = hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg)
        event = _interval(ts(5, 0), ts(5, 1))
        walk = line_walk(ORIGIN, 40.0, ts(5, 0), 61)
        trace = _trace(walk)
        series = project_series(trace, range(len(walk)),
                                _rows(params, trace, event), frame, event)
        ys = [y for _, y, _ in series.points]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        assert ys[0] == 0.0
        assert ys[-1] == pytest.approx(60.0, abs=1e-3)
        assert [t for _, _, t in series.points] == [float(i) for i in range(61)]

    def test_out_of_domain_carries_point_context(self):
        frame = _frame()
        params = hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg)
        event = _interval(ts(5, 0), ts(5, 20))
        trace = _trace([(37.85, -35.0, ts(5, 0))])  # other side of the planet
        with pytest.raises(OutOfDomain, match="2017-06-10T05:00:00"):
            project_series(trace, range(1), _rows(params, trace, event), frame, event)


class TestRun:
    def test_full_cartesian_product(self):
        frame = _frame()
        events = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 5), ts(5, 15), "e1")]
        traces = [
            _trace([(*ORIGIN, ts(5, 7)), (*ORIGIN, ts(5, 8))], "a"),
            _trace([(*ORIGIN, ts(5, 6))], "b"),
        ]
        result = run(traces, [(frame, events)])
        assert len(result.series) == 4
        assert result.skipped_empty == 0
        assert [s.key for s in result.series] == [
            ("a", "f0", "e0"), ("a", "f0", "e1"),
            ("b", "f0", "e0"), ("b", "f0", "e1")]

    def test_trace_entirely_before_event(self):
        frame = _frame()
        traces = [_trace([(*ORIGIN, ts(4, 0)), (*ORIGIN, ts(4, 30))])]
        result = run(traces, [(frame, [_interval(ts(5, 0), ts(5, 20))])])
        assert result.series == ()
        assert result.skipped_empty == 1

    def test_two_games_two_frames(self):
        # one trace spanning two games on two fields; each event clips out
        # its own game segment
        field_a = _frame("fieldA", azimuth=40.0)
        origin_b = oracles.vincenty_direct(*ORIGIN, 90.0, 1000.0)
        field_b = _frame("fieldB", azimuth=220.0, origin=origin_b)
        walk = (line_walk(ORIGIN, 40.0, ts(5, 0), 100)
                + line_walk(origin_b, 220.0, ts(6, 0), 100))
        traces = [_trace(walk, "player")]
        frames = [
            (field_a, [_interval(ts(5, 0), ts(5, 1, 39), "game")]),
            (field_b, [_interval(ts(6, 0), ts(6, 1, 39), "game")]),
        ]
        result = run(traces, frames)
        assert len(result.series) == 2
        assert result.skipped_empty == 0
        assert {s.frame_id for s in result.series} == {"fieldA", "fieldB"}
        for series in result.series:
            assert len(series.points) == 100

    def test_error_carries_permutation_context(self):
        frame = _frame("farframe", origin=(37.85, -35.0))
        traces = [_trace([(*ORIGIN, ts(5, 5))], "nearby")]
        with pytest.raises(OutOfDomain, match=r"nearby.*farframe.*e0"):
            run(traces, [(frame, [_interval(ts(5, 0), ts(5, 10))])])

    def test_out_of_domain_points_dropped_with_one_warning(self):
        frame = _frame()
        traces = [_trace([(*ORIGIN, ts(5, 1)), (0.0, 0.0, ts(5, 2)),
                          (37.85, -35.0, ts(5, 3)), (*ORIGIN, ts(5, 4))], "glitchy")]
        result = run(traces, [(frame, [_interval(ts(5, 0), ts(5, 10))])])
        assert [t for _, _, t in result.series[0].points] == [60.0, 240.0]
        assert result.warnings == ((
            "trace 'glitchy', frame 'f0', event 'e0'",
            "2 of 4 in-window fixes skipped as out of the projection's domain; "
            "first: point (0.0, 0.0) at 2017-06-10T05:02:00+00:00: point lies "
            "in the hemisphere opposite the origin"),)

    def test_unchecked_fixes_of_a_trace_built_directly_fail_closed(self):
        # a Trace checks no values, ingest does; the kernel drops a latitude
        # or longitude that ingest would have rejected, as out of its domain
        frame = _frame()
        traces = [_trace([(*ORIGIN, ts(5, 1)), (95.0, 145.0, ts(5, 2)),
                          (ORIGIN[0], math.inf, ts(5, 3)), (*ORIGIN, ts(5, 4))],
                         "direct")]
        result = run(traces, [(frame, [_interval(ts(5, 0), ts(5, 10))])])
        assert [t for _, _, t in result.series[0].points] == [60.0, 240.0]
        assert result.warnings == ((
            "trace 'direct', frame 'f0', event 'e0'",
            "2 of 4 in-window fixes skipped as out of the projection's domain; "
            "first: point (95.0, 145.0) at 2017-06-10T05:02:00+00:00: latitude "
            "95.0 is poleward of ±89.9"),)

    def test_frame_independence(self):
        frame_a = _frame("a", azimuth=10.0)
        frame_b = _frame("b", azimuth=75.0)
        walk = line_walk(ORIGIN, 10.0, ts(5, 0), 30)
        traces = [_trace(walk, "t0")]
        events = [_interval(ts(5, 0), ts(5, 0, 29))]
        only_a = run(traces, [(frame_a, events)])
        both = run(traces, [(frame_a, events), (frame_b, events)])
        a_series_before = [s for s in only_a.series if s.frame_id == "a"]
        a_series_after = [s for s in both.series if s.frame_id == "a"]
        assert a_series_before == a_series_after


def _counting_seams(monkeypatch):
    """Wrap the engine's two kernel halves, engine.hom_fix_terms and
    engine.hom_forward_terms. Return two lists: the latitudes the fix terms
    saw, and the latitudes of the entries the per-frame part saw, each
    traced back to its fix by the entry's identity."""
    fix_lats, frame_lats = [], []
    lat_of = {}  # id(entry) -> (entry, latitude); holding the entry keeps its id unique
    fix_terms, forward_terms = engine.hom_fix_terms, engine.hom_forward_terms

    def counted_fix_terms(ellipsoid, lats, lons):
        terms = fix_terms(ellipsoid, lats, lons)
        fix_lats.extend(lats)
        lat_of.update((id(entry), (entry, lat)) for entry, lat in zip(terms, lats))
        return terms

    def counted_forward_terms(params, terms):
        frame_lats.extend(lat_of[id(entry)][1] for entry in terms)
        return forward_terms(params, terms)

    monkeypatch.setattr(engine, "hom_fix_terms", counted_fix_terms)
    monkeypatch.setattr(engine, "hom_forward_terms", counted_forward_terms)
    return fix_lats, frame_lats


class TestUnionProjection:
    def test_each_fix_projected_once_per_frame(self, monkeypatch):
        fix_lats, frame_lats = _counting_seams(monkeypatch)
        events = [_interval(ts(5, 0), ts(5, 20), "e0"),
                  _interval(ts(5, 20), ts(5, 40), "e1"),
                  _interval(ts(5, 40), ts(6, 0), "e2"),
                  _interval(ts(5, 0), ts(6, 0), "session")]
        walk = line_walk(ORIGIN, 40.0, ts(4, 50), 81, step_s=60)  # 04:50 .. 06:10
        frames = [(_frame("f0"), events), (_frame("f1", azimuth=250.0), events)]
        result = run([_trace(walk)], frames)
        union = sum(1 for _, _, when in walk if ts(5, 0) <= when <= ts(6, 0))
        assert union == 61
        assert len(fix_lats) == union
        assert len(frame_lats) == 2 * union
        assert [len(s.points) for s in result.series] == [21, 21, 21, 61] * 2

    def test_fix_between_disjoint_events_never_projected(self, monkeypatch):
        fix_lats, frame_lats = _counting_seams(monkeypatch)
        events = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 20), ts(5, 30), "e1")]
        gap_lat = -37.8  # a fix that lies only in the gap between the events
        trace = _trace([(*ORIGIN, ts(5, 5)), (gap_lat, 145.0, ts(5, 15)),
                        (*ORIGIN, ts(5, 25))])
        result = run([trace], [(_frame(), events)])
        assert fix_lats == [ORIGIN[0], ORIGIN[0]]
        assert frame_lats == [ORIGIN[0], ORIGIN[0]]
        assert [len(s.points) for s in result.series] == [1, 1]

    def test_domain_drops_are_per_frame(self):
        # one fix lies in the hemisphere opposite frame "a"'s origin but not
        # frame "b"'s; a polar fix is outside both domains. The frames share
        # the trace's fix terms, so each must still judge the fixes itself.
        frame_a = _frame("a")
        frame_b = _frame("b", origin=(-20.0, 100.0))
        events = [_interval(ts(5, 0), ts(5, 10))]
        trace = _trace([(*ORIGIN, ts(5, 1)), (0.0, 50.0, ts(5, 2)),
                        (89.95, 145.0, ts(5, 3)), (*ORIGIN, ts(5, 4))], "glitchy")
        result = run([trace], [(frame_a, events), (frame_b, events)])
        by_frame = {s.frame_id: s for s in result.series}
        assert [t for _, _, t in by_frame["a"].points] == [60.0, 240.0]
        assert [t for _, _, t in by_frame["b"].points] == [60.0, 120.0, 240.0]
        assert result.warnings == (
            ("trace 'glitchy', frame 'a', event 'e0'",
             "2 of 4 in-window fixes skipped as out of the projection's domain; "
             "first: point (0.0, 50.0) at 2017-06-10T05:02:00+00:00: point lies "
             "in the hemisphere opposite the origin"),
            ("trace 'glitchy', frame 'b', event 'e0'",
             "1 of 4 in-window fixes skipped as out of the projection's domain; "
             "first: point (89.95, 145.0) at 2017-06-10T05:03:00+00:00: "
             "latitude 89.95 is poleward of ±89.9"))
        for frame in (frame_a, frame_b):
            alone = run([trace], [(frame, events)])
            assert alone.series == (by_frame[frame.id],)

    def test_out_of_domain_fix_in_two_events_warns_in_each(self):
        events = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 0), ts(5, 20), "session")]
        trace = _trace([(*ORIGIN, ts(5, 1)), (0.0, 0.0, ts(5, 2)),
                        (*ORIGIN, ts(5, 4)), (*ORIGIN, ts(5, 15))], "glitchy")
        result = run([trace], [(_frame(), events)])
        assert [len(s.points) for s in result.series] == [2, 3]
        first = ("first: point (0.0, 0.0) at 2017-06-10T05:02:00+00:00: point "
                 "lies in the hemisphere opposite the origin")
        assert result.warnings == (
            ("trace 'glitchy', frame 'f0', event 'e0'",
             f"1 of 3 in-window fixes skipped as out of the projection's domain; {first}"),
            ("trace 'glitchy', frame 'f0', event 'session'",
             f"1 of 4 in-window fixes skipped as out of the projection's domain; {first}"))


@st.composite
def _scenarios(draw):
    n_traces = draw(st.integers(1, 5))
    n_frames = draw(st.integers(1, 4))
    base = ts(5, 0)
    frames = []
    for i in range(n_frames):
        azimuth = draw(st.floats(0.0, 359.99))
        events = []
        for j in range(draw(st.integers(1, 3))):
            start = draw(st.integers(0, 600))
            length = draw(st.integers(0, 300))
            events.append(_interval(base + timedelta(seconds=start),
                                    base + timedelta(seconds=start + length),
                                    f"e{j}"))
        frames.append((_frame(f"f{i}", azimuth=azimuth), events))
    traces = []
    for i in range(n_traces):
        start = draw(st.integers(0, 600))
        count = draw(st.integers(1, 40))
        step = draw(st.integers(1, 30))
        traces.append(_trace(
            line_walk(ORIGIN, 40.0, base + timedelta(seconds=start), count,
                      step_s=step),
            f"t{i}"))
    return traces, frames


class TestRunProperties:
    @given(_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_combined_run_equals_per_event_runs(self, scenario):
        # the scenarios' events overlap, touch and leave gaps at random
        traces, frames = scenario
        combined = {s.key: s for s in run(traces, frames).series}
        alone = {}
        for frame, events in frames:
            for event in events:
                for series in run(traces, [(frame, [event])]).series:
                    alone[series.key] = series
        assert combined == alone

    @given(_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_kernel_sees_exactly_the_union_of_windows(self, scenario):
        traces, frames = scenario
        with pytest.MonkeyPatch.context() as patch:
            fix_lats, frame_lats = _counting_seams(patch)
            run(traces, frames)
        expected_fix, expected_frame = [], []
        for trace in traces:
            trace_union = set()
            for _, events in frames:
                union = set()
                for event in events:
                    union.update(clip_to_event(trace, event))
                expected_frame.extend(trace.lat_deg[i] for i in union)
                trace_union |= union
            expected_fix.extend(trace.lat_deg[i] for i in trace_union)
        assert Counter(fix_lats) == Counter(expected_fix)
        assert Counter(frame_lats) == Counter(expected_frame)

    @given(_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_permutation_accounting(self, scenario):
        traces, frames = scenario
        result = run(traces, frames)
        total_events = sum(len(events) for _, events in frames)
        assert len(result.series) + result.skipped_empty == len(traces) * total_events

    @given(_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_point_conservation_and_bounds(self, scenario):
        traces, frames = scenario
        result = run(traces, frames)
        by_key = {s.key: s for s in result.series}
        for trace in traces:
            for frame, events in frames:
                for event in events:
                    expected = sum(
                        1 for us in trace.time_us
                        if utc_us(event.begin_utc) <= us <= utc_us(event.end_utc))
                    series = by_key.get((trace.id, frame.id, event.label))
                    if expected == 0:
                        assert series is None
                    else:
                        assert series is not None
                        assert len(series.points) == expected
                        assert all(0.0 <= t <= event.duration_s
                                   for _, _, t in series.points)


def _bits(value):
    return struct.pack("<d", value)


_US_MIN = utc_us(datetime.min.replace(tzinfo=timezone.utc))
_US_MAX = utc_us(datetime.max.replace(tzinfo=timezone.utc))
_instants_us = st.one_of(st.integers(_US_MIN, _US_MAX),
                         st.integers(-86_400 * 10**6, 86_400 * 10**6))


@given(_instants_us, _instants_us)
def test_microsecond_time_arithmetic_equals_total_seconds(a_us, b_us):
    # a Trace holds integer microseconds; the engine's t, from seconds_since,
    # must keep the bits of the timedelta.total_seconds() it replaced, over
    # every datetime
    begin_us, t_us = sorted((a_us, b_us))
    begin = EPOCH + timedelta(microseconds=begin_us)
    when = EPOCH + timedelta(microseconds=t_us)
    assert utc_us(when) == t_us
    expected = (when - begin).total_seconds()
    assert _bits(*seconds_since(begin_us, [t_us])) == _bits(expected)
    trace = _trace([(*ORIGIN, when)])
    assert list(trace.time_us) == [t_us]
    (series,) = run([trace], [(_frame(), [_interval(begin, when)])]).series
    assert _bits(series.points[0][2]) == _bits(expected)


def test_run_rows_are_plain_tuples():
    walk = line_walk(ORIGIN, 40.0, ts(5, 0), 5)
    result = run([_trace(walk)], [(_frame(), [_interval(ts(5, 0), ts(5, 0, 30))])])
    (series,) = result.series
    assert len(series.points) == 5
    for i, row in enumerate(series.points):
        assert type(row) is tuple
        assert len(row) == 3
        x, y, t = row
        assert t == float(i)
        assert math.isfinite(x) and math.isfinite(y)


class TestSharedRows:
    def test_events_with_one_begin_share_rows(self):
        events = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 10), ts(5, 20), "e1"),
                  _interval(ts(5, 0), ts(5, 20), "session")]
        walk = line_walk(ORIGIN, 40.0, ts(5, 0), 21, step_s=60)
        result = run([_trace(walk)], [(_frame(), events)])
        e0, e1, session = result.series
        assert len(e0.points) == 11
        assert all(a is b for a, b in zip(e0.points, session.points))
        # e1 begins at 05:10, so its rows are its own: same x and y, t since 05:10
        assert not any(a is b for a, b in zip(e1.points, session.points[10:]))
        assert [row[:2] for row in e1.points] == [row[:2] for row in session.points[10:]]
        assert [t for _, _, t in e1.points] == [60.0 * i for i in range(11)]

    def test_frames_with_common_begins_share_t(self):
        events = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 10), ts(5, 20), "e1")]
        longer = [_interval(ts(5, 0), ts(5, 10), "e0"),
                  _interval(ts(5, 10), ts(5, 30), "e1")]
        walk = line_walk(ORIGIN, 40.0, ts(5, 0), 31, step_s=60)
        frames = [(_frame("a"), events), (_frame("b", azimuth=250.0), events),
                  (_frame("c", azimuth=120.0), longer)]
        result = run([_trace(walk)], frames)
        by_key = {s.key[1:]: s for s in result.series}
        for label in ("e0", "e1"):
            a, b, c = (by_key[frame, label].points for frame in "abc")
            assert len(a) == 11
            assert all(ra[2] is rb[2] is rc[2] for ra, rb, rc in zip(a, b, c))
            assert [ra[0] for ra in a] != [rb[0] for rb in b]
        assert len(by_key["c", "e1"].points) == 21
