"""CSV serialization and SVG overlay rendering."""

import copy
import errno
import os
import stat
import struct
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from datetime import timedelta
from operator import attrgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from fixtures import ts
from framelocal import output
from framelocal.engine import run
from framelocal.errors import NoSeries, OutOfDomain
from framelocal.ingest import build_frame_line
from framelocal.model import EPOCH, EventInterval, EventSeries, Trace, utc_us
from framelocal.output import OutputLayout, csv_texts, render_overlay_svg, write_csv

ORIGIN = (-37.85, 145.0)
# a fix the projection cannot take from ORIGIN: the far hemisphere
FAR = (37.85, -35.0)
BEGIN_US = utc_us(ts(5))


def _series(points, trace_id="t", frame_id="f0", event_label="e0"):
    return EventSeries(trace_id=trace_id, frame_id=frame_id,
                       event_label=event_label,
                       points=tuple(map(tuple, points)))


class TestWriteCsv:
    def test_origin_point_exact_body(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(0.0, 0.0, 0.0)]), layout)
        assert path.read_bytes() == b"x,y,t\n0,0,0\n"

    def test_lf_line_endings(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(1.5, -2.25, 0.0), (3.0, 4.0, 1.0)]), layout)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").endswith("4,1\n")

    def test_sanitized_name(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(0.0, 0.0, 0.0)], trace_id="run 1!"), layout)
        assert path.name == "run_1___f0__e0.csv"

    def test_empty_name_part_written_as_underscore(self, tmp_path):
        # an EventSeries built by hand may have an empty id
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(0.0, 0.0, 0.0)], trace_id=""), layout)
        assert path.name == "___f0__e0.csv"

    def test_layout_creates_out_dir(self, tmp_path):
        out_dir = tmp_path / "deep" / "out"
        layout = OutputLayout(out_dir=out_dir)
        assert out_dir.is_dir()
        path = write_csv(_series([(0.0, 0.0, 0.0)]), layout)
        assert path.parent == out_dir

    def test_collision_suffix(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        first = write_csv(_series([(0.0, 0.0, 0.0)], trace_id="a b"), layout)
        second = write_csv(_series([(1.0, 1.0, 1.0)], trace_id="a?b"), layout)
        assert first.name == "a_b__f0__e0.csv"
        assert second.name == "a_b__f0__e0_2.csv"
        assert first.exists() and second.exists()

    def test_names_compared_case_folded(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        names = [layout.path_for(_series([(0.0, 0.0, 0.0)], trace_id=trace_id,
                                         event_label=label)).name
                 for trace_id, label in (("Run", "e0"), ("run", "e0"),
                                         ("RUN", "e0"), ("RUN", "E0_2"))]
        assert names == ["Run__f0__e0.csv", "run__f0__e0_2.csv",
                         "RUN__f0__e0_3.csv", "RUN__f0__E0_2_2.csv"]

    def test_file_that_fails_to_open_is_left(self, tmp_path, monkeypatch):
        layout = OutputLayout(out_dir=tmp_path)
        kept = tmp_path / "t__f0__e0.csv"
        kept.write_text("x,y,t\n1,2,3\n")

        def open_refused(file, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(file))

        monkeypatch.setattr(output, "open", open_refused, raising=False)
        with pytest.raises(PermissionError):
            write_csv(_series([(0.0, 0.0, 0.0)]), layout)
        assert kept.read_text() == "x,y,t\n1,2,3\n"

    def test_walk_rows_in_order(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(0.0, float(i), float(i)) for i in range(5)]),
                         layout)
        rows = path.read_text().splitlines()
        assert rows[0] == "x,y,t"
        assert rows[1] == "0,0,0"
        assert rows[-1] == "0,4,4"

    @given(st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(min_value=0.0, max_value=1e12)), min_size=1, max_size=20))
    @example([(-0.0, 5e-324, 0.0)])
    @example([(1e16, -1e16, 0.0), (-5e-324, -0.0, 1.0)])
    @settings(max_examples=80, deadline=None)
    def test_round_trip_bit_exact(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("csv")
        values.sort(key=lambda v: v[2])
        layout = OutputLayout(out_dir=tmp)
        path = write_csv(_series(values), layout)
        rows = path.read_text().splitlines()[1:]
        # compare bit patterns: == would accept 0 for -0.0
        parsed = [[struct.pack("<d", float(cell)) for cell in row.split(",")]
                  for row in rows]
        assert parsed == [[struct.pack("<d", v) for v in row] for row in values]

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        path = write_csv(_series([(-0.0, 0.0, 0.0)]), layout)
        assert path.read_bytes() == b"x,y,t\n-0,0,0\n"


def _oracle_csv(points) -> bytes:
    """The CSV bytes of rows, written number by number: repr, less the ".0"
    an integral value ends in."""
    def number(value):
        text = repr(value)
        return text[:-2] if text.endswith(".0") else text
    return ("x,y,t\n" + "".join(f"{number(x)},{number(y)},{number(t)}\n"
                                for x, y, t in points)).encode()


def _frame(frame_id, azimuth_deg, length_m=100.0):
    target = oracles.vincenty_direct(ORIGIN[0], ORIGIN[1], azimuth_deg, length_m)
    return build_frame_line(frame_id, ORIGIN[0], ORIGIN[1], *target)


def _event(begin_us, end_us, label):
    return EventInterval(begin_utc=EPOCH + timedelta(microseconds=begin_us),
                         end_utc=EPOCH + timedelta(microseconds=end_us), label=label)


def _line_trace(fixes):
    """A trace of fixes one second apart, walking away from ORIGIN."""
    steps = [i * 1e-7 for i in range(fixes)]
    return Trace("t", [ORIGIN[0] + d for d in steps], [ORIGIN[1] + d for d in steps],
                 [BEGIN_US + i * 1_000_000 for i in range(fixes)])


@st.composite
def _traces_and_frames(draw):
    """Two traces of one id, with the same fix times but drawn positions,
    and frames whose events overlap and meet end to begin at fix times, so
    a boundary fix lands in three series of a frame, and each series of one
    trace has one of the other of equal key and window.
    Fixes come 50 µs (t in exponent form) or whole seconds (integral t)
    apart; one may sit at ORIGIN, which a reversed (azimuth 180) frame
    projects to (-0.0, -0.0), and some lie out of the projection's domain.
    A frame may take an earlier frame's id, so that their series share keys
    and, in run's key order, interleave by label."""
    gaps = draw(st.lists(st.sampled_from([50, 1_000_000, 2_000_000]),
                         min_size=2, max_size=24))
    times = [BEGIN_US]
    for gap in gaps:
        times.append(times[-1] + gap)
    near = st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)).map(
        lambda d: (ORIGIN[0] + d[0], ORIGIN[1] + d[1]))
    traces = []
    for _ in range(2):
        positions = draw(st.lists(
            st.integers(0, 7).flatmap(lambda i: (st.just(FAR) if i == 7 else
                                                 st.just(ORIGIN) if i == 6 else near)),
            min_size=len(times), max_size=len(times)))
        traces.append(Trace("t", [lat for lat, _ in positions],
                            [lon for _, lon in positions], times))
    frames = []
    for number, azimuth in enumerate(draw(st.lists(
            st.sampled_from([0.0, 40.0, 180.0, 270.0]), min_size=1, max_size=3))):
        # bounds are fix indices: [a, b] and [b, c] meet at fix b, and a
        # session [a, c] covers both
        a, b, c = sorted(draw(st.lists(st.integers(0, len(times) - 1),
                                       min_size=3, max_size=3)))
        spans = [(a, b), (b, c), (a, c)] + draw(st.lists(
            st.tuples(st.integers(0, len(times) - 1), st.integers(0, len(times) - 1))
            .map(sorted), max_size=2))
        events = [_event(times[lo], times[hi], f"e{k}") for k, (lo, hi) in enumerate(spans)]
        frame_id = draw(st.sampled_from([f"f{number}"] + [f.id for f, _ in frames]))
        frames.append((_frame(frame_id, azimuth), events))
    return traces, frames


@given(_traces_and_frames(), st.data())
@settings(deadline=None)
def test_shared_formatter_writes_each_series_as_alone(tmp_path_factory, inputs, data):
    traces, frames = inputs
    try:
        # one run call per trace, as the CLI makes them
        every = [s for trace in traces for s in run([trace], frames).series]
    except OutOfDomain:  # a window of far fixes only
        assume(False)
    alone = OutputLayout(out_dir=tmp_path_factory.mktemp("alone"))
    written_alone = {id(s): write_csv(s, alone).read_bytes() for s in every}
    assert all(written_alone[id(s)] == _oracle_csv(s.points) for s in every)
    # each run's key order in turn; both runs' series merged by key, so
    # that series of equal keys and windows from the two runs meet; and a
    # drawn order, which splits a frame's series into several groups and
    # puts series of other frames and of the other run between them
    for order in (every, sorted(every, key=attrgetter("key")),
                  data.draw(st.permutations(every))):
        shared = OutputLayout(out_dir=tmp_path_factory.mktemp("shared"))
        yielded = []
        for series, text in csv_texts(order):
            yielded.append(series)
            assert write_csv(series, shared, text).read_bytes() == written_alone[id(series)]
        assert list(map(id, yielded)) == list(map(id, order))


class TestCsvFormatter:
    """csv_texts, the CSV formatter that shares text between series."""

    def test_formats_each_fix_xy_once_per_frame(self, tmp_path, monkeypatch):
        # in two frames, a session over fixes 1-8 and back-to-back events
        # that meet at fix 5, as on a pitch: fix 5 is a row of three series
        # of a frame, fixes 1-4 and 6-8 of two
        events = [_event(BEGIN_US + 1_000_000, BEGIN_US + 8_000_000, "session"),
                  _event(BEGIN_US + 1_000_000, BEGIN_US + 5_000_000, "first"),
                  _event(BEGIN_US + 5_000_000, BEGIN_US + 8_000_000, "second")]
        result = run([_line_trace(10)],
                     [(_frame("f0", 0.0), events), (_frame("f1", 40.0), events)])
        formatted, xy_texts = [], output._xy_texts

        def counted(rows):
            formatted.extend(rows)
            return xy_texts(rows)

        monkeypatch.setattr(output, "_xy_texts", counted)
        layout = OutputLayout(out_dir=tmp_path)
        for series, text in csv_texts(result.series):
            assert (write_csv(series, layout, text).read_bytes()
                    == _oracle_csv(series.points))
        assert sum(len(s.points) for s in result.series) == 2 * (8 + 5 + 4)
        # the rows of fixes 1-8 in each frame, each formatted once
        assert len(formatted) == 2 * 8
        assert (sorted((x, y) for x, y, _ in formatted)
                == sorted({(x, y) for s in result.series for x, y, _ in s.points}))

    def test_group_whose_windows_do_not_match_its_rows(self, tmp_path):
        # fix 4 is out of the projection's domain, so the session drops it;
        # beside the engine's series of the frame are a series rebuilt from
        # one of them with x and y swapped and a series built by hand, each
        # of the same key and length as an engine series of the frame
        trace = Trace("t", [ORIGIN[0] + i * 1e-6 for i in range(4)] + [FAR[0]],
                      [ORIGIN[1] + i * 2e-6 for i in range(4)] + [FAR[1]],
                      [BEGIN_US + i * 1_000_000 for i in range(5)])
        frames = [(_frame("f0", 40.0),
                   [_event(BEGIN_US, BEGIN_US + 2_000_000, "e0"),
                    _event(BEGIN_US + 1_000_000, BEGIN_US + 3_000_000, "e1"),
                    _event(BEGIN_US, BEGIN_US + 4_000_000, "session")])]
        first, second, dropped = run([trace], frames).series
        assert len(dropped.points) == 4
        rebuilt = replace(first, points=tuple((y, x, t) for x, y, t in first.points))
        by_hand = EventSeries("t", "f0", "e1", ((-0.0, 0.0, 0.0), (7.25, 8.0, 1e-05),
                                                (1.5, 2.0, 2.0)))
        for order in ([first, rebuilt, second, by_hand, dropped],
                      [rebuilt, first, by_hand, second, dropped],
                      [dropped, first, second, rebuilt, by_hand]):
            shared = OutputLayout(out_dir=tmp_path / "shared")
            alone = OutputLayout(out_dir=tmp_path / "alone")
            for series, text in csv_texts(order):
                written = write_csv(series, shared, text).read_bytes()
                assert written == write_csv(series, alone).read_bytes()
                assert written == _oracle_csv(series.points)

    def test_copied_series_shares_its_frames_text(self, tmp_path, monkeypatch):
        # a shallow copy keeps the source of the series it copies, so it is
        # written in its frame's group, from the frame's one x,y text per fix
        events = [_event(BEGIN_US + 1_000_000, BEGIN_US + 6_000_000, "e0"),
                  _event(BEGIN_US + 4_000_000, BEGIN_US + 8_000_000, "e1")]
        cut = run([_line_trace(10)], [(_frame("f0", 40.0), events)]).series
        copied = copy.copy(cut[0])
        assert copied._source is cut[0]._source
        formatted, xy_texts = [], output._xy_texts

        def counted(rows):
            formatted.extend(rows)
            return xy_texts(rows)

        monkeypatch.setattr(output, "_xy_texts", counted)
        in_key_order = sorted([*cut, copied], key=attrgetter("key"))
        for number, order in enumerate((in_key_order, in_key_order[::-1])):
            formatted.clear()
            texts = list(csv_texts(order))
            assert len(formatted) == 8  # fixes 1-8, the union of the windows
            shared = OutputLayout(out_dir=tmp_path / f"shared{number}")
            alone = OutputLayout(out_dir=tmp_path / f"alone{number}")
            for series, text in texts:
                written = write_csv(series, shared, text).read_bytes()
                assert written == _oracle_csv(series.points)
                assert written == write_csv(series, alone).read_bytes()

    def test_t_zero_keeps_its_sign_after_a_positive_zero(self, tmp_path):
        layout = OutputLayout(out_dir=tmp_path)
        series = [_series([(0.0, 0.0, 0.0)]),
                  _series([(0.0, 0.0, -0.0)], event_label="e1")]
        paths = [write_csv(s, layout, text) for s, text in csv_texts(series)]
        assert paths[1].read_bytes() == b"x,y,t\n0,0,-0\n"


def _written_peak(frames, fixes, out_dir):
    """The traced peak, above the series held, of writing with the texts of
    one csv_texts call the series of one trace of fixes over frames, each
    text dropped once written, as the CLI drops it."""
    result = run([_line_trace(fixes)], frames)
    layout = OutputLayout(out_dir=out_dir)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        for series, text in csv_texts(result.series):
            write_csv(series, layout, text)
            del text
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _texts_size(texts):
    """The size of a list of texts."""
    return sum(map(sys.getsizeof, texts)) + sys.getsizeof(texts)


def test_formatter_holds_one_frames_text(tmp_path):
    fixes = 4000
    end_us = BEGIN_US + fixes * 1_000_000
    # identical frames, each with a session and its second half
    events = [_event(BEGIN_US, end_us, "session"),
              _event(BEGIN_US + fixes // 2 * 1_000_000, end_us, "half")]
    two = _written_peak([(_frame(f"f{n}", 40.0), events) for n in range(2)],
                        fixes, tmp_path / "two")
    eight = _written_peak([(_frame(f"f{n}", 40.0), events) for n in range(8)],
                          fixes, tmp_path / "eight")
    # one frame's x,y text as the formatter holds it: a string a fix, in a list
    [series] = run([_line_trace(fixes)], [(_frame("f0", 40.0), events[:1])]).series
    assert eight - two <= _texts_size([f"{x!r},{y!r}," for x, y, _ in series.points])


def test_formatter_drops_the_held_frame_before_the_next(tmp_path):
    fixes = 4000
    events = [_event(BEGIN_US, BEGIN_US + fixes * 1_000_000, "session")]
    one = _written_peak([(_frame("f0", 40.0), events)], fixes, tmp_path / "one")
    two = _written_peak([(_frame(f"f{n}", 40.0), events) for n in range(2)],
                        fixes, tmp_path / "two")
    [series] = run([_line_trace(fixes)], [(_frame("f0", 40.0), events)]).series
    # the second frame's lists are built once the first frame's are dropped
    assert two - one < _texts_size([f"{x!r},{y!r}," for x, y, _ in series.points]) / 2


def test_formatter_keeps_a_bounded_t_table(tmp_path, monkeypatch):
    fixes = 4000
    monkeypatch.setattr(output, "_T_TEXTS_KEPT", fixes)
    end_us = BEGIN_US + fixes * 1_000_000

    def frames(count):
        # begins a microsecond apart: frames share no t value
        return [(_frame(f"f{n}", 40.0), [_event(BEGIN_US - n, end_us, "session")])
                for n in range(count)]

    two = _written_peak(frames(2), fixes, tmp_path / "two")
    eight = _written_peak(frames(8), fixes, tmp_path / "eight")
    # one frame's t texts, in a table as the formatter keeps them
    [series] = run([_line_trace(fixes)], frames(1)).series
    table = {t: f"{t!r}\n" for _, _, t in series.points}
    assert eight - two <= sys.getsizeof(table) + _texts_size(table.values())


def test_shown_escapes_unprintable_characters_only():
    assert output.shown("a\nb\x01\udcff\u2028 \u00e9\\") == "a\\nb\\x01\\udcff\\u2028 \u00e9\\"
    assert output.shown("plain") == "plain"


@given(st.text(st.characters(exclude_categories=())))
def test_shown_is_printable_and_reads_back_per_character(text):
    shown = output.shown(text)
    assert shown.isprintable()
    assert shown == "".join(map(output.shown, text))
    for c in text:
        if c.isprintable():
            assert output.shown(c) == c
        else:
            assert output.shown(c).encode().decode("unicode_escape") == c


class TestRenderOverlaySvg:
    def test_two_series_two_polylines(self, tmp_path):
        series = [
            _series([(0.0, float(i), float(i)) for i in range(100)],
                    trace_id="t1", frame_id="fieldA"),
            _series([(0.3, float(i), float(i)) for i in range(100)],
                    trace_id="t1", frame_id="fieldB"),
        ]
        path = render_overlay_svg(series, tmp_path / "overlay.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        strokes = {el.get("stroke") for el in polylines}
        assert len(strokes) == 2  # distinct palette colors per frame

    def test_single_point_min_span(self, tmp_path):
        path = render_overlay_svg([_series([(0.0, 0.0, 0.0)])],
                                  tmp_path / "dot.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        _, _, width, height = (float(v) for v in root.get("viewBox").split())
        assert width >= 1.0
        assert height >= 1.0
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_empty_list_raises(self, tmp_path):
        with pytest.raises(NoSeries):
            render_overlay_svg([], tmp_path / "never.svg")

    def test_empty_generator_raises(self, tmp_path):
        with pytest.raises(NoSeries):
            render_overlay_svg(iter(()), tmp_path / "never.svg")
        assert not (tmp_path / "never.svg").exists()

    def test_generator_renders_the_list_bytes(self, tmp_path):
        # extremes in later series, -0.0 against 0.0 ties, and a frame seen
        # again after another, so bounds and colors depend on every series
        series = [
            _series([(0.0, -0.0, 0.0), (2.5, 1.0, 1.0)], trace_id="a", frame_id="f1"),
            _series([(-0.0, 0.0, 0.0), (-7.25, 40.0, 1.0)], trace_id="a", frame_id="f0"),
            _series([(9.0, -3.5, 0.0)], trace_id="b", frame_id="f1", event_label="e1"),
        ]
        listed = render_overlay_svg(series, tmp_path / "list.svg")
        streamed = render_overlay_svg((s for s in series), tmp_path / "gen.svg")
        assert streamed.read_bytes() == listed.read_bytes()

    def test_y_axis_points_up(self, tmp_path):
        # larger y_m must become a smaller (higher) SVG y coordinate
        path = render_overlay_svg(
            [_series([(0.0, 0.0, 0.0), (0.0, 100.0, 1.0)])], tmp_path / "up.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        polyline = next(el for el in root.iter() if el.tag.endswith("polyline"))
        pts = [tuple(float(c) for c in pair.split(","))
               for pair in polyline.get("points").split()]
        assert pts[1][1] < pts[0][1]

    def test_legend_lists_each_series(self, tmp_path):
        series = [
            _series([(0.0, 5.0, 0.0)], trace_id="runner", frame_id="fieldA",
                    event_label="round1"),
            _series([(1.0, 5.0, 0.0)], trace_id="runner", frame_id="fieldB",
                    event_label="round2"),
        ]
        path = render_overlay_svg(series, tmp_path / "legend.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "runner / fieldA / round1" in labels
        assert "runner / fieldB / round2" in labels

    def test_labels_escaped(self, tmp_path):
        series = [_series([(0.0, 5.0, 0.0)], trace_id="a<b&c")]
        path = render_overlay_svg(series, tmp_path / "esc.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))  # must not raise
        labels = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert "a<b&c / f0 / e0" in labels

    def test_label_escapes_only_markup(self, tmp_path):
        series = [_series([(0.0, 5.0, 0.0)], trace_id="a&b<c>d\"e'f")]
        path = render_overlay_svg(series, tmp_path / "esc.svg")
        assert b">a&amp;b&lt;c&gt;d\"e'f / f0 / e0</text>\n" in path.read_bytes()

    def test_regular_file_is_replaced(self, tmp_path):
        # the overlay is a new file: another hard link keeps the old one
        plot = tmp_path / "overlay.svg"
        plot.write_text("old")
        os.link(plot, tmp_path / "link.svg")
        expected = render_overlay_svg([_series([(0.0, 5.0, 0.0)])],
                                      tmp_path / "new" / "overlay.svg").read_bytes()
        render_overlay_svg([_series([(0.0, 5.0, 0.0)])], plot)
        assert plot.read_bytes() == expected
        assert (tmp_path / "link.svg").read_text() == "old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.svg", "new",
                                                              "overlay.svg"]

    def test_taken_scratch_name_is_passed_over(self, tmp_path, monkeypatch):
        expected = render_overlay_svg([_series([(0.0, 5.0, 0.0)])],
                                      tmp_path / "new" / "overlay.svg").read_bytes()
        taken = tmp_path / ".framelocal-00000000.tmp"
        taken.write_bytes(b"someone else's")
        draws = iter([b"\0" * 4, b"\1" * 4])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        plot = render_overlay_svg([_series([(0.0, 5.0, 0.0)])], tmp_path / "overlay.svg")
        assert next(draws, None) is None
        assert plot.read_bytes() == expected
        assert taken.read_bytes() == b"someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".framelocal-00000000.tmp", "new", "overlay.svg"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.svg"
        target.write_text("old")
        link = tmp_path / "overlay.svg"
        link.symlink_to(target)
        expected = render_overlay_svg([_series([(0.0, 5.0, 0.0)])],
                                      tmp_path / "new" / "overlay.svg").read_bytes()
        render_overlay_svg([_series([(0.0, 5.0, 0.0)])], link)
        assert link.is_symlink()
        assert target.read_bytes() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "overlay.svg",
                                                              "target.svg"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_failed_write_to_a_device_raises_and_leaves_it(self):
        # /dev/full takes the open and fails the write: nothing to remove
        with pytest.raises(OSError):
            render_overlay_svg([_series([(0.0, 5.0, 0.0)])], "/dev/full")
        assert stat.S_ISCHR(os.lstat("/dev/full").st_mode)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_is_written_straight(self, tmp_path):
        fifo = tmp_path / "overlay.svg"
        os.mkfifo(fifo)
        expected = render_overlay_svg([_series([(0.0, 5.0, 0.0)])],
                                      tmp_path / "new" / "overlay.svg").read_bytes()
        # a reader opened without blocking lets the writer open the FIFO, and
        # the small overlay fits in the pipe's buffer
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            render_overlay_svg([_series([(0.0, 5.0, 0.0)])], fifo)
            written = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert written == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new", "overlay.svg"]
