"""CSV serialization and SVG overlay rendering."""

import struct
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelocal.errors import NoSeries
from framelocal.model import EventSeries
from framelocal.output import OutputLayout, render_overlay_svg, write_csv


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
