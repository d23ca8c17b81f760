"""Command-line behavior: flags, exit codes, summary line, determinism."""

import errno
import gc
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from datetime import timedelta
from pathlib import Path

import pytest

from fixtures import frame_feature, frames_doc, gpx_doc, ts, two_fields_dataset
from framelocal import cli, engine, output
from framelocal.cli import main
from framelocal.engine import run
from framelocal.ingest import load_inputs
from framelocal.output import OutputLayout, write_csv

ORIGIN = (-37.85, 145.0)
TARGET = (-37.84, 145.001)
INTERVAL = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
REVERSED = f"{INTERVAL[21:]}/{INTERVAL[:20]}"
REVERSED_MESSAGE = "end 2017-06-10T05:00:00+00:00 precedes begin 2017-06-10T05:20:00+00:00"


def _line(coordinates):
    return {"type": "LineString", "coordinates": coordinates}


def _basic_inputs(base):
    frames_path = base / "frames.geojson"
    frames_path.write_text(frames_doc(
        [frame_feature("f0", ORIGIN, TARGET, {"events": [INTERVAL]})]))
    traces = base / "traces"
    traces.mkdir()
    (traces / "walk.gpx").write_text(gpx_doc(
        [(ORIGIN[0], ORIGIN[1], ts(5, 1)), (TARGET[0], TARGET[1], ts(5, 2))]))
    return frames_path, traces


class TestExitCodes:
    def test_two_fields_summary(self, tmp_path, capsys):
        frames_path, traces_dir, _, _ = two_fields_dataset(tmp_path)
        code = main(["--frames", str(frames_path), "--traces", str(traces_dir),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("2 series written, 0 permutations skipped "
                                "(empty), 0 warnings\n")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "player1__fieldA__e0.csv", "player1__fieldB__e0.csv"]

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["--traces", str(tmp_path), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "usage" in captured.err.lower()
        assert captured.out == ""

    def test_bad_frames_file_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        feature = frame_feature("threept", ORIGIN, TARGET, {"events": [INTERVAL]})
        feature["geometry"]["coordinates"].append([145.2, -37.8])
        frames_path.write_text(frames_doc([feature]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "threept" in captured.err

    def test_frame_under_one_micrometre_long_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        target = (ORIGIN[0] + 4.5e-12, ORIGIN[1])  # 0.5 µm north of the origin
        frames_path.write_text(frames_doc([
            frame_feature("short", ORIGIN, target, {"events": [INTERVAL]})]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "'short'" in captured.err and "less than 1 µm apart" in captured.err

    @pytest.mark.parametrize("make, state", [
        (lambda path: path.write_text("x"), "is not a directory"),
        (lambda path: None, "does not exist")], ids=["file", "missing"])
    def test_traces_that_are_no_directory_is_ingest_error(self, tmp_path, capsys,
                                                          make, state):
        frames_path, _ = _basic_inputs(tmp_path)
        make(tmp_path / "traces.gpx")
        code = main(["--frames", str(frames_path), "--traces",
                     str(tmp_path / "traces.gpx"), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"framelocal: error: traces directory "
                                f"{tmp_path / 'traces.gpx'} {state}\n")
        assert not (tmp_path / "out").exists()

    def test_far_frame_leaves_each_permutation_empty(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        far_origin, far_target = (37.85, -35.0), (37.84, -35.001)
        frames_path.write_text(frames_doc([frame_feature(
            "far", far_origin, far_target,
            {"events": [INTERVAL, "2017-06-10T05:01:00Z/2017-06-10T05:01:30Z"]})]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("0 series written, 2 permutations skipped "
                                "(empty), 2 warnings\n")
        assert [line.split(": ")[:3] for line in captured.err.splitlines()] == [
            ["framelocal", "warning", f"trace 'walk', frame 'far', event '{label}'"]
            for label in ("e0", "e1")]
        assert "2 of 2 in-window fixes skipped" in captured.err
        assert "1 of 1 in-window fixes skipped" in captured.err
        assert list((tmp_path / "out").iterdir()) == []

    def test_trace_of_glitches_only_is_empty_and_the_run_goes_on(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        # all of trace 'x' is null-island glitches, against a Melbourne frame,
        # between the good traces 'walk' and 'y'
        (traces / "x.gpx").write_text(gpx_doc(
            [(0.0, 0.0, ts(5, 1)), (0.0, 0.0, ts(5, 2))]))
        (traces / "y.gpx").write_bytes((traces / "walk.gpx").read_bytes())
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == (
            "framelocal: warning: trace 'x', frame 'f0', event 'e0': 2 of 2 in-window "
            "fixes skipped as out of the projection's domain; first: point (0.0, 0.0) "
            "at 2017-06-10T05:01:00+00:00: point lies in the hemisphere opposite the "
            "origin\n")
        assert captured.out == ("2 series written, 1 permutations skipped "
                                "(empty), 1 warnings\n")
        frames, loaded, _ = load_inputs(frames_path, traces)
        assert [trace.id for trace in loaded] == ["walk", "x", "y"]
        layout = OutputLayout(out_dir=tmp_path / "expected")
        expected = [write_csv(series, layout)
                    for series in run(loaded[::2], frames).series]
        assert [p.name for p in expected] == ["walk__f0__e0.csv", "y__f0__e0.csv"]
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {
            p.name: p.read_bytes() for p in expected}

    def test_polar_frame_origin_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc(
            [frame_feature("pole", (89.95, 0.0), (89.96, 10.0), {"events": [INTERVAL]})]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "frame 'pole': origin latitude 89.95 is poleward" in captured.err
        assert not (tmp_path / "out").exists()

    def test_frames_file_with_byte_order_mark_loads(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_bytes(b"\xef\xbb\xbf" + frames_path.read_bytes())
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("1 series written, 0 permutations skipped "
                                "(empty), 0 warnings\n")

    def test_non_utf8_frames_file_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_bytes(
            frames_path.read_bytes().replace(b'"f0"', b'"Z\xfcrich"'))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot read frames file" in captured.err

    def test_deeply_nested_frames_file_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text("[" * 200_000)
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("framelocal: error: frames input nests too "
                                "deeply to parse\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frame_id", [True, [[]], {"a": 1}],
                             ids=["boolean", "array", "object"])
    def test_feature_id_neither_string_nor_number_is_ingest_error(
            self, tmp_path, capsys, frame_id):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc([
            frame_feature("f0", ORIGIN, TARGET, {"events": [INTERVAL]}),
            frame_feature(frame_id, ORIGIN, TARGET, {"events": [INTERVAL]})]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("framelocal: error: features[1]: id is neither "
                                "a string, a number nor null\n")
        assert not (tmp_path / "out").exists()

    def test_non_json_number_in_frames_file_is_ingest_error(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_path.read_text().replace('"f0"', "NaN"))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ("framelocal: error: frames input is not valid "
                                "JSON: NaN is not a JSON number\n")
        assert not (tmp_path / "out").exists()

    def test_failed_plot_write_leaves_no_overlay(self, tmp_path, capsys,
                                                 monkeypatch):
        frames_path, traces = _basic_inputs(tmp_path)
        plot = tmp_path / "plots" / "overlay.svg"
        real_open = open

        def open_failing_past_csvs(file, *args, **kwargs):
            # a file other than a CSV takes a few bytes, then the disk is full
            handle = real_open(file, *args, **kwargs)
            if not str(file).endswith(".csv"):
                def write(text):
                    type(handle).write(handle, text[:8])
                    handle.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                handle.write = write
            return handle

        monkeypatch.setattr(output, "open", open_failing_past_csvs, raising=False)
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--plot", str(plot)])
        captured = capsys.readouterr()
        assert code == 3
        assert "No space left on device" in captured.err
        assert list(plot.parent.iterdir()) == []

    def test_failed_csv_write_leaves_no_partial_csv(self, tmp_path, capsys,
                                                    monkeypatch):
        frames_path, traces = _corpus(tmp_path / "in", 3)
        out_dir = tmp_path / "out"
        real_open = open
        opened = []

        def open_failing_third_csv(file, *args, **kwargs):
            # the third CSV takes 100 bytes, then the disk is full
            handle = real_open(file, *args, **kwargs)
            opened.append(Path(file).name)
            if len(opened) == 3:
                def write(text):
                    type(handle).write(handle, text[:100])
                    handle.flush()
                    raise OSError(errno.ENOSPC, "No space left on device")
                handle.write = write
            return handle

        monkeypatch.setattr(output, "open", open_failing_third_csv, raising=False)
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert "No space left on device" in captured.err
        assert opened == ["p0__f0__e0.csv", "p0__f0__e1.csv", "p1__f0__e0.csv"]
        # each CSV left re-reads whole: as the series it names, written alone
        frames, loaded, _ = load_inputs(frames_path, traces)
        expected = OutputLayout(out_dir=tmp_path / "expected")
        for series in run(loaded, frames).series:
            write_csv(series, expected)
        assert (tmp_path / "expected" / opened[2]).stat().st_size > 100
        assert sorted(p.name for p in out_dir.iterdir()) == opened[:2]
        for path in out_dir.iterdir():
            assert path.read_bytes() == (tmp_path / "expected" / path.name).read_bytes()

    def test_undecodable_trace_file_is_a_warning(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "bad.gpx").write_bytes(
            b"<gpx><trk><name>Z\xfcrich</name></trk></gpx>")
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "bad.gpx: trace skipped" in captured.err

    def test_interrupted_download_is_one_warning_among_good_logs(self, tmp_path, capsys):
        # a log cut short beside its good copy: the run goes on, the cut
        # file has one warning with expat's error, and the good log's CSVs
        # are those of a run without the cut file
        frames_path, traces = _basic_inputs(tmp_path)
        alone = tmp_path / "alone"
        assert main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(alone)]) == 0
        capsys.readouterr()
        log = (traces / "walk.gpx").read_bytes()
        cut = log[:log.rindex(b"</trkseg>")]
        (traces / "walk_cut.gpx").write_bytes(cut)
        beside = tmp_path / "beside"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(beside)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err.splitlines() == [
            f"framelocal: warning: {traces / 'walk_cut.gpx'}: trace skipped: "
            f"cannot parse XML: no element found: line 1, column {len(cut)}"]

        def csvs(out):
            return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.csv")}

        assert csvs(beside) == csvs(alone) != {}

    @pytest.mark.parametrize("properties, geometry, message", [
        ([1], None, "properties is neither an object nor null"),
        (None, [1], "geometry is neither an object nor null"),
        ({"events": [f"{INTERVAL[:20]}/9999-12-31T23:59:59-01:00"]}, None,
         f"'{INTERVAL[:20]}/9999-12-31T23:59:59-01:00': end_utc "
         "9999-12-31T23:59:59-01:00 is out of range in UTC"),
        ({"": INTERVAL}, None, "no parsable event interval"),
        (None, _line([[145.0, -37.85]]), "LineString has 1 positions, need exactly 2"),
        (None, _line([[145.0, "-37.85"], [145.001, -37.84]]),
         "LineString positions are not numeric [lon, lat] pairs"),
        (None, _line([[10**400, -37.85], [145.001, -37.84]]),
         "LineString positions must be finite"),
        (None, _line([[145.0, -95.0], [145.001, -37.84]]),
         "latitude -95.0 outside [-90, 90] (positions must be [lon, lat] order)"),
        (None, _line([[145.0, -37.85], [145.0, -37.85]]),
         "points (-37.85, 145.0) and (-37.85, 145.0) are less than 1 µm apart"),
        (None, _line([[0.0, 89.95], [10.0, 89.96]]),
         "origin latitude 89.95 is poleward of ±89.9"),
        ({"events": [INTERVAL, 5]}, None, "events[1] is not a string"),
        ({"events": [INTERVAL[:20]]}, None,
         f"'{INTERVAL[:20]}' is not a <start>/<end> interval with two datetimes"),
        ({"events": [REVERSED]}, None, f"event 'e0': {REVERSED_MESSAGE}"),
        ({"match": REVERSED}, None, f"event 'match': {REVERSED_MESSAGE}"),
        ({"name": "odd"}, None, "no parsable event interval"),
    ], ids=["properties", "geometry", "out-of-range-event", "empty-name", "one-position",
            "non-numeric-position", "non-finite-position", "latitude-out-of-range",
            "under-1-um", "polar-origin", "events-item-not-a-string",
            "malformed-events-item", "reversed-events-item", "reversed-property",
            "no-interval"])
    def test_bad_frame_feature_is_ingest_error(self, tmp_path, capsys,
                                               properties, geometry, message):
        # each error inside a feature names the frame once, in one prefix
        frames_path, traces = _basic_inputs(tmp_path)
        feature = frame_feature("odd", ORIGIN, TARGET, {"events": [INTERVAL]})
        feature["properties"] = properties or feature["properties"]
        feature["geometry"] = geometry or feature["geometry"]
        frames_path.write_text(frames_doc([feature]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"framelocal: error: frame 'odd': {message}\n"

    def test_gpx_time_out_of_range_in_utc_is_a_warning(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        walk = traces / "walk.gpx"
        walk.write_text(walk.read_text().replace(
            "</trkseg>", f'<trkpt lat="{ORIGIN[0]}" lon="{ORIGIN[1]}">'
            "<time>9999-12-31T23:59:59-01:00</time></trkpt></trkseg>"))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "walk.gpx: track point skipped: time_utc" in captured.err
        assert captured.out.endswith(", 1 warnings\n")

    def test_invalid_jobs(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--jobs", "0"])
        assert code == 1


class TestBehavior:
    def test_out_of_domain_fixes_dropped_with_one_warning(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        args = ["--frames", str(frames_path), "--traces", str(traces)]
        assert main(args + ["--out", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        # null-island glitches inside the event, against a Melbourne frame
        (traces / "glitch.gpx").write_text(gpx_doc(
            [(ORIGIN[0], ORIGIN[1], ts(5, 1)), (0.0, 0.0, ts(5, 1, 30)),
             (0.0, 0.0, ts(5, 1, 40)), (TARGET[0], TARGET[1], ts(5, 2))]))
        out_dir = tmp_path / "out"
        code = main(args + ["--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "glitch__f0__e0.csv", "walk__f0__e0.csv"]
        assert ((out_dir / "walk__f0__e0.csv").read_bytes()
                == (tmp_path / "clean" / "walk__f0__e0.csv").read_bytes())
        glitch_rows = (out_dir / "glitch__f0__e0.csv").read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in glitch_rows] == ["t", "60", "120"]
        assert captured.err == (
            "framelocal: warning: trace 'glitch', frame 'f0', event 'e0': "
            "2 of 4 in-window fixes skipped as out of the projection's domain; "
            "first: point (0.0, 0.0) at 2017-06-10T05:01:30+00:00: "
            "point lies in the hemisphere opposite the origin\n")
        assert captured.out == ("2 series written, 0 permutations skipped "
                                "(empty), 1 warnings\n")

    def test_out_dir_created_and_plot_written(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        out_dir = tmp_path / "deep" / "nested" / "out"
        plot = tmp_path / "overlay.svg"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir), "--plot", str(plot)])
        assert code == 0
        assert out_dir.is_dir()
        assert plot.is_file()
        assert plot.read_text().startswith("<?xml")

    @pytest.mark.parametrize("stem, frame_id, properties, legend", [
        (os.fsdecode(b"bad\xff"), "f0", {"events": [INTERVAL]}, "bad\\udcff / f0 / e0"),
        ("walk", "\ud800pitch", {"events": [INTERVAL]}, "walk / \\ud800pitch / e0"),
        ("walk", "f0", {"\udc80half": INTERVAL}, "walk / f0 / \\udc80half"),
    ], ids=["file-stem", "frame-id", "property-name"])
    def test_unencodable_legend_names_written_escaped(self, tmp_path, capsys, stem,
                                                      frame_id, properties, legend):
        # a name with a lone surrogate, from an undecodable file name byte or a
        # JSON escape, has no UTF-8 form; the legend shows it as stderr does
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc(
            [frame_feature(frame_id, ORIGIN, TARGET, properties)]))
        (traces / "walk.gpx").rename(traces / f"{stem}.gpx")
        plot = tmp_path / "overlay.svg"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--plot", str(plot)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("1 series written, 0 permutations skipped "
                                "(empty), 0 warnings\n")
        svg = plot.read_text(encoding="utf-8")
        assert f">{legend}</text>\n</svg>\n" in svg

    def test_unprintable_names_shown_escaped_on_one_line(self, tmp_path, capsys):
        # a newline or a control character in a file name, frame id or label
        # would split a stderr line or make the overlay no XML
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc(
            [frame_feature("f\x02g", ORIGIN, TARGET, {"ev\x0bent": INTERVAL})]))
        (traces / "walk.gpx").unlink()
        for stem in ("a\nb", "p\x01q"):
            (traces / f"{stem}.gpx").write_text(gpx_doc(
                [(ORIGIN[0], ORIGIN[1], ts(5, 1)), (TARGET[0], TARGET[1], None)]))
        plot = tmp_path / "overlay.svg"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--plot", str(plot)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ("2 series written, 0 permutations skipped "
                                "(empty), 2 warnings\n")
        assert captured.err == "".join(
            f"framelocal: warning: {traces}/{stem}.gpx: track point without "
            "<time> skipped\n" for stem in ("a\\nb", "p\\x01q"))
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "a_b__f_g__ev_ent.csv", "p_q__f_g__ev_ent.csv"]
        legends = [text.text for text in ET.parse(plot).getroot()
                   if text.tag == "{http://www.w3.org/2000/svg}text"]
        assert legends == ["a\\nb / f\\x02g / ev\\x0bent", "p\\x01q / f\\x02g / ev\\x0bent"]

    def test_warnings_counted_in_summary(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "broken.gpx").write_text("<gpx><trk>")
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 0
        assert "1 warnings" in captured.out
        assert "broken.gpx" in captured.err

    def test_summary_on_stdout_diagnostics_on_stderr(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "broken.gpx").write_text("<gpx><trk>")
        main(["--frames", str(frames_path), "--traces", str(traces),
              "--out", str(tmp_path / "out"), "-v"])
        captured = capsys.readouterr()
        assert "series written" in captured.out
        assert "series written" not in captured.err
        assert "warning" in captured.err

    def test_verbose_names_the_plot_written(self, tmp_path, capsys):
        # -v is a switch; argparse still takes it twice
        frames_path, traces = _basic_inputs(tmp_path)
        for verbose in "-v", "-vv":
            plot = tmp_path / f"overlay{verbose}.svg"
            code = main(["--frames", str(frames_path), "--traces", str(traces),
                         "--out", str(tmp_path / "out"), "--plot", str(plot), verbose])
            assert code == 0
            assert capsys.readouterr().err.endswith(f"framelocal: wrote {plot}\n")
            assert plot.is_file()

    def test_recurse_flag(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        nested = traces / "sub"
        nested.mkdir()
        (nested / "extra.gpx").write_text(gpx_doc(
            [(ORIGIN[0], ORIGIN[1], ts(5, 3))]))
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--recurse"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("2 series written")

    def test_plot_skip_counted_in_summary(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "walk.gpx").write_text(gpx_doc(
            [(ORIGIN[0], ORIGIN[1], ts(6))]))
        plot = tmp_path / "overlay.svg"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out"), "--plot", str(plot)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ("framelocal: warning: no series to plot; "
                                f"skipped {plot}\n")
        assert captured.out == ("0 series written, 1 permutations skipped "
                                "(empty), 1 warnings\n")
        assert not plot.exists()

    def test_sanitized_names_never_overwrite(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        # every series differs, so each file's bytes name the series it holds
        frames_path.write_text(frames_doc([frame_feature(
            "f", ORIGIN, TARGET,
            {"e": INTERVAL, "e_2": "2017-06-10T05:01:30Z/2017-06-10T05:20:00Z"})]))
        (traces / "walk.gpx").rename(traces / "a b.gpx")
        (traces / "a_b.gpx").write_text(gpx_doc(
            [(TARGET[0], TARGET[1], ts(5, 3)), (ORIGIN[0], ORIGIN[1], ts(5, 4))]))
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().out.startswith("4 series written")
        assert {p.name for p in out_dir.iterdir()} == {
            "a_b__f__e.csv", "a_b__f__e_2.csv", "a_b__f__e_3.csv",
            "a_b__f__e_2_2.csv"}
        # the whole run's series, in order, through one layout
        frames, loaded, _ = load_inputs(frames_path, traces)
        layout = OutputLayout(out_dir=tmp_path / "expected")
        expected = {write_csv(series, layout).name: series
                    for series in run(loaded, frames).series}
        assert len({series.points for series in expected.values()}) == 4
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {
            name: (tmp_path / "expected" / name).read_bytes() for name in expected}

    def test_long_names_cut_to_fit(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        # two ids that differ only past the cut, and one a name of which fits
        ids = ["f" * 1000, "f" * 999 + "g", "f" * 200]
        frames_path.write_text(frames_doc(
            [frame_feature(frame_id, ORIGIN, TARGET, {"events": [INTERVAL]})
             for frame_id in ids]))
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir)])
        assert code == 0
        assert capsys.readouterr().out.startswith("3 series written")
        stem = "walk__" + "f" * 245
        assert {p.name for p in out_dir.iterdir()} == {
            f"{stem}.csv", f"{stem[:-2]}_2.csv", f"walk__{'f' * 200}__e0.csv"}
        assert all(len(os.fsencode(p.name)) <= 255 for p in out_dir.iterdir())

    def test_suffixed_trace_ids_never_collide(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "walk.gpx").rename(traces / "x.gpx")
        (traces / "sub").mkdir()
        for name in ("sub/x.gpx", "x_2.gpx"):
            (traces / name).write_text((traces / "x.gpx").read_text())
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir), "--recurse"])
        assert code == 0
        assert capsys.readouterr().out.startswith("3 series written")
        assert {p.name for p in out_dir.iterdir()} == {
            "x__f0__e0.csv", "x_2__f0__e0.csv", "x_2_2__f0__e0.csv"}

    def test_many_nested_files_of_one_name(self, tmp_path, capsys):
        # dated folders that each hold a track.gpx: ids are claimed in path
        # order, so the file of day n gets track, track_2, ... track_<n + 1>
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "walk.gpx").unlink()
        days = 200
        for day in range(days):
            folder = traces / "2017" / f"day{day:03d}"
            folder.mkdir(parents=True)
            (folder / "track.gpx").write_text(gpx_doc(
                [(ORIGIN[0], ORIGIN[1], ts(5) + timedelta(seconds=day))]))
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir), "--recurse"])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"{days} series written")
        for day in range(days):
            trace_id = "track" if day == 0 else f"track_{day + 1}"
            rows = (out_dir / f"{trace_id}__f0__e0.csv").read_text().split("\n")
            assert rows[1].endswith(f",{day}")

    def test_names_distinct_case_folded(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc(
            [frame_feature(frame_id, ORIGIN, TARGET, {"events": [INTERVAL]})
             for frame_id in ("Pitch", "pitch")]))
        for name in ("x/Run.gpx", "y/run.gpx"):
            (traces / name).parent.mkdir()
            (traces / name).write_text((traces / "walk.gpx").read_text())
        (traces / "walk.gpx").unlink()
        out_dir = tmp_path / "out"
        code = main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir), "--recurse"])
        assert code == 0
        assert capsys.readouterr().out.startswith("4 series written")
        assert {p.name for p in out_dir.iterdir()} == {
            "Run__Pitch__e0.csv", "Run__pitch__e0_2.csv",
            "run__Pitch__e0_3.csv", "run__pitch__e0_4.csv"}

    def test_import_loads_no_network_modules(self):
        probe = ("import sys, framelocal.cli; print(sorted(m for m in ("
                 "'xml.sax', 'urllib.request', 'http.client', 'email') "
                 "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert proc.stdout == "[]\n"

    def test_overwrites_but_never_clears_out_dir(self, tmp_path, capsys):
        frames_path, traces = _basic_inputs(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        stale = out_dir / "unrelated.txt"
        stale.write_text("keep me")
        for _ in range(2):
            assert main(["--frames", str(frames_path), "--traces", str(traces),
                         "--out", str(out_dir)]) == 0
        assert stale.read_text() == "keep me"

    def test_byte_identical_across_jobs(self, tmp_path, capsys):
        frames_path, traces_dir, _, _ = two_fields_dataset(tmp_path)
        trees = {}
        for jobs in ("1", "8"):
            out_dir = tmp_path / f"out{jobs}"
            code = main(["--frames", str(frames_path), "--traces", str(traces_dir),
                         "--out", str(out_dir), "--jobs", jobs,
                         "--plot", str(out_dir / "overlay.svg")])
            assert code == 0
            trees[jobs] = {p.name: p.read_bytes()
                           for p in sorted(out_dir.iterdir())}
        assert trees["1"] == trees["8"]

    def test_module_entry_point(self, tmp_path):
        frames_path, traces = _basic_inputs(tmp_path)
        # any warning fails the run, as in the test process; an unraisable
        # one (a file handle left to the garbage collector) shows on stderr
        # alone
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "framelocal",
             "--frames", str(frames_path), "--traces", str(traces),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.strip().endswith("0 warnings")

    # CSVs and the SVG are UTF-8 whatever the locale: every file the CLI
    # opens names its encoding, so a run that turns each open in the
    # locale's encoding into an error exits 0. The flag stays off the test
    # process, whose tests write files in the locale's encoding.
    @pytest.mark.parametrize("plot", [False, True])
    def test_opens_no_file_in_the_locale_encoding(self, tmp_path, plot):
        frames_path, traces_dir, _, _ = two_fields_dataset(tmp_path)
        svg = ["--plot", str(tmp_path / "overlay.svg")] if plot else []
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "framelocal", "--frames", str(frames_path), "--traces",
             str(traces_dir), "--out", str(tmp_path / "out"), *svg],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("2 series written, 0 permutations skipped "
                               "(empty), 0 warnings\n")


class TestStreaming:
    """The CLI runs and writes one trace at a time, and --plot draws from the
    written series as they come: no written series outlives its consumer."""

    @pytest.mark.parametrize("plot", [False, True])
    def test_written_series_freed_unless_plotted(self, tmp_path, capsys,
                                                 monkeypatch, plot):
        frames_path, traces = _basic_inputs(tmp_path)
        frames_path.write_text(frames_doc([frame_feature(
            "f0", ORIGIN, TARGET, {"events": [INTERVAL, INTERVAL]})]))
        for name in ("a", "b", "c"):
            (traces / f"{name}.gpx").write_text((traces / "walk.gpx").read_text())
        calls = []  # per run call: its trace ids, and how many earlier series live
        returned = []  # weak references to every series run returned
        real_run = cli.run

        def run(traces_arg, frames):
            calls.append(([trace.id for trace in traces_arg],
                          sum(ref() is not None for ref in returned)))
            result = real_run(traces_arg, frames)
            returned.extend(weakref.ref(series) for series in result.series)
            return result

        monkeypatch.setattr(cli, "run", run)
        args = ["--frames", str(frames_path), "--traces", str(traces),
                "--out", str(tmp_path / "out")]
        if plot:
            args += ["--plot", str(tmp_path / "overlay.svg")]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("8 series written")
        # the renderer holds only the series it is folding
        kept = [0, 1, 1, 1] if plot else [0, 0, 0, 0]
        assert calls == [(["a"], kept[0]), (["b"], kept[1]), (["c"], kept[2]),
                         (["walk"], kept[3])]
        assert sum(ref() is not None for ref in returned) == 0
        if plot:
            assert (tmp_path / "overlay.svg").read_text().count("<polyline ") == 8

    def test_each_frame_set_up_once_per_run(self, tmp_path, capsys, monkeypatch):
        frames_path, traces, _, _ = two_fields_dataset(tmp_path)
        for name in ("player2", "player3"):
            (traces / f"{name}.gpx").write_text((traces / "player1.gpx").read_text())
        setups = []
        real_setup = engine.hom_setup

        def hom_setup(*args):
            setups.append(args)
            return real_setup(*args)

        monkeypatch.setattr(engine, "hom_setup", hom_setup)
        assert main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.startswith("6 series written")
        assert len(setups) == 2

    def test_out_dir_made_once_and_never_per_csv(self, tmp_path, capsys,
                                                 monkeypatch):
        frames_path, traces = _basic_inputs(tmp_path)
        (traces / "b.gpx").write_text((traces / "walk.gpx").read_text())
        made = []
        real_mkdir = Path.mkdir

        def mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        out_dir = tmp_path / "out"
        assert main(["--frames", str(frames_path), "--traces", str(traces),
                     "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out.startswith("2 series written")
        assert made == [out_dir]


def _inputs_exiting_with(base, code):
    frames_path, traces = _basic_inputs(base)
    if code == 2:
        frames_path.write_text("{}")
    elif code == 3:  # an output error: --out names a regular file
        (base / "out").write_text("")
    return frames_path, traces


def _corpus(base, copies):
    """`copies` traces, each with untimed fixes and an out-of-domain fix, seen
    by two events, plus one malformed GPX file"""
    base.mkdir()
    frames_path = base / "frames.geojson"
    frames_path.write_text(frames_doc([frame_feature("f0", ORIGIN, TARGET, {"events": [
        "2017-06-10T05:00:00Z/2017-06-10T05:10:00Z",
        "2017-06-10T05:10:00Z/2017-06-10T05:20:00Z"]})]))
    traces = base / "traces"
    traces.mkdir()
    for i in range(copies):
        fixes = [(ORIGIN[0] + k * 1e-5, ORIGIN[1],
                  None if k % 7 == 3 else ts(5) + timedelta(seconds=30 * k))
                 for k in range(40)]
        (traces / f"p{i}.gpx").write_text(gpx_doc(fixes + [(0.0, 0.0, ts(5, 19))]))
    (traces / "broken.gpx").write_text("<gpx><trk>")
    return frames_path, traces


class TestCollectorPause:
    """main pauses the cyclic collector around the pipeline, which is safe
    only because the pipeline leaves no reference cycles that grow with its
    input."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("expected", [0, 2, 3])
    def test_state_restored_on_every_exit(self, tmp_path, capsys, monkeypatch,
                                          enabled, expected):
        frames_path, traces = _inputs_exiting_with(tmp_path, expected)
        during = []
        real_load_inputs = cli.load_inputs

        def load_inputs(*args, **kwargs):
            during.append(gc.isenabled())
            return real_load_inputs(*args, **kwargs)

        monkeypatch.setattr(cli, "load_inputs", load_inputs)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(["--frames", str(frames_path), "--traces", str(traces),
                         "--out", str(tmp_path / "out")])
            after = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert code == expected
        assert during == [False]
        assert after is enabled

    def test_cyclic_garbage_does_not_grow_with_input(self, tmp_path, capsys):
        found = {}
        was = gc.isenabled()
        gc.disable()
        try:
            # the first run fills the caches that later runs reuse
            for index, copies in enumerate((2, 2, 8)):
                frames_path, traces = _corpus(tmp_path / f"in{index}", copies)
                gc.collect()
                code = main(["--frames", str(frames_path), "--traces", str(traces),
                             "--out", str(tmp_path / f"out{index}")])
                found[copies] = gc.collect()
                assert code == 0
                assert capsys.readouterr().out == (
                    f"{2 * copies} series written, 0 permutations skipped "
                    f"(empty), {7 * copies + 1} warnings\n")
        finally:
            if was:
                gc.enable()
        assert found[8] <= found[2]
