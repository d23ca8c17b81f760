"""Tests of the benchmark itself: run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import tracer
import verify

ROOT = Path(__file__).resolve().parent.parent

# The fifth end-to-end measure, failed_ratio, is the result line's
# failed / attempted: it reads 0 on every good run, so no relative bound fits.
END_TO_END = {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "ingest.parse_gpx_s", "ingest.points_per_s", "ingest.load_inputs_self_s",
    "ingest.bytes_read", "ingest.points_skipped", "ingest.warnings",
    "ingest.parse_frames_s", "geodesy.hom_setup_s", "geodesy.hom_setup_calls",
    "geodesy.geodesic_inverse_calls", "engine.clip_to_event_s", "engine.clip_calls",
    "engine.nonempty_ratio", "engine.project_series_s",
    "engine.projected_points_per_s", "engine.run_self_s", "engine.parallel_speedup",
    "output.write_csv_s", "output.rows_per_s", "output.files_written",
    "output.bytes_written", "output.render_overlay_svg_s", "output.svg_bytes",
    "cli.main_self_s", "trace.overhead_ratio", "trace.unattributed_s",
}


def _tree_bytes(base: Path) -> dict[str, bytes]:
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a")
    corpus.generate(workload, 7, tmp_path / "b")
    corpus.generate(workload, 8, tmp_path / "c")
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    manifest = json.loads(a["manifest.json"])
    assert manifest["series"] + manifest["empty_permutations"] == first.permutations
    assert manifest["rows"] == sum(manifest["rows_per_file"].values())


def test_workload_shapes_match_their_design(tmp_path):
    season = corpus.generate("season_archive", 1, tmp_path / "s").manifest()
    assert (season["traces"], season["permutations"], season["series"]) == (40, 3200, 80)
    assert 900 < season["warnings"] < 1500
    dense = corpus.generate("tournament_dense", 1, tmp_path / "t")
    assert (len(dense.files), dense.permutations) == (256, 256)
    assert 460_000 < dense.manifest()["rows"] < 461_000
    azimuths = [f.azimuth_deg for f in dense.frames]
    assert {int(a // 90) for a in azimuths} == {0, 1, 2, 3}
    league = corpus.generate("league_overlay_jobs2", 1, tmp_path / "l")
    assert (len(league.files), league.jobs, league.plot) == (1152, 2, True)


@pytest.fixture(scope="module")
def league_run(tmp_path_factory):
    """One real CLI run on the league workload (threads, overlay, many files)."""
    base = tmp_path_factory.mktemp("league")
    made = corpus.generate("league_overlay_jobs2", 3, base / "corpus")
    out, svg = base / "out", base / "overlay.svg"
    done = subprocess.run(
        [sys.executable, "-m", "framelocal", "--frames", str(made.frames_path),
         "--traces", str(made.traces_dir), "--out", str(out), "--jobs", "2",
         "--plot", str(svg)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return made, done, out, svg


def _check(league_run):
    made, done, out, svg = league_run
    return verify.check_run(made, done.returncode, done.stdout, out, svg)


def _sampled_file(made):
    name = sorted(made.files)[5]
    return name, verify.sample_rows(made.seed, name, made.files[name].rows)


def test_clean_run_passes_and_digest_is_stable(league_run):
    failures, digest = _check(league_run)
    assert failures == []
    assert _check(league_run)[1] == digest


def _flip_digit(text: str, index: int) -> str:
    digit = "1" if text[index] != "1" else "2"
    return text[:index] + digit + text[index + 1:]


# x,y are checked to 1 mm on sampled rows, so the x flip is at the 0.1 m
# digit of a sampled row; t is checked exactly on every row.
@pytest.mark.parametrize("corruption", ["flip_x_digit", "flip_t_digit", "drop_row"])
def test_corrupted_csv_fails_the_run(league_run, corruption):
    made, _, out, _ = league_run
    name, sampled = _sampled_file(made)
    path = out / name
    original = path.read_bytes()
    lines = original.decode().split("\n")
    row = 1 + sampled[-2]
    if corruption == "drop_row":
        del lines[row]
    else:
        x, y, t = lines[row].split(",")
        if corruption == "flip_x_digit":
            lines[row] = ",".join([_flip_digit(x, x.find(".") + 1), y, t])
        else:
            lines[row] = ",".join([x, y, _flip_digit(t, len(t) - 1)])
    try:
        path.write_bytes("\n".join(lines).encode())
        failures, _ = _check(league_run)
    finally:
        path.write_bytes(original)
    assert failures and all(name in f for f in failures)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [["run", 0.0, 10.0, None, 1, {}, 0.0],
             ["a", 1.0, 6.0, 0, 2, {}, 0.0],
             ["b", 4.0, 8.0, 0, 3, {}, 0.0],     # overlaps a, as under --jobs 2
             ["c", 9.0, 12.0, 0, 2, {}, 0.0]]    # outlives its parent's end
    assert tracer.self_times(spans) == [10.0 - 7.0 - 1.0, 5.0, 4.0, 3.0]


def test_benchmark_json_names_the_designed_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(corpus.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["bench"]
