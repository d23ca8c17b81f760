"""framelocal benchmark: one command that sets up, runs, checks and reports.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's corpus from the seed (``corpus.py``). The
run then measures closed-loop: one CLI process at a time, spawned from this
process, with its inputs warm in the page cache. Every run's outputs are
checked (``verify.py``); a run that fails a check counts in ``failed``, so
``failed / attempted`` is the failed-run ratio.

``--trace 0`` reports the end-to-end metrics, each the median over the runs:
- wall_s: wall time of one ``python3 -m framelocal`` process, spawn to exit.
- cpu_s: user+sys CPU of that process and the children it reaped (wait4).
- peak_rss_mb: peak resident memory. wait4's ru_maxrss covers the CLI
  process, and folds in a reaped child's peak only as a maximum, so memory
  held in worker processes at the same time would not add up there. The
  benchmark therefore also samples, every 50 ms, the summed RSS of the CLI
  and all its descendants (/proc/<pid>/task/*/children) and reports the
  larger of the two. With one process they agree; with a process pool the
  sum of the workers counts (pages shared between processes count once per
  process).
- setup_s: the fixed cost before the first trace is read: a fresh
  interpreter that imports ``framelocal.cli``, runs ``parse_frames`` on the
  workload's frames file and ``hom_setup`` on every frame. Measured apart
  from the CLI runs, as the median of SETUP_SAMPLES spawns.

``--trace 1`` alternates an untraced CLI run with a traced one
(``tracer.py``) and reports the per-layer metrics of the traced runs,
together with the tracing overhead against the untraced runs.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). Earlier lines are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import corpus as corpus_mod
import tracer
import verify

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
RSS_POLL_S = 0.05
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

_SETUP_PROBE = (
    "import sys\n"
    "from framelocal import cli\n"
    "from framelocal.geodesy import WGS84, hom_setup\n"
    "from framelocal.ingest import parse_frames\n"
    "with open(sys.argv[1], encoding='utf-8') as handle:\n"
    "    frames = parse_frames(handle.read())\n"
    "for frame, _ in frames:\n"
    "    hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,\n"
    "              frame.azimuth_deg)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _tree_rss_kb(pid: int) -> int:
    """Summed resident memory of pid and every descendant, in KiB."""
    total, pending = 0, [pid]
    while pending:
        proc = f"/proc/{pending.pop()}"
        try:
            with open(f"{proc}/statm") as handle:
                total += int(handle.read().split()[1]) * PAGE_KB
            for task in os.listdir(f"{proc}/task"):
                with open(f"{proc}/task/{task}/children") as handle:
                    pending.extend(int(c) for c in handle.read().split())
        except (OSError, ValueError):
            continue            # the process ended between two reads
    return total


def spawn(cmd: list[str], run_dir: Path) -> dict:
    """Run cmd to completion with stdout/stderr in files under run_dir;
    return exit code, wall, CPU and peak memory of the process tree."""
    peak = [0]
    done = threading.Event()
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=_child_env())

        def sample() -> None:
            while not done.wait(RSS_POLL_S):
                peak[0] = max(peak[0], _tree_rss_kb(proc.pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            done.set()
            sampler.join()
            if proc.returncode is None:     # interrupted: stop the child too
                proc.kill()
                proc.wait()
    return {"exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": max(usage.ru_maxrss, peak[0]) / 1024.0,
            "stdout": (run_dir / "stdout.txt").read_text(encoding="utf-8",
                                                          errors="replace")}


def cli_args(corpus, run_dir: Path) -> list[str]:
    args = ["--frames", str(corpus.frames_path), "--traces", str(corpus.traces_dir),
            "--out", str(run_dir / "out"), "--jobs", str(corpus.jobs)]
    if corpus.plot:
        args += ["--plot", str(run_dir / "overlay.svg")]
    return args


def measured_run(corpus, run_dir: Path, traced: bool) -> dict:
    """One CLI process (traced or not) on a fresh output directory, checked."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    # commit the deletion now: on a filesystem mounted with discard, the
    # freed blocks are trimmed at commit, which would land in the timed run
    corpus_mod.fsync_dir(run_dir.parent)
    if traced:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(run_dir / "spans.json"),
               "--", *cli_args(corpus, run_dir)]
    else:
        cmd = [sys.executable, "-m", "framelocal", *cli_args(corpus, run_dir)]
    result = spawn(cmd, run_dir)
    svg = run_dir / "overlay.svg" if corpus.plot else None
    result["failures"], result["digest"] = verify.check_run(
        corpus, result["exit_code"], result["stdout"], run_dir / "out", svg)
    if traced and (run_dir / "spans.json").exists():
        dump = json.loads((run_dir / "spans.json").read_text(encoding="utf-8"))
        result["layers"], result["missing"] = layer_metrics(dump, corpus)
        result["main_s"] = next((s[2] - s[1] for s in dump["spans"]
                                 if s[0] == "cli.main"), None)
    elif traced:
        result["failures"].append("traced run wrote no spans")
    return result


def setup_seconds(corpus, samples: int) -> tuple[list[float], list[str]]:
    cmd = [sys.executable, "-c", _SETUP_PROBE, str(corpus.frames_path)]
    times, failures = [], []
    for i in range(samples + 1):           # the first spawn only warms up
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            failures.append(f"setup probe exit {done.returncode}: "
                            f"{done.stderr.decode(errors='replace').strip()[-300:]}")
        elif i > 0:
            times.append(elapsed)
    return times, failures


# --------------------------------------------------------------------------
# Per-layer metrics from one traced run
# --------------------------------------------------------------------------

def layer_metrics(dump: dict, corpus) -> tuple[dict, list[str]]:
    """Per-layer metrics of one span dump, and the spans found missing.

    A span is missing when its function no longer exists, or when the
    workload must call it (expected calls > 0) but the tracer saw no call,
    which means it ran in another process. Metrics that need a missing span
    are left out rather than reported as zero.
    """
    spans = dump["spans"]
    selfs = tracer.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)
    expected_calls = {
        "cli.main": 1, "ingest.load_inputs": 1, "engine.run": 1,
        "ingest.parse_frames": 1,
        "ingest.build_frame_line": len(corpus.frames),
        "geodesy.geodesic_inverse": len(corpus.frames),
        "geodesy.hom_setup": len(corpus.frames),
        "ingest.parse_gpx": len(corpus.tracks),
        "engine.clip_to_event": corpus.permutations,
        "engine.project_series": len(corpus.files),
        "output.write_csv": len(corpus.files),
        "output.render_overlay_svg": 1 if corpus.plot else 0,
    }
    missing = sorted(set(dump["missing"]) | {
        name for name, calls in expected_calls.items()
        if calls and not by_name.get(name)})

    def self_s(name: str) -> float:
        return sum(selfs[i] for i in by_name.get(name, ()))

    def duration(index: int) -> float:
        return spans[index][2] - spans[index][1]

    def count(name: str, key: str) -> int:
        return sum(spans[i][5].get(key, 0) for i in by_name.get(name, ()))

    def file_bytes(name: str) -> int:
        return sum(Path(spans[i][5]["path"]).stat().st_size
                   for i in by_name.get(name, ()))

    def run_children_cpu_s() -> float:
        # thread CPU, not wall: threads waiting for the interpreter lock are
        # not busy, so summed wall time would overstate the speed-up
        run = by_name["engine.run"][0]
        return sum(s[6] for s in spans if s[3] == run)

    parse_s, clip_s = self_s("ingest.parse_gpx"), self_s("engine.clip_to_event")
    project_s, write_s = self_s("engine.project_series"), self_s("output.write_csv")
    clip_calls = len(by_name.get("engine.clip_to_event", ()))
    nonempty = sum(1 for i in by_name.get("engine.clip_to_event", ())
                   if spans[i][5].get("points"))
    table = [  # (metric, unit, spans it needs, value)
        ("ingest.parse_gpx_s", "s", ["ingest.parse_gpx"], lambda: parse_s),
        ("ingest.points_per_s", "1/s", ["ingest.parse_gpx"],
         lambda: count("ingest.parse_gpx", "points") / parse_s),
        ("ingest.load_inputs_self_s", "s", ["ingest.load_inputs"],
         lambda: self_s("ingest.load_inputs")),
        ("ingest.bytes_read", "bytes", ["ingest.parse_gpx", "ingest.parse_frames"],
         lambda: count("ingest.parse_gpx", "chars")
         + count("ingest.parse_frames", "chars")),
        ("ingest.points_skipped", "count", ["ingest.parse_gpx"],
         lambda: dump["skipped_points"]),
        ("ingest.warnings", "count", ["ingest.load_inputs"],
         lambda: count("ingest.load_inputs", "warnings")),
        ("ingest.parse_frames_s", "s", ["ingest.parse_frames"],
         lambda: sum(duration(i) for i in by_name["ingest.parse_frames"])),
        ("geodesy.hom_setup_s", "s", ["geodesy.hom_setup"],
         lambda: self_s("geodesy.hom_setup")),
        ("geodesy.hom_setup_calls", "count", ["geodesy.hom_setup"],
         lambda: len(by_name["geodesy.hom_setup"])),
        ("geodesy.geodesic_inverse_calls", "count", ["geodesy.geodesic_inverse"],
         lambda: len(by_name["geodesy.geodesic_inverse"])),
        ("engine.clip_to_event_s", "s", ["engine.clip_to_event"], lambda: clip_s),
        ("engine.clip_calls", "count", ["engine.clip_to_event"], lambda: clip_calls),
        ("engine.nonempty_ratio", "ratio", ["engine.clip_to_event"],
         lambda: nonempty / clip_calls),
        ("engine.project_series_s", "s", ["engine.project_series"], lambda: project_s),
        ("engine.projected_points_per_s", "1/s", ["engine.project_series"],
         lambda: count("engine.project_series", "points") / project_s),
        ("engine.run_self_s", "s", ["engine.run"], lambda: self_s("engine.run")),
        ("engine.parallel_speedup", "ratio",
         ["engine.run", "engine.clip_to_event", "engine.project_series"],
         lambda: run_children_cpu_s() / duration(by_name["engine.run"][0])),
        ("output.write_csv_s", "s", ["output.write_csv"], lambda: write_s),
        ("output.rows_per_s", "1/s", ["output.write_csv"],
         lambda: count("output.write_csv", "rows") / write_s),
        ("output.files_written", "count", ["output.write_csv"],
         lambda: len(by_name["output.write_csv"])),
        ("output.bytes_written", "bytes", ["output.write_csv"],
         lambda: file_bytes("output.write_csv")),
        ("output.render_overlay_svg_s", "s", ["output.render_overlay_svg"],
         lambda: self_s("output.render_overlay_svg")),
        ("output.svg_bytes", "bytes", ["output.render_overlay_svg"],
         lambda: file_bytes("output.render_overlay_svg")),
        ("cli.main_self_s", "s", ["cli.main"], lambda: self_s("cli.main")),
    ]
    metrics = {name: (value(), unit) for name, unit, needs, value in table
               if not set(needs) & set(missing)}
    return metrics, missing


# --------------------------------------------------------------------------
# Sessions
# --------------------------------------------------------------------------

def _median(runs: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in runs)


def timed_session(corpus, seconds: float, work: Path) -> dict:
    """CLI runs started until --seconds is spent (at least one), plus set-up."""
    setup, errors = setup_seconds(corpus, SETUP_SAMPLES)
    runs: list[dict] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(measured_run(corpus, work / "run", traced=False))
    metrics = {name: (_median(runs, name), unit, len(runs))
               for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))}
    if setup:
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
    return {"metrics": metrics, "runs": runs, "errors": errors, "notes": []}


def traced_session(corpus, seconds: float, work: Path) -> dict:
    """Pairs of an untraced and a traced CLI run until --seconds is spent
    (at least one pair); per-layer medians over the traced runs."""
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(measured_run(corpus, work / "run", traced=False))
        traced.append(measured_run(corpus, work / "run", traced=True))
        per_pair = time.perf_counter() - begun
        if time.perf_counter() - start + per_pair > seconds:
            break
    good = [r for r in traced if "layers" in r]
    metrics = {}
    for name in sorted({name for r in good for name in r["layers"]}):
        values = [r["layers"][name] for r in good if name in r["layers"]]
        metrics[name] = (statistics.median(v for v, _ in values), values[0][1],
                         len(values))
    with_main = [r for r in good if r["main_s"] is not None]
    if with_main:
        untraced = _median(plain, "wall_s")
        metrics["trace.overhead_ratio"] = (
            (_median(with_main, "wall_s") - untraced) / untraced, "ratio", len(with_main))
        metrics["trace.unattributed_s"] = (
            statistics.median(r["wall_s"] - r["main_s"] for r in with_main), "s",
            len(with_main))
    notes = [f"span missing, its metrics left out: {m}"
             for m in sorted({m for r in traced for m in r.get("missing", ())})]
    if not corpus.plot:
        notes.append("output.render_overlay_svg is not called on this workload "
                     "(no --plot); its metrics read 0")
    return {"metrics": metrics, "runs": plain + traced, "errors": [], "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its CLI process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "framelocal" / "cli.py").is_file():
        print("bench: src/framelocal not found; run from a full checkout of "
              "the repository", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        started = time.perf_counter()
        corpus = corpus_mod.generate(args.workload, args.seed, work / "corpus")
        generate_s = time.perf_counter() - started
        session = traced_session if args.trace else timed_session
        result = session(corpus, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()             # only if no other run is using it
        corpus_mod.fsync_dir(BENCH)

    runs, errors = result["runs"], result["errors"]
    failed = [r for r in runs if r["failures"]]
    digests = sorted({r["digest"] for r in runs if not r["failures"]})
    if len(digests) > 1:
        errors.append(f"runs on one corpus wrote {len(digests)} different outputs")
    manifest = corpus.manifest()
    del manifest["rows_per_file"]
    print(f"corpus generated in {generate_s:.2f} s: {json.dumps(manifest)}")
    for r in failed:
        print(f"FAILED run: {'; '.join(r['failures'])}")
    for line in errors:
        print(f"ERROR: {line}")
    for line in result["notes"]:
        print(f"note: {line}")
    print(f"output digest sha256: {', '.join(digests) or 'none'}")
    print(f"runs attempted {len(runs)}, failed {len(failed)}, "
          f"failed_ratio {len(failed) / len(runs):.4f}")
    print("wall_s of each run: " + " ".join(f"{r['wall_s']:.3f}" for r in runs))
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:32s} {value:18.6f} {unit:6s} median of {samples}")
    print(json.dumps({
        "correct": not failed and not errors, "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
