"""Command-line pipeline: frames file + traces directory -> CSV directory.

Exit codes: 0 success, 1 usage error, 2 ingest error, 3 output error. The
summary line goes to stdout; warnings and errors go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import deque
from collections.abc import Sequence
from itertools import chain
from pathlib import Path

from .engine import prepare, run
from .errors import FrameLocalError, NoSeries
from .ingest import load_inputs
from .output import OutputLayout, csv_texts, render_overlay_svg, shown, write_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        _say(f"{self.prog}: error: {message}")
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framelocal",
        description="Reproject GPS traces into x,y,t coordinates local to "
                    "two-point reference frames with event intervals.")
    parser.add_argument("--frames", required=True, metavar="FILE",
                        help="GeoJSON FeatureCollection of 2-point frame lines")
    parser.add_argument("--traces", required=True, metavar="DIR",
                        help="directory of .gpx trace files")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory for per-permutation CSV files "
                             "(created if absent, never cleared)")
    parser.add_argument("--recurse", action="store_true",
                        help="also search subdirectories for .gpx files")
    parser.add_argument("--plot", metavar="FILE.svg", default=None,
                        help="write an SVG overlay of all series")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted for compatibility (N >= 1); processing "
                             "is single-threaded and output does not depend on N")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="verbose diagnostics on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    if args.jobs < 1:
        _say("framelocal: error: --jobs must be >= 1")
        return 1

    # The pipeline builds no per-fix or per-file reference cycles, so the
    # cyclic collector finds nothing to free; left on, it walks the live
    # objects for about 1%, 5% and 3.5% of a season_archive,
    # tournament_dense and league_overlay_jobs2 run's time (seed 101).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _pipeline(args)
    finally:
        if gc_was_enabled:
            gc.enable()


def _pipeline(args: argparse.Namespace) -> int:
    """Load, set up each frame's projection once, then run and write the
    CSVs one trace at a time, drawing the plot from the written series as
    they come; return the exit code."""
    try:
        frames, traces, report = load_inputs(args.frames, args.traces,
                                             recurse=args.recurse)
    except FrameLocalError as exc:
        _say(f"framelocal: error: {exc}")
        return 2

    warnings = _warn(report.warnings)
    if args.verbose:
        events = sum(len(frame_events) for _, frame_events in frames)
        _say(f"framelocal: loaded {len(frames)} frames, {events} events, "
             f"{len(traces)} traces")

    written = skipped_empty = 0

    def written_series(trace):
        """Run and report one trace; yield each series once its CSV is written."""
        nonlocal written, skipped_empty, warnings
        result = run([trace], prepared)
        warnings += _warn(result.warnings)
        skipped_empty += result.skipped_empty
        for series, text in csv_texts(result.series):
            path = write_csv(series, layout, text)
            # dropped before the next text is built and while the plot folds series
            del text
            written += 1
            if args.verbose:
                _say(f"framelocal: wrote {path}")
            yield series

    try:
        prepared = prepare(frames)
        layout = OutputLayout(out_dir=Path(args.out))
        # traces come sorted by unique ids, so each trace's key-sorted series
        # in turn are the run's (trace, frame, event) order
        stream = chain.from_iterable(map(written_series, traces))
        if args.plot is None:
            deque(stream, maxlen=0)
        else:
            render_overlay_svg(stream, args.plot)
            if args.verbose:
                _say(f"framelocal: wrote {args.plot}")
    except NoSeries:
        _say(f"framelocal: warning: no series to plot; skipped {args.plot}")
        warnings += 1
    except OSError as exc:
        _say(f"framelocal: error: {exc}")
        return 3

    print(f"{written} series written, {skipped_empty} "
          f"permutations skipped (empty), {warnings} warnings")
    return 0


def _warn(pairs: Sequence[tuple[str, str]]) -> int:
    """Print each (source, message) warning; return how many there were."""
    for source, message in pairs:
        _say(f"framelocal: warning: {source}: {message}")
    return len(pairs)


def _say(line: str) -> None:
    """Print one line to stderr, each unprintable character of a name in it
    written as its backslash escape (output.shown)."""
    print(shown(line), file=sys.stderr)


def entry_point() -> None:
    raise SystemExit(main())
