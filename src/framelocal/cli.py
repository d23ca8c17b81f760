"""Command-line pipeline: frames file + traces directory -> CSV directory.

Exit codes: 0 success, 1 usage error, 2 ingest error, 3 processing/output
error. The summary line goes to stdout; warnings and errors go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from itertools import repeat
from pathlib import Path

from .engine import run
from .errors import FrameLocalError
from .ingest import load_inputs
from .model import EventSeries
from .output import OutputLayout, render_overlay_svg, write_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
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
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="verbose diagnostics on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError:
        return 1
    if args.jobs < 1:
        print("framelocal: error: --jobs must be >= 1", file=sys.stderr)
        return 1

    # The pipeline builds no per-fix or per-file reference cycles, so the
    # cyclic collector finds nothing to free; left on, a run over many GPX
    # files spends ~40% of its time in it, walking the live trees and points.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _pipeline(args)
    finally:
        if gc_was_enabled:
            gc.enable()


def _pipeline(args: argparse.Namespace) -> int:
    """Load, then run and write the CSVs one trace at a time, then the
    plot; return the exit code."""
    try:
        frames, traces, report = load_inputs(args.frames, args.traces,
                                             recurse=args.recurse)
    except FrameLocalError as exc:
        print(f"framelocal: error: {exc}", file=sys.stderr)
        return 2

    for source, message in report.warnings:
        print(f"framelocal: warning: {source}: {message}", file=sys.stderr)
    warnings = len(report.warnings)
    if args.verbose:
        events = sum(len(frame_events) for _, frame_events in frames)
        print(f"framelocal: loaded {len(frames)} frames, {events} events, "
              f"{len(traces)} traces", file=sys.stderr)

    # One trace at a time: traces come sorted by id with unique ids, so
    # writing each trace's key-sorted series in turn writes the run's
    # (trace, frame, event) order, and only --plot keeps a written series.
    written = skipped_empty = 0
    plotted: list[EventSeries] = []
    try:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        layout = OutputLayout(out_dir=out_dir)
        for trace in traces:
            result = run([trace], frames)
            for message in result.warnings:
                print(f"framelocal: warning: {message}", file=sys.stderr)
            # map, not a loop over the series: a loop variable would keep
            # this trace's last series alive while the next trace runs
            for path in map(write_csv, result.series, repeat(layout)):
                if args.verbose:
                    print(f"framelocal: wrote {path}", file=sys.stderr)
            written += len(result.series)
            skipped_empty += result.skipped_empty
            warnings += len(result.warnings)
            if args.plot is not None:
                plotted.extend(result.series)
            del result  # before the next trace runs
        if args.plot is not None:
            if plotted:
                render_overlay_svg(plotted, args.plot)
                if args.verbose:
                    print(f"framelocal: wrote {args.plot}", file=sys.stderr)
            else:
                print("framelocal: warning: no series to plot; skipped "
                      f"{args.plot}", file=sys.stderr)
                warnings += 1
    except (FrameLocalError, OSError) as exc:
        print(f"framelocal: error: {exc}", file=sys.stderr)
        return 3

    print(f"{written} series written, {skipped_empty} "
          f"permutations skipped (empty), {warnings} warnings")
    return 0


def entry_point() -> None:
    raise SystemExit(main())
