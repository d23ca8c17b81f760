"""Span tracer for the benchmark's traced run, applied from outside the package.

``python3 bench/tracer.py SPANS.json -- <framelocal CLI arguments>`` imports
framelocal from ``src/``, replaces the public functions at each module
boundary (the names in ``WRAPPED``) with timing wrappers, calls
``cli.main`` in-process, and writes every span to SPANS.json. Nothing in
``src/`` is edited. Per-point functions such as ``hom_forward`` are not
wrapped: a wrapper on every point costs more than the work it measures.

Each thread keeps its own span stack. A span opened on a thread whose
stack is empty (a pool worker) takes as parent the innermost open span of
the main thread, which is the span that dispatched the work. A span's self
time is its duration minus the union of the intervals its children cover,
because children overlap when the engine runs on several threads.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute the caller looks up, span name). The span name is the
# layer that does the work; the attribute is where the calling layer finds it.
WRAPPED = (
    ("cli", "load_inputs", "ingest.load_inputs"),
    ("cli", "run", "engine.run"),
    ("cli", "write_csv", "output.write_csv"),
    ("cli", "render_overlay_svg", "output.render_overlay_svg"),
    ("ingest", "parse_frames", "ingest.parse_frames"),
    ("ingest", "build_frame_line", "ingest.build_frame_line"),
    ("ingest", "parse_gpx", "ingest.parse_gpx"),
    ("geodesy", "geodesic_inverse", "geodesy.geodesic_inverse"),
    ("engine", "hom_setup", "geodesy.hom_setup"),
    ("engine", "clip_to_event", "engine.clip_to_event"),
    ("engine", "project_series", "engine.project_series"),
)


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts read at a boundary from the call's arguments and result;
    only O(1) lookups, so the tracer adds no per-point work."""
    if name == "ingest.parse_gpx":
        return {"chars": len(args[0]), "points": len(result.points)}
    if name == "ingest.parse_frames":
        return {"chars": len(args[0])}
    if name == "engine.clip_to_event":
        return {"points": len(result)}
    if name == "engine.project_series":
        return {"points": len(result.points)}
    if name == "output.write_csv":
        return {"rows": len(args[0].points), "path": str(result)}
    if name == "output.render_overlay_svg":
        return {"path": str(result)}
    if name == "ingest.load_inputs":
        return {"warnings": len(result[2].warnings)}
    return {}


class Tracer:
    """Collects spans as [name, start, end, parent index, thread, counts,
    thread CPU seconds]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.skipped_points = 0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _open(self, name: str) -> tuple[int, list[int]]:
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) or [None]
            parent = main_stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, ident, {}, 0.0])
        stack.append(index)
        return index, stack

    def call(self, name: str, fn, *args, **kwargs):
        index, stack = self._open(name)
        span = self.spans[index]
        cpu = time.thread_time()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            span[6] = time.thread_time() - cpu
            stack.pop()
        span[5] = _counts(name, args, result)
        return result

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "ingest.parse_gpx":
                kwargs["on_warning"] = self._counting(kwargs.get("on_warning"))
            return self.call(name, fn, *args, **kwargs)

        setattr(module, attr, traced)

    def _counting(self, on_warning):
        # parse_gpx reports each track point it skips through this callback
        def counted(message: str) -> None:
            self.skipped_points += 1
            if on_warning is not None:
                on_warning(message)
        return counted


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, *_rest in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, *_rest) in enumerate(spans):
        covered = _union_length([(max(lo, start), min(hi, end))
                                 for lo, hi in children.get(index, ())
                                 if hi > start and lo < end])
        result.append((end - start) - covered)
    return result


def traced_main(argv: list[str]) -> dict:
    """Run cli.main(argv) under the tracer; return the span dump."""
    sys.path.insert(0, str(ROOT / "src"))
    from framelocal import cli, engine, geodesy, ingest

    modules = {"cli": cli, "engine": engine, "geodesy": geodesy, "ingest": ingest}
    tracer = Tracer()
    for module, attr, name in WRAPPED:
        tracer.wrap(modules[module], attr, name)
    code = tracer.call("cli.main", cli.main, argv)
    return {"exit_code": code, "spans": tracer.spans, "missing": tracer.missing,
            "skipped_points": tracer.skipped_points}


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <framelocal arguments>")
    dump = traced_main(sys.argv[3:])
    Path(sys.argv[1]).write_text(json.dumps(dump), encoding="utf-8")
    sys.exit(dump["exit_code"])
