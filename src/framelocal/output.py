"""Serialize event series to per-permutation CSV files and render an
optional SVG overlay of all series in the shared local coordinate system.

CSV contract: UTF-8, LF line endings, header exactly ``x,y,t``, one row per
sample with x/y in meters and t in seconds. Numbers use the shortest
decimal rendering that parses back to the identical double, so a written
file re-reads bit-exactly.

The series of one trace repeat numbers: a fix inside several events of one
frame is a row of each of their series, and t values recur across events
and frames. A CsvFormatter built from a trace's series formats each fix's
x,y once per frame and each distinct t value once per trace.
"""

from __future__ import annotations

import contextlib
import html
import math
import os
import re
import stat
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, is_, itemgetter
from pathlib import Path
from typing import TextIO

from .errors import NoSeries
from .model import EventSeries, aligned, unique_name

_UNSAFE = re.compile(r"[^A-Za-z0-9_-]")

# stroke colors cycled per frame id
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _sanitize(part: str) -> str:
    cleaned = _UNSAFE.sub("_", part)
    return cleaned if cleaned else "_"


@dataclass
class OutputLayout:
    """Names output files ``<trace>__<frame>__<event>.csv`` under out_dir.

    out_dir is created, with its parents, when the layout is built. Name
    components are sanitized to [A-Za-z0-9_-]; a name already given out by
    this layout instance takes the first free suffix _2, _3, ... The stem
    is cut so that it, its suffix and ".csv" fit in 255 bytes, the longest
    file name most file systems take.
    """

    out_dir: Path
    _taken: set[str] = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        Path(self.out_dir).mkdir(parents=True, exist_ok=True)

    def path_for(self, series: EventSeries) -> Path:
        stem = "__".join(_sanitize(part) for part in series.key)
        # the stem is ASCII, so each character is a byte; ".csv" takes 4
        return Path(self.out_dir) / f"{unique_name(stem, self._taken, 255 - 4)}.csv"


def _xy_texts(rows: Sequence[tuple[float, float, float]]) -> list[str]:
    """The "x,y," text of each of one or more (x, y, t) rows, in order."""
    # repr() is the shortest round-tripping form; integral values drop ".0".
    # Each number ends at ",", so the replacement touches only the ".0" that
    # ends a number, and no text holds the "\n" it is split at.
    return ("\n".join([f"{x!r},{y!r}," for x, y, _ in rows])
            .replace(".0,", ",").split("\n"))


class _TTexts(dict):
    """t value -> its "t\n" text, filled on first lookup. A zero is never
    stored: 0.0 and -0.0 are one key but write "0" and "-0". Keyed by
    value, so it takes the float t values an EventSeries holds."""

    def __missing__(self, t: float) -> str:
        text = f"{t!r}\n".replace(".0\n", "\n")
        if t:
            self[t] = text
        return text


_X, _Y, _T = itemgetter(0), itemgetter(1), itemgetter(2)

# the t texts a CsvFormatter keeps from earlier series before it clears them
_T_TEXTS_KEPT = 1 << 16


class CsvFormatter:
    """Formats the CSV text of the series of one trace, sharing text
    between them.

    Each fix's x,y text is formatted once per frame, over the union of the
    windows of that frame's series, and each distinct t value's text once
    per formatter. One frame is held at a time, as two lists built by
    model.aligned and indexed by trace position: its fixes' rows and their
    x,y texts. They are dropped, then built for another frame, when a
    series of that frame is formatted, which happens once per frame when
    the series come in key order, as run returns them. The t texts are
    cleared before a series once more than 65,536 are kept. An x,y text is
    reused only for the very x and y objects it was formatted from. A
    series with no window, whose rows do not fill its window (out-of-domain
    drops), or that the formatter was not built from, is formatted alone by
    the same code.
    """

    def __init__(self, series: Iterable[EventSeries]) -> None:
        # (trace id, frame id) -> the series whose rows fill their windows,
        # and the ids of those series, which the formatter keeps alive
        self._frames: dict[tuple[str, str], list[EventSeries]] = {}
        for s in series:
            if s.window is not None and len(s.window) == len(s.points):
                self._frames.setdefault((s.trace_id, s.frame_id), []).append(s)
        self._members = {id(s) for group in self._frames.values() for s in group}
        self._t_texts = _TTexts()
        # the held frame's key, and its fixes' rows and x,y texts, each list
        # indexed by trace position
        self._held: tuple[str, str] | None = None
        self._rows: list = []
        self._xy: list = []

    def _hold(self, key: tuple[str, str]) -> None:
        """Drop the held frame's lists, then build the frame's rows and
        their x,y texts over its union of windows."""
        self._rows = self._xy = []
        group = self._frames[key]
        size = max(s.window.stop for s in group)
        window = attrgetter("window")
        self._rows = rows = aligned(size, group, window, lambda s, lo, hi: s.points[
            lo - s.window.start:hi - s.window.start])
        self._xy = aligned(size, group, window, lambda _, lo, hi: _xy_texts(rows[lo:hi]))
        self._held = key

    def csv_text(self, series: EventSeries) -> str:
        """The series' whole CSV text, header included."""
        points = series.points
        key = (series.trace_id, series.frame_id)
        xy = None
        if id(series) in self._members:
            if key != self._held:
                self._hold(key)
            rows = self._rows[series.window.start:series.window.stop]
            if (all(map(is_, map(_X, points), map(_X, rows)))
                    and all(map(is_, map(_Y, points), map(_Y, rows)))):
                xy = self._xy[series.window.start:series.window.stop]
        if xy is None:
            xy = _xy_texts(points)
        if len(self._t_texts) > _T_TEXTS_KEPT:
            self._t_texts.clear()
        text = ["x,y,t\n"] * (2 * len(points) + 1)
        text[1::2] = xy
        text[2::2] = map(self._t_texts.__getitem__, map(_T, points))
        return "".join(text)


def write_csv(series: EventSeries, layout: OutputLayout,
              formatter: CsvFormatter | None = None) -> Path:
    """Write one series to its CSV file; returns the path written.

    formatter, a CsvFormatter built from the series of this series' trace,
    shares the text of numbers between them; without it, the series is
    formatted alone. The CSV text is the same either way.
    """
    path = layout.path_for(series)
    if formatter is None:
        formatter = CsvFormatter(())
    text = formatter.csv_text(series)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def render_overlay_svg(series: Iterable[EventSeries], path: str | Path) -> Path:
    """Render all series as polylines in one SVG.

    The drawing shares one local coordinate system with equal x/y scale and
    the along-frame direction pointing up. The viewBox fits the union
    bounding box with a 5% margin (at least 1 m of span), strokes are
    colored by frame id from a fixed palette, and a legend lists each
    (trace, frame, event), with a character UTF-8 cannot encode written as
    its backslash escape, e.g. \\udcff. series may be any iterable; it is
    read once, in order, and each series is folded into running bounds and
    its polyline text, so no coordinate list spans the run.
    """
    path = Path(path)

    # the bounds are left folds over the run's coordinates, seeded with
    # infinities, so they equal min() and max() over them all, ties included
    min_x = min_y = math.inf
    max_x = max_y = -math.inf
    color_of: dict[str, str] = {}  # frame id -> palette color, in first-seen order
    drawn: list[tuple[str, str, str]] = []  # (color, points, legend label)
    for s in series:
        xs = [x for x, _, _ in s.points]
        ys = [-y for _, y, _ in s.points]  # SVG y grows downward
        min_x, max_x = min(chain([min_x], xs)), max(chain([max_x], xs))
        min_y, max_y = min(chain([min_y], ys)), max(chain([max_y], ys))
        # one % operation formats the series' x, -y pairs, interleaved
        flat = [0.0] * (2 * len(xs))
        flat[0::2], flat[1::2] = xs, ys
        color = color_of.setdefault(s.frame_id, _PALETTE[len(color_of) % len(_PALETTE)])
        drawn.append((color, ("%.6g,%.6g " * len(xs) % tuple(flat))[:-1],
                      f"{s.trace_id} / {s.frame_id} / {s.event_label}"))
    if not drawn:
        raise NoSeries("no series to plot")

    def _ensure_span(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo < 1.0:
            center = 0.5 * (lo + hi)
            return center - 0.5, center + 0.5
        return lo, hi

    min_x, max_x = _ensure_span(min_x, max_x)
    min_y, max_y = _ensure_span(min_y, max_y)
    pad = 0.05 * max(max_x - min_x, max_y - min_y)
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    width = max_x - min_x
    height = max_y - min_y
    span = max(width, height)

    stroke = span * 0.004
    font = span * 0.03
    path.parent.mkdir(parents=True, exist_ok=True)
    # A regular file goes to a new file beside path, which replaces path
    # once written in full, so a failed write leaves neither a partial
    # overlay nor the new file. Anything else (a device, a FIFO, a symlink)
    # is written straight. Each line is formatted as it is written, so the
    # whole text is never held at once.
    try:
        replace = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        replace = True
    temp, handle = _create_beside(path) if replace else (None, _open_svg(path, "w"))
    try:
        with handle:
            handle.write('<?xml version="1.0" encoding="UTF-8"?>\n'
                         f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                         f'width="800" height="{800.0 * height / width:.0f}" '
                         f'viewBox="{min_x:.6g} {min_y:.6g} {width:.6g} {height:.6g}">\n')
            for color, pts, _ in drawn:
                handle.write(f'  <polyline points="{pts}" fill="none" '
                             f'stroke="{color}" stroke-width="{stroke:.6g}" '
                             f'stroke-linejoin="round" stroke-linecap="round"/>\n')
            for i, (color, _, label) in enumerate(drawn):
                handle.write(f'  <text x="{min_x + 0.4 * font:.6g}" '
                             f'y="{min_y + (i + 1.2) * font:.6g}" font-size="{font:.6g}" '
                             f'font-family="sans-serif" fill="{color}">'
                             f'{html.escape(label, quote=False)}</text>\n')
            handle.write('</svg>\n')
        if temp is not None:
            os.replace(temp, path)
    except BaseException:
        if temp is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp)
        raise
    return path


def _open_svg(path: Path, mode: str) -> TextIO:
    """path opened for writing in mode, "w" or "x". A name that UTF-8
    cannot encode (a lone surrogate, as from a file name's undecodable
    byte) is written as its backslash escape, the form in which stderr
    shows the same name."""
    return open(path, mode, encoding="utf-8", errors="backslashreplace", newline="")


def _create_beside(path: Path) -> tuple[Path, TextIO]:
    """A new file in path's directory, under a free hidden name, and its
    handle, opened by _open_svg."""
    while True:
        temp = path.with_name(f".framelocal-{os.urandom(4).hex()}.tmp")
        try:
            return temp, _open_svg(temp, "x")
        except FileExistsError:
            continue
