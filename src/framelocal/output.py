"""Serialize event series to per-permutation CSV files and render an
optional SVG overlay of all series in the shared local coordinate system.

CSV contract: UTF-8, LF line endings, header exactly ``x,y,t``, one row per
sample with x/y in meters and t in seconds. Numbers use the shortest
decimal rendering that parses back to the identical double, so a written
file re-reads bit-exactly.

The series of one trace repeat numbers: a fix inside several events of one
frame is a row of each of their series, and t values recur across events
and frames. csv_texts, given a trace's series as engine.run returns them,
formats each fix's x,y once per frame and each distinct t value once per
call, holding one frame's text at a time.
"""

from __future__ import annotations

import contextlib
import html
import math
import os
import re
import stat
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from .errors import NoSeries
from .model import EventSeries, Names, aligned

_UNSAFE = re.compile(r"[^A-Za-z0-9_-]")

# stroke colors cycled per frame id
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _sanitize(part: str) -> str:
    cleaned = _UNSAFE.sub("_", part)
    return cleaned if cleaned else "_"


def shown(text: str) -> str:
    """text with each character that is not printable (str.isprintable)
    written as its backslash escape, e.g. a newline as \\n, U+0001 as \\x01
    and a lone surrogate as \\udcff. So the CLI's stderr lines and the
    overlay's legend labels show any name on one line, in characters that
    UTF-8 encodes and XML allows."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode()
                   for c in text)


@dataclass
class OutputLayout:
    """Names output files ``<trace>__<frame>__<event>.csv`` under out_dir.

    out_dir is created, with its parents, when the layout is built. Name
    components are sanitized to [A-Za-z0-9_-]; a name already given out by
    this layout instance, compared case-folded, takes the first free suffix
    _2, _3, ... So no two names differ only in case, and no file of the run
    replaces another on a file system that ignores case. The stem is cut
    so that it, its suffix and ".csv" fit in 255 bytes, the longest file
    name most file systems take.
    """

    out_dir: Path
    # the stems are ASCII, so lower() folds them as a file system that
    # ignores case does; each character is a byte, and ".csv" takes 4
    _names: Names = field(default_factory=lambda: Names(255 - 4, str.lower),
                          init=False, repr=False)

    def __post_init__(self) -> None:
        Path(self.out_dir).mkdir(parents=True, exist_ok=True)

    def path_for(self, series: EventSeries) -> Path:
        stem = "__".join(_sanitize(part) for part in series.key)
        return Path(self.out_dir) / f"{self._names.claim(stem)}.csv"


def _xy_texts(rows: Sequence[tuple[float, float, float]]) -> list[str]:
    """The "x,y," text of each of one or more (x, y, t) rows, in order."""
    # repr() is the shortest round-tripping form; integral values drop ".0",
    # and only a number's end is followed by ",".
    return [f"{x!r},{y!r},".replace(".0,", ",") for x, y, _ in rows]


class _TTexts(dict):
    """t value -> its "t\n" text, filled on first lookup. A zero is never
    stored: 0.0 and -0.0 are one key but write "0" and "-0". Keyed by
    value, so it takes the float t values an EventSeries holds."""

    def __missing__(self, t: float) -> str:
        text = f"{t!r}\n".replace(".0\n", "\n")
        if t:
            self[t] = text
        return text


_T = itemgetter(2)

# the t texts csv_texts keeps from earlier series before it clears them
_T_TEXTS_KEPT = 1 << 16


def _frame_texts(group: Sequence[EventSeries]) -> list:
    """The x,y texts of the rows of the group's series, over the union of
    their windows: a list built by model.aligned, indexed by trace
    position."""
    def part(series: EventSeries, lo: int, hi: int) -> list[str]:
        start = series._source[1].start
        return _xy_texts(series.points[lo - start:hi - start])
    return aligned(max(s._source[1].stop for s in group), group,
                   lambda s: s._source[1], part)


def _csv_text(series: EventSeries, xy: list, t_texts: _TTexts) -> str:
    """The series' whole CSV text, header included, taking the x,y texts
    of its rows from xy at its window."""
    points, (_, window) = series.points, series._source
    text = ["x,y,t\n"] * (2 * len(points) + 1)
    text[1::2] = xy[window.start:window.stop]
    text[2::2] = map(t_texts.__getitem__, map(_T, points))
    return "".join(text)


def csv_texts(series: Iterable[EventSeries]) -> Iterator[tuple[EventSeries, str]]:
    """Yield each series with its whole CSV text, header included, in the
    order given, sharing text between them.

    Every series has an EventSeries._source, and consecutive series of one
    token form a group: engine.run gives one token to the series it cut
    from one trace's projection into one frame, so one trace's series in
    key order, as run returns them, make one group per frame. Every other
    series (built by hand or by dataclasses.replace, or with out-of-domain
    drops) keeps the token of its own it was built with and is a group of
    its own, formatted by the same code, so a series' text is the same
    either way. Each fix's x,y text is formatted once per group, over the
    union of the windows of the group's series (a list built by
    model.aligned, indexed by trace position), and each distinct t value's
    text once per call, in a table keyed by value that never stores a
    zero, so -0.0 still writes -0. One group's list is held at a time,
    dropped before the next group's is built. The t texts are cleared
    before a series once more than 65,536 are kept.
    """
    t_texts = _TTexts()
    for _, group in groupby(series, lambda s: s._source[0]):
        group = list(group)
        xy = _frame_texts(group)
        for s in group:
            if len(t_texts) > _T_TEXTS_KEPT:
                t_texts.clear()
            yield s, _csv_text(s, xy, t_texts)
        del xy  # before the next group's list is built


def write_csv(series: EventSeries, layout: OutputLayout, text: str | None = None) -> Path:
    """Write one series to its CSV file; returns the path written.

    text is the series' CSV text, as csv_texts yields it; without it, the
    series is formatted alone, by csv_texts((series,)). If the write fails
    once the file is open, the file is removed before the error
    propagates, so no partial CSV is left; a file that could not be opened
    is left as it is.
    """
    path = layout.path_for(series)
    if text is None:
        ((_, text),) = csv_texts((series,))
    handle = open(path, "w", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise
    return path


def render_overlay_svg(series: Iterable[EventSeries], path: str | Path) -> Path:
    """Render all series as polylines in one SVG.

    The drawing shares one local coordinate system with equal x/y scale and
    the along-frame direction pointing up. The viewBox fits the union
    bounding box with a 5% margin (at least 1 m of span), strokes are
    colored by frame id from a fixed palette, and a legend lists each
    (trace, frame, event), as shown() writes it. series may be any
    iterable; it is read once, in order, and each series is folded into
    running bounds and its polyline text, so no coordinate list spans the
    run.
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
                      shown(f"{s.trace_id} / {s.frame_id} / {s.event_label}")))
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
    temp, handle = (_create_beside(path) if replace
                    else (None, open(path, "w", encoding="utf-8", newline="")))
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


def _create_beside(path: Path) -> tuple[Path, TextIO]:
    """A new file in path's directory, under a free hidden name, and its
    handle."""
    while True:
        temp = path.with_name(f".framelocal-{os.urandom(4).hex()}.tmp")
        try:
            return temp, open(temp, "x", encoding="utf-8", newline="")
        except FileExistsError:
            continue
