"""Serialize event series to per-permutation CSV files and render an
optional SVG overlay of all series in the shared local coordinate system.

CSV contract: UTF-8, LF line endings, header exactly ``x,y,t``, one row per
sample with x/y in meters and t in seconds. Numbers use the shortest
decimal rendering that parses back to the identical double, so a written
file re-reads bit-exactly.
"""

from __future__ import annotations

import html
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .errors import NoSeries
from .model import EventSeries, unique_name

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
    this layout instance takes the first free suffix _2, _3, ...
    """

    out_dir: Path
    _taken: set[str] = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        Path(self.out_dir).mkdir(parents=True, exist_ok=True)

    def path_for(self, series: EventSeries) -> Path:
        stem = "__".join(_sanitize(part) for part in series.key)
        return Path(self.out_dir) / f"{unique_name(stem, self._taken)}.csv"


def write_csv(series: EventSeries, layout: OutputLayout) -> Path:
    """Write one series to its CSV file; returns the path written."""
    path = layout.path_for(series)
    rows = "".join([f"{x!r},{y!r},{t!r}\n" for x, y, t in series.points])
    # repr() is the shortest round-tripping form; integral values drop ".0".
    # Every number ends at "," or "\n", so these replacements touch only the
    # ".0" that ends a number.
    rows = rows.replace(".0,", ",").replace(".0\n", "\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("x,y,t\n" + rows)
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
    series = iter(series)
    first = next(series, None)
    if first is None:
        raise NoSeries("no series to plot")
    path = Path(path)

    # the bounds are left folds over the run's coordinates, seeded with its
    # first ones, so they equal min() and max() over them all, ties included
    min_x = max_x = first.points[0][0]
    min_y = max_y = -first.points[0][1]  # SVG y grows downward
    color_of: dict[str, str] = {}  # frame id -> palette color, in first-seen order
    drawn: list[tuple[str, str, str]] = []  # (color, points, legend label)
    for s in chain([first], series):
        xs = [x for x, _, _ in s.points]
        ys = [-y for _, y, _ in s.points]
        min_x, max_x = min(chain([min_x], xs)), max(chain([max_x], xs))
        min_y, max_y = min(chain([min_y], ys)), max(chain([max_y], ys))
        # one % operation formats the series' x, -y pairs, interleaved
        flat = [0.0] * (2 * len(xs))
        flat[0::2], flat[1::2] = xs, ys
        color = color_of.setdefault(s.frame_id, _PALETTE[len(color_of) % len(_PALETTE)])
        drawn.append((color, ("%.6g,%.6g " * len(xs) % tuple(flat))[:-1],
                      f"{s.trace_id} / {s.frame_id} / {s.event_label}"))

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
    # each line is formatted as it is written, so the whole text is never
    # held at once. A legend name that UTF-8 cannot encode (a lone surrogate,
    # as from a file name's undecodable byte) is written as its backslash
    # escape, the form in which stderr shows the same name.
    with open(path, "w", encoding="utf-8", errors="backslashreplace",
              newline="") as handle:
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
    return path
