"""Reproject GPS trajectories into local x,y,t coordinates relative to
user-drawn spatio-temporal reference frames.

A reference frame is a directed two-point line (spatial origin and
orientation) paired with one or more closed UTC event intervals. Every
(trace, frame, event) permutation with samples inside the interval becomes
one series of (x, y, t): meters perpendicular to the frame (right-positive),
meters along the frame direction, and seconds since the event began.
"""

from . import errors
from .engine import RunResult, clip_to_event, project_series, run
from .geodesy import (
    Ellipsoid,
    GeodesicSolution,
    HomParams,
    WGS84,
    geodesic_inverse,
    hom_forward,
    hom_forward_many,
    hom_inverse,
    hom_setup,
)
from .ingest import (
    IngestReport,
    build_frame_line,
    format_interval,
    load_inputs,
    parse_frames,
    parse_gpx,
    parse_interval,
)
from .model import (
    EventInterval,
    EventSeries,
    FrameLine,
    Trace,
)
from .output import CsvFormatter, OutputLayout, render_overlay_svg, write_csv

__version__ = "0.1.0"

__all__ = [
    "CsvFormatter",
    "Ellipsoid",
    "EventInterval",
    "EventSeries",
    "FrameLine",
    "GeodesicSolution",
    "HomParams",
    "IngestReport",
    "OutputLayout",
    "RunResult",
    "Trace",
    "WGS84",
    "__version__",
    "build_frame_line",
    "clip_to_event",
    "errors",
    "format_interval",
    "geodesic_inverse",
    "hom_forward",
    "hom_forward_many",
    "hom_inverse",
    "hom_setup",
    "load_inputs",
    "parse_frames",
    "parse_gpx",
    "parse_interval",
    "project_series",
    "render_overlay_svg",
    "run",
    "write_csv",
]
