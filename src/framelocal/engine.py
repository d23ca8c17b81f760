"""Core pipeline: iterate every (trace, frame, event) permutation, clip each
trace to the event interval, project the surviving points into frame-local
coordinates, and shift time to seconds since the event began.

Both interval bounds are inclusive, so a sample landing exactly on a shared
boundary of two back-to-back events appears in both series. Permutations
with no in-interval samples are counted and skipped; no boundary points are
interpolated or invented. A sample outside the projection's domain is
dropped from its series with a warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import FrameLocalError, OutOfDomain
from .geodesy import HomParams, WGS84, hom_forward, hom_setup
from .ingest import WarnFn
from .model import EventInterval, EventSeries, FrameLine, GeoPoint, LocalPoint, Trace


@dataclass(frozen=True)
class RunResult:
    """All non-empty series, the count of empty permutations, and one
    warning per permutation that dropped out-of-domain samples."""

    series: tuple[EventSeries, ...]
    skipped_empty: int
    warnings: tuple[str, ...] = ()


def clip_to_event(trace: Trace, event: EventInterval) -> tuple[GeoPoint, ...]:
    """Points of a time-sorted trace with begin <= time <= end, in order."""
    lo = bisect_left(trace.points, event.begin_utc, key=lambda p: p.time_utc)
    hi = bisect_right(trace.points, event.end_utc, key=lambda p: p.time_utc)
    return trace.points[lo:hi]


def project_series(points: tuple[GeoPoint, ...], frame: FrameLine,
                   event: EventInterval, params: HomParams,
                   trace_id: str, on_warning: WarnFn | None = None) -> EventSeries:
    """Project clipped points into one EventSeries of (x, y, t) samples.

    Points outside the projection's domain are dropped, and one warning
    gives their count and the first of them. If no point projects, that
    first point's OutOfDomain is raised instead.
    """
    locals_: list[LocalPoint] = []
    dropped = 0
    for point in points:
        try:
            x, y = hom_forward(params, point.lat_deg, point.lon_deg)
        except OutOfDomain as exc:
            if not dropped:
                first = (f"point ({point.lat_deg}, {point.lon_deg}) at "
                         f"{point.time_utc.isoformat()}: {exc}")
            dropped += 1
            continue
        t = (point.time_utc - event.begin_utc).total_seconds()
        locals_.append(LocalPoint(x, y, t))
    if dropped:
        if not locals_:
            raise OutOfDomain(first)
        if on_warning is not None:
            on_warning(f"{dropped} of {len(points)} in-window fixes skipped as "
                       f"out of the projection's domain; first: {first}")
    return EventSeries(trace_id=trace_id, frame_id=frame.id,
                       event_label=event.label, points=tuple(locals_))


def run(traces: list[Trace],
        frames: list[tuple[FrameLine, list[EventInterval]]]) -> RunResult:
    """Process every (trace, frame, event) permutation.

    Projection setup happens once per frame, on WGS84 like the frame's
    azimuth. Series are sorted by (trace id, frame id, event label).
    Samples dropped as out of domain become one warning per permutation, in
    input order (traces, then frames, then events). A failure in any permutation, including one in which no sample
    projects, aborts the run and is reported for the first failing
    permutation in that order. Projection errors carry the offending
    permutation and point.
    """
    prepared = [(frame, events, hom_setup(WGS84, frame.origin_lat_deg,
                                          frame.origin_lon_deg, frame.azimuth_deg))
                for frame, events in frames]
    series: list[EventSeries] = []
    warnings: list[str] = []
    skipped_empty = 0
    for trace in traces:
        for frame, events, params in prepared:
            for event in events:
                clipped = clip_to_event(trace, event)
                if not clipped:
                    skipped_empty += 1
                    continue
                where = (f"trace {trace.id!r}, frame {frame.id!r}, "
                         f"event {event.label!r}")
                try:
                    series.append(project_series(
                        clipped, frame, event, params, trace.id,
                        on_warning=lambda message: warnings.append(
                            f"{where}: {message}")))
                except FrameLocalError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
    series.sort(key=lambda s: s.key)
    return RunResult(series=tuple(series), skipped_empty=skipped_empty,
                     warnings=tuple(warnings))
