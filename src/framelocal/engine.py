"""Core pipeline: iterate every (trace, frame, event) permutation, clip each
trace to the event interval, project the surviving points into frame-local
coordinates, and shift time to seconds since the event began. A fix inside
several events of one frame is projected once.

Both interval bounds are inclusive, so a sample landing exactly on a shared
boundary of two back-to-back events appears in both series. Permutations
with no in-interval samples are counted and skipped; no boundary points are
interpolated or invented. A sample outside the projection's domain is
dropped from its series with a warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import FrameLocalError, OutOfDomain
from .geodesy import WGS84, hom_forward_many, hom_setup
from .ingest import WarnFn
from .model import EventInterval, EventSeries, FrameLine, LocalPoint, Trace


@dataclass(frozen=True)
class RunResult:
    """All non-empty series, the count of empty permutations, and one
    warning per permutation that dropped out-of-domain samples."""

    series: tuple[EventSeries, ...]
    skipped_empty: int
    warnings: tuple[str, ...] = ()


def clip_to_event(trace: Trace, event: EventInterval) -> range:
    """Indices into trace.points of the fixes with begin <= time <= end, in
    order; the trace is time-sorted, so they are one contiguous range."""
    lo = bisect_left(trace.points, event.begin_utc, key=lambda p: p.time_utc)
    hi = bisect_right(trace.points, event.end_utc, key=lambda p: p.time_utc)
    return range(lo, hi)


def project_series(trace: Trace, window: range,
                   projected: Sequence[tuple[float, float] | OutOfDomain],
                   frame: FrameLine, event: EventInterval,
                   on_warning: WarnFn | None = None) -> EventSeries:
    """Build one EventSeries of (x, y, t) samples from the fixes
    trace.points[window] and their projections, which are aligned with
    window as hom_forward_many returns them.

    Fixes whose projection is an OutOfDomain are dropped, and one warning
    gives their count and the first of them. If no fix projects, that first
    fix's OutOfDomain is raised instead.
    """
    begin = event.begin_utc
    locals_: list[LocalPoint] = []
    dropped = 0
    for point, xy in zip(trace.points[window.start:window.stop], projected):
        if isinstance(xy, OutOfDomain):
            if not dropped:
                first = (f"point ({point.lat_deg}, {point.lon_deg}) at "
                         f"{point.time_utc.isoformat()}: {xy}")
            dropped += 1
            continue
        t = (point.time_utc - begin).total_seconds()
        locals_.append(LocalPoint(xy[0], xy[1], t))
    if dropped:
        if not locals_:
            raise OutOfDomain(first)
        if on_warning is not None:
            on_warning(f"{dropped} of {len(window)} in-window fixes skipped as "
                       f"out of the projection's domain; first: {first}")
    return EventSeries(trace_id=trace.id, frame_id=frame.id,
                       event_label=event.label, points=tuple(locals_))


def run(traces: list[Trace],
        frames: list[tuple[FrameLine, list[EventInterval]]]) -> RunResult:
    """Process every (trace, frame, event) permutation.

    Projection setup happens once per frame, on WGS84 like the frame's
    azimuth. Each fix of a trace is projected at most once per frame, into
    one list aligned with trace.points: the frame's event windows are walked
    in start order, and only the part of a window not yet projected goes to
    hom_forward_many. Each event's series takes its window's slice of that
    list. Series are sorted by (trace id, frame id, event label).
    Samples dropped as out of domain become one warning per permutation, in
    input order (traces, then frames, then events). A failure in any
    permutation, including one in which no sample projects, aborts the run
    and is reported for the first failing permutation in that order.
    Projection errors carry the offending permutation and point.
    """
    prepared = [(frame, events, hom_setup(WGS84, frame.origin_lat_deg,
                                          frame.origin_lon_deg, frame.azimuth_deg))
                for frame, events in frames]
    series: list[EventSeries] = []
    warnings: list[str] = []
    skipped_empty = 0
    for trace in traces:
        for frame, events, params in prepared:
            windows: list[tuple[EventInterval, range]] = []
            for event in events:
                window = clip_to_event(trace, event)
                if window:
                    windows.append((event, window))
                else:
                    skipped_empty += 1
            if not windows:
                continue
            projected: list = [None] * len(trace.points)
            done = 0  # every window walked so far ends at or before done
            for _, window in sorted(windows, key=lambda w: w[1].start):
                start = max(window.start, done)
                if start < window.stop:
                    points = trace.points[start:window.stop]
                    projected[start:window.stop] = hom_forward_many(
                        params, [p.lat_deg for p in points], [p.lon_deg for p in points])
                    done = window.stop
            for event, window in windows:
                where = (f"trace {trace.id!r}, frame {frame.id!r}, "
                         f"event {event.label!r}")
                try:
                    series.append(project_series(
                        trace, window, projected[window.start:window.stop],
                        frame, event, on_warning=lambda message: warnings.append(
                            f"{where}: {message}")))
                except FrameLocalError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
    series.sort(key=lambda s: s.key)
    return RunResult(series=tuple(series), skipped_empty=skipped_empty,
                     warnings=tuple(warnings))
