"""Core pipeline: iterate every (trace, frame, event) permutation, clip each
trace to the event interval, project the surviving points into frame-local
coordinates, and shift time to seconds since the event began. The part of
a fix's projection that depends on no frame is computed once per trace; a
fix inside several events of one frame is projected into that frame once.

Both interval bounds are inclusive, so a sample landing exactly on a shared
boundary of two back-to-back events appears in both series. Permutations
with no in-interval samples are counted and skipped; no boundary points are
interpolated or invented. A sample outside the projection's domain is
dropped from its series with a warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from datetime import timedelta
from itertools import compress, repeat
from operator import add, attrgetter

from .errors import FrameLocalError, OutOfDomain
from .geodesy import WGS84, HomParams, hom_fix_terms, hom_forward_terms, hom_setup
from .ingest import WarnFn
from .model import EPOCH, EventInterval, EventSeries, FrameLine, Trace, utc_us


@dataclass(frozen=True)
class RunResult:
    """All non-empty series, the count of empty permutations, and one
    (source, message) warning per permutation with out-of-domain drops."""

    series: tuple[EventSeries, ...]
    skipped_empty: int
    warnings: tuple[tuple[str, str], ...] = ()


def clip_to_event(trace: Trace, event: EventInterval) -> range:
    """Indices of the trace's fixes with begin <= time <= end, in order;
    the trace is time-sorted, so they are one contiguous range."""
    lo = bisect_left(trace.time_us, utc_us(event.begin_utc))
    hi = bisect_right(trace.time_us, utc_us(event.end_utc))
    return range(lo, hi)


def project_series(trace: Trace, window: range,
                   projected: Sequence[tuple[float, float] | OutOfDomain],
                   frame: FrameLine, event: EventInterval,
                   on_warning: WarnFn | None = None) -> EventSeries:
    """Build one EventSeries of (x, y, t) samples from the trace's fixes at
    the indices in window and their projections as hom_forward_many returns
    them, aligned with window.

    t is (us - begin_us) / 10**6, with us from trace.time_us, bit for bit
    the timedelta.total_seconds() of the time since the event began. Fixes
    whose projection is an OutOfDomain are dropped, and one warning gives
    their count and the first of them. If no fix projects, that first fix's
    OutOfDomain is raised instead.
    """
    times_us = trace.time_us[window.start:window.stop]
    projected_ok = list(map(isinstance, projected, repeat(tuple)))
    dropped = projected_ok.count(False)
    if dropped:
        index = projected_ok.index(False)
        fix = window.start + index
        when = EPOCH + timedelta(microseconds=times_us[index])
        first = (f"point ({trace.lat_deg[fix]}, {trace.lon_deg[fix]}) at "
                 f"{when.isoformat()}: {projected[index]}")
        if dropped == len(projected_ok):
            raise OutOfDomain(first)
        if on_warning is not None:
            on_warning(f"{dropped} of {len(window)} in-window fixes skipped as "
                       f"out of the projection's domain; first: {first}")
        projected = compress(projected, projected_ok)
        times_us = compress(times_us, projected_ok)
    begin_us = utc_us(event.begin_utc)
    t_s = [(us - begin_us) / 10**6 for us in times_us]
    return EventSeries(trace_id=trace.id, frame_id=frame.id, event_label=event.label,
                       points=tuple(map(add, projected, zip(t_s))))


def run(traces: list[Trace],
        frames: list[tuple[FrameLine, list[EventInterval]]]) -> RunResult:
    """Process every (trace, frame, event) permutation.

    Projection setup happens once per frame, on WGS84 like the frame's
    azimuth. For each trace, every event of every frame is clipped first.
    One walk over the union of all those windows, in start order and with
    a high-water mark, fills one list aligned with the trace's columns with
    the frame-independent hom_fix_terms of each fix in the union. Each
    frame then projects each fix of its own union of windows once, with
    hom_forward_terms, into one more trace-aligned list. Each event's
    series takes its window's slice of that list.
    Series are sorted by (trace id, frame id, event label).
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
    warnings: list[tuple[str, str]] = []
    skipped_empty = 0
    for trace in traces:
        clipped: list[tuple[FrameLine, HomParams, list[tuple[EventInterval, range]]]] = []
        for frame, events, params in prepared:
            windows: list[tuple[EventInterval, range]] = []
            for event in events:
                window = clip_to_event(trace, event)
                if window:
                    windows.append((event, window))
                else:
                    skipped_empty += 1
            if windows:
                clipped.append((frame, params, windows))
        if not clipped:
            continue
        fix_terms: list = [None] * len(trace.time_us)
        for start, stop in _unseen_parts(
                window for _, _, windows in clipped for _, window in windows):
            fix_terms[start:stop] = hom_fix_terms(
                WGS84, trace.lat_deg[start:stop], trace.lon_deg[start:stop])
        for frame, params, windows in clipped:
            projected: list = [None] * len(fix_terms)
            for start, stop in _unseen_parts(window for _, window in windows):
                projected[start:stop] = hom_forward_terms(params, fix_terms[start:stop])
            for event, window in windows:
                where = (f"trace {trace.id!r}, frame {frame.id!r}, "
                         f"event {event.label!r}")
                try:
                    series.append(project_series(
                        trace, window, projected[window.start:window.stop], frame, event,
                        on_warning=lambda message: warnings.append((where, message))))
                except FrameLocalError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
    series.sort(key=attrgetter("key"))
    return RunResult(series=tuple(series), skipped_empty=skipped_empty,
                     warnings=tuple(warnings))


def _unseen_parts(windows: Iterable[range]) -> list[tuple[int, int]]:
    """Cover the union of the windows with disjoint (start, stop) index
    pairs, in order: the windows are walked in start order, and each yields
    only its part past every window walked before it."""
    parts = []
    done = 0  # every window walked so far ends at or before done
    for window in sorted(windows, key=attrgetter("start")):
        start = max(window.start, done)
        if start < window.stop:
            parts.append((start, window.stop))
            done = window.stop
    return parts
