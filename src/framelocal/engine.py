"""Core pipeline: iterate every (trace, frame, event) permutation, clip each
trace to the event interval, project the surviving points into frame-local
coordinates, and shift time to seconds since the event began. The part of
a fix's projection that depends on no frame is computed once per trace; a
fix inside several events of one frame is projected into that frame once.
A fix's time since an event begin is computed once per trace and begin,
and its (x, y, t) row once per frame and begin, so series share them.

Both interval bounds are inclusive, so a sample landing exactly on a shared
boundary of two back-to-back events appears in both series. Permutations
with no in-interval samples are counted and skipped; no boundary points are
interpolated or invented. A sample outside the projection's domain is
dropped from its series with a warning.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import timedelta
from functools import partial
from itertools import compress, repeat
from operator import attrgetter, itemgetter

from .errors import FrameLocalError, OutOfDomain
from .geodesy import WGS84, HomParams, hom_fix_terms, hom_forward_terms, hom_setup
from .ingest import WarnFn
from .model import EPOCH, EventInterval, EventSeries, FrameLine, Trace, aligned, utc_us


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


def seconds_since(begin_us: int, times_us: Iterable[int]) -> list[float]:
    """Each time's seconds since begin_us, all in integer UTC microseconds:
    (us - begin_us) / 10**6, bit for bit the timedelta.total_seconds() of
    the time since begin."""
    return [(us - begin_us) / 10**6 for us in times_us]


def project_series(trace: Trace, window: range,
                   rows: Sequence[tuple[float, float, float] | OutOfDomain],
                   frame: FrameLine, event: EventInterval,
                   on_warning: WarnFn | None = None) -> EventSeries:
    """Build one EventSeries from the rows of the trace's fixes at the
    indices in window, aligned with window. A row is the fix's (x, y, t)
    tuple, with t its seconds_since the event began, or the OutOfDomain of a
    fix outside the frame's projection domain.

    OutOfDomain rows are dropped, and one warning gives their count and the
    first of them. If no row is a tuple, that first fix's OutOfDomain is
    raised instead. The series holds the given row tuples themselves and
    records window.
    """
    rows_ok = list(map(isinstance, rows, repeat(tuple)))
    dropped = rows_ok.count(False)
    if dropped:
        index = rows_ok.index(False)
        fix = window.start + index
        when = EPOCH + timedelta(microseconds=trace.time_us[fix])
        first = (f"point ({trace.lat_deg[fix]}, {trace.lon_deg[fix]}) at "
                 f"{when.isoformat()}: {rows[index]}")
        if dropped == len(rows_ok):
            raise OutOfDomain(first)
        if on_warning is not None:
            on_warning(f"{dropped} of {len(window)} in-window fixes skipped as "
                       f"out of the projection's domain; first: {first}")
        rows = compress(rows, rows_ok)
    return EventSeries(trace_id=trace.id, frame_id=frame.id, event_label=event.label,
                       points=tuple(rows), window=window)


def run(traces: list[Trace],
        frames: list[tuple[FrameLine, list[EventInterval]]]) -> RunResult:
    """Process every (trace, frame, event) permutation.

    Projection setup happens once per frame, on WGS84 like the frame's
    azimuth. For each trace, every event of every frame is clipped first.
    Then lists aligned with the trace's columns are filled, each over a
    union of windows and with each fix of it computed once (see _aligned):
    - once per trace, the frame-independent hom_fix_terms of each fix in
      the union of all the windows
    - once per distinct event begin, each fix's seconds_since that begin,
      over the union of the windows of the events with that begin
    - once per frame, each fix's hom_forward_terms, over the union of the
      frame's windows
    - once per frame and begin, each fix's (x, y, t) row, or its
      OutOfDomain, over the union of the frame's windows with that begin
    Each event's series takes its window's slice of its begin's rows, so
    events with a common begin share row tuples, and frames with common
    event begins share t floats.
    Series are sorted by (trace id, frame id, event label).
    Samples dropped as out of domain become one warning per permutation, in
    input order (traces, then frames, then events). A failure in any
    permutation, including one in which no sample projects, aborts the run
    and is reported for the first failing permutation in that order.
    Projection errors carry the offending permutation and point.
    """
    prepared = [(frame, [(event, utc_us(event.begin_utc)) for event in events],
                 hom_setup(WGS84, frame.origin_lat_deg, frame.origin_lon_deg,
                           frame.azimuth_deg))
                for frame, events in frames]
    series: list[EventSeries] = []
    warnings: list[tuple[str, str]] = []
    skipped_empty = 0
    for trace in traces:
        # (frame, params, its events' (event, begin_us, window)) per frame
        # that has a non-empty window
        clipped: list[tuple[FrameLine, HomParams,
                            list[tuple[EventInterval, int, range]]]] = []
        for frame, events, params in prepared:
            windows = []
            for event, begin_us in events:
                window = clip_to_event(trace, event)
                if window:
                    windows.append((event, begin_us, window))
                else:
                    skipped_empty += 1
            if windows:
                clipped.append((frame, params, windows))
        if not clipped:
            continue
        size = len(trace.time_us)
        every = [window for _, _, windows in clipped for window in windows]
        fix_terms = _aligned(size, every, partial(hom_fix_terms, WGS84),
                             trace.lat_deg, trace.lon_deg)
        t_since = {begin_us: _aligned(size, begun, partial(seconds_since, begin_us),
                                      trace.time_us)
                   for begin_us, begun in _by_begin(every).items()}
        for frame, params, windows in clipped:
            projected = _aligned(size, windows, partial(hom_forward_terms, params),
                                 fix_terms)
            rows = {begin_us: _aligned(size, begun, _rows, projected, t_since[begin_us])
                    for begin_us, begun in _by_begin(windows).items()}
            for event, begin_us, window in windows:
                where = (f"trace {trace.id!r}, frame {frame.id!r}, "
                         f"event {event.label!r}")
                try:
                    series.append(project_series(
                        trace, window, rows[begin_us][window.start:window.stop],
                        frame, event,
                        on_warning=lambda message: warnings.append((where, message))))
                except FrameLocalError as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
    series.sort(key=attrgetter("key"))
    return RunResult(series=tuple(series), skipped_empty=skipped_empty,
                     warnings=tuple(warnings))


def _rows(projected: Sequence[tuple[float, float] | OutOfDomain],
          seconds: Sequence[float]) -> list[tuple[float, float, float] | OutOfDomain]:
    """The (x, y, t) rows of aligned projections, as hom_forward_terms
    returns them, and t values; an OutOfDomain stays in its row's place."""
    return [xy + (t,) if xy.__class__ is tuple else xy
            for xy, t in zip(projected, seconds)]


def _by_begin(windows: Iterable[tuple[EventInterval, int, range]]
              ) -> dict[int, list[tuple[EventInterval, int, range]]]:
    """The (event, begin_us, window) triples grouped by begin_us."""
    groups: dict[int, list[tuple[EventInterval, int, range]]] = {}
    for triple in windows:
        groups.setdefault(triple[1], []).append(triple)
    return groups


def _aligned(size: int, windows: Iterable[tuple[EventInterval, int, range]],
             part: Callable[..., list], *columns: Sequence) -> list:
    """model.aligned over the windows, each of whose parts [start:stop]
    holds part(*slices), with slices the columns' [start:stop]; so each fix
    of the union is computed once."""
    return aligned(size, windows, itemgetter(2), lambda _, start, stop: part(
        *[column[start:stop] for column in columns]))
