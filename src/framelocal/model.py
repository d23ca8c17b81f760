"""Immutable domain types shared by every stage of the pipeline.

All latitudes/longitudes are WGS84 degrees, event instants are timezone-aware
UTC datetimes, trace times are integer UTC microseconds since EPOCH, and all
local coordinates are meters/seconds. Frames and event intervals validate
their values in their constructors; ingest validates a trace's fixes.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TypeVar

from .errors import ReversedInterval

# the origin of the integer-microsecond times of a Trace
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)

_MICROSECOND = timedelta(microseconds=1)

# takes each warning message as soon as it is found
WarnFn = Callable[[str], None]


def utc_us(instant: datetime) -> int:
    """The timezone-aware instant as integer microseconds since EPOCH."""
    return (instant - EPOCH) // _MICROSECOND  # exact: integer microseconds throughout


def normalize_longitude(lon_deg: float) -> float:
    """Reduce a longitude in degrees to the interval (-180, 180]."""
    lon = lon_deg % 360.0
    if lon > 180.0:
        lon -= 360.0
    return lon


class Names:
    """Claims names: claim(base) returns the first of base, base_2, base_3,
    ... whose fold no earlier claim returned, each with base cut so that it
    is at most limit characters long.

    Every name up to the last one claimed from a cut base is claimed, so
    the probe starts past it, and n claims of one base make O(n)
    membership tests in all."""

    def __init__(self, limit: int = sys.maxsize, fold: Callable[[str], str] = str) -> None:
        self._limit, self._fold = limit, fold
        self._claimed: set[str] = set()  # each name claimed, after fold
        self._last: dict[str, int] = {}  # cut base -> the last count claimed

    def claim(self, base: str) -> str:
        cut = base[:self._limit]
        count = self._last.get(cut, 0)
        while True:
            count += 1
            name = cut if count == 1 else f"{base[:self._limit - 1 - len(str(count))]}_{count}"
            folded = self._fold(name)
            if folded not in self._claimed:
                break
        self._last[cut] = count
        self._claimed.add(folded)
        return name


_Item = TypeVar("_Item")


def aligned(size: int, items: Iterable[_Item], window_of: Callable[[_Item], range],
            part: Callable[[_Item, int, int], list]) -> list:
    """A list of size entries, None outside the union of the items' windows.
    The items are walked in their windows' start order, and the part
    [start, stop) of an item's window past every window walked before it,
    if not empty, holds part(item, start, stop). So part is called on each
    index of the union once. It builds engine.run's lists aligned with a
    trace's columns and output.csv_texts' x,y texts of one frame."""
    result: list = [None] * size
    done = 0  # every window walked so far ends at or before done
    for item in sorted(items, key=lambda item: window_of(item).start):
        start, stop = max(window_of(item).start, done), window_of(item).stop
        if start < stop:
            result[start:stop] = part(item, start, stop)
            done = stop
    return result


def _require_utc(name: str, value: datetime) -> datetime:
    if not isinstance(value, datetime) or value.tzinfo is None:
        raise ValueError(f"{name} must be a timezone-aware datetime")
    if value.tzinfo is timezone.utc:
        return value
    try:
        return value.astimezone(timezone.utc)
    except OverflowError:  # past the year 9999 or before the year 1 in UTC
        raise ValueError(f"{name} {value.isoformat()} is out of range in UTC") from None


@dataclass(frozen=True)
class Trace:
    """One GPS trajectory from one file: equal-length columns of latitudes
    and longitudes in degrees and of integer UTC microseconds since EPOCH,
    sorted together, stably, by time. Values are unchecked: parse_gpx checks
    what it reads, and the projection rejects what it cannot take."""

    id: str
    lat_deg: array
    lon_deg: array
    time_us: array

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("trace id must be non-empty")
        if not len(self.lat_deg) == len(self.lon_deg) == len(self.time_us):
            raise ValueError("lat_deg, lon_deg and time_us differ in length")
        order = sorted(range(len(self.time_us)), key=self.time_us.__getitem__)
        for name, typecode in (("lat_deg", "d"), ("lon_deg", "d"), ("time_us", "q")):
            column = getattr(self, name)
            object.__setattr__(self, name, array(typecode, [column[i] for i in order]))

    @property
    def points(self) -> tuple[tuple[float, float, int], ...]:
        """The fixes as (lat_deg, lon_deg, time_us) rows, built on each call."""
        return tuple(zip(self.lat_deg, self.lon_deg, self.time_us))


@dataclass(frozen=True)
class FrameLine:
    """A directed two-point reference line with derived azimuth and length.

    The azimuth is the initial geodesic bearing at the origin toward the
    target, degrees clockwise from true north.
    """

    id: str
    origin_lat_deg: float
    origin_lon_deg: float
    target_lat_deg: float
    target_lon_deg: float
    azimuth_deg: float
    length_m: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("frame id must be non-empty")
        for name in ("origin_lat_deg", "target_lat_deg"):
            lat = getattr(self, name)
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"{name} {lat} outside [-90, 90]")
        object.__setattr__(self, "origin_lon_deg", normalize_longitude(self.origin_lon_deg))
        object.__setattr__(self, "target_lon_deg", normalize_longitude(self.target_lon_deg))
        if not 0.0 <= self.azimuth_deg < 360.0:
            raise ValueError(f"azimuth_deg {self.azimuth_deg} outside [0, 360)")
        if not self.length_m > 0.0:
            raise ValueError("length_m must be positive")


@dataclass(frozen=True)
class EventInterval:
    """A closed UTC interval [begin, end] with a stable label."""

    begin_utc: datetime
    end_utc: datetime
    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("event label must be non-empty")
        object.__setattr__(self, "begin_utc", _require_utc("begin_utc", self.begin_utc))
        object.__setattr__(self, "end_utc", _require_utc("end_utc", self.end_utc))
        if self.end_utc < self.begin_utc:
            raise ReversedInterval(
                f"event {self.label!r}: end {self.end_utc.isoformat()} precedes "
                f"begin {self.begin_utc.isoformat()}"
            )


@dataclass(frozen=True)
class EventSeries:
    """All in-interval samples of one (trace, frame, event) permutation.

    Each sample is an (x_m, y_m, t_s) tuple of floats: x_m is meters
    perpendicular to the frame (positive to the right when facing along the
    frame direction), y_m is meters along the frame, and t_s is seconds since
    the event began. Samples are in time order with t_s >= 0, unchecked: the
    engine alone guarantees both, as it clips a Trace (always time-sorted) to
    [begin, end].

    Every series has a _source, not a field: a (token, window) pair, with
    window the range of trace indices its rows were taken from, and token
    shared by the series whose x and y at a trace index are one pair of
    objects. A new series gets a token of its own and the range of its own
    rows; engine.run replaces that, on each series whose rows fill its
    window, with the token of the series cut from one trace's projection
    into one frame in one run call, and the window. output.csv_texts reads
    it to share text between the series of one frame.
    """

    trace_id: str
    frame_id: str
    event_label: str
    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("an event series must contain at least one point")
        object.__setattr__(self, "_source", (object(), range(len(self.points))))

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.trace_id, self.frame_id, self.event_label)
