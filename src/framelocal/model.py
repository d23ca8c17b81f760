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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TypeVar

from .errors import ReversedInterval

# the origin of the integer-microsecond times of a Trace
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def utc_us(instant: datetime) -> int:
    """The timezone-aware instant as integer microseconds since EPOCH."""
    d = instant - EPOCH  # exact: 0 <= seconds < 86400, 0 <= microseconds < 10**6
    return (d.days * 86400 + d.seconds) * 1_000_000 + d.microseconds


def normalize_longitude(lon_deg: float) -> float:
    """Reduce a longitude in degrees to the interval (-180, 180]."""
    lon = lon_deg % 360.0
    if lon > 180.0:
        lon -= 360.0
    elif lon <= -180.0:
        lon += 360.0
    return lon


def unique_name(base: str, taken: set[str], limit: int = sys.maxsize) -> str:
    """Claim the first of base, base_2, base_3, ... that is not in taken,
    each with base cut so that it is at most limit characters long."""
    name, count = base[:limit], 1
    while name in taken:
        count += 1
        name = f"{base[:limit - 1 - len(str(count))]}_{count}"
    taken.add(name)
    return name


_Item = TypeVar("_Item")


def aligned(size: int, items: Iterable[_Item], window_of: Callable[[_Item], range],
            part: Callable[[_Item, int, int], list]) -> list:
    """A list of size entries, None outside the union of the items' windows.
    The items are walked in their windows' start order, and the part
    [start, stop) of an item's window past every window walked before it,
    if not empty, holds part(item, start, stop). So part is called on each
    index of the union once."""
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

    @property
    def duration_s(self) -> float:
        return (self.end_utc - self.begin_utc).total_seconds()


@dataclass(frozen=True)
class EventSeries:
    """All in-interval samples of one (trace, frame, event) permutation.

    Each sample is an (x_m, y_m, t_s) tuple of floats: x_m is meters
    perpendicular to the frame (positive to the right when facing along the
    frame direction), y_m is meters along the frame, and t_s is seconds since
    the event began. Samples are in time order with t_s >= 0, unchecked: the
    engine alone guarantees both, as it clips a Trace (always time-sorted) to
    [begin, end].

    window is the range of trace indices the rows were taken from, as
    project_series records it, and None on a series built by hand. It
    takes no part in equality. A CsvFormatter reads it to share text
    between the series of one frame.
    """

    trace_id: str
    frame_id: str
    event_label: str
    points: tuple[tuple[float, float, float], ...]
    window: range | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("an event series must contain at least one point")

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.trace_id, self.frame_id, self.event_label)
