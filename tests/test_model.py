"""Constructor enforcement for the shared domain types."""

import math
from datetime import datetime, timedelta, timezone

import pytest

from fixtures import ts
from framelocal.errors import ReversedInterval
from framelocal.model import (
    EventInterval,
    EventSeries,
    FrameLine,
    GeoPoint,
    LocalPoint,
    Trace,
)


class TestGeoPoint:
    def test_latitude_bounds(self):
        with pytest.raises(ValueError):
            GeoPoint(lat_deg=90.5, lon_deg=0.0, time_utc=ts(5))
        with pytest.raises(ValueError):
            GeoPoint(lat_deg=-91.0, lon_deg=0.0, time_utc=ts(5))

    @pytest.mark.parametrize("lon", [math.inf, -math.inf, math.nan])
    def test_non_finite_longitude_rejected(self, lon):
        with pytest.raises(ValueError, match="not finite"):
            GeoPoint(lat_deg=10.0, lon_deg=lon, time_utc=ts(5))

    def test_longitude_normalized(self):
        assert GeoPoint(10.0, 190.0, ts(5)).lon_deg == -170.0
        assert GeoPoint(10.0, -180.0, ts(5)).lon_deg == 180.0
        assert GeoPoint(10.0, 540.0, ts(5)).lon_deg == 180.0

    def test_naive_time_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(0.0, 0.0, datetime(2017, 6, 10, 5, 0, 0))

    def test_time_out_of_range_in_utc_rejected(self):
        minus1 = timezone(timedelta(hours=-1))
        late = datetime(9999, 12, 31, 23, 59, 59, tzinfo=minus1)
        with pytest.raises(ValueError, match="out of range in UTC"):
            GeoPoint(0.0, 0.0, late)

    def test_utc_time_kept_as_given_in_slots(self):
        instant = ts(5)
        point = GeoPoint(0.0, 0.0, instant)
        assert point.time_utc is instant
        assert not hasattr(point, "__dict__")

    def test_offset_time_converted_to_utc(self):
        plus10 = timezone(timedelta(hours=10))
        point = GeoPoint(0.0, 0.0, datetime(2017, 6, 10, 15, 0, 0, tzinfo=plus10))
        assert point.time_utc == ts(5)
        assert point.time_utc.tzinfo == timezone.utc


class TestTrace:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            Trace(id="", points=(GeoPoint(0.0, 0.0, ts(5)),))

    def test_sorts_points_stably_by_time(self):
        points = (GeoPoint(0.0, 0.1, ts(6)), GeoPoint(0.0, 0.2, ts(5)),
                  GeoPoint(0.0, 0.3, ts(6)), GeoPoint(0.0, 0.4, ts(5)))
        trace = Trace(id="t", points=points)
        assert [p.lon_deg for p in trace.points] == [0.2, 0.4, 0.1, 0.3]

    def test_duplicate_times_allowed(self):
        trace = Trace(id="t", points=(GeoPoint(0.0, 0.0, ts(5)),
                                      GeoPoint(0.0, 0.1, ts(5))))
        assert len(trace.points) == 2


class TestFrameLine:
    def test_valid(self):
        frame = FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 0.0, 110.6)
        assert frame.azimuth_deg == 0.0

    def test_azimuth_range(self):
        with pytest.raises(ValueError):
            FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 360.0, 110.6)

    def test_positive_length(self):
        with pytest.raises(ValueError):
            FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 0.0, 0.0)


class TestEventInterval:
    def test_reversed_rejected(self):
        with pytest.raises(ReversedInterval):
            EventInterval(begin_utc=ts(5, 20), end_utc=ts(5, 0), label="e0")

    def test_zero_duration_allowed(self):
        interval = EventInterval(begin_utc=ts(5), end_utc=ts(5), label="e0")
        assert interval.duration_s == 0.0

    def test_duration(self):
        interval = EventInterval(begin_utc=ts(5, 0), end_utc=ts(5, 20), label="e0")
        assert interval.duration_s == 1200.0

    def test_label_required(self):
        with pytest.raises(ValueError):
            EventInterval(begin_utc=ts(5), end_utc=ts(6), label="")


class TestEventSeries:
    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            EventSeries("t", "f", "e0", points=())

    def test_key(self):
        series = EventSeries("t", "f", "e0", points=(LocalPoint(0, 0, 0.0),))
        assert series.key == ("t", "f", "e0")
