"""Constructor enforcement for the shared domain types."""

import math
import random
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fixtures import ts
from framelocal.errors import ReversedInterval
from framelocal.ingest import _trace_from_fixes
from framelocal.model import (
    EPOCH,
    EventInterval,
    EventSeries,
    FrameLine,
    Names,
    Trace,
    aligned,
    normalize_longitude,
    utc_us,
)


def _trace(rows, trace_id="t"):
    """A Trace of (lat, lon, time_us) rows."""
    lats, lons, times = zip(*rows)
    return Trace(trace_id, lats, lons, times)


def _checked(lat, lon, time_text="2017-06-10T05:00:00Z"):
    """The warnings of one (lat, lon, time) GPS fix passed through the
    per-fix checks beside a good fix, and the longitudes that come out."""
    warnings = []
    trace = _trace_from_fixes([(repr(lat), repr(lon), time_text),
                               ("-37.84", "145.0", "2017-06-10T05:01:00Z")],
                              "t", warnings.append)
    return warnings, list(trace.lon_deg)


class TestGeoPoint:
    """A geographic point (one GPS fix) is checked once, by ingest, before it
    becomes a row of a Trace; a fix that fails is skipped with a warning."""

    def test_latitude_bounds(self):
        assert _checked(90.5, 0.0) == (
            ["track point skipped: latitude 90.5 outside [-90, 90]"], [145.0])
        assert _checked(-91.0, 0.0) == (
            ["track point skipped: latitude -91.0 outside [-90, 90]"], [145.0])
        assert _checked(90.0, 0.0) == ([], [0.0, 145.0])
        assert _checked(-90.0, 0.0) == ([], [0.0, 145.0])

    @pytest.mark.parametrize("lon", [math.inf, -math.inf, math.nan])
    def test_non_finite_longitude_rejected(self, lon):
        warnings, lons = _checked(10.0, lon)
        assert lons == [145.0]
        assert len(warnings) == 1 and warnings[0].endswith("is not finite")

    def test_naive_time_rejected(self):
        with pytest.raises(TypeError):
            utc_us(datetime(2017, 6, 10, 5, 0, 0))

    def test_time_out_of_range_in_utc_rejected(self):
        warnings, lons = _checked(0.0, 0.0, "9999-12-31T23:59:59-01:00")
        assert lons == [145.0]
        assert len(warnings) == 1 and warnings[0].endswith("out of range in UTC")


class TestTrace:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            _trace([(0.0, 0.0, 5)], trace_id="")

    def test_sorts_points_stably_by_time(self):
        trace = _trace([(1.0, 0.1, 6), (2.0, 0.2, 5), (3.0, 0.3, 6), (4.0, 0.4, 5)])
        assert list(trace.lat_deg) == [2.0, 4.0, 1.0, 3.0]
        assert list(trace.lon_deg) == [0.2, 0.4, 0.1, 0.3]
        assert list(trace.time_us) == [5, 5, 6, 6]
        assert trace.points == ((2.0, 0.2, 5), (4.0, 0.4, 5), (1.0, 0.1, 6),
                                (3.0, 0.3, 6))
        assert (trace.lat_deg.typecode, trace.lon_deg.typecode,
                trace.time_us.typecode) == ("d", "d", "q")

    def test_duplicate_times_allowed(self):
        trace = _trace([(0.0, 0.0, 5), (0.0, 0.1, 5)])
        assert len(trace.points) == 2

    @pytest.mark.parametrize("lats, lons, times", [
        ([0.0], [0.0, 0.1], [5, 6]), ([0.0, 0.1], [0.0], [5, 6]),
        ([0.0, 0.1], [0.0, 0.1], [5])])
    def test_columns_of_different_lengths_rejected(self, lats, lons, times):
        with pytest.raises(ValueError, match="differ in length"):
            Trace("t", lats, lons, times)


class TestFrameLine:
    def test_valid(self):
        frame = FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 0.0, 110.6)
        assert frame.azimuth_deg == 0.0

    def test_azimuth_range(self):
        with pytest.raises(ValueError):
            FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 360.0, 110.6)

    def test_negative_azimuth_rejected(self):
        with pytest.raises(ValueError, match=r"azimuth_deg -1e-09 outside \[0, 360\)"):
            FrameLine("f0", 0.0, 0.0, 0.001, 0.0, -1e-9, 110.6)

    def test_positive_length(self):
        with pytest.raises(ValueError):
            FrameLine("f0", 0.0, 0.0, 0.001, 0.0, 0.0, 0.0)

    def test_id_required(self):
        with pytest.raises(ValueError, match="frame id must be non-empty"):
            FrameLine("", 0.0, 0.0, 0.001, 0.0, 0.0, 110.6)

    @pytest.mark.parametrize("origin_lat, target_lat, name", [
        (90.5, 0.001, "origin_lat_deg"), (-91.0, 0.001, "origin_lat_deg"),
        (0.0, 90.001, "target_lat_deg"), (0.0, math.nan, "target_lat_deg")])
    def test_latitude_range(self, origin_lat, target_lat, name):
        with pytest.raises(ValueError, match=rf"{name} .* outside \[-90, 90\]"):
            FrameLine("f0", origin_lat, 0.0, target_lat, 0.0, 0.0, 110.6)


class TestEventInterval:
    def test_reversed_rejected(self):
        with pytest.raises(ReversedInterval):
            EventInterval(begin_utc=ts(5, 20), end_utc=ts(5, 0), label="e0")

    def test_zero_duration_allowed(self):
        interval = EventInterval(begin_utc=ts(5), end_utc=ts(5), label="e0")
        assert (interval.end_utc - interval.begin_utc).total_seconds() == 0.0

    def test_duration(self):
        interval = EventInterval(begin_utc=ts(5, 0), end_utc=ts(5, 20), label="e0")
        assert (interval.end_utc - interval.begin_utc).total_seconds() == 1200.0

    def test_label_required(self):
        with pytest.raises(ValueError):
            EventInterval(begin_utc=ts(5), end_utc=ts(6), label="")

    @pytest.mark.parametrize("begin, end, name", [
        (datetime(2017, 6, 10, 5), ts(6), "begin_utc"),
        (ts(5), datetime(2017, 6, 10, 6), "end_utc")])
    def test_naive_datetime_rejected(self, begin, end, name):
        with pytest.raises(ValueError, match=f"{name} must be a timezone-aware datetime"):
            EventInterval(begin_utc=begin, end_utc=end, label="e0")

    def test_text_instant_rejected(self):
        with pytest.raises(ValueError, match="begin_utc must be a timezone-aware datetime"):
            EventInterval(begin_utc="2017-06-10T05:00:00Z", end_utc=ts(6), label="e0")


class TestEventSeries:
    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            EventSeries("t", "f", "e0", points=())

    def test_key(self):
        series = EventSeries("t", "f", "e0", points=((0.0, 0.0, 0.0),))
        assert series.key == ("t", "f", "e0")


@given(st.floats())
@example(-1e-300)  # % 360.0 rounds it to 360.0
@example(-180.0)
@example(540.0)
def test_normalize_longitude_into_half_open_range(lon):
    normalized = normalize_longitude(lon)
    if math.isfinite(lon):
        assert -180.0 < normalized <= 180.0
    else:
        assert math.isnan(normalized)


# every fixed offset a timezone takes: strictly inside (-24 h, 24 h)
_offsets = st.timedeltas(min_value=timedelta(hours=-24, microseconds=1),
                         max_value=timedelta(hours=24, microseconds=-1)).map(timezone)


@given(st.datetimes(min_value=datetime.min, max_value=datetime.max,
                    timezones=_offsets, allow_imaginary=True))
@example(datetime.min.replace(tzinfo=timezone(timedelta(hours=24, microseconds=-1))))
@example(datetime.max.replace(tzinfo=timezone(timedelta(hours=-24, microseconds=1))))
@example(EPOCH - timedelta(microseconds=1))
def test_utc_us_equals_timedelta_floor_division(instant):
    # utc_us adds up the timedelta's normalized fields; that must be exact
    # for negative deltas too, and for instants outside the years 1-9999 in
    # UTC, which ingest range-checks on the integer value
    assert utc_us(instant) == (instant - EPOCH) // timedelta(microseconds=1)


@st.composite
def _windows(draw):
    """A size and a list of windows within it, empty ones included."""
    size = draw(st.integers(0, 40))
    bounds = st.integers(0, size)
    return size, draw(st.lists(st.tuples(bounds, bounds).map(lambda b: range(*sorted(b))),
                               max_size=6))


@given(_windows())
def test_aligned_fills_the_union_of_windows_once(inputs):
    size, windows = inputs
    calls = []

    def part(item, start, stop):
        calls.append((item, start, stop))
        return [(item, i) for i in range(start, stop)]

    result = aligned(size, range(len(windows)), windows.__getitem__, part)
    union = {i for window in windows for i in window}
    assert len(result) == size
    # part is called on each index of the union exactly once, from an item
    # whose window holds it
    assert Counter(i for _, start, stop in calls for i in range(start, stop)) == {
        i: 1 for i in union}
    assert all(windows[item].start <= start < stop <= windows[item].stop
               for item, start, stop in calls)
    # each value at its trace position, None everywhere else
    for i, value in enumerate(result):
        if i in union:
            assert value[1] == i
        else:
            assert value is None


class TestUniqueName:
    """Names.claim gives each claim a name no earlier claim was given."""

    def test_suffixes_in_order(self):
        names = Names()
        assert [names.claim("a") for _ in range(3)] == ["a", "a_2", "a_3"]

    def test_cut_to_the_limit_with_its_suffix(self):
        names = Names(10)
        claimed = [names.claim("x" * 10 + "y") for _ in range(11)]
        assert claimed[:3] == ["x" * 10, "x" * 8 + "_2", "x" * 8 + "_3"]
        assert claimed[10] == "x" * 7 + "_11"
        assert all(len(name) <= 10 for name in claimed)

    def test_short_base_is_not_cut(self):
        names = Names(10)
        assert [names.claim("ab"), names.claim("ab")] == ["ab", "ab_2"]

    def test_case_only_collision_takes_a_suffix_under_lower_only(self):
        folded, exact = Names(fold=str.lower), Names()
        assert [folded.claim(base) for base in ("Pitch", "pitch", "PITCH_2")] == [
            "Pitch", "pitch_2", "PITCH_2_2"]
        assert [exact.claim(base) for base in ("Pitch", "pitch", "PITCH_2")] == [
            "Pitch", "pitch", "PITCH_2"]

    def test_claims_of_one_base_make_a_bounded_number_of_membership_tests(self):
        tests = 0

        def counted(name):  # each membership test folds its name once
            nonlocal tests
            tests += 1
            return name

        names = Names(fold=counted)
        claimed = [names.claim("track") for _ in range(20_000)]
        assert claimed == ["track"] + [f"track_{count}" for count in range(2, 20_001)]
        # the first free of track, track_2, ... probed from track each time
        # would make 200,010,000 tests
        assert tests <= 2 * 20_000

    def test_names_are_the_first_free_whatever_else_is_claimed(self):
        def first_free(base, taken, limit, fold):
            name, count = base[:limit], 1
            while fold(name) in taken:
                count += 1
                name = f"{base[:limit - 1 - len(str(count))]}_{count}"
            taken.add(fold(name))
            return name

        for fold in (str, str.lower):
            rng = random.Random(7)
            names = {limit: Names(limit, fold) for limit in (sys.maxsize, 10)}
            taken = {limit: set() for limit in names}
            for _ in range(3_000):
                base = rng.choice(["a", "a_2", "a_1", "b" * 12, "b" * 11 + "c", "b" * 8 + "_2"])
                if rng.random() < 0.3:  # a case-only collision under str.lower
                    base = base.upper()
                limit = rng.choice(list(names))
                assert names[limit].claim(base) == first_free(base, taken[limit], limit, fold)
