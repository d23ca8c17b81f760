"""Geodesic inverse and oblique Mercator tests against independent oracles."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from framelocal.errors import CoincidentPoints, NearAntipodal, OutOfDomain, PolarOrigin
from framelocal.geodesy import (
    Ellipsoid,
    WGS84,
    geodesic_inverse,
    hom_forward,
    hom_forward_many,
    hom_inverse,
    hom_setup,
)

# Frozen oracle values (closed-form equatorial arc; meridian-arc series,
# cross-checked against numerical quadrature of the meridian integrand).
EQ_ARC_1DEG = 111319.49079327358
EQ_ARC_MILLIDEG = 111.31949079327357
MERIDIAN_ARC_1DEG = 110574.38855779881

SPHERE = Ellipsoid(semi_major_axis_m=6371000.0, flattening=0.0)


class TestEllipsoid:
    def test_wgs84_constants(self):
        assert WGS84.semi_major_axis_m == 6378137.0
        assert WGS84.flattening == pytest.approx(1 / 298.257223563)
        assert 0.0 <= WGS84.eccentricity_sq < 1.0

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            Ellipsoid(semi_major_axis_m=0.0, flattening=0.0)

    def test_rejects_bad_flattening(self):
        with pytest.raises(ValueError):
            Ellipsoid(semi_major_axis_m=1.0, flattening=1.0)
        with pytest.raises(ValueError):
            Ellipsoid(semi_major_axis_m=1.0, flattening=-0.1)


class TestGeodesicInverse:
    def test_equatorial_arc(self):
        sol = geodesic_inverse(WGS84, 0.0, 0.0, 0.0, 1.0)
        assert sol.forward_azimuth_deg == 90.0
        assert sol.distance_m == pytest.approx(EQ_ARC_1DEG, rel=1e-6)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            geodesic_inverse(WGS84, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(CoincidentPoints):
            geodesic_inverse(WGS84, 10.0, 20.0, 10.0 + 1e-13, 20.0 - 1e-13)

    def test_meridian_arc(self):
        sol = geodesic_inverse(WGS84, 0.0, 0.0, 1.0, 0.0)
        assert sol.forward_azimuth_deg == 0.0
        assert abs(sol.distance_m - MERIDIAN_ARC_1DEG) < 1e-3

    def test_southward_meridian(self):
        sol = geodesic_inverse(WGS84, 1.0, 0.0, 0.0, 0.0)
        assert sol.forward_azimuth_deg == 180.0
        assert abs(sol.distance_m - MERIDIAN_ARC_1DEG) < 1e-3

    def test_near_antipodal_raises(self):
        with pytest.raises(NearAntipodal):
            geodesic_inverse(WGS84, 0.0, 0.0, 0.5, 179.7)

    def test_lat_out_of_range(self):
        with pytest.raises(ValueError):
            geodesic_inverse(WGS84, 91.0, 0.0, 0.0, 0.0)

    def test_distance_symmetry_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            lat1 = rng.uniform(-80, 80)
            lon1 = rng.uniform(-180, 180)
            lat2, lon2 = oracles.vincenty_direct(lat1, lon1, rng.uniform(0, 360),
                                                 rng.uniform(1.0, 900000.0))
            fwd = geodesic_inverse(WGS84, lat1, lon1, lat2, lon2)
            rev = geodesic_inverse(WGS84, lat2, lon2, lat1, lon1)
            assert fwd.distance_m == rev.distance_m

    def test_equatorial_azimuths_opposite(self):
        fwd = geodesic_inverse(WGS84, 0.0, 10.0, 0.0, 11.5)
        rev = geodesic_inverse(WGS84, 0.0, 11.5, 0.0, 10.0)
        assert abs(abs(fwd.forward_azimuth_deg - rev.forward_azimuth_deg) - 180.0) < 1e-9

    @given(lat1=st.floats(-80, 80), lon1=st.floats(-180, 180),
           bearing=st.floats(0, 360), dist=st.floats(1.0, 999000.0))
    @settings(max_examples=150, deadline=None)
    def test_azimuth_always_in_range(self, lat1, lon1, bearing, dist):
        lat2, lon2 = oracles.vincenty_direct(lat1, lon1, bearing, dist)
        sol = geodesic_inverse(WGS84, lat1, lon1, lat2, lon2)
        assert 0.0 <= sol.forward_azimuth_deg < 360.0

    def test_agrees_with_direct_solver(self):
        # inverse(p1, p2) then travelling that azimuth/distance reaches p2
        rng = random.Random(21)
        for _ in range(200):
            lat1 = rng.uniform(-75, 75)
            lon1 = rng.uniform(-180, 180)
            lat2, lon2 = oracles.vincenty_direct(lat1, lon1, rng.uniform(0, 360),
                                                 rng.uniform(10.0, 500000.0))
            sol = geodesic_inverse(WGS84, lat1, lon1, lat2, lon2)
            lat_hit, lon_hit = oracles.vincenty_direct(
                lat1, lon1, sol.forward_azimuth_deg, sol.distance_m)
            assert abs(lat_hit - lat2) < 1e-9
            assert abs(oracles.wrap_lon(lon_hit - lon2)) < 1e-9

    def test_sphere_matches_great_circle(self):
        rng = random.Random(3)
        for _ in range(200):
            lat1, lon1 = rng.uniform(-80, 80), rng.uniform(-180, 180)
            lat2, lon2 = rng.uniform(-80, 80), rng.uniform(-180, 180)
            if abs(lat1 - lat2) < 1e-6 and abs(lon1 - lon2) < 1e-6:
                continue
            az_ref, dist_ref = oracles.great_circle_inverse(
                lat1, lon1, lat2, lon2, SPHERE.semi_major_axis_m)
            if dist_ref > 0.49 * math.pi * SPHERE.semi_major_axis_m:
                continue  # stay away from the antipodal regime
            sol = geodesic_inverse(SPHERE, lat1, lon1, lat2, lon2)
            assert sol.distance_m == pytest.approx(dist_ref, abs=1e-6)
            diff = abs(sol.forward_azimuth_deg - az_ref) % 360.0
            assert min(diff, 360.0 - diff) < 1e-9


class TestHomSetup:
    def test_center_maps_to_origin(self):
        params = hom_setup(WGS84, 0.0, 0.0, 90.0)
        assert hom_forward(params, 0.0, 0.0) == (0.0, 0.0)

    def test_polar_origin_rejected(self):
        with pytest.raises(PolarOrigin):
            hom_setup(WGS84, 89.95, 10.0, 45.0)
        with pytest.raises(PolarOrigin):
            hom_setup(WGS84, -89.9, 0.0, 0.0)

    def test_centerline_probe_melbourne(self):
        lat, lon = oracles.vincenty_direct(-37.85, 145.0, 10.0, 1000.0)
        params = hom_setup(WGS84, -37.85, 145.0, 10.0)
        x, y = hom_forward(params, lat, lon)
        assert abs(x) <= 1e-3
        assert abs(y - 1000.0) <= 1e-3
        x_ref, y_ref = oracles.hom_reference_xy(-37.85, 145.0, 10.0, lat, lon)
        assert abs(x - x_ref) <= 1e-3
        assert abs(y - y_ref) <= 1e-3

    def test_azimuth_normalized(self):
        probe = oracles.vincenty_direct(10.0, 20.0, 77.0, 5000.0)
        p1 = hom_setup(WGS84, 10.0, 20.0, 50.0)
        p2 = hom_setup(WGS84, 10.0, 20.0, 410.0)
        assert p2.azimuth_deg == 50.0
        assert hom_forward(p1, *probe) == hom_forward(p2, *probe)


class TestHomForward:
    @pytest.mark.parametrize("azimuth", [0.0, 45.0, 135.0, 200.0, 300.0])
    def test_projection_center(self, azimuth):
        params = hom_setup(WGS84, 10.0, 20.0, azimuth)
        assert hom_forward(params, 10.0, 20.0) == (0.0, 0.0)

    def test_east_is_right_when_facing_north(self):
        params = hom_setup(WGS84, 0.0, 0.0, 0.0)
        x, y = hom_forward(params, 0.0, 0.001)
        assert abs(x - EQ_ARC_MILLIDEG) <= 1e-3
        assert abs(y) <= 1e-3

    def test_east_is_left_when_facing_south(self):
        params = hom_setup(WGS84, 0.0, 0.0, 180.0)
        x, y = hom_forward(params, 0.0, 0.001)
        assert abs(x + EQ_ARC_MILLIDEG) <= 1e-3
        assert abs(y) <= 1e-3

    def test_rejects_far_hemisphere(self):
        params = hom_setup(WGS84, 0.0, 0.0, 45.0)
        with pytest.raises(OutOfDomain):
            hom_forward(params, 0.0, 170.0)

    @pytest.mark.parametrize("azimuth", [0.0, 180.0])
    def test_hemisphere_boundary_on_centerline(self, azimuth):
        # both points lie on the centerline meridian, 89.9 and 90.1 degrees
        # of arc from the origin, so the singular-axis check cannot be what
        # rejects the farther one
        params = hom_setup(WGS84, 30.0, 10.0, azimuth)
        hom_forward(params, -59.9, 10.0)
        with pytest.raises(OutOfDomain, match="hemisphere"):
            hom_forward(params, -60.1, 10.0)

    @pytest.mark.parametrize("lat, lon", [
        (30.0, math.nan), (math.nan, 10.0), (30.0, math.inf), (30.0, -math.inf)])
    def test_rejects_non_finite_point(self, lat, lon):
        params = hom_setup(WGS84, 30.0, 10.0, 0.0)
        with pytest.raises(OutOfDomain):
            hom_forward(params, lat, lon)

    def test_rejects_polar_point(self):
        params = hom_setup(WGS84, 60.0, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            hom_forward(params, 89.95, 0.0)

    def test_center_identity_across_grid(self):
        for lat in (0.0, -37.85, 67.1, 38.0):
            for az in (0.0, 45.0, 90.0, 180.0, 200.0, 270.0, 315.0):
                params = hom_setup(WGS84, lat, 25.3, az)
                x, y = hom_forward(params, lat, 25.3)
                assert abs(x) < 1e-9
                assert abs(y) < 1e-9

    def test_local_scale_at_one_meter(self):
        for lat, az in ((0.0, 0.0), (-37.85, 10.0), (67.1, 200.0)):
            params = hom_setup(WGS84, lat, 145.0, az)
            for bearing in range(0, 360, 45):
                probe = oracles.vincenty_direct(lat, 145.0, float(bearing), 1.0)
                x, y = hom_forward(params, *probe)
                assert math.hypot(x, y) == pytest.approx(1.0, rel=1e-6)

    def test_rotation_equivariance(self):
        # raising the frame azimuth by delta turns the image by delta
        # counterclockwise in x-right/y-up coordinates
        for delta in (5.0, 90.0, 180.0, 275.0):
            base = hom_setup(WGS84, -37.85, 145.0, 30.0)
            turned = hom_setup(WGS84, -37.85, 145.0, (30.0 + delta) % 360.0)
            probe = oracles.vincenty_direct(-37.85, 145.0, 63.0, 1000.0)
            x1, y1 = hom_forward(base, *probe)
            x2, y2 = hom_forward(turned, *probe)
            d = math.radians(delta)
            assert abs(x2 - (x1 * math.cos(d) - y1 * math.sin(d))) <= 1e-3
            assert abs(y2 - (x1 * math.sin(d) + y1 * math.cos(d))) <= 1e-3

    def test_matches_exact_spherical_construction(self):
        for clat, clon, caz in ((0.0, 0.0, 90.0), (40.0, 10.0, 30.0),
                                (-35.0, 145.0, 200.0), (67.0, 25.0, 271.0)):
            params = hom_setup(SPHERE, clat, clon, caz)
            for dlat, dlon in ((0.3, 0.2), (-0.5, 0.1), (0.0, 0.9), (0.7, -0.6)):
                x, y = hom_forward(params, clat + dlat, clon + dlon)
                x_ref, y_ref = oracles.sphere_oblique_xy(
                    clat, clon, caz, clat + dlat, clon + dlon,
                    SPHERE.semi_major_axis_m)
                assert abs(x - x_ref) < 1e-6
                assert abs(y - y_ref) < 1e-6

    def test_centerline_alignment_random_frames(self):
        rng = random.Random(11)
        for _ in range(50):
            lat = rng.uniform(-75.0, 75.0)
            lon = rng.uniform(-180.0, 180.0)
            azimuth = rng.uniform(0.0, 360.0)
            length = rng.uniform(50.0, 10000.0)
            target = oracles.vincenty_direct(lat, lon, azimuth, length)
            sol = geodesic_inverse(WGS84, lat, lon, *target)
            params = hom_setup(WGS84, lat, lon, sol.forward_azimuth_deg)
            x, y = hom_forward(params, *target)
            assert abs(x) <= 1e-3
            assert abs(y - sol.distance_m) <= 1e-3


# ((origin lat, origin lon, azimuth, point lat, point lon), x bits, y bits):
# struct.pack("<d") of hom_forward's output, frozen from the scalar kernel
# before the batch kernel replaced it. The probes cover azimuths in all four
# quadrants (90 < azimuth < 270 takes the reversed_line path), both
# hemispheres, points near 90 degrees of arc and near latitude ±89.9.
GOLDEN_XY = [
    ((-37.85, 145.0, 40.0, -37.849, 145.002), "1f8149f9cdbf4f40", "008078a978c56840"),
    ((-37.85, 145.0, 40.0, -37.9, 144.9), "040afaa757bea8c0", "009a15d52c5ac3c0"),
    ((-37.85, 145.0, 130.0, -37.851, 145.003), "c0cc4db9e12b55c0", "0000d332b4197140"),
    ((-37.85, 145.0, 130.0, -36.0, 147.5), "b27aa151834f12c1", "80379af37fd4e440"),
    ((-37.85, 145.0, 220.0, -37.86, 144.99), "27e518718caf43c0", "0040fce9c71f9640"),
    ((-37.85, 145.0, 310.0, -37.84, 144.98), "4cd97786c59771c0", "007071bfd71ba040"),
    ((51.5, -0.12, 15.0, 51.51, -0.1), "4e792ee0c0749040", "0000f98ee5689640"),
    ((51.5, -0.12, 105.0, 51.49, -0.13), "fbe87a4b8b999340", "00801bcf25ef77c0"),
    ((51.5, -0.12, 195.0, 52.5, 1.0), "a5a770a093bce5c0", "00739844082fffc0"),
    ((51.5, -0.12, 285.0, 50.0, -3.0), "0a4c78f576b909c1", "009edc53ac340341"),
    ((0.0, 0.0, 90.0, 0.001, 0.002), "c08a67efc0a45bc0", "ea1e838972d46b40"),
    ((0.0, 0.0, 270.0, -0.001, -0.002), "c0c866efc0a45bc0", "04b1838972d46b40"),
    ((0.0, 0.0, 90.0, 0.0, 89.99), "cf971c14c43f083e", "02613f1f6d1b6341"),
    ((0.0, 179.99, 45.0, 0.5, -179.5), "67724d1835649040", "9bad80595f58f340"),
    ((0.0, 179.99, 225.0, -0.5, 179.0), "77e0215d7af5e240", "f38e02cfef91fc40"),
    ((10.0, 20.0, 0.0, 10.0, 109.5), "33f38a3a94946d41", "3ab792179fad6041"),
    ((10.0, 20.0, 180.0, -79.0, 20.0), "0000000000000080", "a90ba68316d56241"),
    ((-10.0, -60.0, 300.0, 0.0, 29.5), "4bc03b3efcad4a41", "e1a2424429ff62c1"),
    ((-10.0, -60.0, 120.0, -89.0, 100.0), "eda1e9a22cad5e41", "544c7bf7a6b35e41"),
    ((60.0, 10.0, 350.0, 89.89, 10.0), "2f1c3db7caec2041", "4ef6abefe41f4941"),
    ((60.0, 10.0, 170.0, 89.89, -170.0), "5e76d5afc60921c1", "62a46f2a764f49c1"),
    ((-60.0, -70.0, 80.0, -89.89, -70.0), "029522acbd324a41", "50583552966923c1"),
    ((-60.0, -70.0, 260.0, -89.89, 110.0), "df3618c9b6684ac1", "10d1b5b1a0952341"),
    ((45.0, 90.0, 135.0, 44.99, 90.01), "19e306ad05856c40", "0000d073a7fd9440"),
    ((-45.0, -90.0, 315.0, -45.01, -89.99), "858f3398798d6cc0", "001080b528fd94c0"),
]


def _hex(value: float) -> str:
    return struct.pack("<d", value).hex()


class TestHomForwardMany:
    @pytest.mark.parametrize("probe, x_bits, y_bits", GOLDEN_XY)
    def test_scalar_bits_frozen(self, probe, x_bits, y_bits):
        olat, olon, azimuth, lat, lon = probe
        x, y = hom_forward(hom_setup(WGS84, olat, olon, azimuth), lat, lon)
        assert (_hex(x), _hex(y)) == (x_bits, y_bits)

    def test_batch_bits_frozen(self):
        by_setup: dict[tuple, list] = {}
        for (olat, olon, azimuth, lat, lon), x_bits, y_bits in GOLDEN_XY:
            by_setup.setdefault((olat, olon, azimuth), []).append(
                (lat, lon, x_bits, y_bits))
        for setup, rows in by_setup.items():
            results = hom_forward_many(hom_setup(WGS84, *setup),
                                       [row[0] for row in rows], [row[1] for row in rows])
            assert [(_hex(x), _hex(y)) for x, y in results] == [row[2:] for row in rows]

    def test_out_of_domain_returned_with_scalar_messages(self):
        params = hom_setup(WGS84, 0.0, 0.0, 0.0)
        lats = [89.95, 0.0, 0.0, 0.0]
        lons = [0.0, 170.0, 89.698247, 0.001]
        results = hom_forward_many(params, lats, lons)
        messages = [str(r) for r in results[:3]]
        assert all(isinstance(r, OutOfDomain) for r in results[:3])
        assert messages == ["latitude 89.95 is poleward of ±89.9",
                            "point lies in the hemisphere opposite the origin",
                            "point maps to the singular axis of the projection"]
        assert results[3] == hom_forward(params, 0.0, 0.001)
        for lat, lon, message in zip(lats, lons, messages):
            with pytest.raises(OutOfDomain) as raised:
                hom_forward(params, lat, lon)
            assert str(raised.value) == message

    def test_empty_input(self):
        assert hom_forward_many(hom_setup(WGS84, 0.0, 0.0, 0.0), [], []) == []


class TestHomInverse:
    def test_inverse_of_center(self):
        params = hom_setup(WGS84, -37.85, 145.0, 10.0)
        lat, lon = hom_inverse(params, 0.0, 0.0)
        assert lat == pytest.approx(-37.85, abs=1e-12)
        assert lon == pytest.approx(145.0, abs=1e-12)

    def test_round_trip_definitional(self):
        params = hom_setup(WGS84, 40.0, -100.0, 135.0)
        x, y = hom_forward(params, -37.85 + 77.0, 145.0 - 245.0)
        lat, lon = hom_inverse(params, x, y)
        assert lat == pytest.approx(39.15, abs=1e-9)
        assert lon == pytest.approx(-100.0, abs=1e-9)

    def test_inverse_of_equatorial_arc(self):
        params = hom_setup(WGS84, 0.0, 0.0, 0.0)
        lat, lon = hom_inverse(params, 111.3195, 0.0)
        assert lat == pytest.approx(0.0, abs=1e-9)
        assert lon == pytest.approx(0.001, abs=1e-9)

    def test_out_of_domain(self):
        params = hom_setup(WGS84, 0.0, 0.0, 0.0)
        with pytest.raises(OutOfDomain):
            hom_inverse(params, 0.0, 1.0e12)

    @given(clat=st.floats(-85.0, 85.0), clon=st.floats(-180.0, 180.0),
           caz=st.floats(0.0, 359.999), bearing=st.floats(0.0, 360.0),
           dist=st.floats(0.0, 100000.0))
    @settings(max_examples=250, deadline=None)
    def test_round_trip_within_100km(self, clat, clon, caz, bearing, dist):
        params = hom_setup(WGS84, clat, clon, caz)
        lat, lon = oracles.vincenty_direct(clat, clon, bearing, dist)
        x, y = hom_forward(params, lat, lon)
        lat_back, lon_back = hom_inverse(params, x, y)
        assert abs(lat_back - lat) < 1e-9
        assert abs(oracles.wrap_lon(lon_back - lon)) < 1e-9
