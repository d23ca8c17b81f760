"""Ellipsoidal geodesy kernel: geodesic inverse problem and an oblique
Mercator projection whose output axes follow a local reference direction.

Conventions at the public boundary: angles in degrees, azimuths clockwise
from true north in [0, 360), longitudes reduced to (-180, 180]. Internals
work in radians. The projection maps a point to (x, y) where y is meters
along the reference azimuth through the origin and x is meters perpendicular
to it, positive to the right when facing along the reference direction.
Scale is true at the origin and approximately true along the centerline.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .errors import CoincidentPoints, NearAntipodal, OutOfDomain, PolarOrigin
from .model import normalize_longitude

# Convergence controls for the iterative inverse solver.
_INVERSE_TOL_RAD = 1e-12
_INVERSE_MAX_ITER = 200

# The oblique Mercator degenerates toward the poles.
_POLE_LIMIT_DEG = 89.9

# Two points closer than this have no defined azimuth.
_COINCIDENT_M = 1e-6


@dataclass(frozen=True)
class Ellipsoid:
    """A reference ellipsoid given by equatorial radius and flattening.

    flattening = 0 yields a sphere, which is occasionally useful for
    testing against closed-form spherical results.
    """

    semi_major_axis_m: float
    flattening: float

    def __post_init__(self) -> None:
        if not 0.0 < self.semi_major_axis_m < math.inf:
            raise ValueError("semi_major_axis_m must be positive and finite")
        if not 0.0 <= self.flattening < 1.0:
            raise ValueError("flattening must be in [0, 1)")

    @property
    def semi_minor_axis_m(self) -> float:
        return self.semi_major_axis_m * (1.0 - self.flattening)

    @property
    def eccentricity_sq(self) -> float:
        return self.flattening * (2.0 - self.flattening)


WGS84 = Ellipsoid(semi_major_axis_m=6378137.0, flattening=1.0 / 298.257223563)


@dataclass(frozen=True)
class GeodesicSolution:
    """Initial bearing and length of the geodesic between two points."""

    forward_azimuth_deg: float
    distance_m: float


def _wrap_azimuth(deg: float) -> float:
    az = deg % 360.0
    # float modulo can land exactly on 360.0 for tiny negative inputs
    return 0.0 if az >= 360.0 else az


def _vincenty(ellipsoid: Ellipsoid, lat1: float, lon1: float,
              lat2: float, lon2: float) -> tuple[float, float, float]:
    """Iterative inverse solution; returns (distance_m, azimuth at point 1,
    azimuth of the continuing line at point 2), azimuths in radians."""
    a = ellipsoid.semi_major_axis_m
    f = ellipsoid.flattening
    b = ellipsoid.semi_minor_axis_m

    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    big_l = math.radians(normalize_longitude(lon2 - lon1))

    u1 = math.atan((1.0 - f) * math.tan(phi1))
    u2 = math.atan((1.0 - f) * math.tan(phi2))
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam = big_l
    for _ in range(_INVERSE_MAX_ITER):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.hypot(cos_u2 * sin_lam,
                               cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam)
        if sin_sigma == 0.0:
            return 0.0, 0.0, 0.0  # the endpoints coincide
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos2_alpha = 1.0 - sin_alpha * sin_alpha
        if cos2_alpha == 0.0:
            cos_2sigma_m = 0.0  # equatorial line
        else:
            cos_2sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos2_alpha
        big_c = f / 16.0 * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
        lam_prev = lam
        lam = big_l + (1.0 - big_c) * f * sin_alpha * (
            sigma + big_c * sin_sigma * (
                cos_2sigma_m + big_c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2)))
        if abs(lam) > math.pi:
            raise NearAntipodal(
                "iteration diverged; endpoints are nearly antipodal")
        if abs(lam - lam_prev) < _INVERSE_TOL_RAD:
            break
    else:
        raise NearAntipodal(
            f"no convergence within {_INVERSE_MAX_ITER} iterations")

    usq = cos2_alpha * (a * a - b * b) / (b * b)
    big_a = 1.0 + usq / 16384.0 * (4096.0 + usq * (-768.0 + usq * (320.0 - 175.0 * usq)))
    big_b = usq / 1024.0 * (256.0 + usq * (-128.0 + usq * (74.0 - 47.0 * usq)))
    delta_sigma = big_b * sin_sigma * (
        cos_2sigma_m + big_b / 4.0 * (
            cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2)
            - big_b / 6.0 * cos_2sigma_m
            * (-3.0 + 4.0 * sin_sigma ** 2) * (-3.0 + 4.0 * cos_2sigma_m ** 2)))
    distance = b * big_a * (sigma - delta_sigma)

    az1 = math.atan2(cos_u2 * sin_lam,
                     cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam)
    az2 = math.atan2(cos_u1 * sin_lam,
                     -sin_u1 * cos_u2 + cos_u1 * sin_u2 * cos_lam)
    return distance, az1, az2


def geodesic_inverse(ellipsoid: Ellipsoid, lat1_deg: float, lon1_deg: float,
                     lat2_deg: float, lon2_deg: float) -> GeodesicSolution:
    """Solve the inverse problem: initial azimuth at point 1 toward point 2
    and the geodesic distance between them.

    Raises CoincidentPoints for points less than 1 µm apart, a pole at any
    two longitudes included, and NearAntipodal when the iteration cannot
    converge. Accurate to well under a millimeter for separations up to
    ~1000 km.
    """
    for n, lat, lon in ((1, lat1_deg, lon1_deg), (2, lat2_deg, lon2_deg)):
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"lat{n}_deg {lat} outside [-90, 90]")
        if not math.isfinite(lon):
            raise ValueError(f"lon{n}_deg {lon} is not finite")
    lon1 = normalize_longitude(lon1_deg)
    lon2 = normalize_longitude(lon2_deg)

    # Solve one canonical ordering of the pair so that both query directions
    # share the identical convergence path (exact distance symmetry).
    swapped = (lat2_deg, lon2) < (lat1_deg, lon1)
    if swapped:
        distance, _, az_far = _vincenty(ellipsoid, lat2_deg, lon2, lat1_deg, lon1)
        azimuth = math.degrees(az_far) + 180.0
    else:
        distance, az_near, _ = _vincenty(ellipsoid, lat1_deg, lon1, lat2_deg, lon2)
        azimuth = math.degrees(az_near)
    if distance < _COINCIDENT_M:
        raise CoincidentPoints(f"points ({lat1_deg}, {lon1}) and ({lat2_deg}, {lon2}) "
                               "are less than 1 µm apart")
    return GeodesicSolution(forward_azimuth_deg=_wrap_azimuth(azimuth),
                            distance_m=distance)


# ---------------------------------------------------------------------------
# Oblique Mercator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomParams:
    """Precomputed constants of one oblique Mercator setup.

    The public fields repeat the requested center and azimuth; the remaining
    fields are internals of the formulation: b_pow/a_m/e_num are the
    aposphere constants, e the ellipsoid's eccentricity, sin/cos_gamma0 the
    skew angle at the natural origin, sin/cos_phi0 the center latitude,
    lon0_rad the natural-origin longitude, u0_m/v0_m the skew coordinates of
    the requested center (subtracted so the center maps to (0, 0)), and
    reversed_line marks frame azimuths in (90, 270) that are projected along
    the opposite centerline direction and mirrored back on output.
    """

    ellipsoid: Ellipsoid
    origin_lat_deg: float
    origin_lon_deg: float
    azimuth_deg: float
    b_pow: float
    a_m: float
    e_num: float
    e: float
    sin_gamma0: float
    cos_gamma0: float
    sin_phi0: float
    cos_phi0: float
    lon0_rad: float
    u0_m: float
    v0_m: float
    reversed_line: bool


def _conformal_phi(t: float, e: float) -> float:
    """Invert the t(phi) of hom_fix_terms by fixed-point iteration
    (converges fast; the contraction ratio is about e*e/2)."""
    phi = 0.5 * math.pi - 2.0 * math.atan(t)
    for _ in range(30):
        s = e * math.sin(phi)
        phi_next = 0.5 * math.pi - 2.0 * math.atan(t * ((1.0 - s) / (1.0 + s)) ** (0.5 * e))
        if abs(phi_next - phi) < 1e-15:
            return phi_next
        phi = phi_next
    return phi


def check_origin_latitude(origin_lat_deg: float) -> None:
    """Raise PolarOrigin for a projection origin poleward of the limit."""
    if abs(origin_lat_deg) > _POLE_LIMIT_DEG:
        raise PolarOrigin(
            f"origin latitude {origin_lat_deg} is poleward of ±{_POLE_LIMIT_DEG}")


def hom_setup(ellipsoid: Ellipsoid, origin_lat_deg: float, origin_lon_deg: float,
              azimuth_deg: float) -> HomParams:
    """Precompute projection constants for a center point and an azimuth.

    The returned parameters place the projection origin at the given point,
    make scale true there, and orient the output axes so that +y runs along
    azimuth_deg and +x runs 90 degrees clockwise of it.
    """
    for name, value in (("origin_lat_deg", origin_lat_deg),
                        ("origin_lon_deg", origin_lon_deg), ("azimuth_deg", azimuth_deg)):
        if not math.isfinite(value):
            raise ValueError(f"{name} {value} is not finite")
    check_origin_latitude(origin_lat_deg)
    lon_c = normalize_longitude(origin_lon_deg)
    az = _wrap_azimuth(azimuth_deg)

    # Reduce the frame azimuth to a centerline azimuth in (-90, 90]; frames
    # pointing the other way reuse the same centerline with both axes negated.
    if az <= 90.0:
        az_line, reversed_line = az, False
    elif az < 270.0:
        az_line, reversed_line = az - 180.0, True
    else:
        az_line, reversed_line = az - 360.0, False

    a = ellipsoid.semi_major_axis_m
    e2 = ellipsoid.eccentricity_sq
    e = math.sqrt(e2)
    alpha = math.radians(az_line)
    ((sin_phi0, cos_phi0, t0, _),) = hom_fix_terms(ellipsoid, (origin_lat_deg,),
                                                   (lon_c,))
    con = 1.0 - e2 * sin_phi0 * sin_phi0

    b_pow = math.sqrt(1.0 + e2 * cos_phi0 ** 4 / (1.0 - e2))
    a_m = a * b_pow * math.sqrt(1.0 - e2) / con
    # d*d - 1 = (1 - e2) sin^2(phi0) / (cos^2(phi0) con) >= 0; d stays >= 1 in
    # floats too (a test covers each origin where rounding could cross 1)
    d = b_pow * math.sqrt(1.0 - e2) / (cos_phi0 * math.sqrt(con))
    d2m1 = d * d - 1.0
    f_num = d + math.sqrt(d2m1) if origin_lat_deg >= 0.0 else d - math.sqrt(d2m1)
    e_num = f_num * t0 ** b_pow
    g_num = 0.5 * (f_num - 1.0 / f_num)
    sin_alpha = math.sin(alpha)
    gamma0 = math.asin(sin_alpha / d)

    # Longitude of the natural origin. The textbook arcsine form loses
    # precision catastrophically near azimuth ±90 (its argument reaches ±1);
    # since 1 + g^2 = d^2 it is identical to this always-stable arctangent.
    lon0 = math.radians(lon_c) - math.atan2(g_num * sin_alpha,
                                            d * math.cos(alpha)) / b_pow

    params = HomParams(
        ellipsoid=ellipsoid,
        origin_lat_deg=origin_lat_deg,
        origin_lon_deg=lon_c,
        azimuth_deg=az,
        b_pow=b_pow,
        a_m=a_m,
        e_num=e_num,
        e=e,
        sin_gamma0=math.sin(gamma0),
        cos_gamma0=math.cos(gamma0),
        sin_phi0=sin_phi0,
        cos_phi0=cos_phi0,
        lon0_rad=lon0,
        u0_m=0.0,
        v0_m=0.0,
        reversed_line=False,
    )
    # Anchor the output origin by projecting the center itself with zero
    # offsets and no mirroring, which returns its raw skew coordinates
    # (v, u); this makes hom_forward(params, center) exactly (0, 0).
    v0, u0 = hom_forward(params, origin_lat_deg, lon_c)
    return replace(params, u0_m=u0, v0_m=v0, reversed_line=reversed_line)


def hom_fix_terms(ellipsoid: Ellipsoid, lats_deg: Sequence[float],
                  lons_deg: Sequence[float]) -> list[tuple | OutOfDomain]:
    """The frame-independent half of the projection, one entry per point.

    An entry is (sin phi, cos phi, t(phi), lambda): the sine and cosine of
    the latitude phi, its isometric colatitude factor t (1 at the equator,
    toward 0 at the north pole) on the ellipsoid, and the longitude lambda
    in radians, reduced to (-pi, pi] (NaN for a non-finite longitude). A
    point poleward of the projection's latitude limit gets an OutOfDomain
    instance instead. Entries depend on no frame, so one list serves every
    frame through hom_forward_terms.
    """
    e = math.sqrt(ellipsoid.eccentricity_sq)
    half_e, quarter_pi = 0.5 * e, 0.25 * math.pi
    terms: list[tuple | OutOfDomain] = []
    for lat_deg, lon_deg in zip(lats_deg, lons_deg):
        if abs(lat_deg) > _POLE_LIMIT_DEG:
            terms.append(OutOfDomain(f"latitude {lat_deg} is poleward of ±{_POLE_LIMIT_DEG}"))
            continue
        phi = math.radians(lat_deg)
        sin_phi = math.sin(phi)
        s = e * sin_phi
        terms.append((sin_phi, math.cos(phi),
                      math.tan(quarter_pi - 0.5 * phi) * ((1.0 + s) / (1.0 - s)) ** half_e,
                      math.radians(normalize_longitude(lon_deg))))
    return terms


def hom_forward_terms(params: HomParams, terms: Sequence[tuple | OutOfDomain]
                      ) -> list[tuple[float, float] | OutOfDomain]:
    """The per-frame half of the projection: map hom_fix_terms entries,
    computed on params.ellipsoid, to frame-local (x, y) meters, one result
    per entry.

    x is perpendicular to the reference direction (right-positive), y runs
    along it. A point more than 90 degrees of arc from the origin, or
    poleward of the projection's latitude limit, gets in place of its
    (x, y) the OutOfDomain instance that hom_forward raises for it; nothing
    is raised. A caller projecting the same points into several frames,
    as engine.run does, runs hom_fix_terms once and this per frame.
    """
    pi, two_pi = math.pi, 2.0 * math.pi
    e_num, b_pow = params.e_num, params.b_pow
    a_m, half_a_m = params.a_m, 0.5 * params.a_m
    sin_g0, cos_g0 = params.sin_gamma0, params.cos_gamma0
    sin_phi0, cos_phi0 = params.sin_phi0, params.cos_phi0
    lam_c, lon0 = math.radians(params.origin_lon_deg), params.lon0_rad
    u0, v0 = params.u0_m, params.v0_m
    sign = -1.0 if params.reversed_line else 1.0  # a reversed frame mirrors both axes
    results: list[tuple[float, float] | OutOfDomain] = []
    for entry in terms:
        if not isinstance(entry, tuple):  # a polar point's OutOfDomain
            results.append(entry)
            continue
        sin_phi, cos_phi, t, lam = entry
        # Within 90 degrees of arc of the origin means a non-negative
        # spherical dot product. A non-finite longitude's lambda is NaN,
        # and NaN fails the comparison, so non-finite input is rejected.
        if not (sin_phi0 * sin_phi + cos_phi0 * cos_phi * math.cos(lam - lam_c) >= 0.0):
            results.append(OutOfDomain("point lies in the hemisphere opposite the origin"))
            continue

        # Hotine skew coordinates: u along the formulation centerline, v
        # perpendicular to it, right-positive.
        q = e_num / t ** b_pow
        inv_q = 1.0 / q
        big_s = 0.5 * (q - inv_q)
        big_t = 0.5 * (q + inv_q)
        dlam = lam - lon0
        if dlam < -pi:
            dlam += two_pi
        elif dlam > pi:
            dlam -= two_pi
        bdl = b_pow * dlam
        big_v = math.sin(bdl)
        big_u = (-big_v * cos_g0 + big_s * sin_g0) / big_t
        if abs(big_u) >= 1.0 - 1e-15:
            results.append(OutOfDomain("point maps to the singular axis of the projection"))
            continue
        v = half_a_m * math.log((1.0 - big_u) / (1.0 + big_u)) / b_pow
        u = a_m * math.atan2(big_s * cos_g0 + big_v * sin_g0, math.cos(bdl)) / b_pow
        results.append((sign * (v - v0), sign * (u - u0)))
    return results


def hom_forward(params: HomParams, lat_deg: float, lon_deg: float) -> tuple[float, float]:
    """Project one point to frame-local (x, y) meters with hom_fix_terms and
    hom_forward_terms; a point outside the projection's domain raises its
    OutOfDomain."""
    terms = hom_fix_terms(params.ellipsoid, (lat_deg,), (lon_deg,))
    (result,) = hom_forward_terms(params, terms)
    if isinstance(result, OutOfDomain):
        raise result
    return result


def hom_inverse(params: HomParams, x_m: float, y_m: float) -> tuple[float, float]:
    """Map frame-local (x, y) meters back to (lat, lon) degrees.

    Coordinates outside the image of the usable forward domain raise
    OutOfDomain; a candidate result is accepted only if projecting it
    forward reproduces the input.
    """
    sign = -1.0 if params.reversed_line else 1.0
    u = sign * y_m + params.u0_m
    v = sign * x_m + params.v0_m

    sin_g0, cos_g0 = params.sin_gamma0, params.cos_gamma0
    # One gate decides the domain: the solved point must project back onto
    # (x, y). A solve that fails on the way (an overflow, a division by
    # zero, the square root of a negative where |U| >= 1, or a NaN that
    # hom_forward rejects) leaves NaN, which fails the gate too.
    try:
        q = math.exp(-params.b_pow * v / params.a_m)
        big_s = 0.5 * (q - 1.0 / q)
        big_t = 0.5 * (q + 1.0 / q)
        bua = params.b_pow * u / params.a_m
        big_v = math.sin(bua)
        big_u = (big_v * cos_g0 + big_s * sin_g0) / big_t
        t = (params.e_num / math.sqrt((1.0 + big_u) / (1.0 - big_u))) ** (1.0 / params.b_pow)
        lat_deg = math.degrees(_conformal_phi(t, params.e))
        lam = params.lon0_rad - math.atan2(big_s * cos_g0 - big_v * sin_g0,
                                           math.cos(bua)) / params.b_pow
        lon_deg = normalize_longitude(math.degrees(lam))
        x_check, y_check = hom_forward(params, lat_deg, lon_deg)
    except (OverflowError, ZeroDivisionError, ValueError, OutOfDomain):
        x_check = y_check = math.nan
    tolerance = 1e-3 * (1.0 + 1e-6 * math.hypot(x_m, y_m))
    if not (abs(x_check - x_m) <= tolerance and abs(y_check - y_m) <= tolerance):
        raise OutOfDomain(f"({x_m}, {y_m}) is outside the projection image")
    return lat_deg, lon_deg
