"""Independent reference implementations used only by the test suite.

Nothing here imports from the package under test, or from anything outside
the standard library: the direct geodesic solver, the meridian-arc series,
the exact spherical oblique Mercator (built from 3-D vector rotation rather
than projection series), a second, separately written oblique Mercator for
the ellipsoid, and a reader of the command line's inputs and outputs
written from README.md alone. Agreement between these and the library is
what the tests assert.
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from itertools import count

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563


def wrap_lon(lon_deg: float) -> float:
    lon = lon_deg % 360.0
    if lon > 180.0:
        lon -= 360.0
    elif lon <= -180.0:
        lon += 360.0
    return lon


def vincenty_direct(lat1_deg: float, lon1_deg: float, azimuth_deg: float,
                    distance_m: float, a: float = WGS84_A,
                    f: float = WGS84_F) -> tuple[float, float]:
    """Direct geodesic problem: destination point after travelling
    distance_m along the initial azimuth. Returns (lat, lon) degrees."""
    b = a * (1.0 - f)
    phi1 = math.radians(lat1_deg)
    alpha1 = math.radians(azimuth_deg)

    tan_u1 = (1.0 - f) * math.tan(phi1)
    u1 = math.atan(tan_u1)
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sigma1 = math.atan2(tan_u1, math.cos(alpha1))
    sin_alpha = cos_u1 * math.sin(alpha1)
    cos2_alpha = 1.0 - sin_alpha * sin_alpha

    usq = cos2_alpha * (a * a - b * b) / (b * b)
    big_a = 1.0 + usq / 16384.0 * (4096.0 + usq * (-768.0 + usq * (320.0 - 175.0 * usq)))
    big_b = usq / 1024.0 * (256.0 + usq * (-128.0 + usq * (74.0 - 47.0 * usq)))

    sigma = distance_m / (b * big_a)
    for _ in range(200):
        two_sigma_m = 2.0 * sigma1 + sigma
        cos_2sm = math.cos(two_sigma_m)
        sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
        delta = big_b * sin_sigma * (
            cos_2sm + big_b / 4.0 * (
                cos_sigma * (-1.0 + 2.0 * cos_2sm ** 2)
                - big_b / 6.0 * cos_2sm * (-3.0 + 4.0 * sin_sigma ** 2)
                * (-3.0 + 4.0 * cos_2sm ** 2)))
        sigma_next = distance_m / (b * big_a) + delta
        if abs(sigma_next - sigma) < 1e-14:
            sigma = sigma_next
            break
        sigma = sigma_next

    sin_sigma, cos_sigma = math.sin(sigma), math.cos(sigma)
    two_sigma_m = 2.0 * sigma1 + sigma
    lat2 = math.atan2(
        sin_u1 * cos_sigma + cos_u1 * sin_sigma * math.cos(alpha1),
        (1.0 - f) * math.hypot(sin_alpha,
                               sin_u1 * sin_sigma - cos_u1 * cos_sigma * math.cos(alpha1)))
    lam = math.atan2(sin_sigma * math.sin(alpha1),
                     cos_u1 * cos_sigma - sin_u1 * sin_sigma * math.cos(alpha1))
    big_c = f / 16.0 * cos2_alpha * (4.0 + f * (4.0 - 3.0 * cos2_alpha))
    big_l = lam - (1.0 - big_c) * f * sin_alpha * (
        sigma + big_c * sin_sigma * (
            math.cos(two_sigma_m)
            + big_c * cos_sigma * (-1.0 + 2.0 * math.cos(two_sigma_m) ** 2)))
    lon2 = wrap_lon(lon1_deg + math.degrees(big_l))
    return math.degrees(lat2), lon2


def meridian_arc_m(lat_deg: float, a: float = WGS84_A, f: float = WGS84_F) -> float:
    """Meridian arc length from the equator to lat_deg (series through e^8)."""
    e2 = f * (2.0 - f)
    e4 = e2 * e2
    e6 = e4 * e2
    e8 = e6 * e2
    phi = math.radians(lat_deg)
    c0 = 1.0 - e2 / 4.0 - 3.0 * e4 / 64.0 - 5.0 * e6 / 256.0 - 175.0 * e8 / 16384.0
    c2 = 3.0 * e2 / 8.0 + 3.0 * e4 / 32.0 + 45.0 * e6 / 1024.0 + 105.0 * e8 / 4096.0
    c4 = 15.0 * e4 / 256.0 + 45.0 * e6 / 1024.0 + 525.0 * e8 / 16384.0
    c6 = 35.0 * e6 / 3072.0 + 175.0 * e8 / 12288.0
    c8 = 315.0 * e8 / 131072.0
    return a * (c0 * phi - c2 * math.sin(2.0 * phi) + c4 * math.sin(4.0 * phi)
                - c6 * math.sin(6.0 * phi) + c8 * math.sin(8.0 * phi))


def great_circle_inverse(lat1_deg: float, lon1_deg: float, lat2_deg: float,
                         lon2_deg: float, radius: float) -> tuple[float, float]:
    """Spherical inverse problem: (azimuth degrees in [0, 360), distance m)."""
    p1, p2 = math.radians(lat1_deg), math.radians(lat2_deg)
    dlon = math.radians(wrap_lon(lon2_deg - lon1_deg))
    h = (math.sin(0.5 * (p2 - p1)) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(0.5 * dlon) ** 2)
    sigma = 2.0 * math.asin(min(1.0, math.sqrt(h)))
    az = math.atan2(math.sin(dlon) * math.cos(p2),
                    math.cos(p1) * math.sin(p2)
                    - math.sin(p1) * math.cos(p2) * math.cos(dlon))
    return math.degrees(az) % 360.0, radius * sigma


def _unit_vector(lat_deg: float, lon_deg: float) -> tuple[float, float, float]:
    phi, lam = math.radians(lat_deg), math.radians(lon_deg)
    return (math.cos(phi) * math.cos(lam),
            math.cos(phi) * math.sin(lam),
            math.sin(phi))


def sphere_oblique_xy(lat_c: float, lon_c: float, azimuth_deg: float,
                      lat: float, lon: float, radius: float) -> tuple[float, float]:
    """Exact oblique Mercator on a sphere, constructed from 3-D geometry.

    The centerline is the great circle through the center with the given
    initial azimuth. Returns (x, y): x perpendicular right-positive, y along
    the azimuth direction, with the center at (0, 0). Scale is exactly true
    along the whole centerline.
    """
    phi, lam = math.radians(lat_c), math.radians(lon_c)
    c = _unit_vector(lat_c, lon_c)
    north = (-math.sin(phi) * math.cos(lam), -math.sin(phi) * math.sin(lam), math.cos(phi))
    east = (-math.sin(lam), math.cos(lam), 0.0)
    az = math.radians(azimuth_deg)
    # forward tangent and leftward normal of the centerline at the center
    fwd = tuple(n * math.cos(az) + e * math.sin(az) for n, e in zip(north, east))
    left = (c[1] * fwd[2] - c[2] * fwd[1],
            c[2] * fwd[0] - c[0] * fwd[2],
            c[0] * fwd[1] - c[1] * fwd[0])
    q = _unit_vector(lat, lon)
    along = math.atan2(sum(a * b for a, b in zip(q, fwd)),
                       sum(a * b for a, b in zip(q, c)))
    oblat = math.asin(max(-1.0, min(1.0, sum(a * b for a, b in zip(q, left)))))
    y = radius * along
    x = -radius * math.atanh(math.sin(oblat))
    return x, y


def hom_reference_xy(lat_c: float, lon_c: float, azimuth_deg: float,
                     lat: float, lon: float, a: float = WGS84_A,
                     f: float = WGS84_F, k0: float = 1.0) -> tuple[float, float]:
    """Second, separately written oblique Mercator for the ellipsoid,
    following the guidance-note organization of the formulas with the
    closed-form natural-origin offset. Same output convention as the
    library: x right-positive, y along the azimuth, center at (0, 0)."""
    az = azimuth_deg % 360.0
    if az <= 90.0:
        alpha_c, flip = az, False
    elif az < 270.0:
        alpha_c, flip = az - 180.0, True
    else:
        alpha_c, flip = az - 360.0, False

    e2 = f * (2.0 - f)
    e = math.sqrt(e2)
    phi_c = math.radians(lat_c)
    lam_c = math.radians(wrap_lon(lon_c))
    alpha = math.radians(alpha_c)

    big_b = math.sqrt(1.0 + e2 * math.cos(phi_c) ** 4 / (1.0 - e2))
    big_a = a * big_b * k0 * math.sqrt(1.0 - e2) / (1.0 - e2 * math.sin(phi_c) ** 2)

    def t_of(phi: float) -> float:
        es = e * math.sin(phi)
        return math.tan(0.25 * math.pi - 0.5 * phi) / ((1.0 - es) / (1.0 + es)) ** (0.5 * e)

    t_c = t_of(phi_c)
    big_d = big_b * math.sqrt(1.0 - e2) / (
        math.cos(phi_c) * math.sqrt(1.0 - e2 * math.sin(phi_c) ** 2))
    dd = max(big_d * big_d, 1.0)
    sign = 1.0 if phi_c >= 0.0 else -1.0
    big_f = big_d + sign * math.sqrt(dd - 1.0)
    big_h = big_f * t_c ** big_b
    big_g = 0.5 * (big_f - 1.0 / big_f)
    gamma_0 = math.asin(max(-1.0, min(1.0, math.sin(alpha) / big_d)))

    if dd > 1.0:
        # asin(G tan(gamma_0)) rewritten as a stable arctangent
        lam_0 = lam_c - math.atan2(big_g * math.sin(alpha),
                                   big_d * math.cos(alpha)) / big_b
        u_c = sign * (big_a / big_b) * math.atan2(math.sqrt(dd - 1.0), math.cos(alpha))
    else:
        # equatorial center: natural origin at the center itself
        lam_0 = lam_c
        u_c = 0.0

    def forward(phi: float, lam: float) -> tuple[float, float]:
        t = t_of(phi)
        big_q = big_h / t ** big_b
        big_s = 0.5 * (big_q - 1.0 / big_q)
        big_t = 0.5 * (big_q + 1.0 / big_q)
        dl = lam - lam_0
        while dl > math.pi:
            dl -= 2.0 * math.pi
        while dl < -math.pi:
            dl += 2.0 * math.pi
        big_v = math.sin(big_b * dl)
        big_u = (-big_v * math.cos(gamma_0) + big_s * math.sin(gamma_0)) / big_t
        v = big_a * math.log((1.0 - big_u) / (1.0 + big_u)) / (2.0 * big_b)
        u = big_a * math.atan2(big_s * math.cos(gamma_0) + big_v * math.sin(gamma_0),
                               math.cos(big_b * dl)) / big_b
        return u, v

    u_pt, v_pt = forward(math.radians(lat), math.radians(wrap_lon(lon)))
    y = u_pt - u_c
    x = v_pt
    if flip:
        x, y = -x, -y
    return x, y


# -- the command line's outputs, from README.md alone -----------------------

class _Undecided(Exception):
    """An input on which README.md does not decide the output."""


# xsd:dateTime, as GPX 1.1 declares its times, with XML white space around
# it; no offset means UTC. XML Schema's digits are ASCII only (re.ASCII).
_DATETIME = re.compile(r"[ \t\r\n]*(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)"
                       r"(?:\.(\d+))?(Z|[+-]\d\d:\d\d)?[ \t\r\n]*", re.ASCII)
# an XML number: collapsed white space around a decimal, with an exponent
_NUMBER = re.compile(r"[ \t\r\n]*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?[ \t\r\n]*",
                     re.ASCII)
_SAFE = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-")
_DAY_US = 86_400 * 10**6


def _days_since_1970(year: int, month: int, day: int) -> int:
    """Days from 1970-01-01 to a proleptic Gregorian date (the days-from-
    civil algorithm: years taken from March, in 400-year eras)."""
    year -= month <= 2
    era, year_of_era = divmod(year, 400)
    day_of_year = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146_097 + day_of_era - 719_468


# the first and the last microsecond of the years 1-9999 in UTC
_FIRST_US = _days_since_1970(1, 1, 1) * _DAY_US
_LAST_US = _days_since_1970(10_000, 1, 1) * _DAY_US - 1


def utc_microseconds(text: str) -> int | None:
    """Integer UTC microseconds since 1970 of an xsd:dateTime, or None if
    the text is not one, names no real date or time, or falls outside the
    years 1-9999 in UTC."""
    match = _DATETIME.fullmatch(text)
    if match is None:
        return None
    year, month, day, hour, minute, second = map(int, match.groups()[:6])
    month_days = (31, 29 if year % 4 == 0 and (year % 100 != 0 or year % 400 == 0) else 28,
                  31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    offset = match[8] or "Z"
    offset_h, offset_m = (0, 0) if offset == "Z" else (int(offset[1:3]), int(offset[4:6]))
    if not (year >= 1 and 1 <= month <= 12 and 1 <= day <= month_days[month - 1]
            and hour < 24 and minute < 60 and second < 60 and offset_h < 24 and offset_m < 60):
        return None
    offset_s = (-1 if offset[0] == "-" else 1) * (offset_h * 3600 + offset_m * 60)
    seconds = ((_days_since_1970(year, month, day) * 24 + hour) * 60 + minute) * 60 + second
    # a fraction past the microsecond is cut to it
    us = (seconds - offset_s) * 10**6 + int((match[7] or "")[:6].ljust(6, "0"))
    return us if _FIRST_US <= us <= _LAST_US else None


def _interval(text: str) -> tuple[int, int] | None:
    """(begin, end) UTC microseconds of a start/end interval, or None."""
    parts = text.split("/")
    ends = [utc_microseconds(part) for part in parts] if len(parts) == 2 else [None]
    return None if None in ends else (ends[0], ends[1])


def read_frames(text: str) -> list[tuple[str, tuple[float, float], tuple[float, float],
                                         list[tuple[str, int, int]]]]:
    """(id, origin, target, events) of each frame of a frames document that
    the command line reads without error: origin and target as (lat, lon),
    each event as (label, begin, end) in UTC microseconds."""
    frames = []
    for index, feature in enumerate(json.loads(text)["features"]):
        properties = feature.get("properties") or {}
        frame_id = feature.get("id")
        if frame_id is None or frame_id == "":
            name = properties.get("name")
            frame_id = name if isinstance(name, str) and name else f"f{index}"
        elif not isinstance(frame_id, str):
            frame_id = json.dumps(frame_id)  # a number becomes its text
        (lon1, lat1), (lon2, lat2) = feature["geometry"]["coordinates"]
        events = []
        if isinstance(properties.get("events"), list):
            events = [(f"e{i}", *_interval(item)) for i, item in enumerate(properties["events"])]
        for key, value in properties.items():  # an events array is no string
            interval = _interval(value) if isinstance(value, str) and key else None
            if interval is not None:
                events.append((key, *interval))
        frames.append((frame_id, (lat1, lon1), (lat2, lon2), events))
    return frames


def _xml_number(text: str | None) -> float | None:
    """The finite value of an XML number attribute, or None."""
    if text is None or _NUMBER.fullmatch(text) is None:
        return None
    value = float(text)
    return value if math.isfinite(value) else None


def read_gpx(data: bytes) -> list[tuple[float, float, int]]:
    """The usable fixes of a GPX file as (lat, lon, UTC microseconds),
    stably sorted by time: the trk/trkseg/trkpt elements in the root's
    namespace with a numeric, finite lat in [-90, 90] and lon and a <time>
    in the years 1-9999, the lon reduced into (-180, 180]. Empty for a file
    the command line skips."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError:
        return []
    ns = root.tag[:root.tag.find("}") + 1]
    fixes = []
    for point in root.iterfind(f"{ns}trk/{ns}trkseg/{ns}trkpt"):
        lat, lon = _xml_number(point.get("lat")), _xml_number(point.get("lon"))
        time = point.find(f"{ns}time")
        us = None if time is None else utc_microseconds(time.text or "")
        if lat is not None and lon is not None and us is not None and -90.0 <= lat <= 90.0:
            fixes.append((lat, lon if -180.0 < lon <= 180.0 else wrap_lon(lon), us))
    return sorted(fixes, key=lambda fix: fix[2])


def geodesic_azimuth(lat1_deg: float, lon1_deg: float, lat2_deg: float,
                     lon2_deg: float) -> float:
    """Initial azimuth in degrees of the geodesic from point 1 to point 2:
    the azimuth and distance for which vincenty_direct reaches point 2,
    found by Newton's method from the great-circle solution."""
    azimuth, distance = great_circle_inverse(lat1_deg, lon1_deg, lat2_deg, lon2_deg, WGS84_A)
    east = math.cos(math.radians(lat2_deg))  # degrees of longitude to degrees of arc

    def miss(az: float, dist: float) -> tuple[float, float]:
        lat, lon = vincenty_direct(lat1_deg, lon1_deg, az, dist)
        return lat - lat2_deg, wrap_lon(lon - lon2_deg) * east

    for _ in range(10):
        north, west = miss(azimuth, distance)
        # the miss's derivatives in azimuth (a, c) and distance (b, d)
        north_az, west_az = miss(azimuth + 1e-6, distance)
        north_m, west_m = miss(azimuth, distance + 1e-2)
        a, c = (north_az - north) / 1e-6, (west_az - west) / 1e-6
        b, d = (north_m - north) / 1e-2, (west_m - west) / 1e-2
        det = a * d - b * c
        azimuth -= (north * d - b * west) / det
        distance -= (a * west - c * north) / det
    return azimuth % 360.0


def _arc_cosine(origin: tuple[float, float], lat_deg: float, lon_deg: float) -> float:
    """The cosine of the arc from origin to the point, on the sphere."""
    phi0, phi = math.radians(origin[0]), math.radians(lat_deg)
    return (math.sin(phi0) * math.sin(phi)
            + math.cos(phi0) * math.cos(phi) * math.cos(math.radians(lon_deg - origin[1])))


def _csv_name(stem: str, taken: set[str]) -> str:
    """The first of stem, stem_2, ... that is new case-folded, the stem cut
    so that the name with ".csv" fits in 255 bytes; claimed in taken."""
    for n in count(1):
        suffix = "" if n == 1 else f"_{n}"
        name = stem[:255 - len(".csv") - len(suffix)] + suffix  # ASCII: a character a byte
        if name.casefold() not in taken:
            taken.add(name.casefold())
            return f"{name}.csv"


def cli_outputs(frames_text: str, trace_files: dict[str, bytes]
                ) -> tuple[dict[str, list[tuple[float, float, float]]], int] | None:
    """What a command line run that exits 0 writes: each CSV's name and
    rows, with x, y from hom_reference_xy, and the count of empty
    permutations. trace_files maps each .gpx file name to its bytes. None
    where README.md does not decide: a fix in an interval within 1 degree
    of the 90-degree arc at which the projection's domain ends. A
    permutation with no fix in its interval, or none that the projection
    takes, is empty."""
    try:
        return _cli_outputs(frames_text, trace_files)
    except _Undecided:
        return None


def _cli_outputs(frames_text: str, trace_files: dict[str, bytes]
                 ) -> tuple[dict[str, list[tuple[float, float, float]]], int]:
    frames = [(frame_id, origin, geodesic_azimuth(*origin, *target), events)
              for frame_id, origin, target, events in read_frames(frames_text)]
    traces, ids = [], set()
    for name in sorted(trace_files, key=lambda name: (name[:-len(".gpx")], name)):
        stem = name[:-len(".gpx")]
        trace_id = next(candidate for n in count(1)
                        if (candidate := stem if n == 1 else f"{stem}_{n}") not in ids)
        ids.add(trace_id)
        fixes = read_gpx(trace_files[name])
        if fixes:
            traces.append((trace_id, fixes))

    series, empty = [], 0
    for trace_id, fixes in sorted(traces, key=lambda trace: trace[0]):
        for frame_id, origin, azimuth, events in frames:
            for label, begin, end in events:
                rows = []
                for lat, lon, us in (fix for fix in fixes if begin <= fix[2] <= end):
                    cosine = _arc_cosine(origin, lat, lon)
                    if abs(cosine) < math.sin(math.radians(1.0)):
                        raise _Undecided(f"({lat}, {lon})")
                    if cosine > 0.0 and abs(lat) <= 89.9:
                        rows.append((*hom_reference_xy(*origin, azimuth, lat, lon),
                                     (us - begin) / 10**6))
                if rows:
                    series.append(((trace_id, frame_id, label), rows))
                else:
                    empty += 1
    taken: set[str] = set()
    files = {}
    for key, rows in sorted(series, key=lambda item: item[0]):
        stem = "__".join("".join(c if c in _SAFE else "_" for c in part) for part in key)
        files[_csv_name(stem, taken)] = rows
    return files, empty
