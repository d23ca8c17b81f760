"""Parse GPX traces, GeoJSON frame files, and ISO 8601 intervals.

Format contracts
----------------
Frames are a GeoJSON FeatureCollection (RFC 7946). Each frame feature must
have a LineString geometry with exactly two positions; positions are
[lon, lat] per the RFC, which is the reverse of the (lat, lon) order used
by this package's APIs. Event intervals come from an ``events`` property
holding an array of interval strings, and/or from any other property whose
string value parses as an interval (the property name becomes the label).

Intervals are the two-datetime ISO 8601 form ``<start>/<end>``; duration
forms such as ``PT20M`` are rejected. Datetimes without a UTC offset are
interpreted as UTC, with a warning.

Traces are GPX 1.0/1.1; only trk/trkseg/trkpt with lat/lon attributes and
a <time> child are consumed, read in the root element's namespace. GPX
times are UTC by that format's definition. Files in a canonical subset of
XML (see _scan_fixes) are read by one regular expression over the text;
every other well-formed file is read through ElementTree, with the same
result.
"""

from __future__ import annotations

import json
import math
import re
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NoReturn
from xml.parsers import expat

from . import geodesy
from .errors import (
    BadLineString,
    CoincidentPoints,
    FramesFileUnreadable,
    MalformedInterval,
    MalformedXml,
    NearAntipodal,
    NoEvents,
    NotFeatureCollection,
    NoTimedPoints,
    NoTraces,
    PolarOrigin,
    ReversedInterval,
)
from .model import EventInterval, FrameLine, Trace, normalize_longitude, unique_name, utc_us

WarnFn = Callable[[str], None]


@dataclass
class IngestReport:
    """The non-fatal (source, message) warnings of one load_inputs call."""

    warnings: list[tuple[str, str]] = field(default_factory=list)


# From Python 3.11 on, fromisoformat reads a trailing "Z" itself, and a text
# it reads as it stands gives the value of the cleaned text (a test holds it).
_ISO_READS_Z = sys.version_info >= (3, 11)

# utc_us of the first and the last instant a datetime holds, in the years 1-9999
_FIRST_US, _LAST_US = (utc_us(limit.replace(tzinfo=timezone.utc))
                       for limit in (datetime.min, datetime.max))


def _parse_instant(text: str) -> tuple[datetime, bool]:
    """Parse one ISO 8601 datetime; returns (aware instant, was_naive).
    The instant keeps its parsed offset; EventInterval converts it to UTC,
    and a GPX fix's time becomes utc_us(instant)."""
    try:
        # a GPX time parses as it stands, at ~1/3 the cost of cleaning it
        parsed = datetime.fromisoformat(text) if _ISO_READS_Z else None
    except ValueError:
        parsed = None
    if parsed is None:
        cleaned = text.strip()
        if cleaned.endswith(("Z", "z")):
            cleaned = cleaned[:-1] + "+00:00"
        try:
            parsed = datetime.fromisoformat(cleaned)
        except ValueError as exc:
            raise MalformedInterval(f"bad datetime {text!r}: {exc}") from None
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc), True
    return parsed, False


def parse_interval(text: str, label: str = "e0",
                   on_warning: WarnFn | None = None) -> EventInterval:
    """Parse a ``<start>/<end>`` interval string into an EventInterval.

    Only the explicit two-datetime form is accepted; begin and end are
    normalized to UTC. Datetimes lacking an offset are taken as UTC and
    reported through on_warning when given. An empty label, or an endpoint
    out of the datetime range in UTC, is a MalformedInterval.
    """
    parts = text.split("/")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise MalformedInterval(
            f"{text!r} is not a <start>/<end> interval with two datetimes")
    for part in parts:
        if part.strip().lstrip("+-").upper().startswith("P"):
            raise MalformedInterval(
                f"duration component {part.strip()!r} not supported; "
                "give two explicit datetimes")
    begin, begin_naive = _parse_instant(parts[0])
    end, end_naive = _parse_instant(parts[1])
    if (begin_naive or end_naive) and on_warning is not None:
        on_warning(f"interval {text!r} has no UTC offset; assuming UTC")
    try:
        return EventInterval(begin_utc=begin, end_utc=end, label=label)
    except ValueError as exc:
        raise MalformedInterval(f"{text!r}: {exc}") from None


def format_interval(interval: EventInterval) -> str:
    """Render an interval in the canonical UTC ``Z`` form that parses back
    to an equal value."""
    def _one(instant: datetime) -> str:
        return instant.isoformat().replace("+00:00", "Z")
    return f"{_one(interval.begin_utc)}/{_one(interval.end_utc)}"


def build_frame_line(frame_id: str, origin_lat_deg: float, origin_lon_deg: float,
                     target_lat_deg: float, target_lon_deg: float) -> FrameLine:
    """Derive azimuth and length on WGS84 for a two-point frame line. An
    origin the oblique Mercator cannot take raises PolarOrigin."""
    geodesy.check_origin_latitude(origin_lat_deg)
    solution = geodesy.geodesic_inverse(geodesy.WGS84, origin_lat_deg, origin_lon_deg,
                                        target_lat_deg, target_lon_deg)
    return FrameLine(
        id=frame_id,
        origin_lat_deg=origin_lat_deg,
        origin_lon_deg=origin_lon_deg,
        target_lat_deg=target_lat_deg,
        target_lon_deg=target_lon_deg,
        azimuth_deg=solution.forward_azimuth_deg,
        length_m=solution.distance_m,
    )


def _feature_id(feature: dict, index: int) -> str:
    """The id member, else the name property, else f<index>. An id is a
    JSON string or number (RFC 7946 §3.2); null and "" count as absent."""
    raw = feature.get("id")
    if raw is not None and type(raw) not in (str, int, float):
        raise NotFeatureCollection(
            f"features[{index}]: id is neither a string, a number nor null")
    if raw is not None and raw != "":
        return str(raw)
    properties = feature.get("properties")
    name = properties.get("name") if isinstance(properties, dict) else None
    if isinstance(name, str) and name:
        return name
    return f"f{index}"


def _object_member(feature: dict, key: str, feature_id: str) -> dict:
    """feature[key] if it is an object, {} if it is null or absent."""
    value = feature.get(key)
    if value is not None and not isinstance(value, dict):
        raise NotFeatureCollection(
            f"frame {feature_id!r}: {key} is neither an object nor null")
    return value or {}


def _feature_events(feature_id: str, properties: dict,
                    warn: WarnFn) -> list[EventInterval]:
    events: list[EventInterval] = []
    raw = properties.get("events")
    if isinstance(raw, list):
        for i, item in enumerate(raw):
            if not isinstance(item, str):
                raise MalformedInterval(
                    f"frame {feature_id!r}: events[{i}] is not a string")
            try:
                events.append(parse_interval(item, label=f"e{i}", on_warning=warn))
            except (MalformedInterval, ReversedInterval) as exc:
                raise type(exc)(f"frame {feature_id!r}: {exc}") from None
    for key, value in properties.items():
        if key == "events" and isinstance(raw, list):
            continue
        if not isinstance(value, str):
            continue
        try:
            events.append(parse_interval(value, label=key, on_warning=warn))
        except MalformedInterval:
            continue  # an ordinary string property, e.g. "name"
        except ReversedInterval as exc:
            raise ReversedInterval(f"frame {feature_id!r}: {exc}") from None
    return events


def _no_constant(token: str) -> NoReturn:
    # Python's JSON parser reads NaN, Infinity and -Infinity; RFC 8259 §6 does not
    raise ValueError(f"{token} is not a JSON number")


def parse_frames(geojson_text: str, on_warning: WarnFn | None = None
                 ) -> list[tuple[FrameLine, list[EventInterval]]]:
    """Parse a GeoJSON FeatureCollection of frame lines with event intervals.

    Every feature with a two-position LineString yields one frame; features
    with other geometry types are skipped with a warning. A LineString with
    any other number of positions, coincident endpoints, an origin poleward
    of the projection's latitude limit, or a frame without a single parsable
    interval are hard errors. Each warning goes to on_warning as soon as it
    is found, so the warnings of the features before a hard error are given.
    """
    warn = on_warning if on_warning is not None else (lambda message: None)

    try:
        doc = json.loads(geojson_text, parse_constant=_no_constant)
    except ValueError as exc:  # also an integer over the int-from-string digit limit
        raise NotFeatureCollection(f"frames input is not valid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested past the parser's depth
        raise NotFeatureCollection("frames input nests too deeply to parse") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise NotFeatureCollection('frames input must have "type": "FeatureCollection"')
    features = doc.get("features")
    if not isinstance(features, list):
        raise NotFeatureCollection('FeatureCollection lacks a "features" array')

    frames: list[tuple[FrameLine, list[EventInterval]]] = []
    for index, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise NotFeatureCollection(f"features[{index}] is not an object")
        feature_id = _feature_id(feature, index)
        properties = _object_member(feature, "properties", feature_id)
        geometry = _object_member(feature, "geometry", feature_id)
        if geometry.get("type") != "LineString":
            warn(f"frame {feature_id!r}: geometry is not a LineString; skipped")
            continue
        coords = geometry.get("coordinates")
        if not isinstance(coords, list) or len(coords) != 2:
            count = len(coords) if isinstance(coords, list) else "no"
            raise BadLineString(
                f"frame {feature_id!r}: LineString has {count} positions, need exactly 2")
        # JSON numbers only: float() would also take a bool or a string
        if not all(isinstance(c, list) and len(c) >= 2
                   and type(c[0]) in (int, float) and type(c[1]) in (int, float)
                   for c in coords):
            raise BadLineString(
                f"frame {feature_id!r}: LineString positions are not numeric "
                "[lon, lat] pairs")
        try:
            (lon1, lat1), (lon2, lat2) = ((float(c[0]), float(c[1])) for c in coords)
            finite = all(map(math.isfinite, (lon1, lat1, lon2, lat2)))
        except OverflowError:  # an integer too large for a float
            finite = False
        if not finite:
            raise BadLineString(
                f"frame {feature_id!r}: LineString positions must be finite")
        for lat in (lat1, lat2):
            if not -90.0 <= lat <= 90.0:
                raise BadLineString(
                    f"frame {feature_id!r}: latitude {lat} outside [-90, 90] "
                    "(positions must be [lon, lat] order)")

        try:
            frame = build_frame_line(feature_id, lat1, lon1, lat2, lon2)
        except (CoincidentPoints, NearAntipodal, PolarOrigin) as exc:
            raise type(exc)(f"frame {feature_id!r}: {exc}") from None
        events = _feature_events(feature_id, properties, lambda message: warn(
            f"frame {feature_id!r}: {message}"))
        if not events:
            raise NoEvents(f"frame {feature_id!r} has no parsable event interval")
        frames.append((frame, events))
    return frames


def _xml_number(text: str) -> float:
    """float() of an XML number attribute. float() alone also takes
    digit-grouping underscores and non-ASCII digits, which no XML number
    type allows."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} is not an XML number")
    return float(text)


def _well_formed(document: str | bytes) -> None:
    """Raise unless one namespace-aware expat pass without handlers, the
    parser ElementTree uses, finds document well-formed."""
    expat.ParserCreate(namespace_separator="}").Parse(document, True)


def _read_xml(gpx_text: str | bytes, parse: Callable):
    """parse(gpx_text), where parse is _well_formed or ET.fromstring; bytes
    that fail under their encoding declaration are retried as UTF-8 text."""
    try:
        return parse(gpx_text)
    except (expat.ExpatError, ET.ParseError, LookupError, ValueError) as exc:
        if isinstance(gpx_text, str):
            raise MalformedXml(f"not well-formed XML: {exc}") from None
        # expat fails on a declared codec that is unknown, multi-byte (it has
        # none) or wrong, but ignores the declaration of str input.
        try:
            return parse(gpx_text.decode("utf-8"))
        except (expat.ExpatError, ET.ParseError, ValueError):
            raise MalformedXml(f"cannot parse XML: {exc}") from None


_S = r"[ \t\r\n]"  # XML white space; \s would also take other characters
_DECLARATION = re.compile(rf"<\?xml{_S}[^?]*\?>")
_ENCODING = re.compile(rf"""encoding{_S}*={_S}*["']([^"']*)""")
_ROOT_NAME = re.compile(r"<([^ \t\r\n/>]+)")
# groups: prefix (None for the default namespace), quote, value
_NAMESPACE = re.compile(rf"""xmlns(?::([^ \t\r\n=]+))?{_S}*={_S}*(["'])([^<]*?)\2""")
_ATTRIBUTE_SPACE = re.compile(r"\r\n?|[\t\n]")  # what XML reads as one space
# A trkpt start tag with a non-empty lat and a lon, leaf children (text
# only, no "/" in the tag), then the first <time> child, or else no <time>
# at all before </trkpt>. Groups: lat, lon and the time text, "" without a
# <time> child. No group may hold a character that XML normalizes, so each
# is the value ElementTree reads. Any other "<trkpt" matches the optional
# part empty and reads as ("", "", ""), which no trkpt read in full gives.
_TRKPT = re.compile(rf"""
    <trkpt(?:
    {_S}+lat="([^"<\t\n\r]+)"{_S}+lon="([^"<\t\n\r]*)"{_S}*>
    [^<]*(?:<(?!time\b)[^<>/]*>[^<]*</[^<>]*>[^<]*)*
    (?:<time>([^<\r]*)</time>|(?:<(?!time\b|/?trkpt)[^<]*)*</trkpt>)
    )?""", re.VERBOSE)
_UNREAD = ("", "", "")


def _scan_fixes(document: str | bytes) -> list[tuple[str, str, str]] | None:
    """(lat, lon, time text) of each trkpt in document order, read by one
    regular expression; None when the document is outside the canonical
    subset in which the expression reads what ElementTree reads from a
    well-formed document (XML 1.0 §2.8-2.11, GPX 1.1). Well-formedness is
    the caller's to check. The subset:
    - UTF-8 text: no NUL (UTF-16 and UTF-32 text has one), and a declared
      encoding, if any, of UTF-8 or ASCII
    - no "<!" (DOCTYPE, comment, CDATA), no "&" (entity or character
      reference) and no processing instruction after the XML declaration
    - an unprefixed root element, the only one that may declare a default
      namespace, and no prefix bound to that namespace
    - every "<trkpt" opens an element that _TRKPT reads, and every
      "xmlns" starts a declaration that _NAMESPACE reads
    """
    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError:
            return None
    text = document.removeprefix("\ufeff")
    declaration = _DECLARATION.match(text)
    body = declaration.end() if declaration else 0
    if declaration:
        encoding = _ENCODING.search(declaration.group())
        if encoding and encoding.group(1).lower() not in ("utf-8", "us-ascii", "ascii"):
            return None
    # a two-character mark is looked for only if its rare second character
    # occurs at all: one character is found by memchr, "<!" and "<?" are not
    # (about 10x slower on a 1.9 MB file, where "<" is every 10th character)
    if ("\x00" in text or "&" in text or ("!" in text and "<!" in text)
            or (text.find("?", body) != -1 and text.find("<?", body) != -1)):
        return None
    root = _ROOT_NAME.search(text, body)  # no other markup precedes it
    if root is None or ":" in root.group(1):
        return None
    declarations = list(_NAMESPACE.finditer(text))
    # a match from "xmlns" inside an attribute value can swallow a real
    # declaration; any other stray match only adds a binding
    if any(d.group().count("xmlns") != 1 for d in declarations):
        return None
    defaults = [d for d in declarations if d.group(1) is None]
    if defaults:
        # the root's start tag ends at or after its first ">"
        if len(defaults) > 1 or defaults[0].start() > text.find(">", root.start()):
            return None
        namespace = _ATTRIBUTE_SPACE.sub(" ", defaults[0].group(3))
        if any(d.group(1) is not None
               and _ATTRIBUTE_SPACE.sub(" ", d.group(3)) == namespace
               for d in declarations):
            return None
    fixes = _TRKPT.findall(text)
    # finding _UNREAD in the list is cheaper than counting "<trkpt" in the text
    return None if _UNREAD in fixes else fixes


def _tree_fixes(root: ET.Element) -> list[tuple[str, str, str]]:
    """(lat, lon, time text) of each trkpt in the root element's namespace,
    in document order; the time text is "" without a <time> child."""
    # "{uri}" of the root tag, or "" for a GPX 1.0 file without a namespace
    ns = root.tag[:root.tag.rfind("}") + 1]
    return [(elem.get("lat", ""), elem.get("lon", ""), elem.findtext(ns + "time", ""))
            for elem in root.iter(ns + "trkpt")]


def _trace_from_fixes(fixes: list[tuple[str, str, str]], trace_id: str,
                      warn: WarnFn) -> Trace:
    """The Trace of the fixes with a usable position and time: a latitude in
    [-90, 90], a finite longitude, kept as read in (-180, 180] and reduced
    to it otherwise, and a time in the years 1 to 9999 in UTC. Each other
    fix is skipped with a warning."""
    lats, lons, times = [], [], []  # Trace makes arrays of them
    for lat_text, lon_text, time_text in fixes:
        if not time_text.strip():
            warn("track point without <time> skipped")
            continue
        try:
            lat = _xml_number(lat_text)
            lon = _xml_number(lon_text)
        except ValueError:
            warn("track point with non-numeric lat/lon skipped")
            continue
        try:
            instant, _ = _parse_instant(time_text)
        except MalformedInterval:
            warn(f"track point with unparsable time {time_text.strip()!r} skipped")
            continue
        if not -90.0 <= lat <= 90.0:
            warn(f"track point skipped: latitude {lat} outside [-90, 90]")
            continue
        if not math.isfinite(lon):
            warn(f"track point skipped: longitude {lon} is not finite")
            continue
        time_us = utc_us(instant)
        if not _FIRST_US <= time_us <= _LAST_US:
            warn(f"track point skipped: time_utc {instant.isoformat()} "
                 "is out of range in UTC")
            continue
        lats.append(lat)
        # normalize_longitude would move some in-range values: -73.98 by 2e-14
        lons.append(lon if -180.0 < lon <= 180.0 else normalize_longitude(lon))
        times.append(time_us)

    if not times:
        detail = "no usable track points" if fixes else "no track points"
        raise NoTimedPoints(f"{detail} in GPX input")
    return Trace(trace_id, lats, lons, times)


def parse_gpx(gpx_text: str | bytes, trace_id: str,
              on_warning: WarnFn | None = None) -> Trace:
    """Parse GPX 1.0/1.1 text into a Trace.

    Track points from all tracks and segments are collected in document
    order; the Trace sorts them stably by time. Points without a usable
    timestamp or position are skipped with a warning; a file with zero timed
    points is an error. Bytes input honours the XML encoding declaration.
    Every well-formed file reads the same whichever extractor takes it.
    """
    warn = on_warning if on_warning is not None else (lambda message: None)
    fixes = _scan_fixes(gpx_text)
    if fixes is None:
        fixes = _tree_fixes(_read_xml(gpx_text, ET.fromstring))
    else:  # ElementTree checks well-formedness itself; the scanner does not
        _read_xml(gpx_text, _well_formed)
    return _trace_from_fixes(fixes, trace_id, warn)


def _gpx_files(traces_dir: Path, recurse: bool) -> list[Path]:
    pattern = "**/*" if recurse else "*"
    files = [p for p in traces_dir.glob(pattern)
             if p.is_file() and p.suffix.lower() == ".gpx"]
    return sorted(files, key=lambda p: (p.stem, str(p)))


def load_inputs(frames_path: str | Path, traces_dir: str | Path,
                recurse: bool = False
                ) -> tuple[list[tuple[FrameLine, list[EventInterval]]],
                           list[Trace], IngestReport]:
    """Load a frames file and a directory of .gpx traces.

    Frame parsing errors abort the load; per-trace-file failures become
    warnings. A trace id (the file stem) already taken gets the first free
    suffix _2, _3, ... The result is deterministic: frames in document
    order, traces sorted by id.
    """
    frames_path = Path(frames_path)
    traces_dir = Path(traces_dir)
    report = IngestReport()

    try:
        # RFC 8259 §8.1 lets a parser ignore a byte order mark
        frames_text = frames_path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise FramesFileUnreadable(f"cannot read frames file {frames_path}: {exc}") from None
    frames = parse_frames(frames_text, on_warning=lambda message:
                          report.warnings.append((str(frames_path), message)))

    if not traces_dir.is_dir():
        state = "is not a directory" if traces_dir.exists() else "does not exist"
        raise NoTraces(f"traces directory {traces_dir} {state}")
    files = _gpx_files(traces_dir, recurse)
    if not files:
        raise NoTraces(f"no .gpx files found in {traces_dir}")

    taken: set[str] = set()
    traces: list[Trace] = []
    for path in files:
        trace_id = unique_name(path.stem, taken)
        try:
            traces.append(parse_gpx(
                path.read_bytes(), trace_id,
                on_warning=lambda message, _p=path: report.warnings.append(
                    (str(_p), message))))
        except (OSError, MalformedXml, NoTimedPoints) as exc:
            report.warnings.append((str(path), f"trace skipped: {exc}"))
    traces.sort(key=lambda t: t.id)
    return frames, traces, report
