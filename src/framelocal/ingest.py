"""Parse GPX traces, GeoJSON frame files, and time intervals.

Format contracts
----------------
Frames are a GeoJSON FeatureCollection (RFC 7946). Each frame feature must
have a LineString geometry with exactly two positions; positions are
[lon, lat] per the RFC, which is the reverse of the (lat, lon) order used
by this package's APIs. Event intervals come from an ``events`` property
holding an array of interval strings, and/or from any other property whose
string value parses as an interval (the property name becomes the label).

Intervals are ``<start>/<end>``, two times. Every time, GPX's and an
interval's, is an xsd:dateTime (XML Schema Part 2 §3.2.7), with XML white
space around it: YYYY-MM-DDThh:mm:ss, an optional "." and ASCII digits, cut
to the microsecond, and an optional Z or ±hh:mm. No offset means UTC (an
interval warns); 24:00:00 and a leap second, 23:59:60, are rejected.

Traces are GPX 1.0/1.1; only trk/trkseg/trkpt with lat/lon attributes and
a <time> child are consumed, read in the root element's namespace. Files
in a canonical subset of XML (see _scan_fixes) are read by one regular
expression over the text, every other file through ElementTree, with the
same result. The scanner's expat pass, which every file takes first,
judges every file: it rejects a DOCTYPE, and a file that does not decode
or is not well-formed, so ElementTree reads only files that pass it. Bytes
that expat rejects under their declared encoding are read again as UTF-8
text (see _read_fixes).
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn
from xml.parsers import expat

from . import geodesy
from .errors import (
    BadLineString,
    FrameLocalError,
    FramesFileUnreadable,
    MalformedInterval,
    MalformedXml,
    NoEvents,
    NotFeatureCollection,
    NoTimedPoints,
    NoTraces,
)
from .model import EventInterval, FrameLine, Names, Trace, WarnFn, normalize_longitude, utc_us


@dataclass
class IngestReport:
    """The non-fatal (source, message) warnings of one load_inputs call."""

    warnings: list[tuple[str, str]] = field(default_factory=list)


# utc_us of the first and the last instant a datetime holds, in the years 1-9999
_FIRST_US, _LAST_US = (utc_us(limit.replace(tzinfo=timezone.utc))
                       for limit in (datetime.min, datetime.max))


# the rest of a time from its seconds: two ASCII digits, an optional "." and
# ASCII digits, and an optional Z or ±hh:mm with minutes under 60
_SECONDS_ON = re.compile(r"[0-9]{2}(?:\.[0-9]+)?(?:Z|[+-][0-9]{2}:[0-5][0-9])?")


def _parse_instant(text: str) -> tuple[datetime, bool]:
    """Parse one time (the module docstring's grammar); returns (aware
    instant, was_naive). The instant keeps its parsed offset; EventInterval
    converts it to UTC, and a GPX fix's time becomes utc_us(instant)."""
    s = text.strip(" \t\r\n")
    try:
        # the five separators at their fixed places, then the seconds on;
        # fromisoformat checks the other digits and every field's range
        if s[4:17:3] != "--T::" or _SECONDS_ON.fullmatch(s, 17) is None:
            raise ValueError
        parsed = datetime.fromisoformat(s)
    except ValueError:
        raise MalformedInterval(f"bad datetime {text!r}: expected a valid "
                                "YYYY-MM-DDThh:mm:ss[.s+][Z|±hh:mm]") from None
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc), True
    return parsed, False


def parse_interval(text: str, label: str = "e0",
                   on_warning: WarnFn | None = None) -> EventInterval:
    """Parse a ``<start>/<end>`` interval string into an EventInterval.

    Only the explicit two-datetime form is accepted; begin and end are
    normalized to UTC. Datetimes lacking an offset are taken as UTC, which a
    valid interval reports through on_warning when given. An empty label,
    or an endpoint out of the datetime range in UTC, is a MalformedInterval.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise MalformedInterval(
            f"{text!r} is not a <start>/<end> interval with two datetimes")
    begin, begin_naive = _parse_instant(parts[0])
    end, end_naive = _parse_instant(parts[1])
    try:
        interval = EventInterval(begin_utc=begin, end_utc=end, label=label)
    except ValueError as exc:
        raise MalformedInterval(f"{text!r}: {exc}") from None
    if (begin_naive or end_naive) and on_warning is not None:
        on_warning(f"interval {text!r} has no UTC offset; assuming UTC")
    return interval


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


def _object_member(feature: dict, key: str) -> dict:
    """feature[key] if it is an object, {} if it is null or absent."""
    value = feature.get(key)
    if value is not None and not isinstance(value, dict):
        raise NotFeatureCollection(f"{key} is neither an object nor null")
    return value or {}


def _feature_events(properties: dict, warn: WarnFn) -> list[EventInterval]:
    events: list[EventInterval] = []
    raw = properties.get("events")
    if isinstance(raw, list):
        for i, item in enumerate(raw):
            if not isinstance(item, str):
                raise MalformedInterval(f"events[{i}] is not a string")
            events.append(parse_interval(item, label=f"e{i}", on_warning=warn))
    for key, value in properties.items():
        if not isinstance(value, str):  # also an "events" list, read above
            continue
        try:
            events.append(parse_interval(value, label=key, on_warning=warn))
        except MalformedInterval:
            continue  # an ordinary string property, e.g. "name"
    return events


def _feature_frame(feature: dict, feature_id: str, warn: WarnFn
                   ) -> tuple[FrameLine, list[EventInterval]] | None:
    """The frame and events of one feature, None for a geometry other than
    a LineString; parse_frames names the feature in each message."""
    properties = _object_member(feature, "properties")
    geometry = _object_member(feature, "geometry")
    if geometry.get("type") != "LineString":
        warn("geometry is not a LineString; skipped")
        return None
    coords = geometry.get("coordinates")
    if not isinstance(coords, list) or len(coords) != 2:
        count = len(coords) if isinstance(coords, list) else "no"
        raise BadLineString(f"LineString has {count} positions, need exactly 2")
    # JSON numbers only: float() would also take a bool or a string
    if not all(isinstance(c, list) and len(c) >= 2
               and type(c[0]) in (int, float) and type(c[1]) in (int, float)
               for c in coords):
        raise BadLineString("LineString positions are not numeric [lon, lat] pairs")
    try:
        (lon1, lat1), (lon2, lat2) = ((float(c[0]), float(c[1])) for c in coords)
        finite = all(map(math.isfinite, (lon1, lat1, lon2, lat2)))
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise BadLineString("LineString positions must be finite")
    for lat in (lat1, lat2):
        if not -90.0 <= lat <= 90.0:
            raise BadLineString(f"latitude {lat} outside [-90, 90] "
                                "(positions must be [lon, lat] order)")
    # by its global name, so a timing wrapper of ingest.build_frame_line sees it
    frame = build_frame_line(feature_id, lat1, lon1, lat2, lon2)
    events = _feature_events(properties, warn)
    if not events:
        raise NoEvents("no parsable event interval")
    return frame, events


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
        try:
            parsed = _feature_frame(feature, feature_id, lambda message: warn(
                f"frame {feature_id!r}: {message}"))
        except FrameLocalError as exc:
            raise type(exc)(f"frame {feature_id!r}: {exc}") from None
        if parsed is not None:
            frames.append(parsed)
    return frames


def _xml_number(text: str) -> float:
    """float() of an XML number attribute. float() alone also takes
    digit-grouping underscores and non-ASCII digits, which no XML number
    type allows."""
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} is not an XML number")
    return float(text)


def _refuse_doctype(*declaration) -> NoReturn:
    # pyexpat stops the parse when a handler raises: no entity is declared
    raise MalformedXml("cannot parse XML: a document type declaration is not allowed")


def _expat_gate(document: str | bytes) -> bool:
    """True when one namespace-aware expat pass, the parser ElementTree
    uses, finds nothing in document that the scanner's expression would
    misread: no encoding declared but UTF-8 or ASCII (XML 1.0 §4.3.3), no
    processing instruction (§2.6), comment (§2.5) or CDATA section (§2.7),
    and a root element whose namespace holds exactly the unprefixed element
    names (Namespaces in XML 1.0 §6): the root is in the default namespace,
    no default namespace is declared or undeclared below the root, and no
    prefix is bound to the root's namespace. Raises expat's error for a
    document that does not decode or is not well-formed, and the file's
    skip, MalformedXml, at the start of a DOCTYPE (§2.8), which GPX does not
    use: none of its entities, which could expand thousandfold, is read."""
    parser = expat.ParserCreate(namespace_separator="}")
    encoding: list[str] = []  # the XML declaration's, if it has one
    misread: list[tuple] = []  # the arguments of each markup the expression misreads
    declarations: list[tuple[str | None, str]] = []  # (prefix, namespace)
    root: list[tuple[str, int]] = []  # (namespace, declarations up to its tag)

    def start_root(tag: str, attributes: dict) -> None:
        root.append((tag.rpartition("}")[0], len(declarations)))
        parser.StartElementHandler = None  # expat calls it for the root alone

    # expat reports the XML declaration to the first handler, never the second
    parser.XmlDeclHandler = lambda version, name, standalone: encoding.append(
        name or "utf-8")
    # expat calls these only where such markup occurs: a canonical file pays nothing
    for handler in ("ProcessingInstructionHandler", "CommentHandler",
                    "StartCdataSectionHandler"):
        setattr(parser, handler, lambda *markup: misread.append(markup))
    parser.StartDoctypeDeclHandler = _refuse_doctype
    parser.StartElementHandler = start_root
    # expat gives xmlns="" as None: it undeclares the default namespace
    parser.StartNamespaceDeclHandler = lambda prefix, uri: declarations.append(
        (prefix, uri or ""))
    parser.Parse(document, True)
    ((namespace, on_root),) = root
    return (not misread
            and all(name.lower() in ("utf-8", "us-ascii", "ascii") for name in encoding)
            and dict(declarations[:on_root]).get(None, "") == namespace
            and all(prefix is not None for prefix, _ in declarations[on_root:])
            and all(prefix is None for prefix, uri in declarations if uri == namespace))


_S = r"[ \t\r\n]"  # XML white space; \s would also take other characters
_LEAF = r"<(?!time\b)[^<>/]*>[^<]*</[^<>]*>"  # a child element other than <time>, text only
# A trkpt start tag with a non-empty lat and a lon, leaf children (text
# only, no "/" in the tag), then the first <time> child, or else no <time>
# at all before </trkpt>. Groups: lat, lon and the time text, "" without a
# <time> child. No group holds a reference or a character XML normalizes,
# so each is the value ElementTree reads. Any other "<trkpt" matches the
# optional part empty and reads as ("", "", ""), which no full read gives.
# The children loop is possessive, so a failed match never re-splits it.
# It reads bytes, where \b is ASCII only: a <timeé> child sends a file to ElementTree.
_TRKPT = re.compile(rf"""
    <trkpt(?:
    {_S}+lat="([^"<&\t\n\r]+)"{_S}+lon="([^"<&\t\n\r]*)"{_S}*>
    [^<]*+(?:{_LEAF}[^<]*+)*+
    (?:<time>([^<&\r]*)</time>|(?:<(?!time\b|/?trkpt)[^<]*)*</trkpt>)
    )?""".encode(), re.VERBOSE)
_UNREAD = (b"", b"", b"")


def _scan_fixes(document: str | bytes) -> list[tuple[str, str, str]] | None:
    """(lat, lon, time text) of each trkpt in document order, read by one
    regular expression over the UTF-8 bytes, of which only the captured
    values are decoded; None when the document is outside the canonical
    subset in which the expression reads what ElementTree reads (XML 1.0
    §2.8-2.11, GPX 1.1). Raises what _expat_gate raises: expat's error for a
    file that does not decode or is not well-formed, MalformedXml for a
    DOCTYPE. The subset:
    - as one expat pass reads the document: no processing instruction,
      comment or CDATA section, a declared encoding, if any, of UTF-8 or
      ASCII, the root element in the default namespace, no default
      namespace declared or undeclared below the root, and no prefix bound
      to the root's namespace
    - a "<trkpt" in the UTF-8 bytes (UTF-16 and UTF-32 text has none)
    - every "<trkpt" opens an element that _TRKPT reads, with no "&"
      (entity or character reference) in its lat, lon or time
    """
    if not _expat_gate(document):
        return None
    # the expat pass encoded a str as UTF-8, so it holds no lone surrogate
    data = document.encode() if isinstance(document, str) else document
    fixes = _TRKPT.findall(data)
    # finding _UNREAD in the list is cheaper than counting "<trkpt" in the data
    if not fixes or _UNREAD in fixes:
        return None
    return [(lat.decode(), lon.decode(), time.decode()) for lat, lon, time in fixes]


def _tree_fixes(root: ET.Element) -> list[tuple[str, str, str]]:
    """(lat, lon, time text) of each trkpt in the root element's namespace,
    in document order; the time text is "" without a <time> child."""
    # "{uri}" of the root tag, or "" for a GPX 1.0 file without a namespace
    ns = root.tag[:root.tag.rfind("}") + 1]
    return [(elem.get("lat", ""), elem.get("lon", ""), elem.findtext(ns + "time", ""))
            for elem in root.iter(ns + "trkpt")]


def _read_fixes(document: str | bytes) -> list[tuple[str, str, str]]:
    """The fixes of document, scanned if _scan_fixes takes it, else read
    from its ElementTree, which parses only what the gate passed. Every
    parse error becomes the file's MalformedXml here: bytes that the gate
    rejects under their encoding declaration are first read again as UTF-8
    text, through the same gate, and that text's error stands."""
    try:
        fixes = _scan_fixes(document)
        return fixes if fixes is not None else _tree_fixes(ET.fromstring(document))
    except (expat.ExpatError, ET.ParseError, LookupError, ValueError) as exc:
        if isinstance(document, bytes):
            # expat fails on a declared codec that is unknown, multi-byte (it
            # has none) or wrong, but ignores the declaration of str input.
            try:
                return _read_fixes(document.decode("utf-8"))
            except UnicodeDecodeError:
                pass  # not UTF-8 either: the first error stands
        raise MalformedXml(f"cannot parse XML: {exc}") from None


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
    return _trace_from_fixes(_read_fixes(gpx_text), trace_id,
                             on_warning if on_warning is not None else lambda message: None)


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

    names = Names()
    traces: list[Trace] = []
    for path in files:
        trace_id = names.claim(path.stem)
        try:
            traces.append(parse_gpx(
                path.read_bytes(), trace_id,
                on_warning=lambda message, _p=path: report.warnings.append(
                    (str(_p), message))))
        except (OSError, MalformedXml, NoTimedPoints) as exc:
            report.warnings.append((str(path), f"trace skipped: {exc}"))
    traces.sort(key=lambda t: t.id)
    return frames, traces, report
