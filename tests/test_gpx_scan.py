"""The two GPX extractors: the one-regex scanner for the canonical subset
and ElementTree for every other file. Pins which shapes take the scanner,
and checks on generated and mutated GPX that parse_gpx reads every file as
the ElementTree path does, and that wherever the scanner accepts a file
both extractors give the same fixes, Trace, warnings and exceptions."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fixtures import ts
from framelocal import ingest
from framelocal.errors import FrameLocalError, MalformedXml
from framelocal.model import utc_us

GPX11 = "http://www.topografix.com/GPX/1/1"
GPX10 = "http://www.topografix.com/GPX/1/0"
GARMIN = "http://www.garmin.com/xmlschemas/TrackPointExtension/v1"

_GARMIN_FIX = """      <trkpt lat="47.6612000" lon="-122.330{i}000">
        <ele>12.{i}</ele>
        <time>2017-06-10T05:00:0{i}.000Z</time>
        <extensions>
          <ns3:TrackPointExtension>
            <ns3:hr>14{i}</ns3:hr>
            <ns3:cad>8{i}</ns3:cad>
          </ns3:TrackPointExtension>
        </extensions>
      </trkpt>
"""
GARMIN_FILE = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<gpx creator="Garmin Connect" version="1.1" xsi:schemaLocation="{GPX11} '
    f'http://www.topografix.com/GPX/11.xsd" xmlns:ns3="{GARMIN}" xmlns="{GPX11}" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">\n'
    "  <metadata>\n    <time>2017-06-10T04:59:00.000Z</time>\n  </metadata>\n"
    "  <trk>\n    <name>activity_01</name>\n    <type>running</type>\n"
    "    <trkseg>\n"
    + "".join(_GARMIN_FIX.format(i=i) for i in range(4))
    + _GARMIN_FIX.format(i=4).replace(
        "        <time>2017-06-10T05:00:04.000Z</time>\n", "")
    + "    </trkseg>\n  </trk>\n</gpx>\n")
PHONE_FILE = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    f'<gpx version="1.1" creator="PhoneTracker 4.2" xmlns="{GPX11}">'
    "<trk><name>p1</name><trkseg>"
    + "".join(f'<trkpt lat="-37.8500{i}" lon="145.0000{i}"><ele>31.{i}</ele>'
              f"<time>2017-06-10T05:00:0{i}.250Z</time></trkpt>" for i in range(5))
    + "</trkseg></trk></gpx>")
GPX10_FILE = (
    '<?xml version="1.0"?>\n<gpx version="1.0" creator="LeagueLogger">\n'
    "<trk>\n<name>l1</name>\n<trkseg>\n"
    + "".join(f'<trkpt lat="51.50{i}" lon="-0.12{i}">\n<ele>4.{i}</ele>\n'
              f"<time>2017-06-10T05:0{i}:00Z</time>\n<speed>1.5{i}</speed>\n"
              "</trkpt>\n" for i in range(5))
    + "</trkseg></trk>\n</gpx>\n")


_FIX = '<trkpt lat="1.5" lon="2.5"><time>2017-06-10T05:00:00Z</time></trkpt>'
# a fix that a scanner without the rule under test would also read
_TRAP = '<trkpt lat="9.5" lon="9.5"><time>2017-06-10T06:00:00Z</time></trkpt>'
_UTF8 = '<?xml version="1.0" encoding="UTF-8"?>'


def _gpx(segment: str = _FIX, root_attributes: str = "", prolog: str = _UTF8) -> str:
    return (f'{prolog}<gpx version="1.1" xmlns="{GPX11}"{root_attributes}>'
            f"<trk><trkseg>{segment}</trkseg></trk></gpx>")


def _unparsable(time_text: str) -> str:
    return f"track point with unparsable time {time_text!r} skipped"


def _tree_fixes(data):
    """The ElementTree extractor's fixes of data."""
    return ingest._tree_fixes(ingest._read_xml(data, ET.fromstring))


def _outcome(read):
    """(Trace columns bit for bit, warnings, exception) of read(warn)."""
    warnings = []
    try:
        trace = read(warnings.append)
    except FrameLocalError as exc:
        return None, warnings, (type(exc).__name__, str(exc))
    columns = [column.tobytes() for column in (trace.lat_deg, trace.lon_deg, trace.time_us)]
    return columns, warnings, None


@pytest.mark.parametrize("document, count", [
    (GARMIN_FILE, 5), (PHONE_FILE, 5), (GPX10_FILE, 5)],
    ids=["garmin-1.1-ns3-extensions", "phone-1.1-one-line", "gpx-1.0-no-namespace"])
def test_canonical_shapes_take_the_scanner(document, count):
    data = document.encode("utf-8")
    scanned = ingest._scan_fixes(data)
    assert scanned is not None, "file fell back to ElementTree"
    assert len(scanned) == count
    assert scanned == _tree_fixes(data)


@pytest.mark.parametrize("data, warnings", [
    (_gpx(f"{_FIX}<!-- {_TRAP} -->").encode(), []),
    (_gpx(f"{_FIX}<desc><![CDATA[{_TRAP}]]></desc>").encode(), []),
    (_gpx(_FIX + '<trkpt lat="3.5" lon="4.5"><time>2017-06-10T05:00:01Z&amp;'
          "</time></trkpt>").encode(), [_unparsable("2017-06-10T05:00:01Z&")]),
    (_gpx(_FIX.replace("00Z", "00&#90;")).encode(), []),
    (_gpx(prolog=f"<!DOCTYPE gpx [<!ENTITY unused '{_TRAP}'>]>").encode(), []),
    (_gpx(f"{_FIX}<?note {_TRAP}?>").encode(), []),
    (_gpx(_FIX.replace("time>", "g:time>"), f' xmlns:g="{GPX11}"').encode(), []),
    (_gpx(_FIX.replace("time>", "g:time>"),
          " creator='xmlns:x=\"'" f' xmlns:g="{GPX11}"').encode(), []),
    (f'{_UTF8}<g:gpx version="1.1" xmlns:g="{GPX11}"><g:trk><g:trkseg>'
     f'{_FIX.replace("<", "<g:").replace("<g:/", "</g:")}{_TRAP}'
     "</g:trkseg></g:trk></g:gpx>".encode(), []),
    (_gpx(f'{_FIX}</trkseg><trkseg xmlns="{GARMIN}">{_TRAP}').encode(), []),
    (_gpx(_FIX + '<trkpt lat="3.5" lon="4.5"><time>2017-06-10T05:00:01Z\u00c3\u00a9'
          "</time></trkpt>", prolog=_UTF8.replace("UTF-8", "ISO-8859-1")
          ).encode("latin-1"), [_unparsable("2017-06-10T05:00:01Z\u00c3\u00a9")]),
    (_gpx(prolog=_UTF8.replace("UTF-8", "UTF-16")).encode("utf-16-le"), []),
], ids=["comment", "cdata", "entity", "character-reference", "doctype",
        "processing-instruction", "prefix-bound-to-gpx",
        "prefix-bound-after-xmlns-in-a-value", "prefixed-root",
        "default-namespace-redeclared", "latin-1-declaration", "utf-16-without-bom"])
def test_other_shapes_take_element_tree(data, warnings):
    # each file holds a trap that the scanner would misread without the rule
    # that sends the file to ElementTree
    assert ingest._scan_fixes(data) is None
    seen = []
    trace = ingest.parse_gpx(data, "t", seen.append)
    assert (list(trace.lat_deg), list(trace.lon_deg), list(trace.time_us)) == (
        [1.5], [2.5], [utc_us(ts(5))])
    assert seen == warnings


def test_scanned_file_still_checked_for_well_formedness():
    # the scanner reads the fixes of a file whose root is never closed;
    # parse_gpx rejects it as ElementTree does
    data = GARMIN_FILE.removesuffix("</gpx>\n").encode()
    assert ingest._scan_fixes(data) is not None
    with pytest.raises(MalformedXml) as scanned:
        ingest.parse_gpx(data, "t")
    with pytest.raises(MalformedXml) as tree:
        ingest._read_xml(data, ET.fromstring)
    assert str(scanned.value) == str(tree.value)


# -- generated and mutated GPX ----------------------------------------------

def _mostly(usual, other):
    """other in about one draw of four; hypothesis favours small integers"""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else usual)


_NUMBERS = _mostly(st.floats(-89.0, 89.0).map(repr), st.sampled_from([
    "", "abc", "1_0", "inf", "nan", "1e400", " 2.5 ", "-0", "95.0", "540", "\uff11",
    "&#52;7.5"]))
_TIMES = _mostly(
    st.integers(0, 59).map(lambda s: f"2017-06-10T05:00:{s:02d}.250Z"),
    st.sampled_from(["", "  ", "2017-06-10T05:00:03", "2017-06-10T15:00:04+10:00",
                     "2017-13-10T05:00:00Z", "yesterday", "9999-12-31T23:59:59-01:00",
                     "\n2017-06-10T05:00:05Z\n", "2017-06-10T05:00:06&#x5A;"]))
_MUTATIONS = [
    "comment", "cdata", "amp", "charref", "doctype", "pi", "crlf", "time-crlf",
    "attribute-tab", "bom", "lon-first", "single-quotes", "extra-attribute",
    "empty-time", "nested-time", "time-after-extensions", "xmlns-redeclared",
    "trkpt-in-wpt", "trkpt-in-rte", "nested-trkpt", "junk-after-root", "latin-1",
    "utf-16", "ascii", "prefix-bound", "prefixed-time", "prefixed-root",
    "xmlns-in-value", "splice"]


@st.composite
def _gpx_documents(draw) -> bytes:
    """A GPX 1.0 or 1.1 file, on one line or many; about half of them with
    one or two of _MUTATIONS. A per-fix mutation changes one drawn fix."""
    mutations = set(draw(st.one_of(st.just([]), st.lists(
        st.sampled_from(_MUTATIONS), min_size=1, max_size=2))))
    namespace = draw(st.sampled_from([GPX11, GPX10, None]))
    newline = "\r\n" if "crlf" in mutations else draw(st.sampled_from(["\n", ""]))
    fixes = draw(st.lists(st.tuples(_NUMBERS, _NUMBERS, _mostly(_TIMES, st.none()),
                                    st.booleans()), min_size=1, max_size=6))
    target = draw(st.integers(0, len(fixes) - 1))
    rows = []
    for i, (lat, lon, when, extended) in enumerate(fixes):
        change = mutations if i == target else set()
        quote = "'" if "single-quotes" in change else '"'
        if "charref" in change:
            lat = "&#52;" + lat
        if "attribute-tab" in change:
            lat, lon = draw(st.sampled_from([("\t" + lat, lon), (lat, lon + "\r\n")]))
        attributes = [f"lat={quote}{lat}{quote}", f"lon={quote}{lon}{quote}"]
        if "lon-first" in change:
            attributes.reverse()
        if "extra-attribute" in change:
            attributes.insert(draw(st.integers(0, 2)), 'src="gps"')
        if "amp" in change and when is not None:
            when += "&amp;"
        if "time-crlf" in change and when is not None:
            when = f"\r\n{when}\r\n"
        name = "g:trkpt" if "prefix-bound" in change else "trkpt"
        children = ["<ele>12.5</ele>"]
        if when is not None:
            tag = "g:time" if {"prefixed-time", "xmlns-in-value"} & change else "time"
            children.append(f"<{tag}>{when}</{tag}>")
        if "empty-time" in change:
            children.append("<time/>")
        if extended or "nested-time" in change:
            inner = "<time>2017-06-10T06:00:00Z</time>" if "nested-time" in change else ""
            extensions = (f"<extensions>{inner}<ns3:TrackPointExtension><ns3:hr>140"
                          "</ns3:hr></ns3:TrackPointExtension></extensions>")
            where = 1 if "nested-time" in change and draw(st.booleans()) else len(children)
            children.insert(where, extensions)
        if "time-after-extensions" in change:
            children.insert(1, "<extensions/>")
        if "nested-trkpt" in change:
            children.insert(draw(st.integers(0, len(children))),
                            '<trkpt lat="1.5" lon="2.5"><time>2017-06-10T07:00:00Z'
                            "</time></trkpt>")
        row = f"<{name} {' '.join(attributes)}>{''.join(children)}</{name}>"
        if "comment" in change:
            row += f"<!-- {row} -->"
        if "cdata" in change:
            row += f"<desc><![CDATA[{row}]]></desc>"
        if "pi" in change:
            row += f"<?note {row}?>"
        if "trkpt-in-wpt" in change:
            row = f'<wpt lat="1" lon="2">{row}</wpt>'
        if "trkpt-in-rte" in change:
            row = f"<rte>{row}</rte>"
        rows.append(row)

    root = "g:gpx" if "prefixed-root" in mutations else "gpx"
    declarations = f' xmlns="{namespace}"' if namespace and root == "gpx" else ""
    declarations += f' xmlns:ns3="{GARMIN}"'
    if "xmlns-in-value" in mutations:  # text that reads like a declaration
        declarations += " note='xmlns:x=\"'"
    declarations += f' xmlns:g="{namespace or GPX11}"' if {
        "prefix-bound", "prefixed-time", "prefixed-root", "xmlns-in-value"
    } & mutations else ""
    segment_ns = f' xmlns="{GARMIN}"' if "xmlns-redeclared" in mutations else ""
    encoding = ("ISO-8859-1" if "latin-1" in mutations else "UTF-16"
                if "utf-16" in mutations else "US-ASCII" if "ascii" in mutations
                else "UTF-8")
    prolog = [f'<?xml version="1.0" encoding="{encoding}"?>']
    if "doctype" in mutations:
        prolog.append("<!DOCTYPE gpx>")
    text = newline.join([
        *prolog, f'<{root} version="1.1" creator="gen"{declarations}>',
        "<metadata><time>2017-06-10T04:00:00Z</time></metadata>",
        f"<trk><name>{'Zürich' if 'latin-1' in mutations else 'run'}</name>",
        f"<trkseg{segment_ns}>", *rows, "</trkseg></trk>", f"</{root}>", ""])
    if "junk-after-root" in mutations:
        text += draw(st.sampled_from(["junk", "<x/>"]))
    codec = {"ISO-8859-1": "latin-1",
             "UTF-16": draw(st.sampled_from(["utf-16", "utf-16-le"]))}.get(encoding, "utf-8")
    data = text.encode(codec, errors="replace")
    if "bom" in mutations:
        data = b"\xef\xbb\xbf" + data
    if "splice" in mutations:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at + 3:]
    return data


@given(data=_gpx_documents())
@example(data=GARMIN_FILE.encode("utf-8"))
@example(data=_gpx(_FIX.replace("<time>", "<extensions><time>2017-06-10T05:00:01Z"
                                "</time></extensions><time>")).encode())
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_both_extractors_read_the_same(data):
    # max_examples comes from the active profile (tests/conftest.py)
    def tree(warn):
        return ingest._trace_from_fixes(_tree_fixes(data), "t", warn)

    reference = _outcome(tree)
    assert _outcome(lambda warn: ingest.parse_gpx(data, "t", warn)) == reference
    error = reference[2]
    scanned = ingest._scan_fixes(data)
    if scanned is None or (error is not None and error[0] == "MalformedXml"):
        return  # parse_gpx reads through the scanner only a well-formed file
    assert scanned == _tree_fixes(data)
    assert _outcome(lambda warn: ingest._trace_from_fixes(scanned, "t", warn)) == reference
