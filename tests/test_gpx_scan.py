"""The two GPX extractors: the one-regex scanner for the canonical subset
and ElementTree for every other file. Pins which shapes take the scanner,
and checks on generated and mutated GPX that parse_gpx reads every file as
the ElementTree path does, and that wherever the scanner accepts a file
both extractors give the same fixes, Trace, warnings and exceptions."""

import encodings.aliases
import time
import tracemalloc
import xml.etree.ElementTree as ET
from xml.parsers import expat

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
# references outside every value the scanner captures: in a name, and in a
# child of a fix's <extensions>
REFERENCES_FILE = GARMIN_FILE.replace("activity_01", "run &amp; bike").replace(
    "<ns3:hr>14", "<ns3:hr>&#49;4")


_FIX = '<trkpt lat="1.5" lon="2.5"><time>2017-06-10T05:00:00Z</time></trkpt>'
# a fix that a scanner without the rule under test would also read
_TRAP = '<trkpt lat="9.5" lon="9.5"><time>2017-06-10T06:00:00Z</time></trkpt>'
_UTF8 = '<?xml version="1.0" encoding="UTF-8"?>'


def _gpx(segment: str = _FIX, root_attributes: str = "", prolog: str = _UTF8) -> str:
    return (f'{prolog}<gpx version="1.1" xmlns="{GPX11}"{root_attributes}>'
            f"<trk><trkseg>{segment}</trkseg></trk></gpx>")


# prologs that the scanner reads as expat reads them
BOM_FILE = "\ufeff" + _gpx()
STANDALONE_FILE = _gpx(prolog="<?xml version='1.0' encoding='utf-8' standalone='yes'?>")
UNDECLARED_FILE = _gpx(prolog="")

# a fix whose leaf children end in one the expression cannot read, so that
# an expression which gave children back on failure would take time
# quadratic in their number
LEAVES_THEN_NESTED_FILE = _gpx('<trkpt lat="1.5" lon="2.5">' + "<a>x</a>" * 100_000
                               + "<ext><y/></ext><time>2017-06-10T05:00:00Z</time></trkpt>")


def _unparsable(time_text: str) -> str:
    return f"track point with unparsable time {time_text!r} skipped"


_DOCTYPE = "cannot parse XML: a document type declaration is not allowed"


class _DoctypeRefused(ET.TreeBuilder):
    def doctype(self, name, pubid, system):
        raise MalformedXml(_DOCTYPE)


def _tree_fixes(data):
    """The reference reading of data: the ElementTree extractor's fixes, a
    DOCTYPE refused, and bytes that ElementTree rejects read again as UTF-8
    text, whose error stands."""
    try:
        root = ET.fromstring(data, ET.XMLParser(target=_DoctypeRefused()))
    except (ET.ParseError, LookupError, ValueError) as exc:
        if isinstance(data, bytes):
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:
                pass
            else:
                return _tree_fixes(text)
        raise MalformedXml(f"cannot parse XML: {exc}") from None
    return ingest._tree_fixes(root)


def _outcome(read):
    """(Trace columns bit for bit, warnings, exception) of read(warn)."""
    warnings = []
    try:
        trace = read(warnings.append)
    except FrameLocalError as exc:
        return None, warnings, (type(exc).__name__, str(exc))
    columns = [column.tobytes() for column in (trace.lat_deg, trace.lon_deg, trace.time_us)]
    return columns, warnings, None


def _recorded(monkeypatch, owner, name) -> list:
    """A list that grows by the positional arguments of each call ingest
    makes to owner.name."""
    calls = []
    function = getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def _tree_parses(monkeypatch) -> list:
    """The arguments of each ElementTree parse that ingest makes."""
    return _recorded(monkeypatch, ingest.ET, "fromstring")


def _gate_passes(monkeypatch) -> list:
    """The arguments of each of ingest's gate passes."""
    return _recorded(monkeypatch, ingest, "_expat_gate")


@pytest.mark.parametrize("document, count", [
    (GARMIN_FILE, 5), (PHONE_FILE, 5), (GPX10_FILE, 5), (REFERENCES_FILE, 5),
    (_gpx().replace("<gpx ", '<gpx creator="a>b" '), 1),
    (_gpx().replace("<gpx ", '<gpx creator="Hi!" '), 1),
    (BOM_FILE, 1), (STANDALONE_FILE, 1), (UNDECLARED_FILE, 1)],
    ids=["garmin-1.1-ns3-extensions", "phone-1.1-one-line", "gpx-1.0-no-namespace",
         "references-in-a-name-and-an-extension", "gt-in-a-root-value-before-xmlns",
         "exclamation-mark-outside-markup", "utf-8-bom", "single-quoted-standalone",
         "no-declaration"])
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
    (_gpx(_FIX.replace('lat="1', 'lat="&#49;')).encode(), []),
    (_gpx(_FIX.replace('lon="2.', 'lon="2&#46;')).encode(), []),
    (_gpx(f"{_FIX}<?note {_TRAP}?>").encode(), []),
    (_gpx(prolog=f"{_UTF8}<?note {_TRAP}?>").encode(), []),
    (_gpx(prolog=f"<?note {_TRAP}?>").encode(), []),
    (_gpx(_FIX.replace("time>", "g:time>"), f' xmlns:g="{GPX11}"').encode(), []),
    (_gpx(_FIX.replace("time>", "g:time>"),
          " creator='xmlns:x=\"'" f' xmlns:g="{GPX11}"').encode(), []),
    (f'{_UTF8}<g:gpx version="1.1" xmlns:g="{GPX11}"><g:trk><g:trkseg>'
     f'{_FIX.replace("<", "<g:").replace("<g:/", "</g:")}{_TRAP}'
     "</g:trkseg></g:trk></g:gpx>".encode(), []),
    (f'{_UTF8}<xml:gpx version="1.1"><trk><trkseg>'
     f'{_FIX.replace("<", "<xml:").replace("<xml:/", "</xml:")}{_TRAP}'
     "</trkseg></trk></xml:gpx>".encode(), []),
    (_gpx(f'</trkseg><trkseg xmlns:g="{GPX11}">'
          f'{_FIX.replace("<", "<g:").replace("<g:/", "</g:")}').encode(), []),
    (_gpx(f'{_FIX}</trkseg><trkseg xmlns="{GARMIN}">{_TRAP}').encode(), []),
    (_gpx(f'{_FIX}</trkseg><trkseg xmlns="">{_TRAP}').encode(), []),
    (_gpx(_FIX + '<trkpt lat="3.5" lon="4.5"><time>2017-06-10T05:00:01Z\u00c3\u00a9'
          "</time></trkpt>", prolog=_UTF8.replace("UTF-8", "ISO-8859-1")
          ).encode("latin-1"), [_unparsable("2017-06-10T05:00:01Z\u00c3\u00a9")]),
    (_gpx(prolog=_UTF8.replace("UTF-8", "UTF-16")).encode("utf-16-le"), []),
    (_gpx(prolog="").encode("utf-16"), []),
    (LEAVES_THEN_NESTED_FILE.encode(), []),
    (_gpx(_FIX.replace("<time>", "<time\u00e9>2017-06-10T06:00:00Z</time\u00e9><time>")
          ).encode(), []),
], ids=["comment", "cdata", "entity", "character-reference",
        "character-reference-in-lat", "character-reference-in-lon",
        "processing-instruction", "processing-instruction-in-the-prolog",
        "processing-instruction-first", "prefix-bound-to-gpx",
        "prefix-bound-after-xmlns-in-a-value", "prefixed-root", "root-in-the-xml-namespace",
        "prefix-bound-to-gpx-below-the-root", "default-namespace-redeclared",
        "default-namespace-undeclared", "latin-1-declaration", "utf-16-without-bom",
        "utf-16-with-bom-and-no-declaration",
        "100000-leaf-children-then-a-nested-one", "time-then-a-non-ascii-letter"])
def test_other_shapes_take_element_tree(data, warnings):
    # each file holds a trap that the scanner would misread, or a fix it
    # would miss, without the rule that sends the file to ElementTree; and
    # each is read in time linear in its size: seconds, where a quadratic
    # scan of the 100,000 leaf children would take tens of minutes
    started = time.perf_counter()
    assert ingest._scan_fixes(data) is None
    seen = []
    trace = ingest.parse_gpx(data, "t", seen.append)
    assert time.perf_counter() - started < 10.0
    assert (list(trace.lat_deg), list(trace.lon_deg), list(trace.time_us)) == (
        [1.5], [2.5], [utc_us(ts(5))])
    assert seen == warnings


# "billion laughs": entities that would expand a 3-character text a billion
# times, nine levels of ten; expat stops an expansion only past 8 MiB
LAUGHS_FILE = _gpx(prolog=_UTF8 + "<!DOCTYPE gpx [<!ENTITY l0 'lol'>" + "".join(
    f"<!ENTITY l{i} '{f'&l{i - 1};' * 10}'>" for i in range(1, 10)) + "]>").replace(
    "<trk>", "<trk><name>&l9;</name>")
# the same entities referenced in an attribute value as well
ATTRIBUTE_LAUGHS_FILE = LAUGHS_FILE.replace("<trk>", '<trk name="&l7;">')


@pytest.mark.parametrize("data", [
    GARMIN_FILE.removesuffix("</gpx>\n").encode(),
    GARMIN_FILE.replace("activity_01", "activity\x0001").encode(),
], ids=["unclosed-root", "nul-in-a-name"])
def test_gate_rejects_a_malformed_file_before_element_tree(data, monkeypatch):
    # the scanner's expression reads every fix of each file, which is not
    # well-formed; the gate's expat pass raises expat's error, and the file
    # has the reference's message without an ElementTree parse
    assert ingest._UNREAD not in ingest._TRKPT.findall(data)
    with pytest.raises(expat.ExpatError):
        ingest._scan_fixes(data)
    parses = _tree_parses(monkeypatch)
    with pytest.raises(MalformedXml) as raised:
        ingest.parse_gpx(data, "t")
    assert parses == []
    with pytest.raises(MalformedXml) as reference:
        _tree_fixes(data)
    assert str(raised.value) == str(reference.value)


@pytest.mark.parametrize("data", [
    _gpx(prolog=f"<!DOCTYPE gpx [<!ENTITY unused '{_TRAP}'>]>").encode(),
    LAUGHS_FILE.encode(), LAUGHS_FILE, ATTRIBUTE_LAUGHS_FILE.encode(),
], ids=["doctype", "entity-amplification", "entity-amplification-str",
        "attribute-amplification"])
def test_gate_refuses_doctype_before_element_tree(data, monkeypatch):
    # the scanner's expression reads every fix of each file; the gate that
    # every file takes first refuses the DOCTYPE, with the file's skip
    parses = _tree_parses(monkeypatch)
    assert ingest._UNREAD not in ingest._TRKPT.findall(
        data if isinstance(data, bytes) else data.encode())
    for read in ingest._expat_gate, ingest._scan_fixes, lambda d: ingest.parse_gpx(d, "t"):
        with pytest.raises(MalformedXml) as raised:
            read(data)
        assert str(raised.value) == _DOCTYPE
    assert parses == []


@pytest.mark.parametrize("data", [
    LAUGHS_FILE.encode(), LAUGHS_FILE,
    LAUGHS_FILE.replace("UTF-8", "Shift_JIS").encode(), ATTRIBUTE_LAUGHS_FILE.encode()],
    ids=["bytes", "str", "retried-as-utf-8", "in-an-attribute"])
def test_document_type_is_refused_before_its_entities_expand(data):
    # expanded, the file's one name would be 3 GB. Refused at its DOCTYPE,
    # the read peaks at tens of KiB; a tree builder that took the expansions
    # until expat's amplification limit stopped them peaked at 65-130 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(MalformedXml, match="^cannot parse XML: "):
            ingest.parse_gpx(data, "t")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_ZURICH_AMPERSAND = _gpx().replace("<trk>", "<trk><name>Z\u00fcrich & b</name>")


@pytest.mark.parametrize("data, message", [
    (LAUGHS_FILE.encode(), "a document type declaration is not allowed"),
    (_ZURICH_AMPERSAND.replace("UTF-8", "ISO-8859-1").encode("latin-1"),
     "not well-formed (invalid token): line 1, column 123"),
], ids=["entity-amplification", "not-utf-8"])
def test_bytes_no_retry_can_mend_get_one_tree_parse(data, message, monkeypatch):
    # a DOCTYPE is the file's skip, and bytes that are not UTF-8 have no
    # UTF-8 text to read: the gate's first error stands, and ElementTree
    # parses neither file
    parses, passes = _tree_parses(monkeypatch), _gate_passes(monkeypatch)
    with pytest.raises(MalformedXml) as raised:
        ingest.parse_gpx(data, "t")
    assert str(raised.value) == f"cannot parse XML: {message}"
    assert (len(passes), parses) == (1, [])


_CUT_SHORT = "no element found: line 61, column 0"


@pytest.mark.parametrize("data, message", [
    (GARMIN_FILE.removesuffix("</gpx>\n").encode(), _CUT_SHORT),
    (GARMIN_FILE.replace("activity_01", "Z\u00fcrich").removesuffix("</gpx>\n").encode(),
     _CUT_SHORT),
    (_gpx().replace("<trk>", "<trk><name>a & b</name>").encode(),
     "not well-formed (invalid token): line 1, column 113"),
    *[(GARMIN_FILE.replace("UTF-8", codec).removesuffix("</gpx>\n").encode(), _CUT_SHORT)
      for codec in ("Shift_JIS", "no-such-codec", "UTF-16")],
    # expat reads these declarations and first fails at the "\u00fc" the
    # bytes give in UTF-8; the text's error is at the "&"
    (_ZURICH_AMPERSAND.replace("UTF-8", "US-ASCII").encode(),
     "not well-formed (invalid token): line 1, column 121"),
    (_ZURICH_AMPERSAND.replace("UTF-8", "windows-1252").encode(),
     "not well-formed (invalid token): line 1, column 125"),
    # the retried text takes the gate first, which refuses its DOCTYPE
    (LAUGHS_FILE.replace("UTF-8", "Shift_JIS").encode(),
     "a document type declaration is not allowed"),
], ids=["cut-short", "cut-short-beyond-ascii", "bare-ampersand-in-ascii",
        "cut-short-Shift_JIS", "cut-short-no-such-codec", "cut-short-UTF-16",
        "ampersand-after-utf-8-under-US-ASCII",
        "ampersand-after-utf-8-under-windows-1252", "entity-amplification-Shift_JIS"])
def test_retried_bytes_report_the_error_of_their_text(data, message, monkeypatch):
    # bytes that the gate rejects under their declaration and that decode as
    # UTF-8 are read again, through the gate alone, as UTF-8 text, whose own
    # error is the file's; ElementTree parses neither
    parses, passes = _tree_parses(monkeypatch), _gate_passes(monkeypatch)
    with pytest.raises(MalformedXml) as raised:
        ingest.parse_gpx(data, "t")
    assert str(raised.value) == f"cannot parse XML: {message}"
    assert ([type(document) for document, in passes], parses) == ([bytes, str], [])


def test_gate_expands_no_entity_of_a_document_type():
    # the gate refuses a DOCTYPE at its start, before any entity is
    # declared; a pass that expanded them took 0.08 s of CPU on LAUGHS_FILE,
    # and 0.13 s on the attribute value's
    for data in LAUGHS_FILE.encode(), ATTRIBUTE_LAUGHS_FILE.encode():
        spent = []
        for _ in range(3):
            started = time.process_time()
            with pytest.raises(MalformedXml, match="document type declaration"):
                ingest._expat_gate(data)
            spent.append(time.process_time() - started)
        assert min(spent) < 0.010


def test_every_codec_name_reads_as_element_tree_reads_it():
    # expat reads some declared codecs and fails on others, and which error
    # it gives for a misread declaration may differ between its versions;
    # whatever it does, each file, ASCII or beyond, loads or fails exactly
    # as the reference reads it: ElementTree on the bytes, else on their
    # UTF-8 text
    names = sorted({*encodings.aliases.aliases, *encodings.aliases.aliases.values()})
    differ, loaded = [], 0
    for name in names:
        declaration = _UTF8.replace("UTF-8", name)
        ascii_file = _gpx(prolog=declaration)
        beyond = ascii_file.replace("<trk>", "<trk><name>Z\u00fcrich</name>")
        for document in ascii_file, beyond:
            data = document.encode()
            reference = _outcome(lambda warn: ingest._trace_from_fixes(
                _tree_fixes(data), "t", warn))
            if _outcome(lambda warn: ingest.parse_gpx(data, "t", warn)) != reference:
                differ.append((name, document.isascii()))
            loaded += reference[2] is None
    assert differ == []
    assert 0 < loaded < 2 * len(names)


def test_malformed_text_has_the_message_of_malformed_bytes():
    document = GARMIN_FILE.removesuffix("</gpx>\n")
    with pytest.raises(expat.ExpatError):
        ingest._scan_fixes(document)
    with pytest.raises(MalformedXml, match=f"^cannot parse XML: {_CUT_SHORT}$"):
        ingest.parse_gpx(document, "t")


def test_text_that_utf8_cannot_encode_is_rejected_at_the_gate():
    # a lone surrogate is no XML character: the gate's expat pass cannot
    # encode the text, and its error is the file's, as ElementTree's would be
    document = _gpx(_FIX.replace("</trkpt>", "<name>\udcff</name></trkpt>"))
    with pytest.raises(UnicodeEncodeError):
        ingest._scan_fixes(document)
    with pytest.raises(MalformedXml, match="surrogates not allowed"):
        ingest.parse_gpx(document, "t")


def _xml_parses(data, monkeypatch) -> tuple[int, int]:
    """(expat passes, ElementTree parses) of parse_gpx(data), which loads or
    fails; ElementTree drives expat without pyexpat's ParserCreate."""
    passes = _recorded(monkeypatch, ingest.expat, "ParserCreate")
    parses = _tree_parses(monkeypatch)
    try:
        ingest.parse_gpx(data, "t")
    except MalformedXml:
        pass
    return len(passes), len(parses)


@pytest.mark.parametrize("document", [
    GARMIN_FILE, PHONE_FILE, GPX10_FILE, REFERENCES_FILE, BOM_FILE, STANDALONE_FILE,
    UNDECLARED_FILE],
    ids=["garmin", "phone", "gpx-1.0", "references", "utf-8-bom",
         "single-quoted-standalone", "no-declaration"])
def test_scanned_file_gets_one_xml_parse(document, monkeypatch):
    # the expat pass that checks well-formedness also reads the prolog and
    # the namespaces
    assert _xml_parses(document.encode("utf-8"), monkeypatch) == (1, 0)


@pytest.mark.parametrize("data, passes, parses", [
    (GARMIN_FILE.encode()[:-100], 2, 0),
    (GARMIN_FILE.replace("UTF-8", "Shift_JIS").encode()[:-100], 2, 0),
    (_ZURICH_AMPERSAND.replace("UTF-8", "ISO-8859-1").encode("latin-1"), 1, 0),
    (_gpx(prolog=f"<!DOCTYPE gpx [<!ENTITY unused '{_TRAP}'>]>").encode(), 1, 0),
    (_gpx(f"{_FIX}<!-- {_TRAP} -->").encode(), 1, 1),
], ids=["cut-short", "cut-short-Shift_JIS", "malformed-not-utf-8", "doctype", "comment"])
def test_file_the_scanner_declines_gets_its_xml_parses(data, passes, parses, monkeypatch):
    # a file that expat rejects gets no ElementTree parse: bytes that are
    # UTF-8 take the gate twice, as bytes and as text, and any other file
    # once; a well-formed file the scanner declines takes the gate, then
    # ElementTree
    assert _xml_parses(data, monkeypatch) == (passes, parses)


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
    "xmlns-in-value", "prolog-pi", "no-declaration", "name-amp", "extension-charref",
    "nul", "splice", "truncated", "mislabeled"]


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
        if extended or {"nested-time", "extension-charref"} & change:
            inner = "<time>2017-06-10T06:00:00Z</time>" if "nested-time" in change else ""
            hr = "&#49;40" if "extension-charref" in change else "140"
            extensions = (f"<extensions>{inner}<ns3:TrackPointExtension><ns3:hr>{hr}"
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
    creator = "&gen;" if "doctype" in mutations else "gen"  # declared in the DOCTYPE
    # a mislabeled file declares a codec expat has not, over UTF-8 bytes
    # beyond ASCII: the gate rejects the bytes, and their UTF-8 text is read
    encoding = ("Shift_JIS" if "mislabeled" in mutations else "ISO-8859-1"
                if "latin-1" in mutations else "UTF-16" if "utf-16" in mutations
                else "US-ASCII" if "ascii" in mutations else "UTF-8")
    prolog = [] if "no-declaration" in mutations and encoding in ("UTF-8", "UTF-16") else [
        f'<?xml version="1.0" encoding="{encoding}"?>']
    if "prolog-pi" in mutations:
        prolog.append(f"<?note {_TRAP}?>")
    if "doctype" in mutations:
        prolog.append("<!DOCTYPE gpx [<!ENTITY gen 'gen'>]>")
    text = newline.join([
        *prolog, f'<{root} version="1.1" creator="{creator}"{declarations}>',
        "<metadata><time>2017-06-10T04:00:00Z</time></metadata>",
        f"<trk><name>{'Zürich' if {'latin-1', 'mislabeled'} & mutations else 'run'}"
        f"{' &amp; bike' if 'name-amp' in mutations else ''}"
        f"{chr(0) if 'nul' in mutations else ''}</name>",
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
    if "truncated" in mutations:  # an interrupted download: cut before the last ">"
        data = data[:draw(st.integers(0, data.rindex(b">")))]
    return data


@given(data=_gpx_documents())
@example(data=GARMIN_FILE.encode("utf-8"))
@example(data=GARMIN_FILE.encode("utf-8")[:-100])
@example(data=_gpx(_FIX.replace("<time>", "<time\u00e9>2017-06-10T06:00:00Z</time\u00e9>"
                                "<time>")).encode())
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
    try:
        scanned = ingest._scan_fixes(data)
    except MalformedXml as exc:  # a DOCTYPE, refused at the gate
        assert error == ("MalformedXml", str(exc))
        return
    except (expat.ExpatError, LookupError, ValueError) as exc:
        # the gate rejects only what ElementTree rejects, with its text; the
        # file's error is the gate's unless UTF-8 text is read again
        with pytest.raises((ET.ParseError, LookupError, ValueError)) as raised:
            ET.fromstring(data)
        assert str(raised.value) == str(exc)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert error == ("MalformedXml", f"cannot parse XML: {exc}")
        return
    if error is not None and error[0] == "MalformedXml":
        assert scanned is None
    if scanned is None:
        return
    assert scanned == _tree_fixes(data)
    assert _outcome(lambda warn: ingest._trace_from_fixes(scanned, "t", warn)) == reference
