"""Fuzzing the command line with mutated GPX bytes and GeoJSON text: no input
raises out of cli.main, the exit code is 0 or 2 (exit 3 is an output error,
and each run writes to a new directory), and every CSV written re-parses to
the exact bits of the series the engine computes. A permutation none of
whose in-window fixes projects is empty, as one with no in-window fix is.
Every CSV name fits in 255 bytes, and no two are equal case-folded. On an
exit 0, stderr holds one line per warning the summary counts. With --plot,
the overlay is XML that draws one polyline per CSV, and exists only on an
exit 0 that wrote a CSV. Trace file names come from any bytes, frame ids
from any JSON value, labels from any text, lone surrogates included, and a
frames document may nest to any depth. A second trace file name or frame
id may be the first's with its case swapped.

A run that exits 0 on inputs drawn unmutated is also checked against a
reader written from README.md alone (oracles.cli_outputs): the file set,
every t bit for bit, x,y against hom_reference_xy and the summary's
counts.

The time-shift law: moving every fix time and every interval bound by one
whole number of microseconds, each written with a drawn UTC offset and
fraction length, leaves every CSV byte-identical and the summary equal."""

import io
import itertools
import json
import math
import os
import struct
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fixtures import frame_feature, frames_doc, gpx_doc, iso, ts
from framelocal.cli import main
from framelocal.engine import run
from framelocal.ingest import load_inputs
from framelocal.output import OutputLayout

ORIGIN = (-37.85, 145.0)
TARGET = (-37.84, 145.001)
INTERVAL = "2017-06-10T05:00:00Z/2017-06-10T05:20:00Z"
# a time that parses, but lies past the year 9999 once converted to UTC
LATE = "9999-12-31T23:59:59-01:00"
# a date and a UTC offset: fromisoformat alone reads it as 05:00
DATE_WITH_OFFSET = "2017-06-10+05:00"

# "-３７.８５" in fullwidth digits: float() reads it, no XML number type does
_WEIRD_NUMBERS = ["", "nan", "inf", "-inf", "1e400", "-0", "abc", " 1.5 ",
                  "90.0000001", "-180", "540", "-\uff13\uff17.\uff18\uff15"]


def _mostly(usual: st.SearchStrategy, other: st.SearchStrategy) -> st.SearchStrategy:
    """other in about one draw of four, so that most runs get as far as
    writing CSVs; hypothesis favours small integers, so 3 picks other"""
    return st.integers(0, 3).flatmap(lambda i: other if i == 3 else usual)


def _number_text(near: float) -> st.SearchStrategy[str]:
    return _mostly(st.floats(near - 0.01, near + 0.01).map(repr),
                   st.one_of(st.sampled_from(_WEIRD_NUMBERS),
                             st.floats().map(repr)))


_TIMES = _mostly(
    st.datetimes(min_value=datetime(2017, 6, 10, 5, 0),
                 max_value=datetime(2017, 6, 10, 5, 25),
                 timezones=st.just(timezone.utc)).map(iso),
    st.one_of(st.none(), st.sampled_from([
        "", "2017-06-10T05:01:00", "2017-06-10T15:01:00+10:00",
        "2017-13-10T05:00:00Z", "yesterday", "2017-06-10T05:00:00.5Z", LATE,
        "2017-06-10T05:00:00.1234567Z",
        # ISO 8601 forms that are no xsd:dateTime: each is an unparsable time
        DATE_WITH_OFFSET, "20170610T050000Z", "2017-06-10T05:00:00,5Z",
        "2017-06-10t05:00:00z"])))

# fixes the projection cannot take from a Melbourne origin: null island, the
# far hemisphere, poleward of its latitude limit
_FAR_POSITIONS = st.sampled_from([("0", "0"), ("37.85", "-35.0"),
                                  ("89.95", "145.0"), ("-90", "145.0")])

_TRKPTS = st.lists(st.tuples(
    _mostly(st.tuples(_number_text(ORIGIN[0]), _number_text(ORIGIN[1])),
            _FAR_POSITIONS),
    _TIMES), min_size=1, max_size=12)

# (offset, replacement): overwrite bytes at offset modulo the length; an
# empty replacement truncates there
_SPLICES = st.lists(st.tuples(st.integers(0, 1 << 16), st.binary(max_size=4)),
                    min_size=1, max_size=2)


def _splice(data: bytes, splices) -> bytes:
    for offset, chunk in splices:
        at = offset % (len(data) + 1)
        data = data[:at] + chunk + (data[at + len(chunk):] if chunk else b"")
    return data


@st.composite
def _gpx_bytes(draw) -> bytes:
    rows = "".join(
        f'<trkpt lat="{lat}" lon="{lon}">'
        + ("" if when is None else f"<time>{when}</time>") + "</trkpt>"
        for (lat, lon), when in draw(_TRKPTS))
    xmlns = draw(st.sampled_from(
        ["", ' xmlns="http://www.topografix.com/GPX/1/0"',
         ' xmlns="http://www.topografix.com/GPX/1/1"']))
    text = (f'<?xml version="1.0" encoding="UTF-8"?><gpx version="1.1"{xmlns}>'
            f"<trk><trkseg>{rows}</trkseg></trk></gpx>")
    return text.encode("utf-8")


# any text, lone surrogates (category Cs) included: such a name has no UTF-8
# form, and a JSON escape or a file name's undecodable byte brings it in
_ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=4)

# file name stems as bytes, undecodable ones included; the caller appends
# each file's index, so a run's names stay distinct
_NAME_BYTES = _mostly(st.just(b"t"), st.binary(min_size=1, max_size=4).filter(
    lambda name: b"/" not in name and b"\0" not in name))

# what a frames document nests: the whole document, or one member's value,
# as a JSON array depth deep
_NEST_PLACES = ["document", "id", "events", "property", "coordinates"]
_NEST_DEPTHS = st.one_of(st.integers(1, 1200), st.sampled_from([5_000, 200_000]))

_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(), st.text(max_size=4))
_POSITION_VALUES = st.one_of(
    st.floats(-37.86, 145.01), st.sampled_from([float("nan"), float("inf")]),
    _JSON_SCALARS)


@st.composite
def _frames_text(draw) -> tuple[bytes, str]:
    """A frames document and the part of it that is broken, if any."""
    # at most one part is broken, so that half of the runs get past it
    broken = draw(st.sampled_from(["", "", "", "", "", "", "positions", "events",
                                   "geometry", "members", "names", "bytes",
                                   "nesting"]))
    nest = draw(st.sampled_from(_NEST_PLACES)) if broken == "nesting" else None
    positions = [[ORIGIN[1], ORIGIN[0]], [TARGET[1], TARGET[0]]]
    if broken == "positions":
        positions = draw(st.lists(st.one_of(
            st.sampled_from(positions), st.lists(_POSITION_VALUES, max_size=3)),
            max_size=3))
    events = [INTERVAL]
    if broken == "events":
        events = draw(st.lists(st.one_of(
            st.sampled_from([INTERVAL, f"{INTERVAL[:20]}/{LATE}"]),
            st.text(max_size=12), _JSON_SCALARS), max_size=3))
    if nest == "events":
        events = [INTERVAL, "NEST"]
    properties = {"events": events}
    if broken == "names":  # an interval under an odd property name, mostly ""
        name = draw(_mostly(st.just(""), _ANY_TEXT))
        properties = draw(st.sampled_from([{name: INTERVAL},
                                           {name: INTERVAL, **properties}]))
    if nest == "property":
        properties["extra"] = "NEST"
    if nest == "coordinates":
        positions = ["NEST", positions[1]]
    # an id that is neither a string nor a number is an exit 2; one of 300
    # characters makes CSV names that are cut to fit in 255 bytes
    feature_id = "NEST" if nest == "id" else draw(
        _mostly(st.sampled_from(["f0", "", None]),
                st.one_of(_ANY_TEXT, _JSON_SCALARS, st.just("f" * 300),
                          st.lists(_JSON_SCALARS, max_size=2))))
    feature = {"type": "Feature", "id": feature_id,
               "geometry": {"type": "Point" if broken == "geometry" else "LineString",
                            "coordinates": positions},
               "properties": properties}
    if broken == "members":  # a non-object member (null is allowed)
        feature[draw(st.sampled_from(["properties", "geometry"]))] = draw(
            st.one_of(st.lists(_JSON_SCALARS, max_size=2), _JSON_SCALARS))
    features = [feature]
    if (nest is None and isinstance(feature_id, str)
            and feature_id.swapcase() != feature_id and draw(st.booleans())):
        features.append({**feature, "id": feature_id.swapcase()})
    text = json.dumps({"type": "FeatureCollection", "features": features})
    if nest is not None:
        depth = draw(_NEST_DEPTHS)
        array = "[" * depth + "]" * depth
        text = (array[:depth] + text + array[depth:] if nest == "document"
                else text.replace('"NEST"', array))
    return _splice(text.encode("utf-8"), draw(_SPLICES) if broken == "bytes" else []), broken


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# (file name bytes, GPX bytes, splices into them)
_TRACE_FILES = st.lists(st.tuples(_NAME_BYTES, _gpx_bytes(), _mostly(st.just([]), _SPLICES)),
                        min_size=1, max_size=2)
_ONE_FRAME = frames_doc([frame_feature("f0", ORIGIN, TARGET, {"events": [INTERVAL]})]).encode()
_TWO_FIXES = gpx_doc([(*ORIGIN, ts(5, 1)), (*TARGET, ts(5, 2))]).encode()


@given(gpx=_TRACE_FILES, frames=_frames_text(), plot=st.booleans(), swap_case=st.booleans())
@example(gpx=[(b"t", _TWO_FIXES, [])], frames=(_ONE_FRAME, ""), plot=True, swap_case=False)
@example(gpx=[(b"t", _TWO_FIXES, [])] * 2,
         frames=(frames_doc([frame_feature(frame_id, ORIGIN, TARGET,
                                           {"events": [INTERVAL]})
                             for frame_id in ("f0", "F0")]).encode(), ""),
         plot=False, swap_case=True)
# fixes on both ends of the interval, one at a fraction of a second into it
# and one past it
@example(gpx=[(b"t", gpx_doc([(*ORIGIN, ts(5)), (*TARGET, ts(5, 0, 0, 123457)),
                               (*ORIGIN, ts(5, 20)), (*TARGET, ts(5, 21))]).encode(), [])],
         frames=(_ONE_FRAME, ""), plot=False, swap_case=False)
# a date with a UTC offset is no time: the fix is skipped, with a warning
@example(gpx=[(b"t", _TWO_FIXES.replace(b"2017-06-10T05:02:00Z", DATE_WITH_OFFSET.encode()),
               [])],
         frames=(_ONE_FRAME, ""), plot=False, swap_case=False)
# a trace of null-island glitches only: its permutation is empty, with a warning
@example(gpx=[(b"t", gpx_doc([(0.0, 0.0, ts(5, 1))]).encode(), [])],
         frames=(_ONE_FRAME, ""), plot=True, swap_case=False)
@settings(deadline=None)
def test_cli_survives_mutated_input(tmp_path_factory, gpx, frames, plot, swap_case):
    frames, broken = frames
    base = tmp_path_factory.mktemp("fuzz")
    frames_path = base / "frames.geojson"
    frames_path.write_bytes(frames)
    traces_dir = base / "traces"
    traces_dir.mkdir()
    stems = [name + b"%d" % i for i, (name, _, _) in enumerate(gpx)]
    if swap_case and len(stems) == 2 and stems[0].swapcase() != stems[0]:
        stems[1] = stems[0].swapcase()
    trace_files = {os.fsdecode(stem + b".gpx"): _splice(data, splices)
                   for stem, (_, data, splices) in zip(stems, gpx)}
    for name, data in trace_files.items():
        (traces_dir / name).write_bytes(data)
    out_dir = base / "out"
    svg = base / "overlay.svg"
    args = ["--frames", str(frames_path), "--traces", str(traces_dir),
            "--out", str(out_dir)] + (["--plot", str(svg)] if plot else [])

    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(args)

    assert code in (0, 2)
    if code == 2:
        assert not svg.exists()
        return
    frame_list, traces, report = load_inputs(frames_path, traces_dir)
    result = run(traces, frame_list)
    layout = OutputLayout(out_dir=out_dir)
    expected = {layout.path_for(series): series for series in result.series}
    assert set(out_dir.iterdir()) == set(expected)
    assert all(len(os.fsencode(path.name)) <= 255 for path in expected)
    assert len({path.name.casefold() for path in expected}) == len(expected)
    unplotted = plot and not expected
    assert (f"framelocal: warning: no series to plot; skipped {svg}\n"
            in err.getvalue()) == unplotted
    warnings = len(report.warnings) + len(result.warnings) + unplotted
    assert out.getvalue() == (f"{len(expected)} series written, {result.skipped_empty} "
                              f"permutations skipped (empty), {warnings} warnings\n")
    # a name's newline or other line break may not split a warning's line
    lines = err.getvalue().splitlines()
    assert len(lines) == warnings
    assert all(line.startswith("framelocal: warning: ") for line in lines)
    if plot and expected:
        polylines = ET.parse(svg).getroot().findall("{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == len(expected)
    else:
        assert not svg.exists()
    for path, series in expected.items():
        header, *rows = path.read_text(encoding="utf-8").split("\n")[:-1]
        assert header == "x,y,t"
        assert [[_bits(float(cell)) for cell in row.split(",")] for row in rows] == [
            [_bits(x), _bits(y), _bits(t)] for x, y, t in series.points]
    if broken in ("", "names") and not any(splices for _, _, splices in gpx):
        _check_against_the_readme(frames, trace_files, out_dir, out.getvalue())


def _check_against_the_readme(frames: bytes, trace_files: dict[str, bytes], out_dir,
                              summary: str) -> None:
    """The files, t bits, x,y and counts of a run that exited 0 on inputs
    drawn unmutated, against the reader written from README.md alone."""
    expected = oracles.cli_outputs(frames.decode("utf-8"), trace_files)
    if expected is None:  # an input on which README.md does not decide
        return
    files, empty = expected
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(files)
    assert summary.startswith(f"{len(files)} series written, {empty} permutations "
                              "skipped (empty), ")
    for name, rows in files.items():
        written = [tuple(map(float, line.split(",")))
                   for line in (out_dir / name).read_text(encoding="utf-8").split("\n")[1:-1]]
        assert [_bits(t) for _, _, t in written] == [_bits(t) for _, _, t in rows]
        for (x, y, _), (x_ref, y_ref, _) in zip(written, rows):
            # 1 mm at frame scale; the azimuth the oracle solves for agrees
            # with the package's to about 1e-9 rad, which far fixes magnify
            tolerance = 1e-3 + 1e-8 * math.hypot(x_ref, y_ref)
            assert abs(x - x_ref) <= tolerance and abs(y - y_ref) <= tolerance


_BEGIN = datetime(2017, 6, 10, 5, 0)  # UTC
_MINUTE_US = 60 * 10**6
_DAY = timedelta(days=1)
_US = timedelta(microseconds=1)
# shifts that keep every time of the scene, from a minute before _BEGIN to 31
# minutes after it, a day inside the years 1-9999 in UTC, so that any offset
# writes it in them too
_SHIFTS = st.integers((datetime.min + _DAY - _BEGIN) // _US + _MINUTE_US,
                      (datetime.max - _DAY - _BEGIN) // _US - 31 * _MINUTE_US)

# (UTC offset in minutes or None for Z, least fraction digits)
_FORMS = st.lists(st.tuples(st.none() | st.integers(-(24 * 60 - 1), 24 * 60 - 1),
                            st.integers(0, 6)), min_size=1, max_size=6)


def _written(us: int, form: tuple[int | None, int]) -> str:
    """The instant us microseconds after _BEGIN as an xsd:dateTime in form:
    Z or ±hh:mm, and 0-6 fraction digits, at least as many as it needs."""
    minutes, digits = form
    local = _BEGIN + timedelta(microseconds=us, minutes=minutes or 0)
    fraction = f".{local.microsecond:06d}"
    digits = max(digits, len(fraction.rstrip("0")) - 1)
    hours, rest = divmod(abs(minutes or 0), 60)
    zone = "Z" if minutes is None else f"{'-' if minutes < 0 else '+'}{hours:02d}:{rest:02d}"
    return (local.replace(microsecond=0).isoformat()
            + fraction[:digits + 1 if digits else 0] + zone)


@given(shift=_SHIFTS, forms=_FORMS,
       fixes=st.lists(st.integers(-_MINUTE_US, 31 * _MINUTE_US), min_size=1, max_size=8))
@settings(deadline=None)
def test_time_shift_leaves_every_csv_byte_identical(tmp_path_factory, shift, forms, fixes):
    positions = (ORIGIN, TARGET, (-37.845, 145.0005))

    def outputs(move: int, written_as: list) -> tuple[int, str, dict[str, bytes]]:
        form = itertools.cycle(written_as)

        def text(us: int) -> str:
            return _written(us + move, next(form))

        base = tmp_path_factory.mktemp("shift")
        (base / "frames.geojson").write_bytes(frames_doc([frame_feature(
            "f0", ORIGIN, TARGET,
            {"events": [f"{text(0)}/{text(20 * _MINUTE_US)}"],
             "round2": f"{text(10 * _MINUTE_US + 500_000)}/{text(30 * _MINUTE_US)}"})]).encode())
        (base / "traces").mkdir()
        rows = "".join(f'<trkpt lat="{lat!r}" lon="{lon!r}"><time>{text(us)}</time></trkpt>'
                       for (lat, lon), us in zip(positions * len(fixes), fixes))
        (base / "traces" / "t.gpx").write_bytes(
            f'<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1"><trk><trkseg>'
            f"{rows}</trkseg></trk></gpx>".encode())
        with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
            code = main(["--frames", str(base / "frames.geojson"),
                         "--traces", str(base / "traces"), "--out", str(base / "out")])
        return code, out.getvalue(), {path.name: path.read_bytes()
                                      for path in (base / "out").iterdir()}

    # unshifted, every time is written with Z and as few fraction digits as it needs
    unshifted = outputs(0, [(None, 0)])
    assert unshifted[0] == 0
    assert outputs(shift, forms) == unshifted
