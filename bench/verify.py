"""Output checks for one CLI run, against the generator's expectations only.

A run passes when all of these hold:
- the exit code is 0;
- the last stdout line is the expected summary line;
- the output directory holds exactly the expected CSV files;
- every CSV is UTF-8 with the header ``x,y,t`` and the expected row count;
- every row's ``t`` equals the generator's value exactly (the CSV promises
  bit-exact re-parsing, and t is exact integer microseconds over 10**6);
- on a deterministic sample of rows (first, last and two seeded ones per
  file), ``x,y`` are within 1 mm of ``oracles.hom_reference_xy``;
- with ``--plot``, the SVG exists and draws one polyline per series.

It also returns a SHA-256 digest over the names and bytes of every output
file, so that a later change can show its outputs are byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from corpus import Corpus, ExpectedFile, oracles

XY_TOLERANCE_M = 1e-3
MAX_REPORTED = 10


def sample_rows(seed: int, name: str, rows: int) -> list[int]:
    """Row indices whose x,y are checked against the oracle."""
    rng = random.Random(f"{seed}:{name}")
    picks = {0, rows - 1}
    picks.update(rng.sample(range(rows), min(2, rows)))
    return sorted(picks)


def check_csv(name: str, data: bytes, expected: ExpectedFile, seed: int) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return [f"{name}: not UTF-8"]
    lines = text.split("\n")
    if lines[-1] != "":
        return [f"{name}: does not end with a newline"]
    if lines[0] != "x,y,t":
        return [f"{name}: header {lines[0]!r}"]
    rows = lines[1:-1]
    if len(rows) != expected.rows:
        return [f"{name}: {len(rows)} rows, expected {expected.rows}"]

    track = expected.track
    times = track.times_us
    begin, lo = expected.begin_us, expected.lo
    try:
        parsed = [tuple(map(float, row.split(","))) for row in rows]
    except ValueError as exc:
        return [f"{name}: unparsable row: {exc}"]
    for i, values in enumerate(parsed):
        if len(values) != 3:
            return [f"{name}: row {i} has {len(values)} fields"]
        if values[2] != (times[lo + i] - begin) / 1_000_000:
            return [f"{name}: row {i} t={values[2]!r}, expected "
                    f"{(times[lo + i] - begin) / 1_000_000!r}"]

    frame = expected.frame
    for i in sample_rows(seed, name, len(rows)):
        x, y, _ = parsed[i]
        x_ref, y_ref = oracles.hom_reference_xy(
            frame.origin[0], frame.origin[1], frame.azimuth_deg,
            track.lats[lo + i], track.lons[lo + i])
        if abs(x - x_ref) > XY_TOLERANCE_M or abs(y - y_ref) > XY_TOLERANCE_M:
            return [f"{name}: row {i} x,y=({x!r}, {y!r}), oracle "
                    f"({x_ref!r}, {y_ref!r})"]
    return []


def check_run(corpus: Corpus, exit_code: int, stdout: str, out_dir: Path,
              svg_path: Path | None) -> tuple[list[str], str]:
    """Return (failures, output digest) for one run's outputs."""
    failures: list[str] = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    lines = stdout.splitlines()
    if not lines or lines[-1] != corpus.summary_line:
        failures.append(f"summary {lines[-1] if lines else ''!r}, expected "
                        f"{corpus.summary_line!r}")

    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    missing = sorted(set(corpus.files) - set(names))
    extra = sorted(set(names) - set(corpus.files))
    if missing or extra:
        failures.append(f"{len(missing)} expected files missing (e.g. "
                        f"{missing[:2]}), {len(extra)} unexpected (e.g. {extra[:2]})")

    digest = hashlib.sha256()
    for name in names:
        data = (out_dir / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
        if name in corpus.files:
            failures.extend(check_csv(name, data, corpus.files[name], corpus.seed))

    if corpus.plot:
        try:
            svg = svg_path.read_bytes()
        except OSError as exc:
            failures.append(f"overlay not written: {exc}")
        else:
            digest.update(f"{svg_path.name}\0{len(svg)}\0".encode())
            digest.update(svg)
            polylines = svg.count(b"<polyline ")
            if polylines != len(corpus.files):
                failures.append(f"overlay draws {polylines} polylines, "
                                f"expected {len(corpus.files)}")
    return failures[:MAX_REPORTED], digest.hexdigest()
