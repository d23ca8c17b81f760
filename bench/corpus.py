"""Seeded synthetic corpora for the benchmark workloads.

Standard library only, plus the independent geodesy oracles in
``tests/oracles.py``; nothing here imports the package under test. The same
(workload, seed) pair always yields byte-identical input files, and the
generator keeps in memory everything the output checks need: every kept fix
of every trace (the fixes the CLI must read back), each frame's origin and
true azimuth, and each event window. From those it derives the expected
file set, the row count of every file and the summary line.

Frame targets are placed with ``oracles.vincenty_direct`` from an origin,
an azimuth and a length, so the azimuth the oracle projection uses is the
one the frame was built with. Track points only need to be plausible
positions near the frames; they are placed with a local spherical
approximation, and the expected x,y of a row are computed from the exact
coordinate text written to the GPX file.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (the repository's independent reference geodesy)

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = 1_000_000
_EARTH_R_M = 6371008.8

WORKLOADS = ("season_archive", "tournament_dense", "league_overlay_jobs2")


@dataclass
class Frame:
    id: str
    origin: tuple[float, float]
    azimuth_deg: float
    target: tuple[float, float]
    events: list[tuple[str, int, int]]      # (label, begin_us, end_us)
    properties: dict


@dataclass
class Track:
    """One trace: the kept fixes, in time order, as the CLI must read them."""

    id: str
    lats: array = field(default_factory=lambda: array("d"))
    lons: array = field(default_factory=lambda: array("d"))
    times_us: array = field(default_factory=lambda: array("q"))
    untimed: int = 0                        # fixes written without <time>


@dataclass
class ExpectedFile:
    track: Track
    frame: Frame
    begin_us: int
    lo: int                                 # kept-fix index of the first row
    hi: int                                 # one past the last row

    @property
    def rows(self) -> int:
        return self.hi - self.lo


@dataclass
class Corpus:
    workload: str
    seed: int
    frames_path: Path
    traces_dir: Path
    jobs: int
    plot: bool
    frames: list[Frame]
    tracks: list[Track]
    files: dict[str, ExpectedFile]
    permutations: int
    warnings: int

    @property
    def summary_line(self) -> str:
        return (f"{len(self.files)} series written, "
                f"{self.permutations - len(self.files)} permutations skipped "
                f"(empty), {self.warnings} warnings")

    def manifest(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed,
            "jobs": self.jobs, "plot": self.plot,
            "traces": len(self.tracks), "frames": len(self.frames),
            "events": sum(len(f.events) for f in self.frames),
            "permutations": self.permutations,
            "series": len(self.files),
            "empty_permutations": self.permutations - len(self.files),
            "warnings": self.warnings,
            "rows": sum(e.rows for e in self.files.values()),
            "rows_per_file": {name: e.rows for name, e in sorted(self.files.items())},
        }


def iso(us: int, millis: bool = False) -> str:
    text = (_EPOCH + timedelta(microseconds=us)).isoformat(
        timespec="milliseconds" if millis else "seconds")
    return text.replace("+00:00", "Z")


def us_of(year: int, month: int, day: int, hour: int, minute: int = 0) -> int:
    delta = datetime(year, month, day, hour, minute, tzinfo=timezone.utc) - _EPOCH
    return (delta.days * 86400 + delta.seconds) * _US


def _frame(frame_id: str, center: tuple[float, float],
           bearing_deg: float, offset_m: float, azimuth_deg: float,
           length_m: float, events: list[tuple[str, int, int]],
           extra: dict | None = None) -> Frame:
    origin = oracles.vincenty_direct(center[0], center[1], bearing_deg, offset_m)
    target = oracles.vincenty_direct(origin[0], origin[1], azimuth_deg, length_m)
    properties = dict(extra or {})
    properties["events"] = [f"{iso(b)}/{iso(e)}" for label, b, e in events
                            if label.startswith("e")]
    for label, b, e in events:
        if not label.startswith("e"):
            properties[label] = f"{iso(b)}/{iso(e)}"
    return Frame(frame_id, origin, azimuth_deg, target, events, properties)


def _walk(rng: random.Random, center: tuple[float, float], radius_m: float,
          count: int, speed_mps: float):
    """(lat, lon) of a bounded random walk around center, one per second."""
    lat0, lon0 = center
    m_per_deg_lat = _EARTH_R_M * math.pi / 180.0
    m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
    east = rng.uniform(-0.5, 0.5) * radius_m
    north = rng.uniform(-0.5, 0.5) * radius_m
    heading = rng.uniform(0.0, 2.0 * math.pi)
    for _ in range(count):
        yield lat0 + north / m_per_deg_lat, lon0 + east / m_per_deg_lon
        if east * east + north * north > radius_m * radius_m:
            heading = math.atan2(-east, -north) + rng.gauss(0.0, 0.5)
        else:
            heading += rng.gauss(0.0, 0.25)
        step = speed_mps * (0.5 + rng.random())
        east += step * math.sin(heading)
        north += step * math.cos(heading)


# --------------------------------------------------------------------------
# GPX dialects. Each returns the file text and fills the Track with the
# kept fixes, parsed back from the exact text written.
# --------------------------------------------------------------------------

_GARMIN_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<gpx creator="Garmin Connect" version="1.1" '
    'xsi:schemaLocation="http://www.topografix.com/GPX/1/1 '
    'http://www.topografix.com/GPX/11.xsd" '
    'xmlns:ns3="http://www.garmin.com/xmlschemas/TrackPointExtension/v1" '
    'xmlns="http://www.topografix.com/GPX/1/1" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">\n'
    '  <metadata>\n    <time>{start}</time>\n  </metadata>\n'
    '  <trk>\n    <name>{name}</name>\n    <type>running</type>\n'
    '    <trkseg>\n')
_GARMIN_PT = (
    '      <trkpt lat="{lat}" lon="{lon}">\n'
    '        <ele>{ele:.1f}</ele>\n{time}'
    '        <extensions>\n'
    '          <ns3:TrackPointExtension>\n'
    '            <ns3:hr>{hr}</ns3:hr>\n'
    '            <ns3:cad>{cad}</ns3:cad>\n'
    '          </ns3:TrackPointExtension>\n'
    '        </extensions>\n'
    '      </trkpt>\n')
_PHONE_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<gpx version="1.1" creator="PhoneTracker 4.2" '
    'xmlns="http://www.topografix.com/GPX/1/1">\n'
    '<trk><name>{name}</name><trkseg>\n')
_PHONE_PT = ('<trkpt lat="{lat}" lon="{lon}"><ele>{ele:.2f}</ele>'
             '<time>{time}</time></trkpt>\n')
_GPX10_HEAD = ('<?xml version="1.0"?>\n<gpx version="1.0" creator="LeagueLogger">\n'
               '<trk>\n<name>{name}</name>\n<trkseg>\n')
_GPX10_PT = ('<trkpt lat="{lat}" lon="{lon}">\n<ele>{ele:.1f}</ele>\n'
             '<time>{time}</time>\n<speed>{speed:.2f}</speed>\n</trkpt>\n')
_TAIL = '</trkseg></trk>\n</gpx>\n'


def _keep(track: Track, lat: str, lon: str, time_us: int) -> None:
    track.lats.append(float(lat))
    track.lons.append(float(lon))
    track.times_us.append(time_us)


def _garmin_gpx(rng: random.Random, track: Track, positions, start_us: int,
                untimed_p: float) -> str:
    parts = [_GARMIN_HEAD.format(start=iso(start_us, millis=True), name=track.id)]
    ele, hr = rng.uniform(10.0, 200.0), rng.randint(100, 140)
    for i, (lat_f, lon_f) in enumerate(positions):
        lat, lon = f"{lat_f:.7f}", f"{lon_f:.7f}"
        ele += rng.uniform(-0.3, 0.3)
        hr = min(190, max(90, hr + rng.randint(-1, 1)))
        time_us = start_us + i * _US
        if rng.random() < untimed_p:
            time_tag = ""
            track.untimed += 1
        else:
            time_tag = f"        <time>{iso(time_us, millis=True)}</time>\n"
            _keep(track, lat, lon, time_us)
        parts.append(_GARMIN_PT.format(lat=lat, lon=lon, ele=ele, time=time_tag,
                                       hr=hr, cad=rng.randint(80, 92)))
    parts.append(_TAIL)
    return "".join(parts)


def _phone_gpx(rng: random.Random, track: Track, positions, start_us: int) -> str:
    parts = [_PHONE_HEAD.format(name=track.id)]
    ele = rng.uniform(20.0, 60.0)
    for i, (lat_f, lon_f) in enumerate(positions):
        lat, lon = repr(round(lat_f, 8)), repr(round(lon_f, 8))
        ele += rng.uniform(-0.5, 0.5)
        time_us = start_us + i * _US
        _keep(track, lat, lon, time_us)
        parts.append(_PHONE_PT.format(lat=lat, lon=lon, ele=ele,
                                      time=iso(time_us, millis=True)))
    parts.append(_TAIL)
    return "".join(parts)


def _gpx10(rng: random.Random, track: Track, positions, start_us: int) -> str:
    parts = [_GPX10_HEAD.format(name=track.id)]
    ele = rng.uniform(0.0, 30.0)
    for i, (lat_f, lon_f) in enumerate(positions):
        lat, lon = f"{lat_f:.6f}", f"{lon_f:.6f}"
        ele += rng.uniform(-0.2, 0.2)
        time_us = start_us + i * _US
        _keep(track, lat, lon, time_us)
        parts.append(_GPX10_PT.format(lat=lat, lon=lon, ele=ele, time=iso(time_us),
                                      speed=rng.uniform(0.0, 6.0)))
    parts.append(_TAIL)
    return "".join(parts)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _season_archive(rng: random.Random):
    """40 daily Garmin logs of 6,000 fixes; 2 frames with one 10-minute
    event per day each, so 78 of every 80 (frame, event) pairs miss a log."""
    center = (47.6612, -122.3301)
    days = 40
    starts = [us_of(2017, 3, 1, 6) + d * 86400 * _US + rng.randint(0, 60) * 60 * _US
              for d in range(days)]
    frames = []
    for k, frame_id in enumerate(("track", "lakepath")):
        events = [(f"e{d}", b, b + 600 * _US)
                  for d, b in ((d, starts[d] + rng.randint(2, 88) * 60 * _US)
                               for d in range(days))]
        frames.append(_frame(frame_id, center, rng.uniform(0, 360),
                             rng.uniform(100, 400), rng.uniform(0, 360), 400.0,
                             events, {"name": f"Season segment {k + 1}"}))
    texts = {}
    tracks = []
    for d in range(days):
        track = Track(f"activity_{d + 1:02d}")
        walk = _walk(rng, center, 800.0, 6000, 3.0)
        texts[track.id] = _garmin_gpx(rng, track, walk, starts[d], untimed_p=0.005)
        tracks.append(track)
    return frames, tracks, texts, 1, False


def _tournament_dense(rng: random.Random):
    """8 phone logs of one hour in one park; 8 pitches facing every
    quadrant, each with three back-to-back 20-minute events plus an
    overlapping whole-hour session, so every permutation is non-empty."""
    center = (-37.8497, 145.0012)
    t0 = us_of(2017, 6, 10, 5)
    events = [("e0", t0, t0 + 1200 * _US), ("e1", t0 + 1200 * _US, t0 + 2400 * _US),
              ("e2", t0 + 2400 * _US, t0 + 3600 * _US), ("session", t0, t0 + 3600 * _US)]
    frames = [_frame(f"pitch{k + 1}", center, 45.0 * k + rng.uniform(0, 45),
                     rng.uniform(50, 300), 45.0 * k + rng.uniform(5, 40), 100.0,
                     events, {"name": f"Pitch {k + 1}"})
              for k in range(8)]
    texts = {}
    tracks = []
    for p in range(8):
        track = Track(f"player{p + 1}")
        # phone clocks: the first logs on whole seconds, the others are offset
        offset_us = 0 if p == 0 else rng.randint(1, 999) * 1000
        walk = _walk(rng, center, 300.0, 3600, 2.5)
        texts[track.id] = _phone_gpx(rng, track, walk, t0 + offset_us)
        tracks.append(track)
    return frames, tracks, texts, 1, False


def _league_overlay_jobs2(rng: random.Random):
    """32 GPX 1.0 logs of 30 minutes; 6 courts with six back-to-back
    5-minute events each: many small series, run on two workers with the
    SVG overlay."""
    center = (51.5226, -0.1571)
    t0 = us_of(2017, 9, 2, 14)
    events = [(f"e{i}", t0 + i * 300 * _US, t0 + (i + 1) * 300 * _US) for i in range(6)]
    frames = [_frame(f"court{k + 1}", center, rng.uniform(0, 360),
                     rng.uniform(50, 350), rng.uniform(0, 360), 28.0, events)
              for k in range(6)]
    texts = {}
    tracks = []
    for team in range(8):
        for player in range(4):
            track = Track(f"team{team + 1}_p{player + 1}")
            walk = _walk(rng, center, 400.0, 1800, 2.0)
            texts[track.id] = _gpx10(rng, track, walk, t0)
            tracks.append(track)
    return frames, tracks, texts, 2, True


def _write_synced(path: Path, text: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def fsync_dir(path: Path) -> None:
    """Commit a directory's entries (creations and deletions) to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_BUILDERS = {
    "season_archive": _season_archive,
    "tournament_dense": _tournament_dense,
    "league_overlay_jobs2": _league_overlay_jobs2,
}


def generate(workload: str, seed: int, base_dir: Path) -> Corpus:
    """Write the workload's frames file and GPX directory under base_dir
    and return the corpus with its expectations."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"framelocal-bench:{workload}:{seed}")
    frames, tracks, texts, jobs, plot = _BUILDERS[workload](rng)

    base_dir = Path(base_dir)
    traces_dir = base_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    # The files are synced so that no writeback of the corpus overlaps the
    # timed runs that follow.
    for track_id, text in texts.items():
        _write_synced(traces_dir / f"{track_id}.gpx", text)
    frames_path = base_dir / "frames.geojson"
    _write_synced(frames_path, json.dumps({"type": "FeatureCollection", "features": [
        {"type": "Feature", "id": f.id,
         "geometry": {"type": "LineString",
                      "coordinates": [[f.origin[1], f.origin[0]],
                                      [f.target[1], f.target[0]]]},
         "properties": f.properties}
        for f in frames]}, indent=1) + "\n")

    files: dict[str, ExpectedFile] = {}
    for track in tracks:
        for frame in frames:
            for label, begin_us, end_us in frame.events:
                lo = bisect_left(track.times_us, begin_us)
                hi = bisect_right(track.times_us, end_us)
                if hi > lo:
                    files[f"{track.id}__{frame.id}__{label}.csv"] = ExpectedFile(
                        track, frame, begin_us, lo, hi)
    corpus = Corpus(workload=workload, seed=seed, frames_path=frames_path,
                    traces_dir=traces_dir, jobs=jobs, plot=plot, frames=frames,
                    tracks=tracks, files=files,
                    permutations=len(tracks) * sum(len(f.events) for f in frames),
                    warnings=sum(t.untimed for t in tracks))
    _write_synced(base_dir / "manifest.json",
                  json.dumps(corpus.manifest(), indent=1) + "\n")
    fsync_dir(traces_dir)
    fsync_dir(base_dir)
    return corpus


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's corpus "
                                     "and print its expected counts.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    made = generate(args.workload, args.seed, args.out)
    summary = made.manifest()
    summary.pop("rows_per_file")
    print(json.dumps(summary, indent=1))
