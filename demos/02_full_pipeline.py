"""
The full pipeline, in library form
==================================

Builds a small synthetic dataset (a GeoJSON frames file and a directory of
GPX traces), then runs ingest -> engine -> output and prints what each
stage produced. Everything is written under a temporary directory.
"""

import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from framelocal import (
    WGS84,
    build_frame_line,
    hom_inverse,
    hom_setup,
    load_inputs,
    render_overlay_svg,
    run,
    write_csv,
)
from framelocal.output import OutputLayout

base = Path(tempfile.mkdtemp(prefix="framelocal-demo-"))
print("working under", base)

# --- author a frames file -------------------------------------------------
# One field, one line, two rounds. Note GeoJSON positions are [lon, lat].
origin = (-37.8500, 145.0000)
field = build_frame_line("field", origin[0], origin[1], -37.84931, 145.00013)
frames_path = base / "frames.geojson"
frames_path.write_text(json.dumps({
    "type": "FeatureCollection",
    "features": [{
        "type": "Feature",
        "id": "field",
        "geometry": {"type": "LineString",
                     "coordinates": [[field.origin_lon_deg, field.origin_lat_deg],
                                     [field.target_lon_deg, field.target_lat_deg]]},
        "properties": {
            "round1": "2017-06-10T05:00:00Z/2017-06-10T05:01:00Z",
            "round2": "2017-06-10T05:05:00Z/2017-06-10T05:06:00Z",
        },
    }],
}, indent=2))

# --- synthesize two player traces ------------------------------------------
# Walk straight up the field during round 1 and diagonally during round 2;
# hom_inverse turns the intended local path back into lat/lon fixes.
params = hom_setup(WGS84, field.origin_lat_deg, field.origin_lon_deg,
                   field.azimuth_deg)
start1 = datetime(2017, 6, 10, 5, 0, 0, tzinfo=timezone.utc)
start2 = datetime(2017, 6, 10, 5, 5, 0, tzinfo=timezone.utc)


def trkpt(lat, lon, when):
    stamp = when.strftime("%Y-%m-%dT%H:%M:%SZ")
    return f'<trkpt lat="{lat!r}" lon="{lon!r}"><time>{stamp}</time></trkpt>'


def gpx(points):
    body = "".join(trkpt(lat, lon, when) for lat, lon, when in points)
    return ('<?xml version="1.0" encoding="UTF-8"?>'
            '<gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
            f'<trk><trkseg>{body}</trkseg></trk></gpx>')


traces_dir = base / "traces"
traces_dir.mkdir()
for name, lateral in (("ana", 0.0), ("ben", 8.0)):
    fixes = []
    for i in range(61):
        lat, lon = hom_inverse(params, lateral, i * 1.0)
        fixes.append((lat, lon, start1 + timedelta(seconds=i)))
    for i in range(61):
        lat, lon = hom_inverse(params, lateral + i * 0.2, i * 0.8)
        fixes.append((lat, lon, start2 + timedelta(seconds=i)))
    (traces_dir / f"{name}.gpx").write_text(gpx(fixes))

# --- run the three stages ---------------------------------------------------
frames, traces, report = load_inputs(frames_path, traces_dir)
events = sum(len(frame_events) for _, frame_events in frames)
print(f"ingest: {len(frames)} frames, {events} events, {len(traces)} traces, "
      f"{len(report.warnings)} warnings")

result = run(traces, frames)
print(f"engine: {len(result.series)} series, "
      f"{result.skipped_empty} empty permutations")

out_dir = base / "out"
layout = OutputLayout(out_dir=out_dir)
for series in result.series:
    path = write_csv(series, layout)
    (_, first_y, _), (_, last_y, last_t) = series.points[0], series.points[-1]
    print(f"  {path.name}: {len(series.points)} rows, "
          f"y {first_y:.1f} -> {last_y:.1f} m over {last_t:.0f} s")

svg = render_overlay_svg(result.series, base / "overlay.svg")
print("overlay:", svg)
