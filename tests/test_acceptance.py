"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
from datetime import timedelta

import pytest

import oracles
from fixtures import frame_feature, frames_doc, gpx_doc, iso, line_walk, ts, two_fields_dataset
from framelocal.cli import main
from framelocal.engine import run
from framelocal.geodesy import WGS84, geodesic_inverse, hom_forward, hom_inverse, hom_setup
from framelocal.ingest import build_frame_line
from framelocal.model import EventInterval, Trace, utc_us

EQ_ARC_1DEG = 111319.49079327358


def _passed(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_criterion_1_projection_oracle_suite():
    """hom_forward vs an independent reference: 3 origins x 4 azimuths x
    5 probes within 100 km, agreement within 1e-3 m."""
    origins = [(0.0, 12.0), (-38.0, 145.0), (67.0, 25.0)]
    azimuths = [0.0, 45.0, 90.0, 200.0]
    worst = 0.0
    for lat_c, lon_c in origins:
        for azimuth in azimuths:
            params = hom_setup(WGS84, lat_c, lon_c, azimuth)
            probes = [(1000.0, azimuth), (100000.0, azimuth + 37.0),
                      (50000.0, azimuth + 90.0), (75000.0, azimuth + 180.0),
                      (99000.0, azimuth + 263.0)]
            for distance, bearing in probes:
                lat, lon = oracles.vincenty_direct(lat_c, lon_c,
                                                   bearing % 360.0, distance)
                x, y = hom_forward(params, lat, lon)
                x_ref, y_ref = oracles.hom_reference_xy(lat_c, lon_c, azimuth,
                                                        lat, lon)
                worst = max(worst, abs(x - x_ref), abs(y - y_ref))
                assert abs(x - x_ref) <= 1e-3
                assert abs(y - y_ref) <= 1e-3
    _passed(f"1 projection-oracle-suite (worst diff {worst:.2e} m)")


def test_criterion_2_round_trip_suite():
    """10,000 random points within 100 km of random valid parameters:
    inverse(forward(p)) = p within 1e-9 degrees."""
    rng = random.Random(2024)
    worst = 0.0
    params = None
    for i in range(10000):
        if i % 20 == 0:  # 500 parameter sets, 20 points each
            params = hom_setup(WGS84, rng.uniform(-85.0, 85.0),
                               rng.uniform(-180.0, 180.0),
                               rng.uniform(0.0, 360.0))
        lat, lon = oracles.vincenty_direct(params.origin_lat_deg,
                                           params.origin_lon_deg,
                                           rng.uniform(0.0, 360.0),
                                           rng.uniform(0.0, 100000.0))
        x, y = hom_forward(params, lat, lon)
        lat_back, lon_back = hom_inverse(params, x, y)
        err = max(abs(lat_back - lat), abs(oracles.wrap_lon(lon_back - lon)))
        worst = max(worst, err)
        assert err < 1e-9
    _passed(f"2 round-trip-suite (worst {worst:.2e} deg)")


def test_criterion_3_geodesic_suite():
    """Equatorial arcs vs a*dlon (1e-6 relative), meridian arcs vs the
    meridian series (1 mm), symmetry + azimuth range on 10,000 pairs."""
    rng = random.Random(3)
    a = WGS84.semi_major_axis_m

    worst_eq = 0.0
    for _ in range(300):
        lon1 = rng.uniform(-180.0, 180.0)
        dlon = rng.uniform(1e-4, 8.9)  # keeps the arc under 1000 km
        sol = geodesic_inverse(WGS84, 0.0, lon1, 0.0, lon1 + dlon)
        expected = a * math.radians(dlon)
        rel = abs(sol.distance_m - expected) / expected
        worst_eq = max(worst_eq, rel)
        assert rel <= 1e-6

    worst_mer = 0.0
    for _ in range(300):
        lat1 = rng.uniform(-80.0, 80.0)
        lat2 = lat1 + rng.uniform(-8.9, 8.9)
        lat2 = max(-89.0, min(89.0, lat2))
        if abs(lat2 - lat1) < 1e-4:
            continue
        lon = rng.uniform(-180.0, 180.0)
        sol = geodesic_inverse(WGS84, lat1, lon, lat2, lon)
        expected = abs(oracles.meridian_arc_m(lat2) - oracles.meridian_arc_m(lat1))
        worst_mer = max(worst_mer, abs(sol.distance_m - expected))
        assert abs(sol.distance_m - expected) <= 1e-3

    for i in range(10000):
        lat1 = rng.uniform(-80.0, 80.0)
        lon1 = rng.uniform(-180.0, 180.0)
        lat2, lon2 = oracles.vincenty_direct(lat1, lon1, rng.uniform(0.0, 360.0),
                                             rng.uniform(0.5, 999000.0))
        fwd = geodesic_inverse(WGS84, lat1, lon1, lat2, lon2)
        rev = geodesic_inverse(WGS84, lat2, lon2, lat1, lon1)
        assert fwd.distance_m == rev.distance_m
        assert 0.0 <= fwd.forward_azimuth_deg < 360.0
        assert 0.0 <= rev.forward_azimuth_deg < 360.0

    for _ in range(200):
        lon1 = rng.uniform(-170.0, 160.0)
        lon2 = lon1 + rng.uniform(0.01, 8.9)
        fwd = geodesic_inverse(WGS84, 0.0, lon1, 0.0, lon2)
        rev = geodesic_inverse(WGS84, 0.0, lon2, 0.0, lon1)
        diff = abs(fwd.forward_azimuth_deg - rev.forward_azimuth_deg)
        assert abs(diff - 180.0) < 1e-9

    _passed(f"3 geodesic-suite (worst equatorial rel {worst_eq:.2e}, "
            f"worst meridian {worst_mer:.2e} m)")


def test_criterion_4_centerline_fidelity():
    """50 random frames, 50 m to 10 km: the target endpoint projects to
    |x| <= 1e-3 m and |y - length| <= 1e-3 m."""
    rng = random.Random(4)
    worst_x = worst_y = 0.0
    for _ in range(50):
        lat = rng.uniform(-75.0, 75.0)
        lon = rng.uniform(-180.0, 180.0)
        azimuth = rng.uniform(0.0, 360.0)
        length = rng.uniform(50.0, 10000.0)
        target = oracles.vincenty_direct(lat, lon, azimuth, length)
        frame = build_frame_line("f", lat, lon, *target)
        params = hom_setup(WGS84, lat, lon, frame.azimuth_deg)
        x, y = hom_forward(params, frame.target_lat_deg, frame.target_lon_deg)
        worst_x = max(worst_x, abs(x))
        worst_y = max(worst_y, abs(y - frame.length_m))
        assert abs(x) <= 1e-3
        assert abs(y - frame.length_m) <= 1e-3
    _passed(f"4 centerline-fidelity (worst |x| {worst_x:.2e} m, "
            f"worst |y-len| {worst_y:.2e} m)")


def test_criterion_5_end_to_end_two_fields(tmp_path, capsys):
    """Two fields 1 km apart with opposite azimuths, one trace walking each
    field's line during its event: exactly 2 CSVs, y monotone 0 -> length,
    |x| <= 0.5 m, t spans [0, duration], series differ pointwise <= 1 m."""
    frames_path, traces_dir, length, duration = two_fields_dataset(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["--frames", str(frames_path), "--traces", str(traces_dir),
                 "--out", str(out_dir)])
    assert code == 0
    assert capsys.readouterr().out.startswith("2 series written")

    files = sorted(out_dir.iterdir())
    assert [p.name for p in files] == ["player1__fieldA__e0.csv",
                                       "player1__fieldB__e0.csv"]
    parsed = []
    for path in files:
        rows = path.read_text().splitlines()
        assert rows[0] == "x,y,t"
        samples = [tuple(float(c) for c in row.split(",")) for row in rows[1:]]
        xs = [s[0] for s in samples]
        ys = [s[1] for s in samples]
        t_values = [s[2] for s in samples]
        assert all(b > a for a, b in zip(ys, ys[1:]))  # strictly increasing
        assert ys[0] == 0.0
        assert abs(ys[-1] - length) <= 0.5
        assert max(abs(x) for x in xs) <= 0.5
        assert t_values[0] == 0.0
        assert t_values[-1] == duration
        parsed.append(samples)

    assert len(parsed[0]) == len(parsed[1])
    worst = 0.0
    for (x1, y1, t1), (x2, y2, t2) in zip(*parsed):
        assert t1 == t2
        worst = max(worst, math.hypot(x1 - x2, y1 - y2))
        assert worst <= 1.0
    _passed(f"5 end-to-end-two-fields (worst pointwise diff {worst:.2e} m)")


def test_criterion_6_permutation_accounting():
    """Randomized fuzz: series + skipped_empty = G * total events, and each
    series has exactly the closed-interval membership count."""
    rng = random.Random(6)
    base = ts(5, 0)
    origin = (-37.85, 145.0)
    for _ in range(60):
        frames = []
        for i in range(rng.randint(1, 4)):
            azimuth = rng.uniform(0.0, 360.0)
            target = oracles.vincenty_direct(*origin, azimuth, rng.uniform(50, 500))
            frame = build_frame_line(f"f{i}", *origin, *target)
            events = []
            for j in range(rng.randint(1, 3)):
                start = rng.randint(0, 900)
                events.append(EventInterval(
                    begin_utc=base + timedelta(seconds=start),
                    end_utc=base + timedelta(seconds=start + rng.randint(0, 400)),
                    label=f"e{j}"))
            frames.append((frame, events))
        traces = []
        for i in range(rng.randint(1, 5)):
            start = base + timedelta(seconds=rng.randint(0, 900))
            count = rng.randint(1, 50)
            step = rng.randint(1, 25)
            lats, lons, times = zip(*line_walk(origin, 40.0, start, count, step_s=step))
            traces.append(Trace(f"t{i}", lats, lons, list(map(utc_us, times))))

        result = run(traces, frames)
        total_events = sum(len(events) for _, events in frames)
        assert len(result.series) + result.skipped_empty == len(traces) * total_events
        by_key = {s.key: s for s in result.series}
        for trace in traces:
            for frame, events in frames:
                for event in events:
                    member_count = sum(
                        1 for us in trace.time_us
                        if utc_us(event.begin_utc) <= us <= utc_us(event.end_utc))
                    series = by_key.get((trace.id, frame.id, event.label))
                    if member_count == 0:
                        assert series is None
                    else:
                        assert len(series.points) == member_count
    _passed("6 permutation-accounting (60 fuzzed scenarios)")


def test_criterion_7_determinism_across_jobs(tmp_path, capsys):
    """Two full CLI runs over identical inputs with --jobs 1 and --jobs 8
    produce byte-identical output directories."""
    frames_path, traces_dir, _, _ = two_fields_dataset(tmp_path)
    trees = {}
    for jobs in ("1", "8"):
        out_dir = tmp_path / f"out-jobs{jobs}"
        code = main(["--frames", str(frames_path), "--traces", str(traces_dir),
                     "--out", str(out_dir), "--jobs", jobs,
                     "--plot", str(out_dir / "overlay.svg")])
        assert code == 0
        trees[jobs] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert trees["1"] == trees["8"]
    assert len(trees["1"]) == 3  # two CSVs and the overlay
    _passed("7 determinism-across-jobs (byte-identical trees)")


def test_criterion_8_frames_reused_across_traces(tmp_path, capsys):
    """Workflow shadow: the frames file is authored once; adding traces needs
    zero per-trace configuration and leaves existing outputs byte-identical."""
    origin = (-37.85, 145.0)
    target = oracles.vincenty_direct(*origin, 40.0, 100.0)
    event = (ts(5, 0), ts(5, 0) + timedelta(seconds=60))
    frames_path = tmp_path / "frames.geojson"
    frames_path.write_text(frames_doc([frame_feature(
        "field", origin, target,
        {"events": [f"{iso(event[0])}/{iso(event[1])}"]})]))
    traces_dir = tmp_path / "traces"
    traces_dir.mkdir()
    (traces_dir / "p1.gpx").write_text(gpx_doc(line_walk(origin, 40.0, event[0], 61)))

    out_one = tmp_path / "out1"
    assert main(["--frames", str(frames_path), "--traces", str(traces_dir),
                 "--out", str(out_one)]) == 0
    first = {p.name: p.read_bytes() for p in out_one.iterdir()}

    # a second trace arrives; the frames file is untouched
    (traces_dir / "p2.gpx").write_text(gpx_doc(
        line_walk(origin, 40.0, event[0] + timedelta(seconds=10), 30)))
    out_two = tmp_path / "out2"
    assert main(["--frames", str(frames_path), "--traces", str(traces_dir),
                 "--out", str(out_two)]) == 0
    second = {p.name: p.read_bytes() for p in out_two.iterdir()}

    assert set(second) == set(first) | {"p2__field__e0.csv"}
    for name, body in first.items():
        assert second[name] == body
    _passed("8 frames-reuse-workflow-shadow")
