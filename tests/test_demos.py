"""The demos that README.md points users at still run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # TMPDIR puts the demos' mkdtemp folders under pytest's temporary directory
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "03_comparing_two_fields":
        assert re.search(r"^2 series written, 0 permutations skipped \(empty\), "
                         r"0 warnings$", proc.stdout, re.MULTILINE)


def test_all_three_demos_found():
    assert [path.stem for path in DEMOS] == [
        "01_project_a_frame", "02_full_pipeline", "03_comparing_two_fields"]
