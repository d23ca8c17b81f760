"""README.md's Library section and framelocal.__all__ name one public
surface: every name the section documents imports, and the package exports
nothing the section leaves out. The Python floor pyproject.toml states is
the lowest Python CI tests. The CLI and the test oracles import nothing
outside the standard library, and the benchmark still finds every name it
reaches into the package for."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import framelocal
from fixtures import two_fields_dataset

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _library_names() -> list[str]:
    """The name that starts each bullet of README's Library section, such as
    "run", "Trace.points" or "model.EPOCH"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([A-Za-z_][\w.]*)", section, re.MULTILINE)


def _resolve(dotted: str) -> object:
    """The object a dotted name under framelocal refers to, importing
    submodules on the way."""
    target = framelocal
    for part in dotted.split("."):
        if inspect.ismodule(target) and not hasattr(target, part):
            importlib.import_module(f"{target.__name__}.{part}")
        target = getattr(target, part)
    return target


def test_every_library_name_imports():
    names = _library_names()
    assert len(names) == len(set(names)), "a name is documented twice"
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert not unresolved


def test_all_names_nothing_the_library_section_leaves_out():
    assert sorted(set(framelocal.__all__) - set(_library_names())) == []


def _version(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(".")))


def test_requires_python_floor_is_the_lowest_python_ci_tests():
    with open(ROOT / "pyproject.toml", "rb") as file:
        requires = tomllib.load(file)["project"]["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+\.\d+)", requires)
    assert floor, f"requires-python {requires!r} is not one >= floor"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^ *python-version: \[(.*)\]$", workflow, re.MULTILINE)
    tested = [_version(entry.strip().strip("'\"")) for entry in matrix[1].split(",")]
    assert min(tested) == _version(floor[1])


# imports the module argv[2] with argv[1] first on the path, then prints the
# sorted top-level names it loaded that are neither its own nor the
# standard library's
_IMPORT_PROBE = """\
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
__import__(sys.argv[2])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - {sys.argv[2].partition(".")[0]} - set(sys.stdlib_module_names)))
"""


# The package is stdlib-only, so importing the CLI from src/ loads no
# top-level module but framelocal and the standard library's. The test
# oracles check the package, so they may not share its code: with src/ off
# the path (-I ignores PYTHONPATH and leaves the working directory off
# sys.path), importing tests/oracles.py loads no framelocal module either.
@pytest.mark.parametrize("flags, path, module", [
    ((), "src", "framelocal.cli"),
    (("-I",), "tests", "oracles"),
], ids=["cli", "oracles"])
def test_imports_nothing_outside_the_standard_library(flags, path, module):
    proc = subprocess.run([sys.executable, *flags, "-c", _IMPORT_PROBE,
                           str(ROOT / path), module],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _bench_constant(script: str, name: str) -> object:
    """The literal bound to name at the top level of bench/<script>, read
    from its source, so nothing is imported from or written under bench/."""
    tree = ast.parse((ROOT / "bench" / script).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/{script} binds no {name}")


def _bench_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_benchmark_tracer_wraps_every_name_it_names(tmp_path):
    """The traced benchmark run replaces the names of bench/tracer.py's
    WRAPPED in the package's modules; a name that moved is missing there."""
    frames, traces, _, _ = two_fields_dataset(tmp_path)
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         "--frames", str(frames), "--traces", str(traces), "--out", str(tmp_path / "out"),
         "--plot", str(tmp_path / "overlay.svg")],
        capture_output=True, text=True, cwd=tmp_path, env=_bench_env())
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(spans.read_text(encoding="utf-8"))
    assert dump["missing"] == []
    calls = Counter(span[0] for span in dump["spans"])
    assert [name for _, _, name in _bench_constant("tracer.py", "WRAPPED")
            if not calls[name]] == []
    # each frame's projection is set up once, and each frame line solves one
    # geodesic inverse
    assert calls["geodesy.hom_setup"] == calls["geodesy.geodesic_inverse"] == 2


def test_benchmark_setup_probe_runs(tmp_path):
    frames, _, _, _ = two_fields_dataset(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _bench_constant("run.py", "_SETUP_PROBE"),
         str(frames)],
        capture_output=True, text=True, cwd=tmp_path, env=_bench_env())
    assert proc.returncode == 0, proc.stderr
