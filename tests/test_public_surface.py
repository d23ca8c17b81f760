"""README.md's Library section and framelocal.__all__ name one public
surface: every name the section documents imports, and the package exports
nothing the section leaves out. The Python floor pyproject.toml states is
the lowest Python CI tests."""

import importlib
import inspect
import re
import tomllib
from pathlib import Path

import framelocal

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
