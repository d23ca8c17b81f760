"""README.md's Library section and framelocal.__all__ name one public
surface: every name the section documents imports, and the package exports
nothing the section leaves out."""

import importlib
import inspect
import re
from pathlib import Path

import framelocal

README = Path(__file__).resolve().parent.parent / "README.md"


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
