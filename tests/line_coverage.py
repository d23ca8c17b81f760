"""Run the test suite under a line tracer and list each executable line of
src/framelocal that it never runs; exit 1 if there is one or a test fails.

Usage, from the repository root, with pytest's arguments after the script:

    PYTHONPATH=src python tests/line_coverage.py -q --hypothesis-seed=0

The tests start the console entry point only in child processes, which the
tracer does not follow, so the script also runs `python -m framelocal --help`
in its own process. It needs nothing beyond the standard library and pytest.
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "framelocal"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of a source file runs on."""
    def walk(code: CodeType):
        yield from (line for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                yield from walk(const)
    return set(walk(compile(path.read_bytes(), str(path), "exec")))


def main(pytest_args: list[str]) -> int:
    hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    traced: dict[str, set[int] | None] = {}  # a code object's file -> its hit set

    def local_trace(frame, event, arg):
        if event == "line":
            traced[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in traced:
            traced[filename] = hits.get(Path(filename).resolve())
        if traced[filename] is None:
            return None
        traced[filename].add(frame.f_lineno)  # the line a frame starts on
        return local_trace

    sys.settrace(global_trace)
    try:
        status = pytest.main(pytest_args)
        sys.argv = ["framelocal", "--help"]
        help_status = None  # stays None if the entry point does not exit
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_module("framelocal", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            help_status = exc.code
    finally:
        sys.settrace(None)

    missed = [f"{path}:{line}" for path, hit in sorted(hits.items())
              for line in sorted(executable_lines(path) - hit)]
    print(*missed, sep="\n")
    print(f"{len(missed)} executable lines of {PACKAGE} never ran; pytest exit "
          f"status {int(status)}; `python -m framelocal --help` exit status {help_status}")
    return int(bool(missed) or status != 0 or help_status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
