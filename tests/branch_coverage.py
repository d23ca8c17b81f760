"""Run the test suite under a branch tracer. List each executable line of
src/framelocal that never runs, and each branch of it that went one way
only; exit 1 if there is one or a test fails.

Usage, from the repository root, with pytest's arguments after the script:

    PYTHONPATH=src python tests/branch_coverage.py -q --hypothesis-seed=0

A branch is a conditional jump or a FOR_ITER: a test goes both ways when
it is true once and false once, and a loop when it takes an item once and
ends once. The tracer asks for an event per instruction of each
src/framelocal frame (frame.f_trace_opcodes) and records the instruction
that ran after each branch. Two kinds of jump are not branches of the
source, and the script skips them by rule:
- the type test of an `except` clause: an exception that it does not
  match propagates by design
- code that the compiler adds to leave a block: the test of `__exit__`'s
  result when a `with` body raises, and each copy of a `finally` body
  after the first (the normal path's), which is judged alone
Every other branch that the tests cannot take both ways is a gap.

The tests start the console entry point only in child processes, which the
tracer does not follow, so the script also runs `python -m framelocal --help`
in its own process. Opcode events are how Python 3.11 reports each
instruction; the script needs nothing beyond the standard library and
pytest.
"""

import ast
import contextlib
import dis
import io
import runpy
import sys
from collections.abc import Callable, Iterable
from pathlib import Path
from types import CodeType, FrameType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "framelocal"

# what a conditional jump's test was when it went on to the next
# instruction and when it jumped, by the opcode name's part after "IF_"
_WENT_ON_JUMPED = {"TRUE": ("false", "true"), "FALSE": ("true", "false"),
                   "NONE": ("not None", "None"), "NOT_NONE": ("None", "not None")}


def code_objects(code: CodeType) -> Iterable[CodeType]:
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code of a source file runs on."""
    return {line for code in code_objects(compile(path.read_bytes(), str(path), "exec"))
            for _, _, line in code.co_lines() if line is not None}


def finally_lines(path: Path) -> set[int]:
    """The line numbers of the `finally` bodies of a source file."""
    return {line for node in ast.walk(ast.parse(path.read_bytes()))
            if isinstance(node, ast.Try)
            for statement in node.finalbody
            for line in range(statement.lineno, statement.end_lineno + 1)}


def _where(branch: dis.Instruction, test: dis.Instruction) -> dis.Positions:
    """The source span a report names a branch by: that of the instruction
    before it, which computes its test, joined with its own on one line."""
    mine, its = branch.positions, test.positions
    if its.col_offset is None:
        return mine
    if (mine.col_offset is not None
            and mine.lineno == mine.end_lineno == its.lineno == its.end_lineno):
        return dis.Positions(mine.lineno, mine.lineno, min(mine.col_offset, its.col_offset),
                             max(mine.end_col_offset, its.end_col_offset))
    return its


def branches(code: CodeType, in_finally: set[int]
             ) -> dict[int, tuple[dis.Positions, dict[int, str]]]:
    """The branches of code that the rule keeps: the offset at which the
    tracer reports each (that of its EXTENDED_ARG prefix, if it has one) ->
    (its source span, {offset of the instruction after it: what that
    means})."""
    found: dict[int, tuple[dis.Positions, dict[int, str]]] = {}
    judged = set()  # (source span, opcode name) of each branch on a finally line
    start = previous = None  # the offset of an EXTENDED_ARG prefix; the instruction before
    instructions = list(dis.get_instructions(code))
    for instruction, following in zip(instructions, instructions[1:]):
        name = instruction.opname
        if name == "EXTENDED_ARG":
            start = instruction.offset if start is None else start
            continue
        if name == "FOR_ITER":
            meanings = ("took an item", "ended")
            where = _where(instruction, previous)
        elif ("JUMP" in name and "_IF_" in name
              and previous.opname not in ("CHECK_EXC_MATCH", "WITH_EXCEPT_START")):
            meanings = _WENT_ON_JUMPED[name.split("IF_")[1].removesuffix("_OR_POP")]
            where = _where(instruction, previous)
            if where.lineno in in_finally:
                meanings = None if (where, name) in judged else meanings
                judged.add((where, name))
        else:
            meanings = None
        if meanings is not None:
            found[instruction.offset if start is None else start] = (where, {
                following.offset: meanings[0], instruction.argval: meanings[1]})
        start, previous = None, instruction
    return found


def record(paths: Iterable[Path], run: Callable[[], object]
           ) -> tuple[object, dict[Path, set[int]], dict[CodeType, dict[int, set[int]]]]:
    """run() under the tracer: its result, the lines of each source file in
    paths that ran, and for each code object of theirs that ran, the
    offsets that ran after each of its branches. A tracer set before is
    restored after."""
    hits: dict[Path, set[int]] = {path.resolve(): set() for path in paths}
    in_finally = {path: finally_lines(path) for path in hits}
    files: dict[str, Path | None] = {}  # a code object's file -> its path in hits
    after: dict[CodeType, dict[int, set[int]]] = {}  # code -> branch -> offsets run after
    # per frame of paths: [its file's hit set, its code's branches in after,
    # the offsets run after the branch that ran last, or None]
    frames: dict[FrameType, list] = {}

    def trace(frame, event, arg):
        if event == "opcode":
            state = frames[frame]
            if state[2] is not None:
                state[2].add(frame.f_lasti)
            state[2] = state[1].get(frame.f_lasti)
        elif event == "line":
            frames[frame][0].add(frame.f_lineno)
        elif event == "call":
            code = frame.f_code
            if code.co_filename not in files:
                path = Path(code.co_filename).resolve()
                files[code.co_filename] = path if path in hits else None
            path = files[code.co_filename]
            if path is None:
                return None
            if code not in after:
                after[code] = {offset: set() for offset in branches(code, in_finally[path])}
            hits[path].add(frame.f_lineno)  # the line a frame starts on
            frames[frame] = [hits[path], after[code], None]
            frame.f_trace_opcodes = True
            return trace
        elif event == "exception":
            # what runs next is a handler, not a branch's way; a FOR_ITER
            # whose iterator raised StopIteration ended, and goes on
            if not issubclass(arg[0], StopIteration):
                frames[frame][2] = None
        else:  # return, also from a generator that yields
            del frames[frame]
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, hits, after


def gaps(hits: dict[Path, set[int]], after: dict[CodeType, dict[int, set[int]]]
         ) -> list[str]:
    """A line for each executable line that never ran, then one for each
    branch whose line ran but which went one way only or never ran,
    starting "<file name>:<line> <the branch's source text>"."""
    missed = [f"{path}:{line} never ran" for path, hit in sorted(hits.items())
              for line in sorted(executable_lines(path) - hit)]
    sources = {path: (path.read_text(encoding="utf-8").splitlines(), finally_lines(path))
               for path in hits}
    one_sided = []
    for code, outcomes in after.items():
        path = Path(code.co_filename).resolve()
        text, in_finally = sources[path]
        for offset, (where, meanings) in branches(code, in_finally).items():
            seen = outcomes[offset]
            if len(seen) == 2 or where.lineno not in hits[path]:
                continue  # both ways, or a line reported as never run
            source = text[where.lineno - 1]
            segment = (source[where.col_offset:where.end_col_offset]
                       if where.end_lineno == where.lineno else source[where.col_offset:])
            how = ", ".join(f"was {meanings.get(o, f'followed by offset {o}')} each time"
                            for o in seen) or "never ran"
            one_sided.append((f"{path.name}:{where.lineno} {segment.strip()}", how))
    return missed + [f"{key}: {how}" for key, how in sorted(one_sided)]


def _run_tests_and_help(pytest_args: list[str]) -> tuple[int, object]:
    """pytest's exit status, then `python -m framelocal --help`'s."""
    status = pytest.main(pytest_args)
    sys.argv = ["framelocal", "--help"]
    help_status = None  # stays None if the entry point does not exit
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("framelocal", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        help_status = exc.code
    return int(status), help_status


def main(pytest_args: list[str]) -> int:
    (status, help_status), hits, after = record(
        PACKAGE.glob("*.py"), lambda: _run_tests_and_help(pytest_args))
    found = gaps(hits, after)
    for line in found:
        print(line)
    print(f"{len(found)} gaps in {PACKAGE} (lines never run, branches that went one "
          f"way only); pytest exit status {status}; "
          f"`python -m framelocal --help` exit status {help_status}")
    return int(bool(found) or status != 0 or help_status != 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
