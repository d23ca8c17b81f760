"""The branch gate of tests/branch_coverage.py, on a sample module whose
branches are known: it reports the one `if` that goes one way only, and
nothing that its rule skips."""

import importlib.util
import sys
from pathlib import Path

import pytest

import branch_coverage

# the gate reads Python 3.11's bytecode, and CI runs it on 3.11 alone
pytestmark = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                reason="the branch gate reads Python 3.11 bytecode")

SAMPLE = """\
def sample(items, path):
    total = 0
    for item in items:
        if item > 0:
            total += item
    try:
        int(path.name)
    except ValueError:
        total -= 1
    with open(path) as handle:
        handle.read()
    try:
        total *= 2
    finally:
        if items:
            total += 1
    return total


def long_branch(flag):
    if flag:
""" + "        flag += 1\n" * 300 + """\
    return flag
"""


def _record(tmp_path, calls):
    """Import the sample module and run calls(module) under the tracer;
    return the recording's lines and branches."""
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "data.txt").write_text("x", encoding="utf-8")

    def run():
        spec = importlib.util.spec_from_file_location("sample", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        calls(module)

    before = sys.gettrace()
    _, hits, after = branch_coverage.record([path], run)
    assert sys.gettrace() is before
    return hits, after


def _calls(module):
    data = Path(module.__file__).with_name("data.txt")
    module.sample([1, 2], data)
    module.sample([], data)
    module.long_branch(True)
    module.long_branch(False)


def test_reports_exactly_the_one_way_if(tmp_path):
    hits, after = _record(tmp_path, _calls)
    # the loop takes an item and ends; the except clause's type test always
    # matches and the with block's __exit__ never runs on an exception, but
    # the rule skips both; the finally body's copy on the exception path
    # never runs, and only the normal path's is judged; the jump over 300
    # lines has an EXTENDED_ARG prefix
    assert branch_coverage.gaps(hits, after) == [
        "sample.py:4 item > 0: was true each time"]


def test_lines_that_never_ran_are_reported(tmp_path):
    hits, after = _record(tmp_path, lambda module: module.long_branch(False))
    gaps = branch_coverage.gaps(hits, after)
    assert gaps[0] == f"{tmp_path.resolve() / 'sample.py'}:2 never ran"
    assert f"{tmp_path.resolve() / 'sample.py'}:22 never ran" in gaps
    assert gaps[-1] == "sample.py:21 flag: was false each time"
