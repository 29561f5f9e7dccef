"""Tests of ``tools/same_answers.py``, the per-operation answer listing, and of
this tree's answers against the committed listing ``tests/same_answers.txt``."""

import difflib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "same_answers.txt"


def bench_work() -> set:
    """What ``bench/run.py`` has left in its work directory."""
    return set((ROOT / "bench" / ".work").glob("**/*"))


def listing(*args: str, cwd: Path) -> list[str]:
    """The lines ``tools/same_answers.py`` prints for this tree's ``src`` with ``args``."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_answers.py"), "--src", str(ROOT / "src"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


def test_lists_every_workload_operation_of_one_seed(tmp_path):
    before = bench_work()
    lines = [line.split() for line in listing("--seeds", "1", cwd=tmp_path)]
    assert len(lines) == 90
    assert all(len(fields) == 6 and fields[1] == "1" for fields in lines)
    assert Counter(fields[0] for fields in lines) == {
        "semi-invert": 12, "entry-invert": 8, "large-check": 19, "ordered-test": 12,
        "semi-test": 12, "semi-check": 12, "custom-escape": 2, "entry-simulate": 2,
        "custom-simulate": 2, "load-errors": 9}
    # the inputs went to a temporary directory, not into the checkout
    assert not list(tmp_path.iterdir()) and bench_work() == before


def test_answers_match_the_committed_listing(tmp_path):
    # a change of answer made on purpose rewrites the file, as tools/same_answers.py says
    (want_header, *want) = GOLDEN.read_text().splitlines()
    (have_header, *have) = listing("--seeds", "1", "2", "3", "901", "--header", cwd=tmp_path)
    if have != want:
        diff = difflib.unified_diff(want, have, GOLDEN.name, "this tree", lineterm="", n=0)
        pytest.fail(f"answers differ from {GOLDEN.name}\ncommitted: {want_header}\n"
                    f"this tree: {have_header}\n" + "\n".join(diff), pytrace=False)
