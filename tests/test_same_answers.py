"""Smoke test of ``tools/same_answers.py``, the per-operation answer listing."""

import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_work() -> set:
    """What ``bench/run.py`` has left in its work directory."""
    return set((ROOT / "bench" / ".work").glob("**/*"))


def test_lists_every_workload_operation_of_one_seed(tmp_path):
    before = bench_work()
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_answers.py"), "--src", str(ROOT / "src"), "--seeds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    lines = [line.split() for line in child.stdout.splitlines()]
    assert len(lines) == 78
    assert all(len(fields) == 6 and fields[1] == "1" for fields in lines)
    assert Counter(fields[0] for fields in lines) == {
        "semi-invert": 12, "entry-invert": 8, "large-check": 19, "ordered-test": 12,
        "semi-test": 12, "custom-escape": 2, "entry-simulate": 2, "custom-simulate": 2,
        "load-errors": 9}
    # the inputs went to a temporary directory, not into the checkout
    assert not list(tmp_path.iterdir()) and bench_work() == before
