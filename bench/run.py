"""Run one benchmark workload of falsiflow and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from the
seed first; then falsiflow is imported from ``src/`` and ``falsiflow.cli.main``
is called in-process, once per operation, with the result written by --out.
Rounds of the workload's fixed operation list repeat until S seconds have been
measured.  Every result is checked after the last round.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics, which are
the end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import CheckFailed
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_SAMPLES = 3


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: a reference for host speed."""
    def once():
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        return time.perf_counter() - start
    return statistics.median(once() for _ in range(5))


def setup_sample() -> float:
    """Time from starting a fresh interpreter until falsiflow.cli, numpy and
    scipy are imported and a first operation could be issued."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import falsiflow.cli; "
            "print('ready', flush=True)")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"importing falsiflow from {SRC} failed")
    return elapsed


def run_rounds(cli_main, ops, seconds: float, tracer: Tracer | None, setup: list | None):
    """Repeat the operation list until ``seconds`` have been measured.

    Returns the operation times as [round][operation] and each operation's
    (exit code, output) from the first round; False in place of the latter
    marks an operation whose output changed between rounds.  When ``setup``
    is a list, a set-up sample is appended to it before each of the first
    SETUP_SAMPLES rounds, so that the samples spread over the run.
    """
    times, first = [], []
    measured = 0.0
    while not times or measured < seconds:
        if setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
        if tracer:
            tracer.start_round()
        row = []
        for k, op in enumerate(ops):
            op.out.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                code = cli_main(op.argv)
            except Exception as exc:        # an escaped traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            row.append(time.perf_counter() - start)
            result = (code, op.out.read_text() if op.out.exists() else None)
            if not times:
                first.append(result)
            elif first[k] != result:
                first[k] = False
        if tracer:
            tracer.end_round()
        times.append(row)
        measured += sum(row)
    return times, first


def check_results(ops, first, cli_main) -> tuple[bool, int]:
    """(correct, failed operations per round)."""
    correct, failed = True, 0
    for op, result in zip(ops, first):
        if result is False:
            print(f"error: {op.argv[0]} {op.out.name}: output differs between rounds", file=sys.stderr)
            correct = False
            continue
        code, text = result
        if not isinstance(code, int) or code == 2 or text is None:
            print(f"failed: {op.argv[0]} {op.out.name}: exit {code}", file=sys.stderr)
            failed += 1
            continue
        try:
            op.check(text, code, cli_main)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            if op.known_fault:
                failed += 1
            else:
                print(f"error: {op.argv[0]} {op.out.name}: {exc}", file=sys.stderr)
                correct = False
    return correct, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if not (SRC / "falsiflow" / "cli.py").is_file():
        print(f"error: no falsiflow sources under {SRC}", file=sys.stderr)
        return 2
    # The CLI's thread count comes from the environment; the workloads
    # measure its default, one thread.
    os.environ.pop("FALSIFLOW_THREADS", None)

    probe_before = host_probe()
    setup = None if args.trace else []
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops = workloads.generate(args.workload, args.seed, work)
        sys.path.insert(0, str(SRC))
        import falsiflow
        from falsiflow import cli
        if Path(falsiflow.__file__).resolve().parent != SRC / "falsiflow":
            print(f"error: falsiflow imported from {falsiflow.__file__}, not {SRC}", file=sys.stderr)
            return 2

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(falsiflow)
        try:
            times, first = run_rounds(cli.main, ops, args.seconds, tracer, setup)
        finally:
            if tracer:
                tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        correct, failed = check_results(ops, first, cli.main)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = len(times)
    # Each operation's time is the median of its repetitions, which keeps
    # bursts of a slow host out of the figures; wall_s sums these over the list.
    op_medians = [statistics.median(column) for column in zip(*times)]
    if tracer:
        layer_metrics, counts_repeat = tracer.metrics()
        layer_metrics["trace.wall_s"] = sum(op_medians)
        if not counts_repeat:
            print("error: a work count differs between rounds", file=sys.stderr)
            correct = False
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(trace_path)
        metrics = {name: {"value": value, "unit": "s" if isinstance(value, float) else "count"}
                   for name, value in layer_metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(op_medians), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_medians), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"host probe: {probe_before:.6f} s before, {host_probe():.6f} s after; "
          f"{rounds} rounds of {len(ops)} operations")
    if tracer:
        print(f"trace: {len(tracer.spans)} spans written to {trace_path}")
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops),
                      "failed": rounds * failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
