"""Print what falsiflow answers on every operation of the four benchmark workloads, and on a few more.

    python3 tools/same_answers.py --src PATH --seeds 1 2 3 901

For each seed, the inputs of the workloads of ``bench/workloads.py`` are
generated under a temporary directory; then falsiflow is imported from PATH, a
``src`` directory, and ``falsiflow.cli.main`` runs each operation in this
process.  Each workload's operations are followed by those of the sets below,
which no workload runs, on the same inputs:

- ``semi-test``: ``test --stat semi --B 2000 --format csv`` on the data and
  seed of each ``semi-invert`` operation, and on its model at the grid's first
  or last eta.  The CSV lists every replicate, so it shows a change of T or
  lambda that invert's B = 2 hides;
- ``semi-check``: ``check --data`` on the same data and models, whose report
  holds the dual certificate: lambda, the iteration count and the minimizers;
- ``custom-escape``: ``check --dist`` on the first ``large-check`` instance
  with every label rewritten to need JSON escaping (a quote, a backslash, a
  control character and non-ASCII text), once with its own, compatible P and
  once with P's first label moved to one the model does not list, which
  falsifies it.  The workloads' labels are ASCII, so only this set shows the
  quoting of ``check``'s output;
- ``entry-simulate`` and ``custom-simulate``: ``simulate --n 500`` under each
  selection rule, on each ``entry-invert`` model and on the first
  ``large-check`` model, a ``custom`` spec.

After the workloads of each seed, the ``load-errors`` set runs ``check`` on
small malformed inputs of its own (:data:`LOAD_ERRORS`), each an input error
whose stderr shows which check refused it and in what words.

One line is printed per operation: name, seed, index, exit code, and the
sha256 of its --out file ("-" when it wrote none) and of its stderr.
The temporary directory's path is replaced by "<work>" before hashing, so two
source trees give the same answers when their printed lines are equal:

    diff <(python3 tools/same_answers.py --src old/src --seeds 1) \\
         <(python3 tools/same_answers.py --src src --seeds 1)

``tests/same_answers.txt`` holds the listing of seeds 1, 2, 3 and 901 under a
``--header`` line, and ``tests/test_same_answers.py`` compares it with this
tree's; a change of answer made on purpose rewrites it:

    python3 tools/same_answers.py --src src --seeds 1 2 3 901 --header > tests/same_answers.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)


#: ``simulate``'s selection rules, named here so that any source tree can be listed
RULES = ("first", "uniform-random")

#: Appended to every label of the ``custom-escape`` checks
ESCAPE = ' "q\\\x01é😀'

#: The parts of the valid specs and distribution the ``load-errors`` set spoils
CUSTOM_G = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["a", "b"]}}
HALVES = {"support": ["u1", "u2"], "mass": [1, 1], "denominator": 2}
MOMENT_INEQUALITY = {"outcomes": ["a", "b"], "phi": [[0.0], [1.0]], "grid": [[-1.0], [2.0]]}
P = {"support": ["a"], "mass": [1], "denominator": 1}


def custom(g=CUSTOM_G, nu=HALVES) -> dict:
    return {"model": "custom", "params": {"correspondence": g, "nu": nu}}


#: The ``load-errors`` set: (model spec, distribution) pairs, each malformed in one place
LOAD_ERRORS = [
    (custom(dict(CUSTOM_G, latent=["u1", "u2", "u1"])), P),
    (custom(dict(CUSTOM_G, outcomes=["a", "b", "b"])), P),
    (custom(nu={"support": ["u1", "u1"], "mass": [1, 1], "denominator": 2}), P),
    (custom(), {"support": ["a", "a"], "mass": [1, 1], "denominator": 2}),
    (custom(), {"support": ["a", "a"], "mass": [-1, 2], "denominator": 1}),
    (custom(), {"support": [1, "1"], "mass": [1, 1], "denominator": 2}),
    ({"model": "pilot", "params": {"eta": 0.5, "epsilon_grid": [-1.5, -0.5, -0.5, 0.5, 1.5]}}, P),
    ({"model": "moment_inequality", "params": dict(MOMENT_INEQUALITY, outcomes=["a", "a"])}, P),
    ({"model": "moment_inequality", "params": dict(MOMENT_INEQUALITY, grid=[[-1.0], [2.0], [2.0]])}, P),
]


def digest(text: str | None, work: str) -> str:
    if text is None:
        return "-"
    return hashlib.sha256(text.replace(work, "<work>").encode()).hexdigest()


def flag(op, name: str) -> str:
    return op.argv[op.argv.index(name) + 1]


def extra_ops(name: str, ops: list, work: Path, seed: int) -> list:
    """(name, argv, out) of the operations that ``ops``, workload ``name``'s, leave out."""
    if name == "semi-invert":
        tests, checks = [], []
        for k, op in enumerate(ops):
            # at the grid's first or last eta, which lie outside the region the data are drawn
            # from, T > 0; inside it T and every replicate are 0
            spec = json.loads(Path(flag(op, "--model")).read_text())
            spec["params"]["eta"] = workloads.SEMI_ETAS[0 if k % 2 == 0 else -1]
            model = work / f"semi-test{k}.json"
            model.write_text(json.dumps(spec))
            out = work / f"semi-test{k}.out"
            tests.append(("semi-test", ["test", "--model", str(model), "--data", flag(op, "--data"),
                                        "--stat", "semi", "--B", "2000", "--format", "csv",
                                        "--seed", flag(op, "--seed"), "--out", str(out)], out))
            out = work / f"semi-check{k}.out"
            checks.append(("semi-check", ["check", "--model", str(model), "--data", flag(op, "--data"),
                                          "--out", str(out)], out))
        return tests + checks
    if name == "entry-invert":
        label, models = "entry-simulate", dict.fromkeys(flag(op, "--model") for op in ops)
    elif name == "large-check":
        label, models = "custom-simulate", [flag(ops[0], "--model")]
    else:
        return []
    simulations = [(label, ["simulate", "--model", model, "--n", "500", "--rule", rule, "--seed", str(seed),
                            "--out", str(work / f"simulate{k}-{rule}.csv")],
                    work / f"simulate{k}-{rule}.csv")
                   for k, model in enumerate(models) for rule in RULES]
    return (escaped_checks(ops[0], work) if name == "large-check" else []) + simulations


def escaped_checks(op, work: Path) -> list:
    """(name, argv, out) of the two ``custom-escape`` checks on ``op``'s instance."""
    spec = json.loads(Path(flag(op, "--model")).read_text())
    g, nu = spec["params"]["correspondence"], spec["params"]["nu"]
    g["latent"] = nu["support"] = [u + ESCAPE for u in g["latent"]]
    g["outcomes"] = [y + ESCAPE for y in g["outcomes"]]
    g["G"] = {u + ESCAPE: [y + ESCAPE for y in ys] for u, ys in g["G"].items()}
    model = work / "escape.json"
    model.write_text(json.dumps(spec))
    p = json.loads(Path(flag(op, "--dist")).read_text())
    p["support"] = [y + ESCAPE for y in p["support"]]
    extras = []
    for k in range(2):
        if k:  # its mass now sits on a label the model does not list
            p["support"][0] = "unlisted" + ESCAPE
        dist, out = work / f"escape{k}-p.json", work / f"escape{k}.out"
        dist.write_text(json.dumps(p))
        extras.append(("custom-escape", ["check", "--model", str(model), "--dist", str(dist),
                                         "--out", str(out)], out))
    return extras


def load_errors(work: Path) -> list:
    """(argv, out) of the ``load-errors`` checks, their inputs written under ``work``."""
    work.mkdir(parents=True)
    checks = []
    for k, (spec, p) in enumerate(LOAD_ERRORS):
        model, dist = work / f"error{k}.json", work / f"error{k}-p.json"
        model.write_text(json.dumps(spec))
        dist.write_text(json.dumps(p))
        checks.append((["check", "--model", str(model), "--dist", str(dist)], work / f"error{k}.out"))
    return checks


def run(cli, argv: list[str], out: Path, work: Path) -> tuple:
    """``cli.main(argv)``'s exit code, and the digests of ``out`` and of its stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the flags
            code = exc.code
        except Exception as exc:  # an escaped traceback is an answer too
            code = type(exc).__name__
    text = out.read_text() if out.exists() else None
    return code, digest(text, str(work)), digest(stderr.getvalue(), str(work))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src directory to import falsiflow from")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--header", action="store_true",
                        help="first print a comment line naming the Python, numpy and scipy versions and the machine")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import falsiflow
    from falsiflow import cli

    if Path(falsiflow.__file__).resolve().parent != src / "falsiflow":
        print(f"error: falsiflow imported from {falsiflow.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.header:
        print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
              f"scipy {scipy.__version__}, {platform.system()} {platform.machine()}")
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                work = Path(tmp) / f"{name}-{seed}"
                ops = workloads.generate(name, seed, work)
                for k, op in enumerate(ops):
                    print(name, seed, k, *run(cli, op.argv, op.out, work))
                index = Counter()  # each set numbers its own operations
                for extra, argv, out in extra_ops(name, ops, work, seed):
                    print(extra, seed, index[extra], *run(cli, argv, out, work))
                    index[extra] += 1
            work = Path(tmp) / f"load-errors-{seed}"
            for k, (argv, out) in enumerate(load_errors(work)):
                print("load-errors", seed, k, *run(cli, argv, out, work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
