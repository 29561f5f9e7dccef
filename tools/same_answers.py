"""Print what falsiflow answers on every operation of the four benchmark workloads.

    python3 tools/same_answers.py --src PATH --seeds 1 2 3 901

For each seed, the inputs of the workloads of ``bench/workloads.py`` are
generated under a temporary directory; then falsiflow is imported from PATH, a
``src`` directory, and ``falsiflow.cli.main`` runs each operation in this
process.  One line is printed per operation: workload, seed, index, exit code,
and the sha256 of its --out file ("-" when it wrote none) and of its stderr.
The temporary directory's path is replaced by "<work>" before hashing, so two
source trees give the same answers when their printed lines are equal:

    diff <(python3 tools/same_answers.py --src old/src --seeds 1) \\
         <(python3 tools/same_answers.py --src src --seeds 1)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)


def digest(text: str | None, work: str) -> str:
    if text is None:
        return "-"
    return hashlib.sha256(text.replace(work, "<work>").encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the src directory to import falsiflow from")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import falsiflow
    from falsiflow import cli

    if Path(falsiflow.__file__).resolve().parent != src / "falsiflow":
        print(f"error: falsiflow imported from {falsiflow.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in workloads.WORKLOADS:
                work = Path(tmp) / f"{name}-{seed}"
                for k, op in enumerate(workloads.generate(name, seed, work)):
                    stderr = io.StringIO()
                    with contextlib.redirect_stderr(stderr):
                        try:
                            code = cli.main(op.argv)
                        except SystemExit as exc:  # argparse refused the flags
                            code = exc.code
                        except Exception as exc:  # an escaped traceback is an answer too
                            code = type(exc).__name__
                    out = op.out.read_text() if op.out.exists() else None
                    print(name, seed, k, code, digest(out, str(work)), digest(stderr.getvalue(), str(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
