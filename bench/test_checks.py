"""Each output checker accepts a real falsiflow result and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from falsiflow import cli  # noqa: E402


def run(op):
    code = cli.main(op.argv)
    return code, op.out.read_text()


def first_op(name, tmp_path, seed=3):
    return workloads.generate(name, seed, tmp_path)[0]


def rejects(op, text, code):
    with pytest.raises((CheckFailed, KeyError, ValueError)):
        op.check(text, code, cli.main)


def test_pvalue_lattice():
    checks.check_pvalue(3 / 5, 4)
    checks.check_pvalue(1.0, 4)
    for bad in (0.5, 0.0, 1.2, 3 / 5 + 1e-12):
        with pytest.raises(CheckFailed):
            checks.check_pvalue(bad, 4)


@pytest.mark.parametrize("falsified", [False, True])
def test_flow_checker(tmp_path, falsified):
    inst = workloads.flow_instance(np.random.default_rng(5), 40, 6, 2, falsified)
    op = workloads.custom_check_op(tmp_path, "flow", inst)
    code, text = run(op)
    assert code == (1 if falsified else 0)
    op.check(text, code, cli.main)
    out = json.loads(text)

    wrong_primal = dict(out, primal=out["primal"] + 1e-9, dual=out["primal"] + 1e-9)
    rejects(op, json.dumps(wrong_primal), code)
    rejects(op, text, 1 - code)
    inadmissible = [u for u, im in zip(inst.latents, inst.images) if 0 not in im][0]
    stray_arc = dict(out, plan=out["plan"] + [[inadmissible, inst.outcomes[0], 1]])
    rejects(op, json.dumps(stray_arc), code)
    heavy_arc = dict(out, plan=[[u, y, m + 1] for u, y, m in out["plan"]])
    rejects(op, json.dumps(heavy_arc), code)
    if falsified:
        short_witness = dict(out, witness=out["witness"][1:] or inst.outcomes[:1])
        rejects(op, json.dumps(short_witness), code)


def test_search_label_fault_is_rejected(tmp_path):
    ops = workloads.large_check(np.random.default_rng(0), tmp_path)
    op = ops[-1]
    assert op.known_fault
    code, text = run(op)
    out = json.loads(text)
    if out["primal"] != 0.0:       # the label fault shows: primal 1.0 on a compatible P
        rejects(op, text, code)
    else:
        op.check(text, code, cli.main)


def test_semi_invert_checker(tmp_path):
    op = first_op("semi-invert", tmp_path)
    code, text = run(op)
    op.check(text, code, cli.main)
    header, *rows = text.splitlines()
    cells = [row.split(",") for row in rows]
    inside = next(c for c in cells if c[0] == "0.5")
    outside = next(c for c in cells if c[0] != "0.5")

    def with_cells(changed):
        return "\n".join([header] + [",".join(changed.get(c[0], c)) for c in cells]) + "\n"

    B, alpha = workloads.SEMI_B, workloads.SEMI_ALPHA

    def cell(eta, k):                       # lattice value (1+k)/(B+1) and its flag
        p = (1 + k) / (B + 1)
        return [eta, repr(p), "true" if p >= alpha else "false"]

    rejects(op, with_cells({"0.5": ["0.5", "0.5", "true"]}), code)              # off the lattice
    rejects(op, with_cells({"0.5": cell("0.5", B - 1)}), code)                  # p < 1 inside
    rejects(op, with_cells({"0.5": ["0.5", inside[1], "false"]}), code)         # accepted flag
    other = next(k for k in range(B + 1) if repr((1 + k) / (B + 1)) != outside[1])
    rejects(op, with_cells({outside[0]: cell(outside[0], other)}), code)        # not what `test` gives


def test_semi_point_checker(tmp_path):
    counts = np.array([650, 350, 350, 650])
    spec = tmp_path / "pilot.json"
    spec.write_text(json.dumps({"model": "pilot", "params": {"eta": 0.15}}))
    data = tmp_path / "d.csv"
    data.write_text("y\n" + "".join(f"{y}\n" for y, c in zip(checks.PILOT_OUTCOMES, counts) for _ in range(c)))
    out = tmp_path / "t.out"
    assert cli.main(["test", "--model", str(spec), "--data", str(data), "--stat", "semi",
                     "--B", "4", "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    checks.check_semi_point(text, report["pvalue"], 0.15, counts, 4)
    assert report["value"] > 0.05
    wrong = dict(report, value=report["value"] + 1e-4)
    with pytest.raises(CheckFailed):
        checks.check_semi_point(json.dumps(wrong), report["pvalue"], 0.15, counts, 4)


def test_entry_invert_checker(tmp_path):
    op = first_op("entry-invert", tmp_path)
    code, text = run(op)
    op.check(text, code, cli.main)
    header, *rows = text.splitlines()
    labels = Path(op.argv[op.argv.index("--data") + 1]).read_text().split()[1:]
    counts = np.array([labels.count(y) for y in checks.ENTRY_OUTCOMES])
    holding = [k for k, row in enumerate(rows) if checks.entry_inequalities_hold(
        checks.entry_equilibrium_sets(*map(float, row.split(",")[:2]), workloads.ENTRY_RESOLUTION), counts)]
    assert holding
    broken = list(rows)
    d1, d2, _, _ = broken[holding[0]].split(",")
    broken[holding[0]] = f"{d1},{d2},{1 / (workloads.ENTRY_B + 1)!r},false"  # on the lattice, not 1
    rejects(op, "\n".join([header] + broken) + "\n", code)
    rejects(op, "\n".join([header] + rows[:-1]) + "\n", code)   # a grid point missing


def test_halfline_checker(tmp_path):
    op = first_op("ordered-test", tmp_path)
    code, text = run(op)
    op.check(text, code, cli.main)
    out = json.loads(text)
    rejects(op, json.dumps(dict(out, value=out["value"] + 1e-9)), code)
    rejects(op, json.dumps(dict(out, witness=out["witness"][1:])), code)
    rejects(op, json.dumps(dict(out, pvalue=out["pvalue"] * 0.999)), code)
    rejects(op, json.dumps(dict(out, seed=out["seed"] + 1)), code)
