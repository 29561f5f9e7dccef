import json
import os
import re
import reprlib
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import falsiflow
from falsiflow import correspondence, inference, measure, models, semiparametric, transport
from falsiflow.cli import (MAX_GRID_POINTS, _canonical_counts, build_model, load_data, main,
                           parse_grid, render_json)
from falsiflow.correspondence import Correspondence
from falsiflow.errors import EmptyData, FalsiflowError, SupportMismatch
from falsiflow.measure import FiniteDistribution, empirical, refuse_repeats


ENTRY_SPEC = {"model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0}}

SEARCH_SPEC = {
    "model": "search",
    "params": {
        "nu": {"support": ["e1", "e2"], "mass": [500000000, 500000000], "denominator": 1000000000},
        "alpha": [["e1", 0.5], ["e2", 0.8]],
    },
}

COMPATIBLE_P = {
    "support": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    "mass": [250000000, 375000000, 312500000, 62500000],
    "denominator": 1000000000,
}

INCOMPATIBLE_P = {
    "support": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    "mass": [250000000, 475000000, 212500000, 62500000],
    "denominator": 1000000000,
}


@pytest.fixture
def entry_model(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(ENTRY_SPEC))
    return str(path)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_compatible_exit0(entry_model, tmp_path, capsys):
    dist = write_json(tmp_path, "p.json", COMPATIBLE_P)
    code = main(["check", "--model", entry_model, "--dist", dist])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["compatible"] is True


def _entry_plan(mass_to_10):
    return [["{(0,0)}", "(0,0)", 250000000], ["{(0,1)}", "(0,1)", 312500000],
            ["{(0,1),(1,0)}", "(0,1)", 62500000], ["{(1,0)}", "(1,0)", mass_to_10],
            ["{(1,1)}", "(1,1)", 62500000]]


@pytest.mark.parametrize("dist, code, report", [
    (COMPATIBLE_P, 0, {"compatible": True, "dual": 0.0, "plan": _entry_plan(312500000),
                       "primal": 0.0, "witness": []}),
    (INCOMPATIBLE_P, 1, {"compatible": False, "dual": 0.1, "plan": _entry_plan(212500000),
                         "primal": 0.1, "witness": ["(0,0)", "(0,1)", "(1,1)"],
                         "witness_capacity": 0.6875, "witness_probability": 0.7875}),
], ids=["compatible", "incompatible"])
def test_check_entry_game_golden_bytes(entry_model, tmp_path, dist, code, report):
    out = tmp_path / "out.json"
    assert main(["check", "--model", entry_model, "--dist", write_json(tmp_path, "p.json", dist),
                 "--out", str(out)]) == code
    assert out.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"


# labels with quotes, backslashes, control characters and non-ASCII text, and any text
LABELS = st.text(alphabet='"\\/\n\t\x00\x1f\x7fa é€😀') | st.text()


@given(
    plan=st.lists(st.tuples(LABELS, LABELS, st.integers()), max_size=4),
    witness=st.lists(LABELS, max_size=3),
    compatible=st.booleans(),
)
@example(plan=[], witness=[], compatible=True)
@example(plan=[("u", "y", 10**9)], witness=['\n  "plan": []'], compatible=False)
def test_render_json_matches_json_dumps(plan, witness, compatible):
    obj = {"primal": 0.25, "dual": 0.25, "compatible": compatible, "witness": witness,
           "plan": [list(row) for row in plan]}
    if not compatible:
        obj.update(witness_probability=0.5, witness_capacity=0.25)
    assert render_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_check_incompatible_exit1(entry_model, tmp_path, capsys):
    dist = write_json(tmp_path, "p.json", INCOMPATIBLE_P)
    code = main(["check", "--model", entry_model, "--dist", dist])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["compatible"] is False
    assert "(0,1)" in out["witness"]


def test_check_exit_code_agrees_with_report(entry_model, tmp_path, capsys):
    for blob in (COMPATIBLE_P, INCOMPATIBLE_P):
        dist = write_json(tmp_path, "p.json", blob)
        code = main(["check", "--model", entry_model, "--dist", dist])
        out = json.loads(capsys.readouterr().out)
        assert (code == 0) == out["compatible"]


def test_check_malformed_json_exit2(entry_model, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", "--model", entry_model, "--dist", str(bad)])
    assert code == 2
    assert "bad.json" in capsys.readouterr().err


@pytest.mark.parametrize("denominator", [0, -4, "x"])
def test_check_bad_denominator_exit2(entry_model, tmp_path, capsys, denominator):
    dist = write_json(tmp_path, "p.json", dict(COMPATIBLE_P, denominator=denominator))
    assert main(["check", "--model", entry_model, "--dist", dist]) == 2
    assert "denominator" in capsys.readouterr().err


def test_check_mass_sum_off_denominator_exit2(entry_model, tmp_path, capsys):
    dist = write_json(tmp_path, "p.json", {"support": ["(0,0)", "(0,1)"], "mass": [1, 1],
                                           "denominator": 4})
    assert main(["check", "--model", entry_model, "--dist", dist]) == 2
    assert "sum" in capsys.readouterr().err


@pytest.mark.parametrize("denominator", [4, 1000000000])
@pytest.mark.parametrize("bad", ["1", True, None, [1]])
def test_check_non_numeric_mass_exit2(entry_model, tmp_path, capsys, denominator, bad):
    mass = [bad, 3] if denominator == 4 else [bad, 999999999]
    dist = write_json(tmp_path, "p.json", {"support": ["(0,0)", "(1,1)"], "mass": mass,
                                           "denominator": denominator})
    assert main(["check", "--model", entry_model, "--dist", dist]) == 2
    assert "is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("denominator", [4, 1000000000])
@pytest.mark.parametrize(
    "support", [[["(0,0)"], ["(1,1)"]], "ab", ["(0,0)", True]], ids=["lists", "string", "bool"]
)
def test_check_malformed_support_exit2(entry_model, tmp_path, capsys, denominator, support):
    half = denominator // 2
    dist = write_json(tmp_path, "p.json", {"support": support, "mass": [half, denominator - half],
                                           "denominator": denominator})
    assert main(["check", "--model", entry_model, "--dist", dist]) == 2
    err = capsys.readouterr().err
    assert "support" in err and "Traceback" not in err


def test_check_missing_file_exit2(entry_model, capsys):
    assert main(["check", "--model", entry_model, "--dist", "/nonexistent.json"]) == 2


UNREADABLE = {
    "out-directory": "Is a directory",
    "model-directory": "Is a directory",
    "moments-object": "custom.json: field 'moments' of model 'custom' must be a list of numbers",
    "phi-object": "mi.json: field 'phi' of model 'moment_inequality' must be a list of numbers",
    "infinite-mass": "mass inf is not a finite number",
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_check_unreadable_input_exit2(case, entry_model, tmp_path, capsys):
    model, dist = entry_model, write_json(tmp_path, "p.json", COMPATIBLE_P)
    argv = ["--out", str(tmp_path)] if case == "out-directory" else []
    if case == "model-directory":
        model = str(tmp_path)
    elif case == "moments-object":
        model = write_json(tmp_path, "custom.json", {"model": "custom", "params": {
            "correspondence": {"latent": ["u"], "outcomes": ["a"], "G": {"u": ["a"]}},
            "moments": {"k": 1}}})
    elif case == "phi-object":
        model = write_json(tmp_path, "mi.json", {"model": "moment_inequality", "params": {
            "outcomes": ["a"], "phi": {"x": 1}, "grid": [[1.0]]}})
    elif case == "infinite-mass":
        dist = tmp_path / "inf.json"
        dist.write_text('{"support": ["(0,0)", "(0,1)"], "mass": [Infinity, 0]}')
    assert main(["check", "--model", model, "--dist", str(dist)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and UNREADABLE[case] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--model", "--dist"])
def test_deeply_nested_json_exit2(flag, entry_model, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    dist = write_json(tmp_path, "p.json", COMPATIBLE_P)
    model, dist = (str(deep), dist) if flag == "--model" else (entry_model, str(deep))
    assert main(["check", "--model", model, "--dist", dist]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"


@pytest.mark.parametrize("text", ["", "Unable to allocate 6.71 GiB for an array with shape (900000000,)"])
def test_out_of_memory_exit2(text, entry_model, tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError(text)

    monkeypatch.setattr(models, "uniform_grid_2d", exhausted)
    dist = write_json(tmp_path, "p.json", COMPATIBLE_P)
    assert main(["check", "--model", entry_model, "--dist", dist]) == 2
    assert capsys.readouterr().err == f"error: {text or 'out of memory'}\n"


def test_invert_malformed_model_json_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    code = main(["invert", "--model", str(bad), "--data", str(data), "--grid", "delta1=0:1:1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad.json" in err and "Traceback" not in err


def test_check_missing_param_names_field_and_file(tmp_path, capsys):
    spec = write_json(tmp_path, "entry.json", {"model": "entry_game", "params": {"delta2": -1.0}})
    dist = write_json(tmp_path, "p.json", COMPATIBLE_P)
    code = main(["check", "--model", spec, "--dist", dist])
    err = capsys.readouterr().err
    assert code == 2
    assert "delta1" in err and "entry.json" in err


@pytest.mark.parametrize("command", ["check", "invert"])
@pytest.mark.parametrize(
    "spec", [[1], {"model": "entry_game", "params": [1]}], ids=["list", "params-list"]
)
def test_malformed_spec_exit2(command, spec, tmp_path, capsys):
    path = write_json(tmp_path, "spec.json", spec)
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    argv = ["--model", path, "--data", str(data)]
    if command == "invert":
        argv += ["--grid", "delta1=-1:-1:1"]
    code = main([command] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "spec.json" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,flag",
    [("check", "--format"), ("check", "--seed"), ("simulate", "--format"), ("invert", "--format")],
)
def test_ignored_flags_are_rejected(command, flag, entry_model, tmp_path):
    value = "csv" if flag == "--format" else "1"
    argv = {
        "check": ["check", "--model", entry_model, "--dist", "p.json"],
        "simulate": ["simulate", "--model", entry_model, "--n", "5"],
        "invert": ["invert", "--model", entry_model, "--data", "d.csv", "--grid", "delta1=0:1:1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["test", "simulate", "invert"])
def test_negative_seed_names_flag_and_value(command, entry_model, capsys):
    argv = {
        "test": ["test", "--model", entry_model, "--data", "d.csv"],
        "simulate": ["simulate", "--model", entry_model, "--n", "5"],
        "invert": ["invert", "--model", entry_model, "--data", "d.csv", "--grid", "delta1=-1:-1:1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"falsiflow {command}: error: argument --seed: must be a non-negative integer, not -1\n")


def test_check_semiparametric_model(tmp_path, capsys):
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    dist = write_json(
        tmp_path,
        "p.json",
        {
            "support": ["(0,-1)", "(0,1)", "(1,-1)", "(1,1)"],
            "mass": [150000000, 350000000, 350000000, 150000000],
            "denominator": 1000000000,
        },
    )
    code = main(["check", "--model", model, "--dist", dist])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["compatible"] is True


def test_check_empty_moment_set_exit2(tmp_path, capsys):
    # m1(u) > 0 at every latent node, so no latent distribution has E[m1] = 0
    g = {"latent": ["u1", "u2"], "outcomes": ["a"], "G": {"u1": ["a"], "u2": ["a"]}}
    spec = write_json(tmp_path, "custom.json",
                      {"model": "custom", "params": {"correspondence": g, "moments": [[1.0, 2.0]]}})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1000000000]})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == (
        "error: no latent distribution on the grid satisfies the moment restrictions; "
        "the dual is unbounded\n"
    )


def test_check_point_identified_custom_model_matches_max_flow(tmp_path, capsys):
    # moments 1{u = u_j} - nu_j pin the latent distribution to nu, so T is the
    # zero-one transport value; HiGHS once stopped here at a primal residual
    # of 2.9e-9 and the command ended in exit 2
    latents = [f"u{j}" for j in range(5)]
    nu = [53571428, 303571428, 250000000, 35714285, 357142859]
    g = {"latent": latents, "outcomes": ["y0", "y1", "y2"],
         "G": dict(zip(latents, [["y2"], ["y0"], ["y2"], ["y0", "y1"], ["y1"]]))}
    moments = [[float(k == j) - nu[j] / 1e9 for k in range(5)] for j in range(4)]
    spec = write_json(tmp_path, "custom.json",
                      {"model": "custom", "params": {"correspondence": g, "moments": moments}})
    p = {"support": ["y2", "y0", "y1"], "mass": [285714286, 357142857, 357142857]}
    dist = write_json(tmp_path, "p.json", p)
    assert main(["check", "--model", spec, "--dist", dist]) == 1
    t = json.loads(capsys.readouterr().out)["T"]
    flow = transport.solve_zero_one(
        FiniteDistribution.from_json(p), FiniteDistribution(tuple(latents), tuple(nu)),
        Correspondence.from_json(g))
    assert flow.primal_value == 0.017857144
    assert abs(t - flow.primal_value) <= 1e-9


def test_check_search_model_reads_numeric_labels(tmp_path, capsys):
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    dist = write_json(
        tmp_path,
        "p.json",
        {"support": ["0.0", "0.5", "0.8"], "mass": [200000000, 400000000, 400000000],
         "denominator": 1000000000},
    )
    code = main(["check", "--model", model, "--dist", dist])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["primal"] == 0.0


def test_search_label_spelling_gives_one_verdict(tmp_path, capsys):
    # "0.50" is the outcome 0.5 of the search model under every command
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    runs = [["check"], ["test", "--stat", "tv-core"], ["test", "--stat", "tn-halflines"]]
    for command in runs:
        outputs = []
        for text in ("0.5", "0.50"):
            data = tmp_path / f"data-{text}.csv"
            data.write_text(f"y\n{text}\n0.0\n")
            argv = command[:1] + ["--model", model, "--data", str(data)] + command[1:]
            assert main(argv + (["--B", "5"] if command[0] == "test" else [])) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[0].get("primal", outputs[0].get("value")) == 0.0


@pytest.mark.parametrize("command", ["check", "test"])
@pytest.mark.parametrize("label, message", [("high", "'high'"), ("nan", "NaN")])
def test_search_non_numeric_label_exit2(tmp_path, capsys, command, label, message):
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    data = tmp_path / "data.csv"
    data.write_text(f"y\n0.5\n{label}\n{label}\n")
    assert main([command, "--model", model, "--data", str(data)]) == 2
    assert message in capsys.readouterr().err


def listed_sample(path, outcome_support, count):
    """The data read as a list of labels, each label read on its own, and
    then counted by ``count``: the reference for counting the text once."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != "y":
        raise FalsiflowError(f"{path}:1: expected a single-column CSV with header 'y'")
    labels = [line for line in lines[1:] if line]
    if not labels:
        raise EmptyData(f"{path}: no observations below the header 'y'")
    if all(isinstance(y, float) for y in outcome_support):
        for lab in labels:
            try:
                float(lab)
            except ValueError:
                raise FalsiflowError(f"{path}: the model's outcomes are numbers, and the label {lab!r} "
                                     "does not read as one") from None
        labels = [float(lab) for lab in labels]
        if any(v != v for v in labels):
            raise FalsiflowError(f"{path}: the model's outcomes are numbers, and a label is NaN")
    else:
        by_text = {str(y): y for y in outcome_support}
        labels = [by_text.get(lab, lab) for lab in labels]
    return count(labels)


def outcome_or_error(read):
    try:
        return read()
    except (FalsiflowError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text", [
    "y\r\n0.5\r\n0.2\r\n0.5\r\n", "y\n0.5\n\n0.2\n\n\n0.5\n", "y\n0.5\n0.2", "y\r0.2\r0.5",
    "y\n0.5 \n0.2\n0.5\n0.5 \n", "y\n0.2\n0.50\n0.5\n0.2\n0.8\n0.50\n", "y\n0.5\nnan\n0.2\n",
    "y\n0.5\nnan\nhigh\n", "y\n0.5\nhigh\nnan\n", "y\n", "y", "", "\n", "y \n0.5\n",
    "y\n(0,1)\n(1,0)\n(0,1) \n\n(0,1)\n",
], ids=["crlf", "blank-lines", "no-final-newline", "cr", "trailing-spaces", "merge-order", "nan",
        "nan-then-text", "text-then-nan", "header-only", "header-no-newline", "empty",
        "blank-header", "spaced-header", "text-labels"])
@pytest.mark.parametrize("spec", [SEARCH_SPEC, ENTRY_SPEC], ids=["numbers", "text"])
def test_data_counted_once_as_text_matches_the_listed_labels(text, spec, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    g, _ = build_model(spec)
    support = g.outcome_support
    for count in (inference.tally, empirical):
        got = outcome_or_error(lambda: count(_canonical_counts(load_data(str(path)), support, str(path))))
        want = outcome_or_error(lambda: listed_sample(str(path), support, count))
        if isinstance(want, inference.Sample):
            assert got.n == want.n and got.p_n == want.p_n and got.support == want.support
            assert np.array_equal(got.probs, want.probs)
            assert np.array_equal(got.base_counts, want.base_counts)
        else:
            assert got == want


@pytest.mark.parametrize("spec, dist, message", [
    (ENTRY_SPEC, {"support": ["a", "b", "c"], "mass": [-0.5, 0.5, 1000000000]},
     "{dist}: mass -0.5 is negative"),
    (ENTRY_SPEC, {"support": ["a", "b"], "mass": [0.7, 999999999.3]},
     "{dist}: mass 0.7 is not a whole number at denominator 1000000000"),
    (SEARCH_SPEC, {"support": ["0.5", "0.0", "0.50"], "mass": [250000000, 500000000, 250000000]},
     "{dist}: labels '0.5' and '0.50' both read as the outcome 0.5"),
], ids=["negative-mass", "fractional-mass", "labels-of-one-outcome"])
def test_check_dist_names_the_faulty_mass_or_labels(spec, dist, message, tmp_path, capsys):
    model = write_json(tmp_path, "model.json", spec)
    path = write_json(tmp_path, "d.json", dist)
    assert main(["check", "--model", model, "--dist", path]) == 2
    assert capsys.readouterr().err == f"error: {message.format(dist=path)}\n"


@pytest.mark.parametrize("command", ["check-data", "check-dist", "test", "invert"])
def test_label_that_is_not_a_number_on_numeric_outcomes_exit2(command, tmp_path, capsys):
    # a search spec has no numeric field to grid, so invert grids a field it ignores
    model = write_json(tmp_path, "search.json", dict(SEARCH_SPEC, params=dict(SEARCH_SPEC["params"], x=0)))
    data = tmp_path / "data.csv"
    data.write_text("y\n0.5\nhigh\n0.0\n")
    dist = write_json(tmp_path, "p.json", {"support": ["0.5", "high"], "mass": [1, 1], "denominator": 2})
    argv = {
        "check-data": ["check", "--data", str(data)],
        "check-dist": ["check", "--dist", dist],
        "test": ["test", "--data", str(data), "--stat", "tn-halflines", "--B", "5"],
        "invert": ["invert", "--data", str(data), "--stat", "tn-halflines", "--B", "5", "--grid", "x=0:0:1"],
    }[command]
    assert main(argv + ["--model", model]) == 2
    assert capsys.readouterr().err == (
        f"error: {dist if command == 'check-dist' else data}: the model's outcomes are numbers, "
        "and the label 'high' does not read as one\n")


def test_label_beyond_a_double_on_numeric_outcomes_exit2(tmp_path, capsys):
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    dist = tmp_path / "p.json"
    dist.write_text('{"support": [0.5, 1%s], "mass": [1, 1], "denominator": 2}' % ("0" * 400))
    assert main(["check", "--model", model, "--dist", str(dist)]) == 2
    assert capsys.readouterr().err == (
        f"error: {dist}: the model's outcomes are numbers, and the label {reprlib.repr(10**400)} "
        "does not read as one\n")


@pytest.mark.parametrize("key", ["latent", "outcomes"])
def test_custom_spec_repeated_label_exit2(tmp_path, capsys, key):
    g = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["a", "b"]}}
    g[key] = g[key] + g[key][-1:]
    spec = write_json(tmp_path, "custom.json", {"model": "custom", "params": {
        "correspondence": g,
        "nu": {"support": ["u1", "u2"], "mass": [1, 1], "denominator": 2}}})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert repr(g[key][-1]) in capsys.readouterr().err


@pytest.mark.parametrize("where", ["latent", "outcomes", "G"])
def test_custom_spec_unhashable_label_exit2(tmp_path, capsys, where):
    g = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["a", "b"]}}
    labels = g["G"]["u2"] if where == "G" else g[where]
    labels[1] = [labels[1]]
    spec = write_json(tmp_path, "custom.json", {"model": "custom", "params": {
        "correspondence": g,
        "nu": {"support": ["u1", "u2"], "mass": [1, 1], "denominator": 2}}})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert repr(labels[1]) in capsys.readouterr().err


CUSTOM_G = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["a", "b"]}}
HALVES = {"support": ["u1", "u2"], "mass": [1, 1], "denominator": 2}


def custom_spec(g=CUSTOM_G, nu=HALVES):
    return {"model": "custom", "params": {"correspondence": g, "nu": nu}}


@pytest.mark.parametrize("spec, dist, message", [
    (custom_spec(), {"support": [1, "1"], "mass": [1, 1], "denominator": 2},
     "{dist}: support, read as text, repeats the label '1'"),
    (custom_spec({"latent": [1, "1"], "outcomes": ["a"], "G": {"1": ["a"]}}), None,
     "{model}: field 'correspondence' of model 'custom': "
     "correspondence 'latent', read as text, repeats the label '1'"),
    (custom_spec({"latent": ["u", "v"], "outcomes": [1, "1"], "G": {"u": [1], "v": ["1"]}},
                 {"support": ["u", "v"], "mass": [1, 1], "denominator": 2}), None,
     "{model}: field 'correspondence' of model 'custom': "
     "correspondence 'outcomes', read as text, repeats the label '1'"),
    (custom_spec(nu={"support": ["u1", "u2", 2, "2"], "mass": [1, 1, 0, 0], "denominator": 2}), None,
     "{model}: field 'nu' of model 'custom': support, read as text, repeats the label '2'"),
    ({"model": "moment_inequality", "params": {"outcomes": [1, "1"], "phi": [[0.0], [1.0]], "grid": [[1.0]]}},
     None, "{model}: field 'outcomes' of model 'moment_inequality': "
     "outcomes, read as text, repeats the label '1'"),
], ids=["dist-support", "custom-latent", "custom-outcomes", "custom-nu", "mi-outcomes"])
def test_labels_sharing_a_text_exit2(spec, dist, message, tmp_path, capsys):
    # a data line "1" could name the outcome 1 or "1", and no output could tell them apart
    model = write_json(tmp_path, "spec.json", spec)
    data = tmp_path / "data.csv"
    data.write_text("y\n1\n1\n")
    dist = dist and write_json(tmp_path, "p.json", dist)
    assert main(["check", "--model", model] + (["--dist", dist] if dist else ["--data", str(data)])) == 2
    assert capsys.readouterr().err == f"error: {message.format(model=model, dist=dist)}\n"


def test_custom_spec_labels_reach_the_repeat_check_once(tmp_path, capsys, monkeypatch):
    # the records refuse a repeated label; json_labels, which reads the lists, leaves it to them
    checked = []

    def counting(labels, what):
        checked.append((tuple(labels), what))
        return refuse_repeats(labels, what)

    monkeypatch.setattr(measure, "refuse_repeats", counting)
    monkeypatch.setattr(correspondence, "refuse_repeats", counting)
    spec = write_json(tmp_path, "custom.json", custom_spec())
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 0
    assert [what for labels, what in checked if labels == ("u1", "u2")] == ["latent support", "support"]


def test_distribution_with_a_repeat_and_a_negative_mass_names_the_mass(tmp_path, capsys):
    # the record, built after the masses are read, is what refuses the repeat
    spec = write_json(tmp_path, "custom.json", custom_spec())
    dist = write_json(tmp_path, "p.json", {"support": ["a", "a"], "mass": [-1, 2], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == f"error: {dist}: negative mass in [-1.0, 2.0]\n"


def test_moment_inequality_repeated_outcome_names_the_field(tmp_path, capsys):
    spec = write_json(tmp_path, "mi.json", {"model": "moment_inequality", "params": {
        "outcomes": ["a", "a"], "phi": [[0.0], [1.0]], "grid": [[1.0]]}})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == (f"error: {spec}: field 'outcomes' of model 'moment_inequality': "
                                       "outcomes repeats the label 'a'\n")


@pytest.mark.parametrize("kind, key, value", [
    ("custom", "correspondence", []),
    ("custom", "correspondence", "G"),
    ("entry_game", "delta1", "a"),
    ("entry_game", "delta2", True),
    ("entry_game", "resolution", 0),
    ("entry_game", "resolution", 2.5),
    ("pilot", "eta", "0.5"),
    ("pilot", "eta", [0.5]),
    ("pilot", "epsilon_grid", 5),
    ("pilot", "epsilon_grid", [-1.5, "0.5"]),
    ("search", "alpha", 5),
    ("search", "alpha", [0.5]),
    ("search", "alpha", [["u1", {}], ["u2", 0.8]]),
    ("line_network", "masses", 4),
    ("example4", "M", "2"),
])
def test_spec_field_of_wrong_type_exit2(kind, key, value, tmp_path, capsys):
    params = {
        "custom": {"correspondence": CUSTOM_G, "nu": HALVES},
        "entry_game": {"delta1": -1.0, "delta2": -1.0},
        "pilot": {"eta": 0.5},
        "search": {"nu": HALVES, "alpha": [["u1", 0.5], ["u2", 0.8]]},
        "line_network": {"masses": [0.25, 0.25, 0.25, 0.25]},
        "example4": {"M": 2},
    }[kind]
    spec = write_json(tmp_path, "spec.json", {"model": kind, "params": dict(params, **{key: value})})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    err = capsys.readouterr().err
    assert f"spec.json: field {key!r} of model {kind!r} must be " in err


#: One valid spec per model family, and the place of each number in its params.
NUMERIC_FIELDS = {
    "line_network": ({"masses": [0.25, 0.25, 0.25, 0.25]}, [("masses", 0)]),
    "entry_game": ({"delta1": -1.0, "delta2": -1.0, "resolution": 4},
                   [("delta1",), ("delta2",), ("resolution",)]),
    "search": ({"nu": HALVES, "alpha": [["u1", 0.5], ["u2", 0.8]]},
               [("nu", "mass", 0), ("nu", "denominator"), ("alpha", 0, 1)]),
    "pilot": ({"eta": 0.5, "epsilon_grid": [-1.5, -0.5, 0.5, 1.5, 2.5]},
              [("eta",), ("epsilon_grid", 4)]),
    "moment_inequality": ({"outcomes": ["a", "b"], "phi": [[0.0], [1.0]], "grid": [[-1.0], [2.0]]},
                          [("phi", 0, 0), ("grid", 1, 0)]),
    "example4": ({"M": 2}, [("M",)]),
    "custom": ({"correspondence": CUSTOM_G, "nu": HALVES}, [("nu", "mass", 0), ("nu", "denominator")]),
    "custom-moments": ({"correspondence": CUSTOM_G, "moments": [[1.0, -1.0]]}, [("moments", 0, 0)]),
}


def numeric_params(family, path, value):
    """A copy of the params of ``family`` in NUMERIC_FIELDS with ``value`` at ``path``."""
    params = json.loads(json.dumps(NUMERIC_FIELDS[family][0]))
    *inner, last = path
    target = params
    for key in inner:
        target = target[key]
    target[last] = value
    return params


@pytest.mark.parametrize("value", ["NaN", "1e309", "-1e309"])
@pytest.mark.parametrize("family, path", [
    (family, path) for family, (_, paths) in NUMERIC_FIELDS.items() for path in paths
], ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
def test_non_finite_spec_number_exit2(family, path, value, tmp_path, capsys):
    # JSON reads 1e309 as inf; each is refused with one error line, not run
    text = json.dumps({"model": family.removesuffix("-moments"),
                       "params": numeric_params(family, path, "@")})
    spec = tmp_path / "spec.json"
    spec.write_text(text.replace('"@"', value))
    # each spec as given runs, on this P, to exit 0 or 1
    label = 0.5 if family == "search" else "a"
    dist = write_json(tmp_path, "p.json", {"support": [label], "mass": [1], "denominator": 1})
    assert main(["check", "--model", str(spec), "--dist", dist]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("model, field, value, message", [
    ("entry_game", "delta1", -np.inf, "delta1 must be finite, not -inf"),
    ("entry_game", "delta2", np.nan, "delta2 must be finite, not nan"),
    ("pilot", "epsilon_grid", np.inf, "epsilon_grid must be finite, not inf"),
    ("moment_inequality", "phi", -np.inf, "phi must be finite, not -inf"),
    ("moment_inequality", "grid", np.nan, "grid must be finite, not nan"),
    ("example4", "M", np.inf, "M must be a finite number >= 2, not inf"),
])
def test_non_finite_model_parameter_is_named(model, field, value, message):
    path = next(p for p in NUMERIC_FIELDS[model][1] if p[0] == field)
    params = numeric_params(model, path, value)
    with pytest.raises(FalsiflowError, match=f"^{re.escape(f'<spec>: model {model!r}: {message}')}$"):
        build_model({"model": model, "params": params})


def test_example4_refuses_m_below_2():
    with pytest.raises(FalsiflowError, match="^<spec>: model 'example4': M must be a finite number >= 2, not 1.5$"):
        build_model({"model": "example4", "params": {"M": 1.5}})
    assert build_model({"model": "example4", "params": {"M": 2.5}}).moments.tolist() == [[1.0, -1.5]]


@pytest.mark.parametrize("kind, params, message", [
    ("line_network", {"masses": [0.5, 0.5]}, "exactly 4 region masses required"),
    ("entry_game", {"delta1": 0.5, "delta2": -1.0},
     "monopoly profits must exceed duopoly profits (delta_i < 0)"),
    ("search", {"nu": HALVES, "alpha": [["u1", 0.8], ["u2", 0.5]]},
     "alpha must be strictly increasing on the grid"),
    ("pilot", {"eta": 0.5, "epsilon_grid": [-1.5, -0.5, -0.5, 0.5, 1.5]},
     "latent support repeats the label '(-1,-0.5)'"),
    ("moment_inequality", {"outcomes": ["a", "b"], "phi": [[0.0], [1.0]], "grid": [[-1.0], [2.0], [2.0]]},
     "latent support repeats the label '2'"),
    ("example4", {"M": 1.5}, "M must be a finite number >= 2, not 1.5"),
    ("custom", {"correspondence": CUSTOM_G, "moments": [[1.0, -1.0, 0.0]]},
     "moment matrix has 3 columns, expected 2 (one per latent node)"),
])
def test_model_builder_error_names_file_and_model(kind, params, message, tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"model": kind, "params": params})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == f"error: {spec}: model {kind!r}: {message}\n"


@pytest.mark.parametrize("kind, key, params", [
    ("moment_inequality", "phi", {"outcomes": ["a", "b"], "phi": [[0.0, 0.0], [1.0]], "grid": [[3, 3]]}),
    ("moment_inequality", "grid", {"outcomes": ["a"], "phi": [[0.0, 0.0]], "grid": [[3, 3], [1]]}),
    ("custom", "moments", {"correspondence": CUSTOM_G, "moments": [[1.0, -1.0], [0.5]]}),
])
def test_ragged_matrix_names_file_and_field(kind, key, params, tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"model": kind, "params": params})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == (
        f"error: {spec}: field {key!r} of model {kind!r} must be a list of numbers or of "
        f"equally long number lists, not {params[key]!r}\n"
    )


@pytest.mark.parametrize("where", ["dist", "search-nu", "custom-nu", "mi-outcomes"])
def test_distribution_or_labels_of_wrong_type_exit2(where, tmp_path, capsys):
    spec = {
        "dist": {"model": "custom", "params": {"correspondence": CUSTOM_G, "nu": HALVES}},
        "search-nu": {"model": "search", "params": {"nu": [1], "alpha": [["u1", 0.5]]}},
        "custom-nu": {"model": "custom", "params": {"correspondence": CUSTOM_G, "nu": [1]}},
        "mi-outcomes": {"model": "moment_inequality",
                        "params": {"outcomes": 2, "phi": [[0.0], [1.0]], "grid": [[1.0]]}},
    }[where]
    model = write_json(tmp_path, "spec.json", spec)
    p = [1] if where == "dist" else {"support": ["a"], "mass": [1], "denominator": 1}
    dist = write_json(tmp_path, "p.json", p)
    assert main(["check", "--model", model, "--dist", dist]) == 2
    err = capsys.readouterr().err
    if where == "mi-outcomes":
        assert err == (f"error: {model}: field 'outcomes' of model 'moment_inequality': "
                       "outcomes 2 must be a list of labels\n")
    else:
        assert "a distribution must be a JSON object with 'support' and 'mass', not a list" in err


@pytest.mark.parametrize("kind, key, params, message", [
    ("custom", "correspondence",
     {"correspondence": {"latent": ["u", "v"], "outcomes": ["a"], "G": {"u": ["a"]}},
      "nu": {"support": ["u", "v"], "mass": [1, 1], "denominator": 2}},
     "correspondence 'G' has no entry for the latent label 'v'"),
    ("custom", "nu", {"correspondence": CUSTOM_G, "nu": [1]},
     "a distribution must be a JSON object with 'support' and 'mass', not a list"),
    ("search", "nu", {"nu": [1], "alpha": [["u1", 0.5]]},
     "a distribution must be a JSON object with 'support' and 'mass', not a list"),
], ids=["custom-G", "custom-nu", "search-nu"])
def test_spec_distribution_errors_name_file_and_field(kind, key, params, message, tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"model": kind, "params": params})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    assert main(["check", "--model", spec, "--dist", dist]) == 2
    assert capsys.readouterr().err == f"error: {spec}: field {key!r} of model {kind!r}: {message}\n"
    with pytest.raises(SupportMismatch):
        build_model({"model": kind, "params": params})


@pytest.mark.parametrize("case", ["dist-without-mass", "dist-without-support", "search-nu-without-mass",
                                  "custom-without-G", "check-empty-data", "test-empty-data",
                                  "invert-empty-data"])
def test_missing_fields_and_empty_data_name_the_file(case, tmp_path, capsys):
    entry = write_json(tmp_path, "entry.json", ENTRY_SPEC)
    empty = tmp_path / "empty.csv"
    empty.write_text("y\n")
    dist = write_json(tmp_path, "d.json", {
        "dist-without-mass": {"support": ["(0,0)"]},
        "dist-without-support": {"mass": [1000000000]},
    }.get(case, COMPATIBLE_P))
    spec = write_json(tmp_path, "s.json", {
        "search-nu-without-mass": {"model": "search",
                                   "params": {"nu": {"support": ["e1"]}, "alpha": [["e1", 0.5]]}},
        "custom-without-G": {"model": "custom", "params": {
            "correspondence": {"latent": ["u1"], "outcomes": ["a"]}, "nu": HALVES}},
    }.get(case, ENTRY_SPEC))
    argv, message = {
        "dist-without-mass": (["check", "--model", entry, "--dist", dist],
                              f"{dist}: distribution is missing field 'mass'"),
        "dist-without-support": (["check", "--model", entry, "--dist", dist],
                                 f"{dist}: distribution is missing field 'support'"),
        "search-nu-without-mass": (["check", "--model", spec, "--dist", dist],
                                   f"{spec}: field 'nu' of model 'search': "
                                   "distribution is missing field 'mass'"),
        "custom-without-G": (["check", "--model", spec, "--dist", dist],
                             f"{spec}: field 'correspondence' of model 'custom': "
                             "correspondence is missing field 'G'"),
        "check-empty-data": (["check", "--model", entry, "--data", str(empty)],
                             f"{empty}: no observations below the header 'y'"),
        "test-empty-data": (["test", "--model", entry, "--data", str(empty), "--B", "5"],
                            f"{empty}: no observations below the header 'y'"),
        "invert-empty-data": (["invert", "--model", entry, "--data", str(empty), "--B", "5",
                               "--grid", "delta1=-1.0:-0.5:0.5"],
                              f"{empty}: no observations below the header 'y'"),
    }[case]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_custom_spec_numeric_latent_label_exit2(tmp_path):
    # JSON object keys are text, so "G" has no key for the latent label 1
    spec = write_json(tmp_path, "custom.json", {"model": "custom", "params": {
        "correspondence": {"latent": [1], "outcomes": ["a"], "G": {"1": ["a"]}},
        "nu": {"support": [1], "mass": [1], "denominator": 1}}})
    dist = write_json(tmp_path, "p.json", {"support": ["a"], "mass": [1], "denominator": 1})
    env = dict(os.environ, PYTHONPATH=str(Path(falsiflow.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-m", "falsiflow.cli", "check", "--model", spec, "--dist", dist],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 2
    assert child.stderr == (
        f"error: {spec}: field 'correspondence' of model 'custom': "
        "correspondence 'G' has no entry for the latent label 1; "
        "JSON object keys are text, so 'G' cannot key a numeric label\n"
    )


def test_test_tv_core_accepts_compatible_search_sample(tmp_path, capsys):
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    data = tmp_path / "data.csv"
    main(["simulate", "--model", model, "--n", "200", "--seed", "8", "--out", str(data)])
    code = main(["test", "--model", model, "--data", str(data), "--stat", "tv-core",
                 "--B", "19", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["value"] == 0.0
    assert report["pvalue"] == 1.0


@pytest.mark.parametrize("solver", ["transport", "semiparametric"])
def test_certificate_mismatch_exit2(solver, entry_model, tmp_path, monkeypatch, capsys):
    if solver == "transport":
        model = entry_model
        dist = write_json(tmp_path, "p.json", COMPATIBLE_P)
        monkeypatch.setattr(transport, "capacity_fp", lambda g, nu, bits: 1)
    else:
        model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
        dist = write_json(
            tmp_path,
            "p.json",
            {"support": ["(0,-1)", "(0,1)", "(1,-1)", "(1,1)"],
             "mass": [250000000, 250000000, 250000000, 250000000], "denominator": 1000000000},
        )
        real = semiparametric._evaluate

        def shifted(*args):
            values, argmin = real(*args)
            return values + 1e-6, argmin

        monkeypatch.setattr(semiparametric, "_evaluate", shifted)
    code = main(["check", "--model", model, "--dist", dist])
    err = capsys.readouterr().err
    assert code == 2
    assert "certif" in err and "Traceback" not in err


def test_test_semi_perturbed_replicate_block_exit2(tmp_path, monkeypatch, capsys):
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "d.csv"
    data.write_text("y\n" + "(0,-1)\n(0,1)\n(1,-1)\n(1,1)\n" * 5)
    argv = ["test", "--model", model, "--data", str(data), "--stat", "semi", "--B", "5"]
    assert main(argv) == 0
    capsys.readouterr()
    real = semiparametric._certify
    calls = []

    def second_replicate_shifted(values, weights, objective):
        calls.append(None)
        # call 1 certifies the observed statistic, calls 2-6 the replicates
        return real(values + 1e-6 if len(calls) == 3 else values, weights, objective)

    monkeypatch.setattr(semiparametric, "_certify", second_replicate_shifted)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "certif" in err and "Traceback" not in err


def test_simulate_deterministic_bytes(entry_model, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code = main(
            ["simulate", "--model", entry_model, "--n", "100", "--seed", "42", "--out", str(out)]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "y" and len(lines) == 101


def test_simulate_zero_rows(entry_model, tmp_path):
    out = tmp_path / "empty.csv"
    main(["simulate", "--model", entry_model, "--n", "0", "--out", str(out)])
    assert out.read_text() == "y\n"


def test_simulate_rules_agree_on_single_valued(tmp_path):
    spec = write_json(
        tmp_path,
        "model.json",
        {
            "model": "custom",
            "params": {
                "correspondence": {
                    "latent": ["u1", "u2"],
                    "outcomes": ["a", "b"],
                    "G": {"u1": ["a"], "u2": ["b"]},
                },
                "nu": {"support": ["u1", "u2"], "mass": [400000000, 600000000],
                       "denominator": 1000000000},
            },
        },
    )
    outs = []
    for rule in ("first", "uniform-random"):
        path = tmp_path / f"{rule}.csv"
        main(["simulate", "--model", spec, "--n", "50", "--seed", "1", "--rule", rule,
              "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_test_command_json_report(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--model", entry_model, "--n", "60", "--seed", "3", "--out", str(data)])
    capsys.readouterr()
    code = main(
        ["test", "--model", entry_model, "--data", str(data), "--stat", "tv-core",
         "--B", "19", "--seed", "4"]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["statistic"] == "tv-core"
    assert report["B"] == 19
    assert 0 < report["pvalue"] <= 1


def test_test_command_csv_format(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--model", entry_model, "--n", "30", "--seed", "3", "--out", str(data)])
    capsys.readouterr()
    code = main(
        ["test", "--model", entry_model, "--data", str(data), "--B", "7", "--format", "csv"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "replicate,value"
    assert len(lines) == 9


def test_test_refuses_more_than_2_32_replicates_before_any_draw(
        entry_model, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("B was checked after the statistic or the draws")

    monkeypatch.setattr(inference, "_compute", fail)
    monkeypatch.setattr(inference, "_spawned_pcg64_states", fail)
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n(1,0)\n")
    with pytest.raises(SystemExit) as exc:
        main(["test", "--model", entry_model, "--data", str(data), "--B", "4294967297"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "falsiflow test: error: argument --B: must be an integer from 1 to 2**32, not 4294967297\n")


@pytest.mark.parametrize("command", ["test", "invert"])
@pytest.mark.parametrize("value", ["0", "-2", "4294967297"])
def test_replicate_count_outside_1_to_2_32_names_flag_and_value(command, value, entry_model, capsys):
    # an empty grid once let invert --B 0 exit 0 before any bootstrap checked B
    argv = ["--model", entry_model, "--data", "d.csv", "--B", value]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv] + (["--grid", ""] if command == "invert" else []))
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"falsiflow {command}: error: argument --B: must be an integer from 1 to 2**32, not {value}\n")


def test_test_stat_model_kind_mismatch(entry_model, tmp_path, capsys):
    # both directions, from test and from invert
    pilot_model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    for model, stat, grid, wanted in (
        (entry_model, "semi", "delta1=-1:-1:1", "a semiparametric"),
        (pilot_model, "tv-core", "eta=0.5:0.5:1", "a parametric"),
    ):
        for argv in (["test"], ["invert", "--grid", grid]):
            code = main(argv + ["--model", model, "--data", str(data), "--stat", stat])
            assert code == 2
            assert capsys.readouterr().err == f"error: --stat {stat} requires {wanted} model spec\n"


def test_halflines_on_unordered_outcomes_errors(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n(0,1)\n")
    code = main(
        ["test", "--model", entry_model, "--data", str(data), "--stat", "tn-halflines"]
    )
    # entry-game labels are tuple strings: text orders lexicographically, but
    # half-lines are defined on numeric outcomes only, so this is an input error
    assert code == 2


@pytest.mark.parametrize("command", ["test", "invert"])
def test_halflines_nan_data_exit2(tmp_path, capsys, command):
    model = write_json(tmp_path, "search.json", SEARCH_SPEC)
    data = tmp_path / "data.csv"
    data.write_text("y\n0.5\n0.8\nnan\n0.0\n0.5\n")
    argv = [command, "--model", model, "--data", str(data), "--stat", "tn-halflines", "--B", "5"]
    if command == "invert":
        argv += ["--grid", "eta=0:0:1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if command == "invert":
        # no field of a search spec is a number, so no grid axis can name one
        assert err == f"error: {model}: grid axis 'eta' names no field of model 'search'\n"
    else:
        assert "NaN" in err


def test_search_nan_alpha_exit2(tmp_path, capsys):
    spec = json.loads(json.dumps(SEARCH_SPEC))
    spec["params"]["alpha"][1][1] = float("nan")
    model = write_json(tmp_path, "search.json", spec)
    data = tmp_path / "data.csv"
    data.write_text("y\n0.5\n0.0\n")
    assert main(["test", "--model", model, "--data", str(data), "--stat", "tn-halflines"]) == 2
    assert "increasing" in capsys.readouterr().err


def test_parse_grid_product_order():
    names, pts = parse_grid("a=0:1:0.5,b=1:2:1")
    assert names == ["a", "b"]
    assert pts == [
        {"a": 0.0, "b": 1.0},
        {"a": 0.0, "b": 2.0},
        {"a": 0.5, "b": 1.0},
        {"a": 0.5, "b": 2.0},
        {"a": 1.0, "b": 1.0},
        {"a": 1.0, "b": 2.0},
    ]


def test_parse_grid_empty():
    assert parse_grid("") == ([], [])


@pytest.mark.parametrize(
    "axis", ["eta=0.1:0.2:nan", "eta=0.1:inf:0.1", "eta=nan:0.2:0.1"],
    ids=["nan-step", "inf-stop", "nan-start"],
)
def test_invert_non_finite_grid_exit2(tmp_path, capsys, axis):
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,1)\n")
    code = main(["invert", "--model", model, "--data", str(data), "--stat", "semi", "--grid", axis])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["eta=a:1:0.1", "eta=0:1:x", "eta=0::0.1"])
def test_invert_grid_bound_not_a_number_names_the_axis(axis, tmp_path, capsys):
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,1)\n")
    code = main(["invert", "--model", model, "--data", str(data), "--stat", "semi", "--grid", axis])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: grid axis {axis!r} needs numbers for start, stop and step\n")


@pytest.mark.parametrize(
    "axis", ["eta=0:1e-9:1e-11", "eta=0:1:1e-13"], ids=["repeated-points", "endless"],
)
def test_invert_grid_step_below_rounding_exit2(tmp_path, capsys, axis):
    # grid values are rounded to 1e-10, so a finer step repeats points; at
    # 1e-13 the grid would list each of the 10**10 values a thousand times
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,1)\n")
    code = main(["invert", "--model", model, "--data", str(data), "--stat", "semi", "--grid", axis])
    assert code == 2
    assert "step of at least 1e-10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis", ["eta=0:1:1e-10", "eta=0:1:1e-3,b=0:1:1e-3"], ids=["one-axis", "product"],
)
def test_invert_grid_too_large_exit2(tmp_path, capsys, axis):
    # 10**10 and 1002001 points: refused on their count, before a value is built
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,1)\n")
    tracemalloc.start()
    try:
        code = main(["invert", "--model", model, "--data", str(data), "--stat", "semi", "--grid", axis])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10**6
    assert f"more than {MAX_GRID_POINTS}" in capsys.readouterr().err


def test_invert_grid_axis_repeating_values_exit2(tmp_path):
    # 1e17 + k * 1e-10 == 1e17: the axis repeats one value.  Run in a child
    # process with a timeout and an address-space limit, so that a build loop
    # that never ends fails the test instead of hanging it.
    model = write_json(tmp_path, "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,1)\n")
    argv = ["invert", "--model", model, "--data", str(data), "--stat", "semi",
            "--grid", "eta=1e17:1e17:1e-10"]
    env = dict(os.environ, PYTHONPATH=str(Path(falsiflow.__file__).parent.parent))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    child = subprocess.run(
        [sys.executable, "-c", f"import sys; from falsiflow.cli import main; sys.exit(main({argv!r}))"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert child.returncode == 2
    assert "repeats values" in child.stderr


def test_parse_grid_at_the_guard():
    assert len(parse_grid(f"a=0:{MAX_GRID_POINTS - 1}:1")[1]) == MAX_GRID_POINTS


def test_invert_single_point_matches_test(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    main(["simulate", "--model", entry_model, "--n", "80", "--seed", "9", "--out", str(data)])
    capsys.readouterr()
    code = main(
        ["invert", "--model", entry_model, "--data", str(data), "--B", "19", "--seed", "2",
         "--grid", "delta1=-1:-1:1"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0] == "delta1,pvalue,accepted"
    assert len(lines) == 2
    pvalue = float(lines[1].split(",")[1])
    accepted = lines[1].split(",")[2] == "true"
    assert accepted == (pvalue >= 0.05)


@pytest.mark.parametrize(
    "spec,stat,counts,grid",
    [
        ({"model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0, "resolution": 12}},
         "tv-core", {"(0,0)": 37, "(0,1)": 57, "(1,0)": 38, "(1,1)": 18},
         "delta1=-1.5:-0.5:1,delta2=-1.5:-0.5:1"),
        ({"model": "pilot", "params": {"eta": 0.5}},
         "semi", {"(0,-1)": 13, "(0,1)": 27, "(1,-1)": 22, "(1,1)": 18},
         "eta=0.2:0.8:0.3"),
    ],
    ids=["entry-2x2", "pilot-3"],
)
def test_invert_rows_match_test_at_each_point(tmp_path, capsys, spec, stat, counts, grid):
    # invert tallies the data and builds the entry grid once per command; each
    # row must still be `test` at that point with that point's spawned seed
    model = write_json(tmp_path, "model.json", spec)
    data = tmp_path / "data.csv"
    data.write_text("y\n" + "".join(f"{y}\n" * k for y, k in counts.items()))
    common = ["--data", str(data), "--stat", stat, "--B", "9"]
    assert main(["invert", "--model", model, *common, "--seed", "3", "--grid", grid]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    names = header.split(",")[:-2]
    _, points = parse_grid(grid)
    seeds = np.random.SeedSequence(3).spawn(len(points))
    assert len(rows) == len(points)
    for row, pt, seed in zip(rows, points, seeds):
        assert row.split(",")[:-2] == [format(pt[n], ".10g") for n in names]
        local = write_json(tmp_path, "point.json", dict(spec, params=dict(spec["params"], **pt)))
        assert main(["test", "--model", local, *common,
                     "--seed", str(seed.generate_state(1)[0])]) == 0
        assert row.split(",")[-2] == repr(json.loads(capsys.readouterr().out)["pvalue"])
    assert len({row.split(",")[-2] for row in rows}) > 1


def test_invert_repeated_axis_exit2(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    code = main(["invert", "--model", entry_model, "--data", str(data), "--B", "1",
                 "--grid", "delta1=-1:-0.5:0.5,delta1=-1:-0.5:0.5"])
    assert code == 2
    assert capsys.readouterr().err == "error: grid axis 'delta1' is given more than once\n"


@pytest.mark.parametrize("axis", ["foo=1:2:1", "=1:2:1", "foo=2:1:1"],
                         ids=["foo", "empty-name", "no-points"])
def test_invert_grid_axis_names_no_field_exit2(axis, entry_model, capsys):
    # refused before the data file, which does not exist, is read, and on a
    # grid left with no points too
    code = main(["invert", "--model", entry_model, "--data", "/nonexistent.csv", "--B", "1",
                 "--grid", "delta1=-1:-1:1," + axis])
    assert code == 2
    name = axis.partition("=")[0]
    assert capsys.readouterr().err == (
        f"error: {entry_model}: grid axis {name!r} names no field of model 'entry_game'\n")


@pytest.mark.parametrize("alpha", ["nan", "1.5", "-0.1", "inf"])
def test_invert_alpha_outside_unit_interval_names_flag_and_value(alpha, entry_model, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--model", entry_model, "--data", "d.csv", "--grid", "delta1=-1:-1:1",
              "--alpha", alpha])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"falsiflow invert: error: argument --alpha: must be a number in [0, 1], not {alpha}\n")


def test_simulate_negative_n_names_flag_and_value(entry_model, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", entry_model, "--n", "-5"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "falsiflow simulate: error: argument --n: must be a non-negative integer, not -5\n")


def test_invert_empty_grid_warns(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    code = main(
        ["invert", "--model", entry_model, "--data", str(data), "--grid", "", "--B", "1"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "empty" in captured.err
    assert captured.out.strip() == "pvalue,accepted"


def test_invert_deterministic(entry_model, tmp_path):
    data = tmp_path / "data.csv"
    main(["simulate", "--model", entry_model, "--n", "60", "--seed", "5", "--out", str(data)])
    results = []
    for run in ("1", "2"):
        out = tmp_path / f"region{run}.csv"
        main(
            ["invert", "--model", entry_model, "--data", str(data), "--B", "9", "--seed", "6",
             "--grid", "delta1=-1.5:-0.5:0.5", "--out", str(out)]
        )
        results.append(out.read_bytes())
    assert results[0] == results[1]


def test_check_deterministic_bytes(entry_model, tmp_path):
    dist = write_json(tmp_path, "p.json", INCOMPATIBLE_P)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["check", "--model", entry_model, "--dist", dist, "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_unknown_model_kind_exit2(tmp_path, capsys):
    spec = write_json(tmp_path, "m.json", {"model": "nonsense", "params": {}})
    assert main(["check", "--model", spec, "--dist", spec]) == 2
