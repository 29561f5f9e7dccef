import json

import pytest

from falsiflow import semiparametric, transport
from falsiflow.cli import main, parse_grid


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
    real = semiparametric._evaluate
    calls = []

    def second_replicate_shifted(*args):
        values, argmin = real(*args)
        calls.append(None)
        # call 1 certifies the observed statistic, calls 2-6 the replicates
        return (values + 1e-6 if len(calls) == 3 else values), argmin

    monkeypatch.setattr(semiparametric, "_evaluate", second_replicate_shifted)
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


def test_test_stat_model_kind_mismatch(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n")
    code = main(["test", "--model", entry_model, "--data", str(data), "--stat", "semi"])
    assert code == 2
    assert "semi" in capsys.readouterr().err


def test_halflines_on_unordered_outcomes_errors(entry_model, tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("y\n(0,0)\n(0,1)\n")
    code = main(
        ["test", "--model", entry_model, "--data", str(data), "--stat", "tn-halflines"]
    )
    # entry-game labels are tuple strings, which do order lexicographically,
    # but the loader parses tn-halflines data as floats and fails loudly
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
    assert "NaN" in capsys.readouterr().err


def test_search_nan_alpha_exit2(tmp_path, capsys):
    spec = json.loads(json.dumps(SEARCH_SPEC))
    spec["params"]["alpha"][1][1] = float("nan")
    model = write_json(tmp_path, "search.json", spec)
    data = tmp_path / "data.csv"
    data.write_text("y\n0.5\n0.0\n")
    assert main(["test", "--model", model, "--data", str(data), "--stat", "tn-halflines"]) == 2
    assert "increasing" in capsys.readouterr().err


def test_parse_grid_product_order():
    pts = parse_grid("a=0:1:0.5,b=1:2:1")
    assert pts == [
        {"a": 0.0, "b": 1.0},
        {"a": 0.0, "b": 2.0},
        {"a": 0.5, "b": 1.0},
        {"a": 0.5, "b": 2.0},
        {"a": 1.0, "b": 1.0},
        {"a": 1.0, "b": 2.0},
    ]


def test_parse_grid_empty():
    assert parse_grid("") == []


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


def test_invert_deterministic_and_threaded(entry_model, tmp_path):
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
