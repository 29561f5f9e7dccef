"""The benchmark's tracer (bench/tracer.py) patches falsiflow by name and reads
a few fields of what the patched calls take and return.  These tests run it
over a pilot and an entry-game ``check``, a JSON and a CSV ``test --stat
tn-halflines`` and one entry-game ``invert``, so a renamed method or a
dropped field fails here and not only in a traced benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import falsiflow
from falsiflow import lp
from falsiflow.cli import main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def write(path, text):
    path.write_text(text)
    return str(path)


def test_tracer_counts_lp_solves_and_replicates(tmp_path):
    pilot = write(tmp_path / "pilot.json", json.dumps({"model": "pilot", "params": {"eta": 0.5}}))
    dist = write(tmp_path / "p.json", json.dumps({
        "support": ["(0,-1)", "(0,1)", "(1,-1)", "(1,1)"],
        "mass": [150000000, 350000000, 350000000, 150000000],
    }))
    search = write(tmp_path / "search.json", json.dumps({"model": "search", "params": {
        "nu": {"support": ["e1", "e2"], "mass": [500000000, 500000000]},
        "alpha": [["e1", 0.5], ["e2", 0.8]],
    }}))
    data = write(tmp_path / "data.csv", "y\n0.5\n0.8\n0.0\n0.5\n")

    tracer = load_tracer_class()()
    tracer.install(falsiflow)
    try:
        tracer.start_round()
        assert main(["check", "--model", pilot, "--dist", dist,
                     "--out", str(tmp_path / "check.json")]) == 0
        # the data's statistic is 0: the JSON report draws no replicate, the
        # CSV audit all 5
        test = ["test", "--model", search, "--data", data, "--stat", "tn-halflines", "--B", "5"]
        assert main(test + ["--out", str(tmp_path / "test.json")]) == 0
        assert tracer.counts["inference.replicates"] == 0
        assert main(test + ["--format", "csv", "--out", str(tmp_path / "test.csv")]) == 0
        tracer.end_round()
    finally:
        tracer.remove()
    assert not hasattr(lp.solve, "__wrapped__")

    metrics, repeat = tracer.metrics()
    assert repeat
    assert metrics["lp.solve_calls"] == 1 and metrics["lp.entries"] > 0
    assert metrics["semi.dual_calls"] == 1
    assert metrics["inference.replicates"] == 5


def test_tracer_counts_one_capacity_call_per_parametric_check(tmp_path):
    entry = write(tmp_path / "entry.json", json.dumps(
        {"model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0}}))
    dist = write(tmp_path / "p.json", json.dumps({
        "support": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
        "mass": [250000000, 475000000, 212500000, 62500000],
    }))

    tracer = load_tracer_class()()
    tracer.install(falsiflow)
    try:
        tracer.start_round()
        assert main(["check", "--model", entry, "--dist", dist,
                     "--out", str(tmp_path / "check.json")]) == 1
        tracer.end_round()
    finally:
        tracer.remove()

    metrics, _ = tracer.metrics()
    assert metrics["transport.solve_calls"] == 1 and metrics["transport.arcs"] > 0
    # the witness's capacity is computed once, by the certificate check
    assert metrics["correspondence.capacity_calls"] == 1


def test_tracer_counts_one_entry_grid_per_invert(tmp_path):
    # the points of one invert share the data's tally and the latent grid
    entry = write(tmp_path / "entry.json", json.dumps(
        {"model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0, "resolution": 10}}))
    data = write(tmp_path / "data.csv", "y\n(0,0)\n(0,1)\n(1,0)\n(1,1)\n(0,1)\n")

    tracer = load_tracer_class()()
    tracer.install(falsiflow)
    try:
        tracer.start_round()
        assert main(["invert", "--model", entry, "--data", data, "--B", "5",
                     "--grid", "delta1=-1.5:-1:0.5", "--out", str(tmp_path / "region.csv")]) == 0
        tracer.end_round()
    finally:
        tracer.remove()

    metrics, _ = tracer.metrics()
    assert metrics["inference.replicates"] == 10
    assert metrics["models.grid_nodes"] == 100
    assert metrics["transport.solve_calls"] == 2
