"""Command-line interface: compatibility checks, falsification tests,
simulation and parameter-grid inversion for confidence regions.

Every command is deterministic given its input files, flags and seed; exit
codes are 0 (compatible / success), 1 (incompatible) and 2 (error).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import models
from .correspondence import Correspondence
from .errors import FalsiflowError
from .inference import (
    bootstrap_pvalue,
    statistic_semiparametric,
    statistic_tn_halflines,
    statistic_tv_core,
)
from .measure import FiniteDistribution, align, empirical
from .semiparametric import SemiparametricModel, maximize_dual
from .transport import solve_zero_one

EXIT_COMPATIBLE = 0
EXIT_INCOMPATIBLE = 1
EXIT_ERROR = 2


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FalsiflowError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def load_model_spec(path: str):
    """Parse a model-spec JSON file into (g, nu) or a ``SemiparametricModel``."""
    return build_model(_read_json(path), path)


def _check_spec(spec, origin: str) -> dict:
    """A model spec is a JSON object, with an object under "params" if present."""
    if not (isinstance(spec, dict) and isinstance(spec.get("params", {}), dict)):
        raise FalsiflowError(
            f"{origin}: a model spec must be a JSON object with an object under 'params'"
        )
    return spec


def build_model(spec: dict, origin: str = "<spec>"):
    kind = _check_spec(spec, origin).get("model")
    params = spec.get("params", {})
    try:
        if kind == "line_network":
            return models.line_network_game(params["masses"])
        if kind == "entry_game":
            return models.entry_game(
                params["delta1"], params["delta2"], resolution=params.get("resolution", 40)
            )
        if kind == "search":
            nu = FiniteDistribution.from_json(params["nu"])
            alpha = [(lab, val) for lab, val in params["alpha"]]
            return models.search_game(alpha, nu)
        if kind == "pilot":
            return models.binary_response_pilot(
                params["eta"],
                epsilon_grid=params.get("epsilon_grid"),
            )
        if kind == "moment_inequality":
            return models.moment_inequality_model(
                params["outcomes"], params["phi"], params["grid"]
            )
        if kind == "example4":
            model, _ = models.example4_instance(params["M"])
            return model
        if kind == "custom":
            g = Correspondence.from_json(params["correspondence"])
            if "moments" in params:
                return SemiparametricModel(g, params["moments"])
            return g, FiniteDistribution.from_json(params["nu"])
    except KeyError as exc:
        raise FalsiflowError(f"{origin}: model {kind!r} is missing field {exc.args[0]!r}") from exc
    raise FalsiflowError(f"{origin}: unknown model kind {kind!r}")


def load_distribution(path: str) -> FiniteDistribution:
    return FiniteDistribution.from_json(_read_json(path))


def load_data(path: str, numeric: bool = False) -> list:
    """Data CSV: header "y", one outcome label per line."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != "y":
        raise FalsiflowError(f"{path}:1: expected a single-column CSV with header 'y'")
    rows = [line for line in lines[1:] if line]
    if numeric:
        return [float(v) for v in rows]
    return rows


def write_output(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _canonical_labels(labels, outcome_support) -> list:
    """Read file labels as the model's outcome labels with the same text.

    Files carry every label as text, while a model may label its outcomes
    with numbers.  Labels with no match are kept, so they count against the
    model.
    """
    by_text = {str(y): y for y in outcome_support}
    return [by_text.get(str(lab), lab) for lab in labels]


def _target_distribution(args, outcome_support) -> FiniteDistribution:
    if args.dist:
        p = load_distribution(args.dist)
        return FiniteDistribution(tuple(_canonical_labels(p.support, outcome_support)), p.numerators)
    if args.data:
        return empirical(_canonical_labels(load_data(args.data), outcome_support))
    raise FalsiflowError("either --dist or --data is required")


def cmd_check(args) -> int:
    model = load_model_spec(args.model)
    if not isinstance(model, SemiparametricModel):
        g, nu = model
        p = _target_distribution(args, g.outcome_support)
        g = g.extend_outcomes(p.support)
        p = align(p, g.outcome_support)
        result = solve_zero_one(p, nu, g)
        write_output(render_json(result.to_json()), args.out)
        return EXIT_COMPATIBLE if result.compatible else EXIT_INCOMPATIBLE
    p = _target_distribution(args, model.correspondence.outcome_support)
    model = model.extend_outcomes(p.support)
    p = align(p, model.correspondence.outcome_support)
    cert = maximize_dual(model, p)
    write_output(render_json(cert.to_json()), args.out)
    return EXIT_COMPATIBLE if cert.compatible else EXIT_INCOMPATIBLE


def _run_test(model, data, stat, B, seed):
    semi = isinstance(model, SemiparametricModel)
    if stat == "semi":
        if not semi:
            raise FalsiflowError("--stat semi requires a semiparametric model spec")
        outcome_support = model.correspondence.outcome_support
    else:
        if semi:
            raise FalsiflowError(f"--stat {stat} requires a parametric model spec")
        g, nu = model
        model = (nu, g)
        outcome_support = g.outcome_support
    return bootstrap_pvalue(_canonical_labels(data, outcome_support), model, stat, B, seed)


def cmd_test(args) -> int:
    model = load_model_spec(args.model)
    data = load_data(args.data, numeric=args.stat == "tn-halflines")
    report = _run_test(model, data, args.stat, args.B, args.seed)
    if args.format == "csv":
        write_output(report.to_csv(), args.out)
    else:
        write_output(render_json(report.to_json()), args.out)
    return EXIT_COMPATIBLE


def cmd_simulate(args) -> int:
    model = load_model_spec(args.model)
    if isinstance(model, SemiparametricModel):
        raise FalsiflowError("simulation needs a parametric model spec (with a latent distribution)")
    g, nu = model
    draws = models.simulate(g, nu, args.rule, args.n, args.seed)
    text = "y\n" + "".join(f"{y}\n" for y in draws)
    write_output(text, args.out)
    return EXIT_COMPATIBLE


def parse_grid(spec: str) -> list[dict]:
    """Grid spec "name=start:stop:step[,name2=...]" -> list of param dicts (product order)."""
    axes = []
    for part in spec.split(","):
        if not part:
            continue
        name, _, rng = part.partition("=")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise FalsiflowError(f"grid axis {part!r} must be name=start:stop:step")
        start, stop, step = (float(x) for x in pieces)
        if not np.isfinite([start, stop, step]).all():
            raise FalsiflowError(f"grid axis {part!r} needs a finite start, stop and step")
        if step <= 0:
            raise FalsiflowError(f"grid axis {part!r} needs a positive step")
        if step < 1e-10:  # grid values are rounded to 10 decimals below
            raise FalsiflowError(f"grid axis {part!r} needs a step of at least 1e-10")
        values = []
        k = 0
        while True:
            v = round(start + k * step, 10)
            if v > stop + 1e-12:
                break
            values.append(v)
            k += 1
        axes.append((name.strip(), values))
    points: list[dict] = [{}]
    for name, values in axes:
        points = [dict(pt, **{name: v}) for pt in points for v in values]
    return points if axes else []


def cmd_invert(args) -> int:
    spec = _check_spec(_read_json(args.model), args.model)
    points = parse_grid(args.grid)
    numeric = args.stat == "tn-halflines"
    data = load_data(args.data, numeric=numeric)
    names = sorted({k for pt in points for k in pt})
    header = ",".join(names + ["pvalue", "accepted"])
    if not points:
        sys.stderr.write("warning: empty parameter grid, empty region\n")
        write_output(header + "\n", args.out)
        return EXIT_COMPATIBLE

    seeds = np.random.SeedSequence(args.seed).spawn(len(points))
    lines = [header]
    for pt, seed in zip(points, seeds):
        local = dict(spec, params=dict(spec.get("params", {}), **pt))
        model = build_model(local, args.model)
        pv = _run_test(model, data, args.stat, args.B, int(seed.generate_state(1)[0])).pvalue
        accepted = pv >= args.alpha
        lines.append(",".join([format(pt[n], ".10g") for n in names] + [repr(pv), str(accepted).lower()]))
    write_output("\n".join(lines) + "\n", args.out)
    return EXIT_COMPATIBLE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falsiflow",
        description="Compatibility checks and falsification tests for incompletely specified models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data_required=False):
        p.add_argument("--model", required=True, help="model-spec JSON path")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if data_required:
            p.add_argument("--data", required=True, help="data CSV path (header 'y')")

    p_check = sub.add_parser("check", help="decide compatibility of a distribution with the model")
    common(p_check)
    p_check.add_argument("--dist", default=None, help="distribution JSON path")
    p_check.add_argument("--data", default=None, help="data CSV path (empirical distribution)")
    p_check.set_defaults(func=cmd_check)

    p_test = sub.add_parser("test", help="statistic plus bootstrap p-value on data")
    common(p_test, data_required=True)
    p_test.add_argument("--stat", choices=["tv-core", "tn-halflines", "semi"], default="tv-core")
    p_test.add_argument("--B", type=int, default=200)
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--format", choices=["json", "csv"], default="json")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="draw outcomes from a parametric model")
    common(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--rule", choices=models.SELECTION_RULES, default="first")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_inv = sub.add_parser("invert", help="accepted parameter region by test inversion")
    common(p_inv, data_required=True)
    p_inv.add_argument("--stat", choices=["tv-core", "tn-halflines", "semi"], default="tv-core")
    p_inv.add_argument("--B", type=int, default=200)
    p_inv.add_argument("--alpha", type=float, default=0.05)
    p_inv.add_argument("--grid", required=True, help="name=start:stop:step[,name2=...]")
    p_inv.add_argument("--seed", type=int, default=0)
    p_inv.set_defaults(func=cmd_invert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FalsiflowError, FileNotFoundError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
