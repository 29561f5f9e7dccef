"""Command-line interface: compatibility checks, falsification tests,
simulation and parameter-grid inversion for confidence regions.

Every command is deterministic given its input files, flags and seed; exit
codes are 0 (compatible / success), 1 (incompatible) and 2 (error).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import reprlib
import sys
from collections import Counter
from dataclasses import replace
from json.encoder import encode_basestring_ascii as quote

import numpy as np

from . import models
from .correspondence import Correspondence
from .errors import DuplicateLabel, EmptyData, FalsiflowError
from .inference import bootstrap_pvalue, tally
from .measure import FiniteDistribution, empirical, is_real, json_labels, refuse_repeats
from .semiparametric import SemiparametricModel, maximize_dual
from .transport import TransportResult, solve_zero_one

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
        except RecursionError:
            raise FalsiflowError(f"{path}: JSON nested too deeply") from None


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


def _reals(v) -> bool:
    return isinstance(v, list) and all(map(is_real, v))


def _matrix(v) -> bool:
    """A list of numbers, or a list of equally long lists of numbers, as numpy reads a matrix."""
    return _reals(v) or (isinstance(v, list) and all(map(_reals, v)) and len(set(map(len, v))) <= 1)


_MATRIX = "a list of numbers or of equally long number lists"


def _alpha_table(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(row, list) and len(row) == 2 and is_real(row[1]) for row in v
    )


def _count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


_REQUIRED = object()


def build_model(spec: dict, origin: str = "<spec>", grids: dict | None = None):
    """The model a spec describes: (g, nu) or a ``SemiparametricModel``.
    ``grids`` holds entry-game latent grids by resolution and gains those built."""
    kind = _check_spec(spec, origin).get("model")
    params = spec.get("params", {})
    grids = {} if grids is None else grids

    def field(key: str, ok, what: str, default=_REQUIRED):
        """``params[key]``, or ``default`` when given and the key is absent,
        checked by ``ok`` at the file's boundary."""
        value = params[key] if default is _REQUIRED else params.get(key, default)
        if not ok(value):
            raise FalsiflowError(f"{origin}: field {key!r} of model {kind!r} must be {what}, "
                                 f"not {reprlib.repr(value)}")
        return value

    def parsed(key: str, from_json, value):
        """``from_json(value)``, with the file and the field named in its errors."""
        try:
            return from_json(value)
        except FalsiflowError as exc:
            raise type(exc)(f"{origin}: field {key!r} of model {kind!r}: {exc}") from exc

    try:
        if kind == "line_network":
            return models.line_network_game(field("masses", _reals, "a list of numbers"))
        if kind == "entry_game":
            delta1, delta2 = field("delta1", is_real, "a number"), field("delta2", is_real, "a number")
            resolution = field("resolution", _count, "a positive integer", 40)
            # entry_game's own grid, built only where entry_game would build it:
            # past its check on the deltas
            if all(-math.inf < d < 0 for d in (delta1, delta2)) and resolution not in grids:
                grids[resolution] = models.uniform_grid_2d(-2.0, 2.0, resolution)
            return models.entry_game(delta1, delta2, grids.get(resolution), resolution)
        if kind == "search":
            nu = parsed("nu", FiniteDistribution.from_json, params["nu"])
            alpha = field("alpha", _alpha_table, "a list of [latent label, number] pairs")
            return models.search_game([(lab, val) for lab, val in alpha], nu)
        if kind == "pilot":
            return models.binary_response_pilot(
                field("eta", is_real, "a number"),
                epsilon_grid=field("epsilon_grid", lambda v: v is None or _reals(v),
                                   "a list of numbers", None),
            )
        if kind == "moment_inequality":
            # the outcomes' repeats are refused here too, so that the error names the field
            return models.moment_inequality_model(
                parsed("outcomes", lambda v: refuse_repeats(json_labels(v, "outcomes"), "outcomes"),
                       params["outcomes"]),
                field("phi", _matrix, _MATRIX), field("grid", _matrix, _MATRIX),
            )
        if kind == "example4":
            model, _ = models.example4_instance(field("M", is_real, "a number"))
            return model
        if kind == "custom":
            g = parsed("correspondence", Correspondence.from_json,
                       field("correspondence", lambda v: isinstance(v, dict), "a JSON object"))
            if "moments" in params:
                return SemiparametricModel(g, field("moments", _matrix, _MATRIX))
            return g, parsed("nu", FiniteDistribution.from_json, params["nu"])
    except KeyError as exc:
        raise FalsiflowError(f"{origin}: model {kind!r} is missing field {exc.args[0]!r}") from exc
    raise FalsiflowError(f"{origin}: unknown model kind {kind!r}")


def load_distribution(path: str) -> FiniteDistribution:
    obj = _read_json(path)  # outside the handler: it names the file itself
    try:
        return FiniteDistribution.from_json(obj)
    except FalsiflowError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_data(path: str) -> Counter:
    """Data CSV: header "y", one outcome label per line; blank lines are skipped.

    The labels are counted once, as text: the result maps each label to its
    count, in order of first appearance.  A label keeps any spaces; a line
    ends at "\n", "\r\n" or "\r".  A file with no label is refused.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != "y":
        raise FalsiflowError(f"{path}:1: expected a single-column CSV with header 'y'")
    counts = Counter(lines[1:])
    del counts[""]
    if not counts:
        raise EmptyData(f"{path}: no observations below the header 'y'")
    return counts


def write_output(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_json(obj: dict) -> str:
    """The JSON report of a command: ``obj``, keys sorted, indented by 2."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_transport(result: TransportResult) -> str:
    """``render_json(result.to_json())``, with the plan's rows written from the
    result's arrays: ``indent`` selects json's pure-Python encoder, which spent
    most of a large check on them.  Each label is quoted once, and all rows
    come from one %-template over the interleaved row fields.
    """
    none = result.plan_mass[:0]
    text = render_json(replace(result, plan_latent=none, plan_outcome=none, plan_mass=none).to_json())
    # the only line that starts so: strings hold no raw newline, nested keys sit deeper
    head, _, tail = text.partition('\n  "plan": []')
    latents = list(map(quote, map(str, result.latent_support)))
    outcomes = list(map(quote, map(str, result.outcome_support)))
    fields = [None] * (3 * len(result.plan_mass))
    fields[0::3] = map(latents.__getitem__, result.plan_latent.tolist())
    fields[1::3] = map(outcomes.__getitem__, result.plan_outcome.tolist())
    fields[2::3] = result.plan_mass.tolist()
    row = "    [\n      %s,\n      %s,\n      %d\n    ]"  # as render_json lays out a plan row
    rows = ",\n".join([row] * len(result.plan_mass)) % tuple(fields)
    return f'{head}\n  "plan": [\n{rows}\n  ]{tail}' if rows else text


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _canonical_labels(labels, outcome_support, path: str) -> dict:
    """Read distinct labels of the file ``path``, which are text, the way the model
    labels its outcomes: {label: the outcome it reads as}, in the order of ``labels``.

    When every outcome is a real number, every label is read with float(), so
    "0.50" is the outcome 0.5; a label that float() refuses is named, and NaN
    is refused once all are read; both errors name the file.  Otherwise labels
    match by text.
    Labels with no match are kept, so they count against the model.
    """
    if all(map(is_real, outcome_support)):
        read = {}
        for lab in labels:
            try:
                read[lab] = float(lab)
            except (ValueError, OverflowError):  # OverflowError: an int beyond a double's range
                raise FalsiflowError(f"{path}: the model's outcomes are numbers, and the label "
                                     f"{reprlib.repr(lab)} does not read as one") from None
        if any(v != v for v in read.values()):
            raise FalsiflowError(f"{path}: the model's outcomes are numbers, and a label is NaN")
        return read
    by_text = {str(y): y for y in outcome_support}
    return {lab: by_text.get(str(lab), lab) for lab in labels}


def _canonical_counts(counts: Counter, outcome_support, path: str) -> Counter:
    """``counts`` of the labels of the file ``path`` as counts of the outcomes they read
    as: labels that read as one outcome, such as "0.5" and "0.50", add their counts."""
    merged = Counter()
    for lab, y in _canonical_labels(counts, outcome_support, path).items():
        merged[y] += counts[lab]
    return merged


def _target_distribution(args, outcome_support) -> FiniteDistribution:
    if args.dist:
        p = load_distribution(args.dist)
        read = _canonical_labels(p.support, outcome_support, args.dist)
        first = {}
        for lab, y in read.items():
            if y in first:
                raise DuplicateLabel(f"{args.dist}: labels {first[y]!r} and {lab!r} both read as "
                                     f"the outcome {y!r}")
            first[y] = lab
        return FiniteDistribution(tuple(read.values()), p.numerators)
    if args.data:
        return empirical(_canonical_counts(load_data(args.data), outcome_support, args.data))
    raise FalsiflowError("either --dist or --data is required")


def cmd_check(args) -> int:
    model = load_model_spec(args.model)
    semi = isinstance(model, SemiparametricModel)
    g = model.correspondence if semi else model[0]
    p = _target_distribution(args, g.outcome_support)
    result = maximize_dual(model, p) if semi else solve_zero_one(p, model[1], g)
    write_output(render_json(result.to_json()) if semi else render_transport(result), args.out)
    return EXIT_COMPATIBLE if result.compatible else EXIT_INCOMPATIBLE


def _tested_model(model, stat):
    """``model`` as ``bootstrap_pvalue`` takes it for ``stat``, and its outcome support."""
    semi = isinstance(model, SemiparametricModel)
    if stat == "semi":
        if not semi:
            raise FalsiflowError("--stat semi requires a semiparametric model spec")
        return model, model.correspondence.outcome_support
    if semi:
        raise FalsiflowError(f"--stat {stat} requires a parametric model spec")
    g, nu = model
    return (nu, g), g.outcome_support


def cmd_test(args) -> int:
    model = load_model_spec(args.model)
    data = load_data(args.data)
    model, outcome_support = _tested_model(model, args.stat)
    counts = _canonical_counts(data, outcome_support, args.data)
    # the CSV audit lists every replicate; the JSON report shows only p
    report = bootstrap_pvalue(counts, model, args.stat, args.B, args.seed,
                              replicates=args.format == "csv")
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


#: Guard on the points of an ``invert`` grid.  A point holds about 700 bytes
#: (its parameter dict, its seed and its output row), so a grid stays near 70 MB.
MAX_GRID_POINTS = 10**5


def parse_grid(spec: str) -> tuple[list[str], list[dict]]:
    """Grid spec "name=start:stop:step[,name2=...]" -> (axis names, param dicts in product order).

    Each axis is built once.  An axis named twice, of more than :data:`MAX_GRID_POINTS` values
    (refused before any is built) or whose values repeat at 10 decimals is refused, and so is a
    grid of more points, before any point is built.
    """
    axes: dict[str, list[float]] = {}
    for part in filter(None, spec.split(",")):
        name, _, rng = part.partition("=")
        name = name.strip()
        if name in axes:
            raise FalsiflowError(f"grid axis {name!r} is given more than once")
        pieces = rng.split(":")
        if len(pieces) != 3:
            raise FalsiflowError(f"grid axis {part!r} must be name=start:stop:step")
        try:
            start, stop, step = (float(x) for x in pieces)
        except ValueError:
            raise FalsiflowError(f"grid axis {part!r} needs numbers for start, stop and step") from None
        if not np.isfinite([start, stop, step]).all():
            raise FalsiflowError(f"grid axis {part!r} needs a finite start, stop and step")
        if step <= 0:
            raise FalsiflowError(f"grid axis {part!r} needs a positive step")
        if step < 1e-10:  # grid values are rounded to 10 decimals below
            raise FalsiflowError(f"grid axis {part!r} needs a step of at least 1e-10")
        span = (stop - start) / step  # may be inf, so bounded before floor
        if span >= MAX_GRID_POINTS:
            raise FalsiflowError(f"grid axis {part!r} has more than {MAX_GRID_POINTS} points")
        values = []
        for k in range(math.floor(span) + 2):  # one past the floor, for the tolerance on stop
            v = round(start + k * step, 10)
            if v > stop + 1e-12:
                break
            values.append(v)
        if len(set(values)) < len(values):
            raise FalsiflowError(f"grid axis {part!r} repeats values at 10 decimals")
        axes[name] = values
    size = math.prod(map(len, axes.values()))
    if size > MAX_GRID_POINTS:
        raise FalsiflowError(f"grid {spec!r} has {size} points, more than {MAX_GRID_POINTS}")
    points = itertools.product(*axes.values()) if axes else ()
    return list(axes), [dict(zip(axes, values)) for values in points]


def cmd_invert(args) -> int:
    spec = _check_spec(_read_json(args.model), args.model)
    names, points = parse_grid(args.grid)
    params = spec.get("params", {})
    for name in names:
        if name not in params:
            raise FalsiflowError(f"{args.model}: grid axis {name!r} names no field of model "
                                 f"{spec.get('model')!r}")
    data = load_data(args.data)
    if not points:
        sys.stderr.write("warning: empty parameter grid, empty region\n")
    names = sorted(names) if points else []  # an empty region's header names no axis
    seeds = np.random.SeedSequence(args.seed).spawn(len(points))
    lines = [",".join(names + ["pvalue", "accepted"])]
    # what the grid leaves alone is prepared once: each outcome support's
    # tally of the data, and each resolution's entry-game grid
    samples, grids = {}, {}
    for pt, seed in zip(points, seeds):
        local = dict(spec, params=dict(params, **pt))
        model, outcome_support = _tested_model(build_model(local, args.model, grids), args.stat)
        if outcome_support not in samples:
            samples[outcome_support] = tally(_canonical_counts(data, outcome_support, args.data))
        pv = bootstrap_pvalue(samples[outcome_support], model, args.stat, args.B,
                              int(seed.generate_state(1)[0]), replicates=False).pvalue
        accepted = pv >= args.alpha
        lines.append(",".join([format(pt[n], ".10g") for n in names] + [repr(pv), str(accepted).lower()]))
    write_output("\n".join(lines) + "\n", args.out)
    return EXIT_COMPATIBLE


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _flag_value(convert, ok, what: str):
    """An argparse ``type`` that refuses a value ``ok`` rejects, naming it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, not {value!r}")
        return value
    return parse


#: ``--seed`` (as ``SeedSequence`` takes it) and ``simulate --n``
_non_negative = _flag_value(int, lambda v: v >= 0, "a non-negative integer")
#: ``invert --alpha``, a test level; NaN fails the comparison and is refused
_level = _flag_value(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
#: ``--B``: one bootstrap seed per replicate, and one spawn-key word per seed
_replicates = _flag_value(int, lambda v: 1 <= v <= 2**32, "an integer from 1 to 2**32")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` leaves it unchanged."""
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
    p_test.add_argument("--B", type=_replicates, default=200)
    p_test.add_argument("--seed", type=_non_negative, default=0)
    p_test.add_argument("--format", choices=["json", "csv"], default="json")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="draw outcomes from a parametric model")
    common(p_sim)
    p_sim.add_argument("--n", type=_non_negative, required=True)
    p_sim.add_argument("--rule", choices=models.SELECTION_RULES, default="first")
    p_sim.add_argument("--seed", type=_non_negative, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_inv = sub.add_parser("invert", help="accepted parameter region by test inversion")
    common(p_inv, data_required=True)
    p_inv.add_argument("--stat", choices=["tv-core", "tn-halflines", "semi"], default="tv-core")
    p_inv.add_argument("--B", type=_replicates, default=200)
    p_inv.add_argument("--alpha", type=_level, default=0.05)
    p_inv.add_argument("--grid", required=True, help="name=start:stop:step[,name2=...]")
    p_inv.add_argument("--seed", type=_non_negative, default=0)
    p_inv.set_defaults(func=cmd_invert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FalsiflowError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except MemoryError as exc:  # numpy's text names the allocation it refused
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
