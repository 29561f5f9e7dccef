"""Inputs and operations of the four benchmark workloads.

Each workload turns a seed into input files and a fixed list of operations.
An operation is one `falsiflow` CLI call that writes its result with --out,
together with the checker for that result.  Only numpy is used here: the
inputs exist before falsiflow is imported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import DENOMINATOR


@dataclass
class Op:
    """One CLI call and the checker of its output.

    ``check(text, exit_code, cli_main)`` raises on a wrong output; ``cli_main``
    lets a checker make extra, untimed CLI calls.  ``known_fault`` marks an
    operation that a named program fault makes fail: a rejected output counts
    as a failed operation rather than as a wrong result.
    """

    argv: list[str]
    out: Path
    check: Callable[[str, int, Callable], None]
    known_fault: bool = False


@dataclass
class FlowInstance:
    """Parametric model as a bipartite graph with fixed-point masses."""

    latents: list[str]
    outcomes: list[str]
    images: list[list[int]]
    nu: np.ndarray
    p: np.ndarray


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _write_data(path: Path, labels) -> str:
    path.write_text("y\n" + "".join(f"{y}\n" for y in labels))
    return str(path)


def _fixed_point(rng, k: int) -> np.ndarray:
    """k random nonnegative integers summing to DENOMINATOR."""
    numers = np.floor(rng.dirichlet(np.ones(k)) * DENOMINATOR).astype(np.int64)
    numers[np.argmax(numers)] += DENOMINATOR - numers.sum()
    return numers


def _rescale(weights: np.ndarray, total: int) -> np.ndarray:
    """Integers proportional to ``weights`` summing exactly to ``total``."""
    scaled = weights * total // weights.sum()
    scaled[np.argmax(scaled)] += total - scaled.sum()
    return scaled


def _dist_json(labels, numers) -> dict:
    return {"support": list(labels), "mass": [int(m) for m in numers], "denominator": DENOMINATOR}


# ---------------------------------------------------------------------------
# semi-invert
# ---------------------------------------------------------------------------

SEMI_OPS = 12
SEMI_N = 2000
SEMI_B = 2
SEMI_ALPHA = 0.5
# Grid points sit about 0.2 outside the sampled region on either side and 0.15
# inside it, so bootstrap resamples stay on the side of their sample.  Near the
# boundary the dual ascent takes up to 100k steps instead of about 1-2k, and a
# handful of such points would decide a run's time.
SEMI_GRID = "eta=0.15:0.85:0.35"
SEMI_ETAS = [0.15, 0.5, 0.85]


def semi_invert(rng, work: Path) -> list[Op]:
    spec = _write_json(work / "pilot.json", {"model": "pilot", "params": {"eta": 0.5}})
    ops = []
    for k in range(SEMI_OPS):
        p1, pm1 = rng.uniform(0.33, 0.37), rng.uniform(0.63, 0.67)
        x = rng.choice([-1, 1], size=SEMI_N)
        z = (rng.random(SEMI_N) < np.where(x == 1, p1, pm1)).astype(int)
        labels = [f"({zi},{xi})" for zi, xi in zip(z, x)]
        counts = np.array([labels.count(y) for y in checks.PILOT_OUTCOMES])
        data = _write_data(work / f"semi{k}.csv", labels)
        seed = int(rng.integers(2**31))
        out = work / f"semi{k}.out"
        argv = ["invert", "--model", spec, "--data", data, "--stat", "semi", "--B", str(SEMI_B),
                "--alpha", str(SEMI_ALPHA), "--grid", SEMI_GRID, "--seed", str(seed), "--out", str(out)]
        # the statistic is not part of invert's output, so one point outside
        # the region is re-run through `test` and compared with a reference LP
        spot = 0 if k % 2 == 0 else 2
        ops.append(Op(argv, out, _semi_checker(work, data, counts, seed, spot)))
    return ops


def _semi_checker(work, data, counts, seed, spot):
    def check(text, code, cli_main):
        checks.require(code == 0, f"invert exited with {code}")
        checks.check_semi_invert(text, SEMI_ETAS, counts, SEMI_B, SEMI_ALPHA)
        eta = SEMI_ETAS[spot]
        point_seed = int(np.random.SeedSequence(seed).spawn(len(SEMI_ETAS))[spot].generate_state(1)[0])
        point_spec = _write_json(work / "pilot-point.json", {"model": "pilot", "params": {"eta": eta}})
        point_out = work / "pilot-point.out"
        code = cli_main(["test", "--model", point_spec, "--data", data, "--stat", "semi",
                         "--B", str(SEMI_B), "--seed", str(point_seed), "--out", str(point_out)])
        checks.require(code == 0, f"test exited with {code}")
        invert_p = checks.parse_invert(text, ["eta"], SEMI_B, SEMI_ALPHA)[spot]["pvalue"]
        checks.check_semi_point(point_out.read_text(), invert_p, eta, counts, SEMI_B)
    return check


# ---------------------------------------------------------------------------
# entry-invert
# ---------------------------------------------------------------------------

ENTRY_OPS = 8
# 2500 nodes, each of exact mass 1/2500 in fixed point; the sample has one
# observation per node, so region counts are sample counts
ENTRY_RESOLUTION = 50
ENTRY_B = 200
ENTRY_ALPHA = 0.05
ENTRY_STEP = 0.4


def entry_invert(rng, work: Path) -> list[Op]:
    spec = _write_json(work / "entry.json", {
        "model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0, "resolution": ENTRY_RESOLUTION}})
    ops = []
    for k in range(ENTRY_OPS):
        # cell midpoints are odd multiples of 0.04; deltas on multiples of 0.08
        # keep every node off an equilibrium threshold, and every delta < 0
        d1, d2 = (-0.08 * rng.integers(6, 19, size=2)).round(2)
        grid = [(round(a, 10), round(b, 10)) for a in (d1, d1 + ENTRY_STEP) for b in (d2, d2 + ENTRY_STEP)]
        # the sample reproduces the region masses of one grid point exactly,
        # splitting the monopoly region between (0,1) and (1,0) at random
        eqs = checks.entry_equilibrium_sets(*grid[rng.integers(4)], ENTRY_RESOLUTION)
        multi = eqs[:, 1] & eqs[:, 2]
        counts = eqs[~multi].sum(axis=0)
        to_01 = rng.binomial(int(multi.sum()), rng.uniform(0.2, 0.8))
        counts[1] += to_01
        counts[2] += int(multi.sum()) - to_01
        labels = np.repeat(checks.ENTRY_OUTCOMES, counts)
        rng.shuffle(labels)
        data = _write_data(work / f"entry{k}.csv", labels)
        grid_spec = (f"delta1={d1:.2f}:{d1 + ENTRY_STEP:.2f}:{ENTRY_STEP},"
                     f"delta2={d2:.2f}:{d2 + ENTRY_STEP:.2f}:{ENTRY_STEP}")
        out = work / f"entry{k}.out"
        argv = ["invert", "--model", spec, "--data", data, "--stat", "tv-core", "--B", str(ENTRY_B),
                "--alpha", str(ENTRY_ALPHA), "--grid", grid_spec,
                "--seed", str(int(rng.integers(2**31))), "--out", str(out)]
        ops.append(Op(argv, out, _entry_checker(grid, counts)))
    return ops


def _entry_checker(grid, counts):
    def check(text, code, cli_main):
        checks.require(code == 0, f"invert exited with {code}")
        holding = checks.check_entry_invert(text, grid, counts, ENTRY_RESOLUTION, ENTRY_B, ENTRY_ALPHA)
        checks.require(holding >= 1, "the sample satisfies the inequalities at no grid point")
    return check


# ---------------------------------------------------------------------------
# large-check
# ---------------------------------------------------------------------------

FLOW_OPS = 16
FLOW_LATENTS = 2500
FLOW_OUTCOMES = 60
FLOW_DEGREE = 3
FLOW_MARGIN = DENOMINATOR // 50
SEARCH_OPS = 3
SEARCH_CHECK_LEVELS = 500
SEARCH_CHECK_SEED = 20210208


def flow_instance(rng, n_u: int, n_y: int, degree: int, falsified: bool) -> FlowInstance:
    """Random correspondence with ``degree`` outcomes per latent.

    P is the image of nu under a random selection, hence compatible.  The
    falsified variant raises P on one outcome to its capacity plus
    FLOW_MARGIN, so that outcome alone is a witness.
    """
    images = np.argsort(rng.random((n_u, n_y)), axis=1)[:, :degree]
    nu = _fixed_point(rng, n_u)
    chosen = images[np.arange(n_u), rng.integers(degree, size=n_u)]
    p = np.bincount(chosen, weights=nu, minlength=n_y).astype(np.int64)
    if falsified:
        y = int(rng.integers(n_y))
        target = int(nu[(images == y).any(axis=1)].sum()) + FLOW_MARGIN
        rest = p.copy()
        rest[y] = 0
        p = _rescale(rest, DENOMINATOR - target)
        p[y] = target
    return FlowInstance(
        latents=[f"u{j}" for j in range(n_u)],
        outcomes=[f"y{i}" for i in range(n_y)],
        images=[sorted(int(i) for i in row) for row in images],
        nu=nu,
        p=p,
    )


def search_check_instance(rng, levels: int) -> tuple[dict, FlowInstance]:
    """Search model with ``levels`` effort levels k/levels and a compatible P,
    written the way `FiniteDistribution.to_json` writes labels: as strings."""
    alpha = [(k + 1) / levels for k in range(levels)]
    nu = np.full(levels, DENOMINATOR // levels, dtype=np.int64)
    zero = rng.random(levels) < 0.4
    latents = [f"e{k}" for k in range(levels)]
    outcomes = [str(0.0)] + [str(a) for a in alpha]
    p = np.concatenate([[nu[zero].sum()], np.where(zero, 0, nu)])
    spec = {"model": "search", "params": {
        "nu": _dist_json(latents, nu), "alpha": [[u, a] for u, a in zip(latents, alpha)]}}
    inst = FlowInstance(latents, outcomes, [[0, k + 1] for k in range(levels)], nu, p)
    return spec, inst


def large_check(rng, work: Path) -> list[Op]:
    ops = [custom_check_op(work, f"custom{k}",
                           flow_instance(rng, FLOW_LATENTS, FLOW_OUTCOMES, FLOW_DEGREE, falsified=k % 2 == 1))
           for k in range(FLOW_OPS)]
    # These inputs do not depend on the seed: the operations fail on every run
    # while the CLI reads the string labels of --dist as new outcomes.
    fixed = np.random.default_rng(SEARCH_CHECK_SEED)
    for k in range(SEARCH_OPS):
        spec_obj, inst = search_check_instance(fixed, SEARCH_CHECK_LEVELS)
        spec = _write_json(work / f"search{k}.json", spec_obj)
        ops.append(_check_op(work, f"search{k}", spec, inst, known_fault=True))
    return ops


def custom_check_op(work: Path, name: str, inst: FlowInstance) -> Op:
    """`check` on a `custom` model spec that spells out the instance."""
    spec = _write_json(work / f"{name}.json", {"model": "custom", "params": {
        "correspondence": {
            "latent": inst.latents,
            "outcomes": inst.outcomes,
            "G": {u: [inst.outcomes[i] for i in im] for u, im in zip(inst.latents, inst.images)},
        },
        "nu": _dist_json(inst.latents, inst.nu)}})
    return _check_op(work, name, spec, inst, known_fault=False)


def _check_op(work, name, spec, inst, known_fault):
    dist = _write_json(work / f"{name}-p.json", _dist_json(inst.outcomes, inst.p))
    out = work / f"{name}.out"
    argv = ["check", "--model", spec, "--dist", dist, "--out", str(out)]
    return Op(argv, out, lambda text, code, cli_main: checks.check_flow(inst, text, code), known_fault)


# ---------------------------------------------------------------------------
# ordered-test
# ---------------------------------------------------------------------------

ORDERED_OPS = 12
ORDERED_LEVELS = 400
ORDERED_N = 4000           # divides 10**9, so empirical masses are exact
ORDERED_B = 200
ORDERED_SHIFT = 20


def ordered_test(rng, work: Path) -> list[Op]:
    ops = []
    for k in range(ORDERED_OPS):
        alpha = np.sort(rng.choice(np.arange(1, 10**6 + 1), ORDERED_LEVELS, replace=False)) / 10**6
        nu = _fixed_point(rng, ORDERED_LEVELS)
        latents = [f"e{j}" for j in range(ORDERED_LEVELS)]
        spec = _write_json(work / f"search{k}.json", {"model": "search", "params": {
            "nu": _dist_json(latents, nu), "alpha": [[u, float(a)] for u, a in zip(latents, alpha)]}})
        drawn = rng.choice(ORDERED_LEVELS, size=ORDERED_N, p=nu / DENOMINATOR)
        if k % 2 == 1:
            # effort from a higher level than the latent allows: upper
            # half-lines then carry more mass than their capacity
            drawn = np.minimum(drawn + ORDERED_SHIFT * (rng.random(ORDERED_N) < 0.3), ORDERED_LEVELS - 1)
        data = np.where(rng.random(ORDERED_N) < 0.3, 0.0, alpha[drawn])
        path = _write_data(work / f"effort{k}.csv", (repr(float(y)) for y in data))
        seed = int(rng.integers(2**31))
        out = work / f"ordered{k}.out"
        argv = ["test", "--model", spec, "--data", path, "--stat", "tn-halflines",
                "--B", str(ORDERED_B), "--seed", str(seed), "--out", str(out)]
        ops.append(Op(argv, out, _ordered_checker(data, alpha, nu, seed)))
    return ops


def _ordered_checker(data, alpha, nu, seed):
    def check(text, code, cli_main):
        checks.require(code == 0, f"test exited with {code}")
        checks.check_halfline_test(text, data, alpha, nu, ORDERED_B, seed)
    return check


WORKLOADS = {
    "semi-invert": semi_invert,
    "entry-invert": entry_invert,
    "large-check": large_check,
    "ordered-test": ordered_test,
}


def generate(name: str, seed: int, work: Path) -> list[Op]:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, work)
