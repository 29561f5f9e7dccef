"""Output checkers for the benchmark workloads.

Every checker recomputes what it needs from the generated inputs, with numpy
and scipy only: nothing here imports falsiflow, and no output is compared with
a stored copy of an earlier output.  A checker returns nothing on success and
raises :class:`CheckFailed` with a reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

#: Fixed-point denominator of every mass the program reads and writes.
DENOMINATOR = 10**9


class CheckFailed(Exception):
    """An output that the benchmark's own computation contradicts."""


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _parse_json(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from exc


def check_pvalue(pvalue: float, B: int):
    """A bootstrap p-value is exactly (1 + k) / (B + 1) for some k in 0..B."""
    k = round(pvalue * (B + 1)) - 1
    require(0 <= k <= B and pvalue == (1 + k) / (B + 1),
            f"p-value {pvalue!r} is not on the (1+k)/({B}+1) lattice")


# ---------------------------------------------------------------------------
# large-check: zero-one transport through max flow
# ---------------------------------------------------------------------------

def max_flow_fp(images: list[list[int]], nu: np.ndarray, p: np.ndarray) -> int:
    """Integer max flow source -> latent (nu) -> admissible outcome -> sink (p)."""
    n_u, n_y = len(nu), len(p)
    sink = n_u + n_y + 1
    arc_u = np.repeat(np.arange(n_u), [len(im) for im in images])
    arc_y = np.concatenate([np.asarray(im, dtype=np.int64) for im in images])
    rows = np.concatenate([np.zeros(n_u, np.int64), 1 + arc_u, 1 + n_u + np.arange(n_y)])
    cols = np.concatenate([1 + np.arange(n_u), 1 + n_u + arc_y, np.full(n_y, sink)])
    caps = np.concatenate([nu, np.full(len(arc_u), DENOMINATOR), p]).astype(np.int64)
    keep = caps > 0
    graph = csr_matrix(
        (caps[keep].astype(np.int32), (rows[keep], cols[keep])), shape=(sink + 1, sink + 1)
    )
    return int(maximum_flow(graph, 0, sink, method="dinic").flow_value)


def check_flow(inst, text: str, code: int):
    """`check` output on a parametric model: primal, witness and plan.

    ``inst`` has latents, outcomes (labels), images (outcome indices per
    latent), nu and p (integer numerators over DENOMINATOR).
    """
    out = _parse_json(text)
    flow = max_flow_fp(inst.images, inst.nu, inst.p)
    primal_fp = DENOMINATOR - flow
    require(out.get("primal") == primal_fp / DENOMINATOR,
            f"primal {out.get('primal')!r}, max flow gives {primal_fp}/{DENOMINATOR}")
    require(out.get("dual") == out["primal"], "dual value differs from the primal value")
    compatible = primal_fp == 0
    require(out.get("compatible") is compatible, "compatible flag disagrees with the primal")
    require(code == (0 if compatible else 1), f"exit code {code} for compatible={compatible}")

    index = {lab: i for i, lab in enumerate(inst.outcomes)}
    require(all(y in index for y in out["witness"]), "witness names an unknown outcome")
    in_w = np.zeros(len(inst.outcomes), dtype=bool)
    in_w[[index[y] for y in out["witness"]]] = True
    p_w = int(inst.p[in_w].sum())
    cap_w = int(sum(int(n) for n, im in zip(inst.nu, inst.images) if in_w[im].any()))
    require(p_w - cap_w == primal_fp,
            f"witness gives P(A) - capacity(A) = {p_w - cap_w}, primal is {primal_fp}")
    if not compatible:
        require(out.get("witness_probability") == p_w / DENOMINATOR
                and out.get("witness_capacity") == cap_w / DENOMINATOR,
                "witness probability or capacity misreported")

    latent_index = {lab: j for j, lab in enumerate(inst.latents)}
    sent_u = np.zeros(len(inst.latents), dtype=np.int64)
    sent_y = np.zeros(len(inst.outcomes), dtype=np.int64)
    for u, y, m in out["plan"]:
        require(u in latent_index and y in index, f"plan arc {u}->{y} names an unknown label")
        j, i = latent_index[u], index[y]
        require(i in inst.images[j], f"plan arc {u}->{y} is not admissible")
        require(isinstance(m, int) and m > 0, f"plan arc {u}->{y} carries mass {m!r}")
        sent_u[j] += m
        sent_y[i] += m
    require((sent_u <= inst.nu).all() and (sent_y <= inst.p).all(),
            "plan exceeds a marginal")
    require(int(sent_u.sum()) == flow, "plan mass differs from the max flow")


# ---------------------------------------------------------------------------
# invert outputs
# ---------------------------------------------------------------------------

def parse_invert(text: str, names: list[str], B: int, alpha: float) -> list[dict]:
    """Rows of an `invert` CSV, with lattice and acceptance checks applied."""
    lines = text.splitlines()
    require(bool(lines) and lines[0] == ",".join(names + ["pvalue", "accepted"]),
            f"unexpected invert header {lines[:1]}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        require(len(cells) == len(names) + 2, f"malformed invert row {line!r}")
        row = {n: float(v) for n, v in zip(names, cells)}
        row["pvalue"] = float(cells[-2])
        check_pvalue(row["pvalue"], B)
        require(cells[-1] == ("true" if row["pvalue"] >= alpha else "false"),
                f"accepted={cells[-1]} with p-value {row['pvalue']!r} and alpha {alpha}")
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# semi-invert: binary response with a conditional median restriction
# ---------------------------------------------------------------------------

PILOT_OUTCOMES = ("(0,-1)", "(0,1)", "(1,-1)", "(1,1)")
PILOT_NODES = 41           # the pilot model's default epsilon grid


def pilot_primal_lp(eta: float, p: np.ndarray) -> float:
    """Minimal violation mass of the pilot model, as one LP built here.

    Latents are (x, e) on {-1, 1} x linspace(-2, 2, PILOT_NODES); latent (x, e)
    produces outcome (1{x + e <= 0}, x); the latent law must satisfy
    Pr(e <= 0 | X = x) = eta for both x.  Variables are the joint masses
    pi[y, u]; ``p`` holds the outcome masses in PILOT_OUTCOMES order.
    """
    eps = np.round(np.linspace(-2.0, 2.0, PILOT_NODES), 12)
    xs = np.repeat([-1, 1], PILOT_NODES)
    es = np.tile(eps, 2)
    produced = [f"({int(x + e <= 0)},{x})" for x, e in zip(xs, es)]
    cost = np.array([[0.0 if y == z else 1.0 for z in produced] for y in PILOT_OUTCOMES])
    n_y, n_u = cost.shape
    below = (es <= 0).astype(float) - eta
    moments = np.vstack([below * (1 + xs), below * (1 - xs)])
    a_eq = np.vstack([np.kron(np.eye(n_y), np.ones(n_u)), np.tile(moments, n_y)])
    b_eq = np.concatenate([p, np.zeros(2)])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    require(res.status == 0, f"reference LP failed: {res.message}")
    return float(res.fun)


def pilot_region(counts: np.ndarray) -> tuple[Fraction, Fraction]:
    """Empirical Pr(Z=1 | X=1) and Pr(Z=1 | X=-1) from counts in PILOT_OUTCOMES order."""
    c0m, c01, c1m, c11 = (int(c) for c in counts)
    return Fraction(c11, c01 + c11), Fraction(c1m, c0m + c1m)


def check_semi_invert(text: str, etas: list[float], counts: np.ndarray, B: int, alpha: float):
    """Lattice, acceptance and p = 1 wherever eta lies in the empirical region."""
    rows = parse_invert(text, ["eta"], B, alpha)
    require([r["eta"] for r in rows] == etas, f"grid {[r['eta'] for r in rows]} != {etas}")
    low, high = pilot_region(counts)
    for r in rows:
        if low <= Fraction(r["eta"]) <= high:
            require(r["pvalue"] == 1.0,
                    f"p-value {r['pvalue']!r} at eta={r['eta']} inside the empirical region")


def check_semi_point(test_text: str, invert_pvalue: float, eta: float, counts: np.ndarray, B: int):
    """`test --stat semi` at one grid point: same p-value as `invert`, and the
    statistic equals the reference primal LP."""
    out = _parse_json(test_text)
    n = int(counts.sum())
    require(out.get("n") == n, f"n={out.get('n')!r}, sample has {n}")
    require(out.get("pvalue") == invert_pvalue,
            f"test p-value {out.get('pvalue')!r} != invert p-value {invert_pvalue!r}")
    check_pvalue(out["pvalue"], B)
    ref = pilot_primal_lp(eta, counts / n)
    require(abs(out["value"] - max(ref, 0.0)) <= 1e-7,
            f"statistic {out['value']!r} at eta={eta}, reference LP gives {ref!r}")


# ---------------------------------------------------------------------------
# entry-invert: two-firm entry game on a uniform grid
# ---------------------------------------------------------------------------

ENTRY_OUTCOMES = ("(0,0)", "(0,1)", "(1,0)", "(1,1)")


def entry_equilibrium_sets(delta1: float, delta2: float, resolution: int) -> np.ndarray:
    """Boolean array [node, outcome]: outcome is a pure equilibrium at the node.

    Nodes are the cell midpoints of [-2, 2]^2, first coordinate outer.
    """
    step = 4.0 / resolution
    mids = -2.0 + step * (np.arange(resolution) + 0.5)
    e1, e2 = (a.ravel() for a in np.meshgrid(mids, mids, indexing="ij"))
    eqs = []
    for y1, y2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        best1 = (delta2 * y2 + e1 >= 0).astype(int)
        best2 = (delta1 * y1 + e2 >= 0).astype(int)
        eqs.append((best1 == y1) & (best2 == y2))
    eqs = np.stack(eqs, axis=1)
    require(eqs.any(axis=1).all(), "a grid node without a pure equilibrium")
    return eqs


def entry_inequalities_hold(eqs: np.ndarray, counts: np.ndarray) -> bool:
    """P_n(A) <= capacity(A) for all 16 outcome sets, exactly in integers."""
    nodes, n = len(eqs), int(counts.sum())
    for mask in range(16):
        in_a = np.array([mask >> i & 1 for i in range(4)], dtype=bool)
        hit = int(eqs[:, in_a].any(axis=1).sum())
        if int(counts[in_a].sum()) * nodes > hit * n:
            return False
    return True


def check_entry_invert(text: str, grid: list[tuple[float, float]], counts: np.ndarray,
                       resolution: int, B: int, alpha: float) -> int:
    """Lattice, acceptance, and p = 1 where the 16 subset inequalities hold.

    Returns how many grid points satisfied the inequalities.
    """
    rows = parse_invert(text, ["delta1", "delta2"], B, alpha)
    require([(r["delta1"], r["delta2"]) for r in rows] == grid,
            f"grid {[(r['delta1'], r['delta2']) for r in rows]} != {grid}")
    holding = 0
    for r in rows:
        if entry_inequalities_hold(entry_equilibrium_sets(r["delta1"], r["delta2"], resolution), counts):
            holding += 1
            require(r["pvalue"] == 1.0,
                    f"p-value {r['pvalue']!r} at {r['delta1']},{r['delta2']} where the inequalities hold")
    return holding


# ---------------------------------------------------------------------------
# ordered-test: half-line statistic of the search model
# ---------------------------------------------------------------------------

def halfline_statistic_fp(data: np.ndarray, alpha: np.ndarray, nu: np.ndarray) -> int:
    """Largest P_n(H) - capacity(H) over the half-lines (-inf, y] and (y, inf)
    at the observed values y, by prefix sums.

    Every latent admits effort 0 and its own level alpha > 0, so a lower
    half-line at y >= 0 has capacity 1 and an upper one has nu(alpha > y).
    The sample size must divide DENOMINATOR, which makes P_n exact.
    """
    n = len(data)
    require(DENOMINATOR % n == 0, "sample size must divide the denominator")
    ys, counts = np.unique(data, return_counts=True)
    at_or_below = np.cumsum(counts * (DENOMINATOR // n))
    order = np.argsort(alpha)
    nu_above = np.concatenate([np.cumsum(nu[order][::-1])[::-1], [0]])
    upper = (DENOMINATOR - at_or_below) - nu_above[np.searchsorted(alpha[order], ys, side="right")]
    lower = at_or_below - DENOMINATOR
    return int(max(upper.max(), lower.max()))


def check_halfline_test(text: str, data: np.ndarray, alpha: np.ndarray, nu: np.ndarray,
                        B: int, seed: int):
    """`test --stat tn-halflines` output: statistic, witness and p-value."""
    out = _parse_json(text)
    value_fp = halfline_statistic_fp(data, alpha, nu)
    require(out.get("statistic") == "tn-halflines" and out.get("n") == len(data),
            "wrong statistic name or sample size")
    require(out.get("value") == value_fp / DENOMINATOR,
            f"statistic {out.get('value')!r}, prefix-sum scan gives {value_fp}/{DENOMINATOR}")
    witness = np.array([float(y) for y in out["witness"]])
    values, counts = np.unique(data, return_counts=True)
    p_w = int(counts[np.isin(values, witness)].sum()) * (DENOMINATOR // len(data))
    cap_w = int(nu.sum()) if (witness == 0.0).any() else int(nu[np.isin(alpha, witness)].sum())
    require(p_w - cap_w == value_fp, f"witness gives {p_w - cap_w}, statistic is {value_fp}")
    require(out.get("B") == B and out.get("seed") == seed, "B or seed misreported")
    check_pvalue(out["pvalue"], B)
