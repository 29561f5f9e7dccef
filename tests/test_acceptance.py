"""End-to-end acceptance checks.

Each test here is one acceptance criterion; the conftest hook prints a
one-line PASS/FAIL verdict per criterion at the end of the run.
"""

import json
import time

import numpy as np
import pytest

from falsiflow.cli import main
from falsiflow.correspondence import Correspondence, capacity_fp
from falsiflow.inference import bootstrap_pvalue
from falsiflow.measure import (
    DENOMINATOR,
    FiniteDistribution,
    align,
    make_distribution,
)
from falsiflow.models import (
    binary_response_pilot,
    entry_game,
    example4_instance,
    line_network_game,
    pilot_distribution,
    search_game,
)
from falsiflow.semiparametric import SemiparametricModel, maximize_dual
from falsiflow.transport import solve_zero_one
from oracles import (
    core_deficiency_bruteforce,
    dual_lp_oracle,
    from_bitsets,
    interval_deficiency,
    primal_lp_oracle,
    sample_distribution,
    selection_minimax_check,
    total_variation_fp,
)


def random_fixed_point(rng, labels):
    w = rng.integers(1, 1000, size=len(labels))
    numers = (w * DENOMINATOR // w.sum()).astype(np.int64)
    numers[np.argmax(numers)] += DENOMINATOR - numers.sum()
    return FiniteDistribution(tuple(labels), tuple(int(x) for x in numers))


def random_correspondence(rng, n_y, n_u):
    """Each pair adjacent with probability 1/2; empty rows repaired."""
    images = []
    for _ in range(n_u):
        bits = 0
        for i in range(n_y):
            if rng.random() < 0.5:
                bits |= 1 << i
        if bits == 0:
            bits = 1 << int(rng.integers(n_y))
        images.append(bits)
    return from_bitsets(
        tuple(f"u{j}" for j in range(n_u)), tuple(f"y{i}" for i in range(n_y)), tuple(images)
    )


# criterion 1 -------------------------------------------------------------


def test_criterion_01_duality_equality():
    rng = np.random.default_rng(42)
    start = time.monotonic()
    for _ in range(500):
        n_y = int(rng.integers(1, 13))
        n_u = int(rng.integers(1, 13))
        g = random_correspondence(rng, n_y, n_u)
        nu = random_fixed_point(rng, g.latent_support)
        p = random_fixed_point(rng, g.outcome_support)
        assert solve_zero_one(p, nu, g).primal_fp == core_deficiency_bruteforce(g, nu, p).value_fp
    assert time.monotonic() - start < 10.0


# criterion 2 -------------------------------------------------------------


def test_criterion_02_tv_reduction():
    rng = np.random.default_rng(43)
    labels = tuple(f"y{i}" for i in range(10))
    ident = Correspondence.from_map({y: [y] for y in labels}, outcome_support=labels)
    for _ in range(200):
        nu = random_fixed_point(rng, labels)
        p = random_fixed_point(rng, labels)
        assert solve_zero_one(p, nu, ident).primal_fp == total_variation_fp(p, nu)


# criterion 3 -------------------------------------------------------------


def test_criterion_03_line_network_flip():
    g, nu = line_network_game([0.4, 0.2, 0.2, 0.2])
    flips = []
    prev = None
    for k in range(81):  # p011 + p110 = t sweeps 0.00 .. 0.80
        t = k / 100
        p = make_distribution(
            [("(0,0,0)", 0.9 - t), ("(0,1,1)", t / 2), ("(1,1,0)", t / 2), ("(1,1,1)", 0.1)]
        )
        compatible = solve_zero_one(p, nu, g).compatible
        if prev is not None and compatible != prev:
            flips.append(t)
        prev = compatible
    # exactly one flip, from compatible to incompatible, right after t = 0.40
    assert flips == [0.41]


# criterion 4 -------------------------------------------------------------


def test_criterion_04_entry_game_16_inequalities():
    g, nu = entry_game(-1.0, -1.0)
    rng = np.random.default_rng(44)
    for _ in range(100):
        p = align(random_fixed_point(rng, g.outcome_support), g.outcome_support)
        verdict = solve_zero_one(p, nu, g).compatible
        holds = all(
            sum(n for i, n in enumerate(p.numerators) if bits >> i & 1)
            <= capacity_fp(g, nu, g.labels_of(bits))
            for bits in range(16)
        )
        assert verdict == holds


# criterion 5 -------------------------------------------------------------


def test_criterion_05_no_duality_gap():
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    for _ in range(50):
        n_y = int(rng.integers(1, 7))
        n_u = int(rng.integers(1, 21))
        d_m = int(rng.integers(0, 4))
        images = tuple(int(rng.integers(1, 1 << n_y)) for _ in range(n_u))
        g = from_bitsets(
            tuple(f"u{j}" for j in range(n_u)), tuple(f"y{i}" for i in range(n_y)), images
        )
        raw = rng.uniform(-1.0, 1.0, size=(d_m, n_u))
        nu0 = rng.dirichlet(np.ones(n_u))
        moments = raw - (raw @ nu0)[:, None]  # nu0 in V keeps the primal feasible
        model = SemiparametricModel(g, moments)
        p = random_fixed_point(rng, g.outcome_support)
        cert = maximize_dual(model, p)
        value, _ = primal_lp_oracle(model, p)
        oracle = dual_lp_oracle(model, p)
        assert abs(cert.T - value) <= 1e-8
        assert abs(cert.T - oracle) <= 1e-8
    assert time.monotonic() - start < 60.0


# criterion 6 -------------------------------------------------------------


def test_criterion_06_pilot_analytic_region():
    etas = [round(0.05 * k, 10) for k in range(1, 20)]
    probs = [round(0.1 * k, 10) for k in range(1, 10)]
    models = {eta: binary_response_pilot(eta) for eta in etas}

    # confirm the analytic region against the primal LP on 20 spot points
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta = etas[int(rng.integers(len(etas)))]
        p1 = probs[int(rng.integers(len(probs)))]
        pm1 = probs[int(rng.integers(len(probs)))]
        m = models[eta]
        p = align(pilot_distribution(p1, pm1), m.correspondence.outcome_support)
        value, _ = primal_lp_oracle(m, p)
        assert (value <= 1e-9) == (p1 <= eta <= pm1)

    for eta in etas:
        m = models[eta]
        sup = m.correspondence.outcome_support
        for p1 in probs:
            for pm1 in probs:
                cert = maximize_dual(m, align(pilot_distribution(p1, pm1), sup))
                if p1 <= eta <= pm1:
                    assert cert.T <= 1e-6
                else:
                    assert cert.T >= 1e-3


# criterion 7 -------------------------------------------------------------


def test_criterion_07_truncation_family_values():
    values = []
    for m in (2, 10, 100, 1000):
        model, p = example4_instance(m)
        cert = maximize_dual(model, p)
        value, _ = primal_lp_oracle(model, p)
        assert cert.T == pytest.approx(1 / m, abs=1e-6)
        assert value == pytest.approx(1 / m, abs=1e-6)
        assert value > 0 and cert.T > 0
        values.append(value)
    assert all(a > b for a, b in zip(values, values[1:]))


# criterion 8 -------------------------------------------------------------


def _random_search_instance(rng, alternative, levels=None):
    """Monotone search model with ``levels`` grid points, or 2 to 11 drawn from ``rng``.

    Compatible instances push each effort mass to either zero effort or its own
    level.  Alternatives overload a top block of effort levels, so the positive
    deficiencies form a suffix and the binding set is a half-line class.
    """
    k = int(rng.integers(2, 12)) if levels is None else levels
    levels = [round((j + 1) / (k + 1), 10) for j in range(k)]
    w = rng.integers(1, 1000, size=k)
    nu_numers = (w * DENOMINATOR // w.sum()).astype(np.int64)
    nu_numers[np.argmax(nu_numers)] += DENOMINATOR - nu_numers.sum()
    labels = tuple(f"e{j}" for j in range(k))
    nu = FiniteDistribution(labels, tuple(int(x) for x in nu_numers))
    g, nu = search_game(list(zip(labels, levels)), nu)

    p_numers = [0] * (k + 1)  # index 0 is the zero-effort outcome
    if not alternative:
        for j in range(k):
            s = int(rng.integers(0, int(nu_numers[j]) + 1))
            p_numers[j + 1] = s
            p_numers[0] += int(nu_numers[j]) - s
    else:
        cut = int(rng.integers(1, k))
        slack = 0
        for j in range(cut):
            s = int(rng.integers(0, int(nu_numers[j])))
            p_numers[j + 1] = s
            slack += int(nu_numers[j]) - s
        delta = int(rng.integers(1, slack + 1))
        p_numers[0] = slack - delta
        shares = rng.multinomial(delta, np.ones(k - cut) / (k - cut))
        for j in range(cut, k):
            p_numers[j + 1] = int(nu_numers[j]) + int(shares[j - cut])
    p = FiniteDistribution(g.outcome_support, tuple(p_numers))
    return g, nu, p


def test_criterion_08_interval_criterion():
    rng = np.random.default_rng(88)
    for i in range(100):
        g, nu, p = _random_search_instance(rng, alternative=i % 2 == 1)
        best_fp, _, _ = interval_deficiency(g, nu, p)
        report = core_deficiency_bruteforce(g, nu, p)
        assert best_fp == report.value_fp
        if i % 2 == 0:
            assert report.value_fp == 0


# criterion 9 -------------------------------------------------------------


def test_criterion_09_selection_minimax():
    rng = np.random.default_rng(99)
    for _ in range(50):
        k = int(rng.choice([1, 2, 4, 5]))  # uniform chunks must divide the denominator
        n_y = int(rng.integers(1, 7))
        labels_u = tuple(f"u{j}" for j in range(k))
        labels_y = tuple(f"y{i}" for i in range(n_y))
        images = []
        for _ in range(k):
            size = int(rng.integers(1, min(3, n_y) + 1))
            chosen = rng.choice(n_y, size=size, replace=False)
            images.append(sum(1 << int(i) for i in chosen))
        g = from_bitsets(labels_u, labels_y, tuple(images))
        nu = FiniteDistribution(labels_u, tuple([DENOMINATOR // k] * k))
        p_numers = [0] * n_y
        for _ in range(k):
            p_numers[int(rng.integers(n_y))] += DENOMINATOR // k
        p = FiniteDistribution(labels_y, tuple(p_numers))
        assert selection_minimax_check(g, nu, p).equal


# criterion 10 ------------------------------------------------------------


def test_criterion_10_bootstrap_size_and_power():
    g, nu = entry_game(-1.0, -1.0)
    # compatible null: uniform split of the multiplicity region
    null = make_distribution(
        [("(0,0)", 0.25), ("(0,1)", 0.34375), ("(1,0)", 0.34375), ("(1,1)", 0.0625)]
    )
    # alternative with deficiency exactly 0.1 on {(0,1)}
    alt = make_distribution(
        [("(0,0)", 0.25), ("(0,1)", 0.475), ("(1,0)", 0.2125), ("(1,1)", 0.0625)]
    )
    assert solve_zero_one(null, nu, g).compatible
    report = core_deficiency_bruteforce(g, nu, alt)
    assert report.value_fp == DENOMINATOR // 10

    start = time.monotonic()

    def rejections(p, root):
        count = 0
        for child in np.random.SeedSequence(root).spawn(100):
            s1, s2 = (int(x) for x in child.generate_state(2))
            data = sample_distribution(p, 500, seed=s1)
            rep = bootstrap_pvalue(data, (nu, g), "tv-core", B=200, seed=s2)
            count += rep.pvalue <= 0.05
        return count

    assert rejections(null, 20260823) <= 10
    assert rejections(alt, 70823) >= 95
    assert time.monotonic() - start < 300.0


# criterion 11 ------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "entry_game", "params": {"delta1": -1.0, "delta2": -1.0}}))
    dist = tmp_path / "dist.json"
    dist.write_text(
        json.dumps(
            {
                "support": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
                "mass": [250000000, 475000000, 212500000, 62500000],
                "denominator": 1000000000,
            }
        )
    )
    data = tmp_path / "data.csv"
    main(["simulate", "--model", str(model), "--n", "120", "--seed", "5", "--out", str(data)])

    commands = {
        "check": ["check", "--model", str(model), "--dist", str(dist)],
        "simulate": ["simulate", "--model", str(model), "--n", "80", "--seed", "1",
                     "--rule", "uniform-random"],
        "test": ["test", "--model", str(model), "--data", str(data), "--stat", "tv-core",
                 "--B", "50", "--seed", "3"],
        "test-csv": ["test", "--model", str(model), "--data", str(data), "--B", "20",
                     "--seed", "3", "--format", "csv"],
        "invert": ["invert", "--model", str(model), "--data", str(data), "--B", "20",
                   "--seed", "9", "--grid", "delta1=-1.5:-0.5:0.25"],
    }
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            code = main(argv + ["--out", str(out)])
            assert code in (0, 1)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], name
