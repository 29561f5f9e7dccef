import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsiflow.cli import _target_distribution, load_model_spec, main, render_transport
from falsiflow.correspondence import Correspondence, capacity_fp
from falsiflow.errors import SupportMismatch
from falsiflow.measure import (
    DENOMINATOR,
    FiniteDistribution,
    align,
    make_distribution,
)
from falsiflow.models import line_network_game
from falsiflow.transport import solve_zero_one
from oracles import core_deficiency_bruteforce, from_bitsets, min_cut_oracle, outcomes_of, total_variation_fp


def entry_instance():
    g = Correspondence.from_map(
        {"lo": ["(0,0)"], "mid": ["(0,1)", "(1,0)"], "hi": ["(1,1)"]},
        outcome_support=["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    )
    nu = make_distribution([("lo", 0.3), ("mid", 0.4), ("hi", 0.3)])
    return g, nu


def fixed_point(labels, weights):
    """Fixed-point distribution proportional to nonnegative integer weights."""
    numers = weights * DENOMINATOR // weights.sum()
    numers[np.argmax(numers)] += DENOMINATOR - numers.sum()
    return FiniteDistribution(tuple(labels), tuple(int(x) for x in numers))


def random_instance(rng, n_y, n_u):
    """Random correspondence (each pair adjacent w.p. 1/2, empty rows repaired)
    with random fixed-point marginals."""
    images = []
    for _ in range(n_u):
        bits = 0
        for i in range(n_y):
            if rng.random() < 0.5:
                bits |= 1 << i
        if bits == 0:
            bits = 1 << rng.integers(n_y)
        images.append(bits)
    g = from_bitsets(
        tuple(f"u{j}" for j in range(n_u)), tuple(f"y{i}" for i in range(n_y)), tuple(images)
    )

    def rand_dist(labels):
        w = rng.integers(0, 1000, size=len(labels))
        if w.sum() == 0:
            w[0] = 1
        return fixed_point(labels, w)

    return g, rand_dist(g.latent_support), rand_dist(g.outcome_support)


def plan_rows(res):
    """The plan as (latent, outcome, fixed-point mass) rows of labels."""
    return [(res.latent_support[j], res.outcome_support[i], m) for j, i, m
            in zip(res.plan_latent.tolist(), res.plan_outcome.tolist(), res.plan_mass.tolist())]


def test_identity_uniform():
    g = Correspondence.from_map({"a": ["a"], "b": ["b"]})
    u = make_distribution([("a", 0.5), ("b", 0.5)])
    res = solve_zero_one(u, u, g)
    assert res.primal_fp == 0
    assert res.witness == ()
    assert plan_rows(res) == [("a", "a", DENOMINATOR // 2), ("b", "b", DENOMINATOR // 2)]


def test_entry_compatible_split():
    g, nu = entry_instance()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.2), ("(1,0)", 0.2), ("(1,1)", 0.3)])
    res = solve_zero_one(p, nu, g)
    assert res.primal_fp == 0
    # the 0.4 multiplicity mass splits 0.2 / 0.2
    mid = {(u, y): m for u, y, m in plan_rows(res) if u == "mid"}
    assert mid[("mid", "(0,1)")] == DENOMINATOR // 5
    assert mid[("mid", "(1,0)")] == DENOMINATOR // 5


def test_entry_incompatible_witness():
    g, nu = entry_instance()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.5), ("(1,0)", 0.0), ("(1,1)", 0.2)])
    res = solve_zero_one(p, nu, g)
    assert res.primal_value == pytest.approx(0.1)
    # canonical residual-graph witness; certifies the same value as the
    # smallest maximizer {(0,1)}
    assert "(0,1)" in res.witness
    assert core_deficiency_bruteforce(g, nu, p).witness == ("(0,1)",)


def test_plan_marginals_and_adjacency():
    g, nu = entry_instance()
    p = make_distribution([("(0,0)", 0.1), ("(0,1)", 0.6), ("(1,0)", 0.1), ("(1,1)", 0.2)])
    res = solve_zero_one(p, nu, g)
    by_u = {u: 0 for u in g.latent_support}
    by_y = {y: 0 for y in g.outcome_support}
    for u, y, m in plan_rows(res):
        assert y in outcomes_of(g, u)
        by_u[u] += m
        by_y[y] += m
    for u in g.latent_support:
        assert by_u[u] <= nu.numerator(u)
    for y in g.outcome_support:
        assert by_y[y] <= p.numerator(y)
    assert sum(m for _, _, m in plan_rows(res)) == DENOMINATOR - res.primal_fp


def test_unseen_outcome_counts_against_model():
    g, nu = entry_instance()
    res = solve_zero_one(make_distribution([("x", 1.0)]), nu, g)
    assert res.primal_value == 1.0
    assert res.witness == ("x",)
    assert plan_rows(res) == []
    with pytest.raises(SupportMismatch):
        solve_zero_one(make_distribution([("x", 1.0)]), make_distribution([("v", 1.0)]), g)


def test_any_labels_equal_explicit_extension():
    """P with shuffled, missing and unseen labels gives what extending the
    correspondence and aligning P first gives."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        g, nu, _ = random_instance(rng, rng.integers(1, 8), rng.integers(1, 8))
        labels = [y for y in g.outcome_support if rng.random() < 0.7]
        labels += [f"new{k}" for k in range(rng.integers(0 if labels else 1, 3))]
        p = fixed_point(rng.permutation(np.array(labels, dtype=object)),
                        rng.integers(1, 1000, size=len(labels)))
        g_ext = g.extend_outcomes(p.support)
        assert solve_zero_one(p, nu, g) == solve_zero_one(align(p, g_ext.outcome_support), nu, g_ext)


def test_witness_certifies_dual():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g, nu, p = random_instance(rng, rng.integers(1, 9), rng.integers(1, 9))
        res = solve_zero_one(p, nu, g)
        lhs = sum(p.numerator(y) for y in res.witness)
        assert lhs - capacity_fp(g, nu, res.witness) == res.primal_fp


def test_identity_reduction_to_tv():
    rng = np.random.default_rng(11)
    ident = Correspondence.from_map({f"y{i}": [f"y{i}"] for i in range(10)})
    for _ in range(50):
        _, nu, p = random_instance(rng, 10, 10)
        nu = make_distribution(zip(ident.latent_support, nu.masses))
        p = make_distribution(zip(ident.outcome_support, p.masses))
        res = solve_zero_one(p, nu, ident)
        assert res.primal_fp == total_variation_fp(p, nu)


def test_monotone_in_correspondence():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g, nu, p = random_instance(rng, 6, 6)
        res = solve_zero_one(p, nu, g)
        j = int(rng.integers(len(g.image)))
        enlarged = list(g.image)
        enlarged[j] = (1 << len(g.outcome_support)) - 1
        g2 = from_bitsets(g.latent_support, g.outcome_support, tuple(enlarged))
        assert solve_zero_one(p, nu, g2).primal_fp <= res.primal_fp


def test_zero_mass_atoms_prunable():
    g = Correspondence.from_map({"u1": ["a"], "u2": ["a", "b"], "dead": ["b"]})
    nu = make_distribution([("u1", 0.5), ("u2", 0.5), ("dead", 0.0)])
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    full = solve_zero_one(p, nu, g)
    pruned_g = Correspondence.from_map({"u1": ["a"], "u2": ["a", "b"]}, outcome_support=["a", "b"])
    pruned_nu = make_distribution([("u1", 0.5), ("u2", 0.5)])
    pruned = solve_zero_one(p, pruned_nu, pruned_g)
    assert full.primal_fp == pruned.primal_fp


def test_verdict_compatible():
    g, nu = entry_instance()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.2), ("(1,0)", 0.2), ("(1,1)", 0.3)])
    v = solve_zero_one(p, nu, g)
    assert v.compatible
    assert "witness_probability" not in v.to_json()


def test_verdict_incompatible_probabilities():
    g, nu = entry_instance()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.5), ("(1,0)", 0.0), ("(1,1)", 0.2)])
    v = solve_zero_one(p, nu, g)
    assert not v.compatible
    assert "(0,1)" in v.witness
    assert v.witness_probability - v.witness_capacity == pytest.approx(0.1)


def test_verdict_line_network_binding_inequality():
    g, nu = line_network_game([0.4, 0.2, 0.2, 0.2])
    # p011 + p110 = 0.5 > 0.4
    p = make_distribution(
        [("(0,0,0)", 0.4), ("(0,1,1)", 0.25), ("(1,1,0)", 0.25), ("(1,1,1)", 0.1)]
    )
    v = solve_zero_one(p, nu, g)
    assert not v.compatible
    assert {"(0,1,1)", "(1,1,0)"} <= set(v.witness)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_matches_bruteforce_at_5000_latents(seed):
    """Two admissible outcomes per latent; P is the image of nu under a
    selection (compatible) or a skewed draw (falsified)."""
    rng = np.random.default_rng(seed)
    n_u, n_y = 5000, 16
    first, second = rng.integers(n_y, size=(2, n_u))
    g = from_bitsets(
        tuple(f"u{j}" for j in range(n_u)),
        tuple(f"y{i}" for i in range(n_y)),
        tuple(int(b) for b in (1 << first) | (1 << second)),
    )
    nu = fixed_point(g.latent_support, rng.integers(1, 1000, size=n_u))
    image_of_nu = np.bincount(first, weights=nu.numerators, minlength=n_y).astype(np.int64)
    skewed = rng.integers(0, 1000, size=n_y) ** 3
    for weights, falsified in ((image_of_nu, False), (skewed, True)):
        p = fixed_point(g.outcome_support, weights)
        res = solve_zero_one(p, nu, g)
        assert (res.primal_fp > 0) == falsified
        assert res.primal_fp == core_deficiency_bruteforce(g, nu, p).value_fp
        lhs = sum(p.numerator(y) for y in res.witness)
        assert lhs - capacity_fp(g, nu, res.witness) == res.primal_fp


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_primal_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    g, nu, p = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    assert solve_zero_one(p, nu, g).primal_fp == core_deficiency_bruteforce(g, nu, p).value_fp


#: Labels that JSON must escape (quote, backslash, control characters, non-ASCII)
ESCAPED = ['u"q', "b\\s", "n\nl", "c\x01t", "é", "€ 😀", "\x7f", "\t"]
#: Numeric outcome labels: the CLI reads every label of P as a number
NUMERIC = [0.1, 1e-07, 3, 0, -2, 2.5, 10**12, 1e300]


def fixed_point_with_zeros(rng, k):
    """k fixed-point numerators summing to DENOMINATOR, about a third of them 0."""
    weights = rng.integers(1, 1000, size=k) * (rng.random(k) < 0.67)
    weights[rng.integers(k)] += 1
    numers = weights * DENOMINATOR // weights.sum()
    numers[np.argmax(numers)] += DENOMINATOR - numers.sum()
    return numers.tolist()


def random_check_files(rng, k, tmp_path):
    """A custom spec and a --dist file: escaped or numeric labels, zero masses,
    P labels the correspondence does not list, and a compatible P, a falsified
    one or one on unlisted labels only (an empty plan)."""
    n_u, n_y = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    latents = [f"{ESCAPED[j % len(ESCAPED)]}{j}" for j in range(n_u)]
    pool = NUMERIC if k % 3 == 0 else ESCAPED + [f"y{i}" for i in range(len(NUMERIC))]
    labels = [pool[i] for i in rng.permutation(len(pool))[: n_y + 2]]
    outcomes, unlisted = labels[:n_y], labels[n_y:]
    images = [sorted(rng.permutation(n_y)[: rng.integers(1, n_y + 1)].tolist()) for _ in latents]
    nu = fixed_point_with_zeros(rng, n_u)
    kind = k % 4
    if kind == 0:  # the image of nu under a selection: compatible
        support = outcomes
        mass = np.bincount([rng.choice(im) for im in images], weights=nu, minlength=n_y)
        mass = mass.astype(np.int64).tolist()
    elif kind == 3:  # unlisted labels only: all mass against the model
        support, mass = unlisted, fixed_point_with_zeros(rng, len(unlisted))
    else:
        support = [y for y in outcomes if rng.random() < 0.7] + unlisted[: rng.integers(3)]
        support = support or outcomes
        mass = fixed_point_with_zeros(rng, len(support))
    spec = tmp_path / f"spec{k}.json"
    spec.write_text(json.dumps({"model": "custom", "params": {
        "correspondence": {"latent": latents, "outcomes": outcomes,
                           "G": {u: [outcomes[i] for i in im] for u, im in zip(latents, images)}},
        "nu": {"support": latents, "mass": nu}}}))
    dist = tmp_path / f"p{k}.json"
    dist.write_text(json.dumps({"support": [support[i] for i in rng.permutation(len(support))],
                                "mass": mass}))
    return str(spec), str(dist)


def test_arrays_witness_and_check_bytes_match_min_cut_oracle(tmp_path):
    """The flow read off its CSR arrays against the sparse-arithmetic read-out
    of ``min_cut_oracle``, and ``check``'s bytes against ``json.dumps``."""
    rng = np.random.default_rng(29)
    kinds = {"compatible": 0, "falsified": 0, "empty plan": 0}
    for k in range(300):
        spec, dist = random_check_files(rng, k, tmp_path)
        g, nu = load_model_spec(spec)
        p = _target_distribution(argparse.Namespace(dist=dist, data=None), g.outcome_support)
        res = solve_zero_one(p, nu, g)
        primal_fp, witness, witness_capacity_fp, plan = min_cut_oracle(p, nu, g)
        assert (res.primal_fp, res.witness, res.witness_capacity_fp) == (primal_fp, witness,
                                                                           witness_capacity_fp)
        assert plan_rows(res) == list(plan)
        assert res.plan_mass.dtype == np.int64 and (res.plan_mass > 0).all()
        report = json.dumps(res.to_json(), sort_keys=True, indent=2) + "\n"
        assert render_transport(res) == report
        out = tmp_path / "out.json"
        assert main(["check", "--model", spec, "--dist", dist, "--out", str(out)]) == (primal_fp > 0)
        assert out.read_text() == report
        kinds["empty plan" if not plan else "falsified" if primal_fp else "compatible"] += 1
    assert min(kinds.values()) >= 30, kinds
