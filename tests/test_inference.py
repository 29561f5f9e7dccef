import math
from dataclasses import replace

import numpy as np
import pytest

from falsiflow import inference
from falsiflow.correspondence import Correspondence
from falsiflow.errors import EmptyData, NotOrdered, SupportMismatch
from falsiflow.inference import (
    bootstrap_pvalue,
    statistic_semiparametric,
    statistic_tn_halflines,
    statistic_tv_core,
)
from falsiflow.measure import FiniteDistribution, align, empirical, make_distribution
from falsiflow.models import (
    binary_response_pilot,
    entry_game,
    line_network_game,
    search_game,
    simulate,
)
from falsiflow.semiparametric import maximize_dual, maximize_dual_batch
from oracles import core_deficiency_bruteforce, sample_distribution


def entry_instance():
    g = Correspondence.from_map(
        {"lo": ["(0,0)"], "mid": ["(0,1)", "(1,0)"], "hi": ["(1,1)"]},
        outcome_support=["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    )
    nu = make_distribution([("lo", 0.3), ("mid", 0.4), ("hi", 0.3)])
    return g, nu


def search_instance():
    nu = make_distribution([("e1", 0.2), ("e2", 0.3), ("e3", 0.5)])
    return search_game([("e1", 0.2), ("e2", 0.5), ("e3", 0.9)], nu)


def test_tv_core_compatible_exact_counts():
    g, nu = entry_instance()
    # empirical masses (0.3, 0.4, 0.0, 0.3) are a selection pushforward
    data = ["(0,0)"] * 3 + ["(0,1)"] * 4 + ["(1,1)"] * 3
    rep = statistic_tv_core(data, nu, g)
    assert rep.value == 0.0
    assert rep.scaled_value == 0.0


def test_tv_core_known_deficiency():
    g, nu = entry_instance()
    data = ["(0,0)"] * 3 + ["(0,1)"] * 5 + ["(1,1)"] * 2
    rep = statistic_tv_core(data, nu, g)
    assert rep.value == pytest.approx(0.1)
    assert rep.scaled_value == pytest.approx(math.sqrt(10) * 0.1)
    assert "(0,1)" in rep.witness


def test_tv_core_matches_bruteforce():
    g, nu = entry_instance()
    rng = np.random.default_rng(17)
    for _ in range(20):
        data = list(rng.choice(g.outcome_support, size=40))
        rep = statistic_tv_core(data, nu, g)
        p_n = align(empirical(data), g.outcome_support)
        assert rep.value == core_deficiency_bruteforce(g, nu, p_n).value


def test_tv_core_unknown_outcome_counts_against_model():
    g, nu = entry_instance()
    rep = statistic_tv_core(["(0,0)", "weird"], nu, g)
    assert rep.value >= 0.5  # the unknown label has capacity 0


def test_tv_core_permutation_invariant():
    g, nu = entry_instance()
    data = ["(0,0)", "(0,1)", "(1,1)", "(0,1)"]
    a = statistic_tv_core(data, nu, g)
    b = statistic_tv_core(data[::-1], nu, g)
    assert a.value == b.value


def test_tv_core_empty():
    g, nu = entry_instance()
    with pytest.raises(EmptyData):
        statistic_tv_core([], nu, g)


@pytest.mark.parametrize("data", [[], {}], ids=["labels", "counts"])
def test_tally_empty_fails_as_empirical(data):
    # tally builds P_n with empirical, so it refuses an empty sample in its words
    with pytest.raises(EmptyData, match="^empirical distribution of an empty sample$"):
        inference.tally(data)


def test_sqrt_n_scaling_under_duplication():
    g, nu = entry_instance()
    data = ["(0,0)"] * 3 + ["(0,1)"] * 5 + ["(1,1)"] * 2
    one = statistic_tv_core(data, nu, g)
    two = statistic_tv_core(data * 2, nu, g)
    assert two.value == one.value
    assert two.scaled_value == pytest.approx(math.sqrt(2) * one.scaled_value, abs=1e-12)


def test_halflines_all_zeros():
    g, nu = search_instance()
    rep = statistic_tn_halflines([0.0] * 12, nu, g)
    assert rep.value == 0.0


def test_halflines_single_observation():
    g, nu = search_instance()
    rep = statistic_tn_halflines([0.9], nu, g)
    # classes are (-inf, 0.9] and (0.9, inf); the first has capacity 1,
    # the second is empty of mass
    assert rep.value == pytest.approx(0.0)


def test_halflines_upper_block_matches_bruteforce():
    g, nu = search_instance()
    # the binding set {0.9} is exactly the class (0.5, inf)
    data = [0.9] * 6 + [0.5] * 1 + [0.0] * 3
    rep = statistic_tn_halflines(data, nu, g)
    p_n = align(empirical(data), g.outcome_support)
    assert rep.value == core_deficiency_bruteforce(g, nu, p_n).value
    assert rep.witness == (0.9,)


def test_halflines_below_full_subset_statistic():
    g, nu = search_instance()
    rng = np.random.default_rng(4)
    for _ in range(20):
        data = [float(v) for v in rng.choice(g.outcome_support, size=15)]
        half = statistic_tn_halflines(data, nu, g)
        p_n = align(empirical(data), g.outcome_support)
        assert half.value <= core_deficiency_bruteforce(g, nu, p_n).value + 1e-15


def test_halflines_requires_order():
    g = Correspondence.from_map({"u": ["a", 1]})
    nu = make_distribution([("u", 1.0)])
    with pytest.raises(NotOrdered):
        statistic_tn_halflines(["a", 1], nu, g)


def test_semiparametric_statistic_compatible():
    model = binary_response_pilot(0.5)
    data = ["(0,-1)"] * 2 + ["(0,1)"] * 3 + ["(1,-1)"] * 3 + ["(1,1)"] * 2
    rep = statistic_semiparametric(data, model)
    assert rep.value <= 1e-6
    assert rep.certificate is not None


def test_semiparametric_statistic_incompatible():
    model = binary_response_pilot(0.3)
    # P_n(Z=1 | X=1) = 0.8 >> eta
    data = ["(1,1)"] * 4 + ["(0,1)"] * 1 + ["(0,-1)"] * 3 + ["(1,-1)"] * 2
    rep = statistic_semiparametric(data, model)
    assert rep.value >= 1e-3


def test_semiparametric_no_moments():
    g = Correspondence.from_map({"u": ["a", "b"]})
    from falsiflow.semiparametric import SemiparametricModel

    model = SemiparametricModel(g, np.zeros((0, 1)))
    rep = statistic_semiparametric(["a", "b", "a"], model)
    assert rep.value == 0.0


def test_bootstrap_deterministic_in_multiset():
    g, nu = entry_instance()
    data = ["(0,0)"] * 6 + ["(0,1)"] * 10 + ["(1,1)"] * 4
    a = bootstrap_pvalue(data, (nu, g), "tv-core", B=50, seed=11)
    b = bootstrap_pvalue(data[::-1], (nu, g), "tv-core", B=50, seed=11)
    assert a.pvalue == b.pvalue
    assert a.replicates == b.replicates


def test_bootstrap_single_tie():
    g, nu = entry_instance()
    # T_obs = 0 and the recentered replicate is always >= 0, so p = 1
    data = ["(0,0)"] * 3 + ["(0,1)"] * 4 + ["(1,1)"] * 3
    rep = bootstrap_pvalue(data, (nu, g), "tv-core", B=1, seed=0)
    assert rep.value == 0.0
    assert rep.pvalue == 1.0


def test_bootstrap_pvalue_range_and_fields():
    g, nu = entry_instance()
    data = list(simulate(g, nu, "uniform-random", 80, seed=2))
    rep = bootstrap_pvalue(data, (nu, g), "tv-core", B=37, seed=5)
    assert 0 < rep.pvalue <= 1
    assert rep.B == 37 and len(rep.replicates) == 37
    assert rep.to_json()["pvalue"] == rep.pvalue


def test_bootstrap_rejects_gross_violation():
    g, nu = entry_instance()
    bad = make_distribution([("(0,0)", 0.1), ("(0,1)", 0.8), ("(1,0)", 0.05), ("(1,1)", 0.05)])
    data = sample_distribution(bad, 400, seed=13)
    rep = bootstrap_pvalue(data, (nu, g), "tv-core", B=99, seed=21)
    assert rep.pvalue <= 0.05


def test_bootstrap_semiparametric_kind():
    model = binary_response_pilot(0.5)
    data = ["(0,-1)"] * 5 + ["(0,1)"] * 5 + ["(1,-1)"] * 5 + ["(1,1)"] * 5
    rep = bootstrap_pvalue(data, model, "semi", B=10, seed=1)
    assert rep.statistic_name == "semi"
    assert rep.pvalue > 0.05


def test_bootstrap_semi_batch_matches_one_at_a_time_with_unknown_label():
    # "(2,1)" lies outside the model's outcome support, so it counts against
    # the model in every resample that draws it
    model = binary_response_pilot(0.4)
    data = ["(0,-1)"] * 30 + ["(0,1)"] * 22 + ["(1,-1)"] * 35 + ["(1,1)"] * 10 + ["(2,1)"] * 3
    rep = bootstrap_pvalue(data, model, "semi", B=50, seed=4)

    # reference: each resample rebuilt as a label list and tested on its own
    support = sorted(set(data), key=str)
    counts = np.array([data.count(y) for y in support])
    observed = statistic_semiparametric(data, model).value
    reference = []
    for child in np.random.SeedSequence(4).spawn(50):
        row = np.random.default_rng(child).multinomial(len(data), counts / len(data))
        labels = [y for y, c in zip(support, row) for _ in range(c)]
        reference.append(statistic_semiparametric(labels, model).value - observed)
    assert rep.value == observed > 0
    assert np.abs(np.array(rep.replicates) - reference).max() <= 1e-12
    assert rep.pvalue == (1 + sum(v >= observed for v in reference)) / 51


@pytest.mark.parametrize("eta", [0.15, 0.5, 0.85])
def test_bootstrap_semi_certificate_is_the_standalone_one(eta):
    # the observed P_n is solved first in the batch with its resamples, by
    # the same LP maximize_dual solves
    model = binary_response_pilot(eta)
    data = ["(0,-1)"] * 65 + ["(0,1)"] * 35 + ["(1,-1)"] * 33 + ["(1,1)"] * 67
    rep = bootstrap_pvalue(data, model, "semi", B=2, seed=901)
    ref = maximize_dual(model, empirical(data))
    cert = rep.certificate
    assert cert.T == ref.T and rep.value == max(ref.T, 0.0)
    assert cert.lambda_star.tobytes() == ref.lambda_star.tobytes()
    assert list(cert.minimizer_map.items()) == list(ref.minimizer_map.items())
    assert cert.iterations == ref.iterations
    assert rep.to_json() == statistic_semiparametric(data, model).to_json() | {
        "pvalue": rep.pvalue, "B": 2, "seed": 901}


def pilot_data(seed, unseen):
    """n = 2,000 pilot outcomes, first appearing in other than sorted order,
    and with labels the pilot does not list when ``unseen``: those first
    appear in reverse sorted order, so the extended model's outcome order
    tells P_n's label order from the sorted resampling order."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(["(1,1)", "(0,-1)", "(1,-1)", "(0,1)"], size=2000, p=[0.2, 0.3, 0.15, 0.35])
    labels[:4] = ["(1,1)", "(0,1)", "(1,-1)", "(0,-1)"]
    if unseen:
        labels[1:90:3] = "zz"
        labels[2:90:5] = "junk"
        labels[4:90:7] = "(2,1)"
    return labels.tolist()


def reference_semi_bootstrap(data, model, B, seed):
    """The semi bootstrap with one distribution record per resample: each
    resample is built by make_distribution, aligned onto P_n's labels, and its
    masses stacked, P_n's first, as rows in P_n's label order."""
    sample = inference.tally(data)
    draws = [np.random.default_rng(child).multinomial(sample.n, sample.probs)
             for child in np.random.SeedSequence(seed).spawn(B)]
    ps = [sample.p_n] + [make_distribution(zip(sample.support, row / sample.n)) for row in draws]
    rows = np.array([align(p, sample.p_n.support).masses for p in ps])
    observed, *certs = maximize_dual_batch(model, sample.p_n.support, rows)
    value = max(observed.T, 0.0)
    replicates = tuple(max(c.T, 0.0) - value for c in certs)
    return observed, replicates, (1 + sum(v >= value for v in replicates)) / (B + 1)


@pytest.mark.parametrize("unseen", [False, True], ids=["listed", "unseen"])
@pytest.mark.parametrize("eta", [0.15, 0.5, 0.85])
def test_bootstrap_semi_equals_one_record_per_resample(eta, unseen):
    model = binary_response_pilot(eta)
    data = pilot_data(int(eta * 100), unseen)
    rep = bootstrap_pvalue(data, model, "semi", 200, 901)
    cert, replicates, pvalue = reference_semi_bootstrap(data, model, 200, 901)
    assert rep.replicates == replicates
    assert rep.pvalue == pvalue
    assert rep.certificate.T == cert.T
    assert rep.certificate.lambda_star.tobytes() == cert.lambda_star.tobytes()
    assert list(rep.certificate.minimizer_map.items()) == list(cert.minimizer_map.items())
    assert rep.certificate.iterations == cert.iterations


def test_semi_bootstrap_builds_no_distribution_per_resample(monkeypatch):
    model = binary_response_pilot(0.5)
    data = pilot_data(5, unseen=True)
    built = []
    check = FiniteDistribution.__post_init__
    monkeypatch.setattr(FiniteDistribution, "__post_init__", lambda p: built.append(p) or check(p))
    counts = []
    for B in (20, 200):
        built.clear()
        bootstrap_pvalue(data, model, "semi", B, 3)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("B", [0, 2**32 + 1])
def test_bootstrap_refuses_a_replicate_count_outside_1_to_2_32(B):
    g, nu = entry_instance()
    with pytest.raises(SupportMismatch, match="^B must be at (least 1|most 2\\*\\*32)"):
        bootstrap_pvalue(["(0,0)"], (nu, g), "tv-core", B=B, seed=0)


def test_csv_report_one_row_per_replicate():
    g, nu = entry_instance()
    data = ["(0,0)", "(0,1)", "(1,1)", "(0,1)"]
    rep = bootstrap_pvalue(data, (nu, g), "tv-core", B=5, seed=0)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "replicate,value"
    assert len(lines) == 2 + 5  # header + observed + B replicates


def set_supremum_replicates(data, kind, B, seed):
    """Each resample drawn from its own child seed and recentred on its own:
    the one-at-a-time reference for the "tv-core" and "tn-halflines"
    replicates.  ``len(data)`` must divide 10**9, so that P_n is exact."""
    support = sorted(set(data), key=str)
    counts = np.array([data.count(y) for y in support])
    order = np.argsort(support) if kind == "tn-halflines" else None
    reference = []
    for child in np.random.SeedSequence(seed).spawn(B):
        excess = np.random.default_rng(child).multinomial(len(data), counts / len(data)) - counts
        if kind == "tv-core":
            reference.append(np.maximum(excess, 0).sum() / len(data))
        else:
            reference.append(np.abs(np.cumsum(excess[order])).max() / len(data))
    return tuple(reference)


@pytest.mark.parametrize("kind, instance, data, zero", [
    ("tv-core", entry_instance, ["(0,0)"] * 3 + ["(0,1)"] * 4 + ["(1,1)"] * 3, True),
    ("tv-core", entry_instance, ["(0,0)"] * 3 + ["(0,1)"] * 5 + ["(1,1)"] * 2, False),
    ("tn-halflines", search_instance, [0.0] * 5 + [0.2] + [0.5] * 2 + [0.9] * 2, True),
    ("tn-halflines", search_instance, [0.9] * 6 + [0.5] + [0.0] * 3, False),
], ids=["tv-core-zero", "tv-core-positive", "halflines-zero", "halflines-positive"])
def test_bootstrap_without_replicates_draws_nothing_only_at_zero(kind, instance, data, zero,
                                                                 monkeypatch):
    g, nu = instance()
    full = bootstrap_pvalue(data, (nu, g), kind, B=30, seed=8)
    assert (full.value == 0) is zero
    assert full.replicates == set_supremum_replicates(data, kind, 30, 8)
    assert full.pvalue == (1 + sum(v >= full.value for v in full.replicates)) / 31

    spawned = []
    derive = inference._spawned_pcg64_states
    monkeypatch.setattr(inference, "_spawned_pcg64_states",
                        lambda *args: spawned.append(args) or derive(*args))
    rep = bootstrap_pvalue(data, (nu, g), kind, B=30, seed=8, replicates=False)
    if zero:
        # every replicate is at least 0, so p is 1 without a draw
        assert full.pvalue == 1.0 and min(full.replicates) >= 0
        assert rep == replace(full, replicates=()) and spawned == []
    else:
        assert rep == full and spawned
