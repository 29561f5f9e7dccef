"""The prefix-sum half-line routine against the per-class loops it replaced.

The reference functions below transcribe the earlier implementations, which
built every half-line class as a bitset and called ``capacity_fp`` on it, and
computed one bootstrap replicate at a time.  The new code must reproduce
their values, witnesses, kinds, replicates and p-values exactly.
"""

import json
import math
from collections import Counter

import numpy as np
import pytest

from falsiflow import correspondence, inference, models
from falsiflow.cli import main
from falsiflow.correspondence import Correspondence, capacity_fp, max_halfline_deficiency_fp
from falsiflow.errors import FalsiflowError, NotMonotone, NotOrdered, SupportMismatch
from falsiflow.inference import bootstrap_pvalue, statistic_tn_halflines, statistic_tv_core
from falsiflow.measure import DENOMINATOR, FiniteDistribution, align, empirical, make_distribution
from falsiflow.models import interval_deficiency, search_game
from oracles import from_bitsets


# --- references: the per-class and per-replicate loops ----------------------

def halflines_loop(data, nu, g):
    """(value_fp, witness, all class values) of the half-line statistic."""
    g_ext = g.extend_outcomes(empirical(list(data)).support)
    p_n = align(empirical(list(data)), g_ext.outcome_support)
    support = g_ext.outcome_support
    keyed = sorted(range(len(support)), key=lambda i: support[i])
    best_fp, best_bits, seen = None, 0, []
    for y in sorted(set(data)):
        low = sum(1 << i for i in keyed if support[i] <= y)
        high = sum(1 << i for i in keyed if support[i] > y)
        for bits in (low, high):
            value = sum(
                n for i, n in enumerate(p_n.numerators) if bits >> i & 1
            ) - capacity_fp(g_ext, nu, bits)
            seen.append(value)
            if best_fp is None or value > best_fp:
                best_fp, best_bits = value, bits
    return best_fp, g_ext.labels_of(best_bits), seen


def interval_loop(g, nu, p):
    order = sorted(range(len(g.outcome_support)), key=lambda i: g.outcome_support[i])
    best, best_bits, kind = 0, 0, "empty"
    for cut in range(len(order)):
        lower = sum(1 << i for i in order[: cut + 1])
        upper = sum(1 << i for i in order[cut:])
        for bits, name in ((lower, "lower"), (upper, "upper")):
            value = sum(
                n for i, n in enumerate(p.numerators) if bits >> i & 1
            ) - capacity_fp(g, nu, bits)
            if value > best:
                best, best_bits, kind = value, bits, name
    return best, g.labels_of(best_bits), kind


def replicates_loop(data, kind, B, seed):
    n = len(data)
    p_n = empirical(data)
    order = sorted(range(len(p_n.support)), key=lambda i: str(p_n.support[i]))
    support = [p_n.support[i] for i in order]
    probs = np.array([p_n.numerators[i] for i in order], dtype=float) / DENOMINATOR
    tally = Counter(data)
    base_counts = [tally[lab] for lab in support]
    replicates = []
    for child in np.random.SeedSequence(seed).spawn(B):
        counts = np.random.default_rng(child).multinomial(n, probs)
        if kind == "tv-core":
            excess = sum(max(int(s) - int(b), 0) for s, b in zip(counts, base_counts))
            replicates.append(excess / n)
            continue
        best = prefix = 0
        for i in sorted(range(len(support)), key=lambda i: support[i]):
            prefix += int(counts[i]) - int(base_counts[i])
            best = max(best, prefix, -prefix)
        replicates.append(best / n)
    return replicates


# --- random numeric models -----------------------------------------------------

def random_numerators(rng, k, coarse):
    if coarse:
        # multiples of a quarter, so classes often tie
        return [int(c) * DENOMINATOR // 4 for c in rng.multinomial(4, np.ones(k) / k)]
    cuts = np.sort(rng.integers(0, DENOMINATOR + 1, k - 1))
    return np.diff(np.concatenate(([0], cuts, [DENOMINATOR]))).tolist()


def random_numeric_model(rng, coarse=False):
    """Numeric outcomes listed out of sorted order, random nonempty images."""
    n_y = int(rng.integers(1, 9))
    levels = rng.choice(np.arange(-6, 14), n_y, replace=False) / 2
    outcomes = tuple(float(v) for v in rng.permutation(levels))
    n_u = int(rng.integers(1, 7))
    images = []
    for _ in range(n_u):
        size = int(rng.integers(1, n_y + 1))
        images.append(sum(1 << int(i) for i in rng.choice(n_y, size, replace=False)))
    latents = tuple(f"u{j}" for j in range(n_u))
    nu = FiniteDistribution(latents, tuple(random_numerators(rng, n_u, coarse)))
    return from_bitsets(latents, outcomes, tuple(images)), nu


def random_data(rng, g, coarse=False):
    """Repeated draws from the support, sometimes with labels outside it."""
    n = int(rng.choice([1, 2, 4, 8])) if coarse else int(rng.integers(1, 30))
    pool = list(g.outcome_support)
    if rng.random() < 0.5:
        pool += [float(v) for v in rng.choice([-9.0, 0.25, 3.75, 99.0], 2, replace=False)]
    return [pool[int(i)] for i in rng.integers(len(pool), size=n)]


def random_data_on(rng, support, coarse):
    n = int(rng.choice([1, 2, 4])) if coarse else int(rng.integers(1, 25))
    return [support[int(i)] for i in rng.integers(len(support), size=n)]


def random_search_model(rng):
    k = int(rng.integers(1, 8))
    alpha = np.sort(rng.choice(np.arange(0, 21), k, replace=False)) / 20
    latents = [f"e{j}" for j in range(k)]
    nu = FiniteDistribution(tuple(latents), tuple(random_numerators(rng, k, False)))
    return search_game(list(zip(latents, alpha.tolist())), nu)


# --- equivalence -------------------------------------------------------------------

@pytest.mark.parametrize("coarse", [False, True])
def test_statistic_matches_class_loop(coarse):
    rng = np.random.default_rng(606 + coarse)
    ties = 0
    for trial in range(400):
        g, nu = random_search_model(rng) if trial % 4 == 0 else random_numeric_model(rng, coarse)
        data = random_data(rng, g, coarse)
        best_fp, witness, seen = halflines_loop(data, nu, g)
        rep = statistic_tn_halflines(data, nu, g)
        assert rep.value == best_fp / DENOMINATOR
        assert rep.witness == witness
        ties += seen.count(best_fp) > 1
    assert ties > 20  # the first-maximum rule was exercised


@pytest.mark.parametrize("coarse", [False, True])
def test_interval_deficiency_matches_class_loop(coarse):
    rng = np.random.default_rng(707 + coarse)
    kinds = Counter()
    for trial in range(400):
        g, nu = random_search_model(rng) if trial % 4 == 0 else random_numeric_model(rng, coarse)
        support = [y for y in g.outcome_support if rng.random() < 0.7] or [g.outcome_support[0]]
        p = align(empirical(random_data_on(rng, support, coarse)), g.outcome_support)
        expected = interval_loop(g, nu, p)
        assert interval_deficiency(g, nu, p) == expected
        kinds[expected[2]] += 1
    assert set(kinds) == {"lower", "upper", "empty"}


@pytest.mark.parametrize("kind", ["tv-core", "tn-halflines"])
@pytest.mark.parametrize("block", [None, 7])
def test_bootstrap_matches_replicate_loop(kind, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(inference, "REPLICATE_BLOCK", block)  # several blocks of rows
    rng = np.random.default_rng(808)
    for trial in range(40):
        g, nu = random_numeric_model(rng, coarse=trial % 2 == 1)
        data = random_data(rng, g)
        B, seed = int(rng.integers(1, 60)), int(rng.integers(2**31))
        rep = bootstrap_pvalue(data, (nu, g), kind, B, seed)
        if kind == "tv-core":
            observed = statistic_tv_core(data, nu, g).value
        else:
            observed = halflines_loop(data, nu, g)[0] / DENOMINATOR
        replicates = replicates_loop(data, kind, B, seed)
        assert rep.value == observed
        assert rep.replicates == tuple(replicates)
        assert all(type(v) is float for v in rep.replicates)
        assert rep.pvalue == (1 + sum(v >= observed for v in replicates)) / (B + 1)


# seeds of one, two, three and five 32-bit entropy words
BULK_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 10**40]


@pytest.mark.parametrize("kind, outcomes, n", [("tv-core", 4, 2500), ("tn-halflines", 400, 4000)])
@pytest.mark.parametrize("block_rows", [None, 64])
def test_bulk_seeds_draw_numpys_spawned_streams(kind, outcomes, n, block_rows, monkeypatch):
    if block_rows is not None:
        monkeypatch.setattr(inference, "REPLICATE_BLOCK", block_rows * outcomes)
    latents = [f"e{j}" for j in range(outcomes - 1)]
    nu = make_distribution((u, 1 / len(latents)) for u in latents)
    g, nu = search_game([(u, (j + 1) / len(latents)) for j, u in enumerate(latents)], nu)
    rng = np.random.default_rng(outcomes)
    data = [g.outcome_support[int(i)] for i in rng.integers(outcomes, size=n)]
    assert len(set(data)) == outcomes
    for seed in BULK_SEEDS:
        for B in (1, 2, 3, 200):
            rep = bootstrap_pvalue(data, (nu, g), kind, B, seed)
            assert rep.replicates == tuple(replicates_loop(data, kind, B, seed))


def test_bulk_seeds_reach_the_last_spawn_key_word():
    seeds = np.random.SeedSequence(5)
    keys = (2**32 - 2, 2**32 - 1)
    assert inference._spawned_pcg64_states(seeds, keys[0], 2) == [
        np.random.PCG64(np.random.SeedSequence(5, spawn_key=(k,))).state["state"] for k in keys]


def test_tampered_seed_hash_fails_the_child_zero_check(monkeypatch):
    monkeypatch.setattr(inference, "_MULT_A", inference._MULT_A ^ 2)
    g, nu = random_search_model(np.random.default_rng(1))
    with pytest.raises(FalsiflowError, match="SeedSequence"):
        bootstrap_pvalue(list(g.outcome_support), (nu, g), "tv-core", 3, 7)


@pytest.mark.parametrize("stat", ["tv-core", "tn-halflines"])
def test_csv_replicate_rows_match_replicate_loop(stat, tmp_path, capsys):
    nu = {"support": ["e1", "e2", "e3"], "mass": [200000000, 300000000, 500000000],
          "denominator": DENOMINATOR}
    spec = tmp_path / "search.json"
    spec.write_text(json.dumps({"model": "search", "params": {
        "nu": nu, "alpha": [["e1", 0.2], ["e2", 0.5], ["e3", 0.9]]}}))
    data = [0.9] * 9 + [0.5] * 4 + [0.2] * 2 + [0.0] * 5 + [0.7]
    csv = tmp_path / "y.csv"
    csv.write_text("y\n" + "".join(f"{y!r}\n" for y in data))
    code = main(["test", "--model", str(spec), "--data", str(csv), "--stat", stat,
                 "--B", "30", "--seed", "5", "--format", "csv"])
    assert code == 0

    g, nu_dist = search_game([("e1", 0.2), ("e2", 0.5), ("e3", 0.9)],
                             FiniteDistribution.from_json(nu))
    labels = data if stat == "tn-halflines" else [str(y) for y in data]
    if stat == "tv-core":
        labels = [{str(y): y for y in g.outcome_support}.get(lab, lab) for lab in labels]
        observed = statistic_tv_core(labels, nu_dist, g).value
    else:
        observed = halflines_loop(labels, nu_dist, g)[0] / DENOMINATOR
    rows = [f"{b},{v!r}" for b, v in enumerate(replicates_loop(labels, stat, 30, 5))]
    assert capsys.readouterr().out == "\n".join(
        ["replicate,value", f"observed,{observed!r}"] + rows) + "\n"


def test_statistic_makes_no_per_class_capacity_calls(monkeypatch):
    def fail(*args):
        raise AssertionError("capacity_fp called")

    for module in (correspondence, inference, models):
        monkeypatch.setattr(module, "capacity_fp", fail, raising=False)
    rng = np.random.default_rng(909)
    g, nu = random_search_model(rng)
    data = random_data(rng, g)
    rep = bootstrap_pvalue(data, (nu, g), "tn-halflines", B=20, seed=1)
    assert rep.value >= 0
    p = align(empirical([g.outcome_support[0]]), g.outcome_support)
    assert interval_deficiency(g, nu, p)[0] == 0


def test_every_single_cut_matches_capacity_fp():
    rng = np.random.default_rng(1010)
    for _ in range(200):
        g, nu = random_numeric_model(rng)
        p = align(empirical(random_data_on(rng, g.outcome_support, False)), g.outcome_support)
        order = sorted(range(len(g.outcome_support)), key=lambda i: g.outcome_support[i])
        for k in range(len(order) + 1):
            classes = []
            for ranks in (order[:k], order[k:]):
                bits = sum(1 << i for i in ranks)
                mass = sum(n for i, n in enumerate(p.numerators) if bits >> i & 1)
                classes.append((mass - capacity_fp(g, nu, bits), g.labels_of(bits)))
            value, labels, is_upper = max_halfline_deficiency_fp(g, nu, p, order, [k], [k])
            assert (value, labels) == classes[is_upper]
            assert value == max(classes[0][0], classes[1][0])
            assert is_upper == (classes[1][0] > classes[0][0])


# --- ordered inputs -------------------------------------------------------------

def test_nan_observation_is_not_ordered():
    nu = make_distribution([("e1", 0.5), ("e2", 0.5)])
    g, nu = search_game([("e1", 0.2), ("e2", 0.5)], nu)
    with pytest.raises(NotOrdered):
        statistic_tn_halflines([0.2, 0.5, float("nan"), 0.0, 0.5], nu, g)
    # an infinite effort is an ordered outcome outside the support
    rep = statistic_tn_halflines([0.2, 0.5, float("inf"), 0.0, 0.5], nu, g)
    assert rep.value == pytest.approx(0.2) and rep.witness == (float("inf"),)


@pytest.mark.parametrize(
    "outcomes", [[0.0, math.nan, 1.0], [math.nan, 0.0, 1.0], [0.0, "x"]],
    ids=["nan-middle", "nan-first", "mixed"],
)
def test_interval_deficiency_needs_ordered_outcomes(outcomes):
    # one latent node per outcome, so the order decides which classes exist
    g = Correspondence.from_map({f"u{i}": [y] for i, y in enumerate(outcomes)},
                                outcome_support=outcomes)
    nu = make_distribution((u, 1 / len(outcomes)) for u in g.latent_support)
    p = make_distribution([(outcomes[0], 0.5), (outcomes[-1], 0.5)])
    with pytest.raises(NotOrdered):
        interval_deficiency(g, nu, align(p, g.outcome_support))


def test_interval_deficiency_aligns_p_onto_the_outcomes():
    # P listed off the model's outcome order (0.0, 0.5, 0.8) gets the same answer
    nu = make_distribution([("e1", 0.5), ("e2", 0.5)])
    g, nu = search_game([("e1", 0.5), ("e2", 0.8)], nu)
    listed = FiniteDistribution((0.8, 0.5, 0.0), (900000000, 0, 100000000))
    assert interval_deficiency(g, nu, listed) == (400000000, (0.8,), "upper")
    assert interval_deficiency(g, nu, align(listed, g.outcome_support)) == (400000000, (0.8,), "upper")
    with pytest.raises(SupportMismatch, match="0.3"):
        interval_deficiency(g, nu, FiniteDistribution((0.8, 0.3), (DENOMINATOR - 1, 1)))


@pytest.mark.parametrize("alpha", [[0.2, float("nan")], [float("nan"), 0.5], [float("nan")]])
def test_nan_alpha_is_not_monotone(alpha):
    labels = [f"e{j}" for j in range(len(alpha))]
    nu = make_distribution((lab, 1 / len(alpha)) for lab in labels)
    with pytest.raises(NotMonotone):
        search_game(list(zip(labels, alpha)), nu)
