import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsiflow.correspondence import (
    Correspondence,
    ascending,
    capacity,
    capacity_fp,
    core_deficiency_bruteforce,
    deficiency_table,
    enumerate_selections,
    preimage,
    selection_minimax_check,
)
from falsiflow.errors import (
    DuplicateLabel,
    EmptyImage,
    NotOrdered,
    SupportMismatch,
    SupportTooLarge,
    TooManySelections,
)
from falsiflow.measure import DENOMINATOR, make_distribution
from falsiflow.models import line_network_game


def entry_regions():
    """Three-region entry instance: only-(0,0), multiplicity, only-(1,1)."""
    g = Correspondence.from_map(
        {
            "lo": ["(0,0)"],
            "mid": ["(0,1)", "(1,0)"],
            "hi": ["(1,1)"],
        },
        outcome_support=["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
    )
    nu = make_distribution([("lo", 0.3), ("mid", 0.4), ("hi", 0.3)])
    return g, nu


def test_empty_image_rejected():
    with pytest.raises(EmptyImage):
        Correspondence(("u",), ("a",), (0,))


def test_preimage_empty_set():
    g, _ = entry_regions()
    assert preimage(g, []) == ()


def test_preimage_full_support():
    g, _ = entry_regions()
    assert preimage(g, g.outcome_support) == g.latent_support


def test_preimage_line_network():
    g, _ = line_network_game([0.25, 0.25, 0.25, 0.25])
    assert preimage(g, ["(0,1,1)", "(1,1,0)"]) == ("000|011", "000|110")


def test_capacity_empty_and_full():
    g, nu = entry_regions()
    assert capacity(g, nu, []) == 0.0
    assert capacity(g, nu, g.outcome_support) == 1.0


def test_capacity_region_lookup():
    g, nu = entry_regions()
    assert capacity(g, nu, ["(0,1)"]) == pytest.approx(0.4)


def test_capacity_support_mismatch():
    g, _ = entry_regions()
    bad_nu = make_distribution([("x", 1.0)])
    with pytest.raises(SupportMismatch):
        capacity(g, bad_nu, ["(0,1)"])


def test_capacity_monotone():
    g, nu = entry_regions()
    k = len(g.outcome_support)
    for a in range(1 << k):
        for b in range(1 << k):
            if a & b == a:  # a subset of b
                assert capacity_fp(g, nu, a) <= capacity_fp(g, nu, b)


def test_bruteforce_compatible():
    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.2), ("(1,0)", 0.2), ("(1,1)", 0.3)])
    rep = core_deficiency_bruteforce(g, nu, p)
    assert rep.value == 0.0
    assert rep.raw_fp == 0
    assert rep.witness == ()  # smallest-cardinality maximizer is the empty set


def test_bruteforce_entry_witness():
    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.5), ("(1,0)", 0.0), ("(1,1)", 0.2)])
    rep = core_deficiency_bruteforce(g, nu, p)
    assert rep.value == pytest.approx(0.1)
    assert rep.witness == ("(0,1)",)


def test_bruteforce_tv_reduction():
    g = Correspondence.from_map({"a": ["a"], "b": ["b"]})
    p = make_distribution([("a", 0.7), ("b", 0.3)])
    nu = make_distribution([("a", 0.5), ("b", 0.5)])
    rep = core_deficiency_bruteforce(g, nu, p)
    assert rep.value == pytest.approx(0.2)
    assert rep.witness == ("a",)


def test_bruteforce_guard():
    n = 21
    g = Correspondence.from_map({f"u{i}": [f"y{i}"] for i in range(n)})
    nu = make_distribution((f"u{i}", 1 / n) for i in range(n))
    p = make_distribution((f"y{i}", 1 / n) for i in range(n))
    with pytest.raises(SupportTooLarge):
        core_deficiency_bruteforce(g, nu, p)


def test_deficiency_table_matches_direct_enumeration():
    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.1), ("(0,1)", 0.4), ("(1,0)", 0.3), ("(1,1)", 0.2)])
    table = deficiency_table(g, nu, p)
    for bits in range(1 << 4):
        direct = sum(n for i, n in enumerate(p.numerators) if bits >> i & 1)
        direct -= capacity_fp(g, nu, bits)
        assert table[bits] == direct


def test_selection_count_single_valued():
    g = Correspondence.from_map({"u": ["a"]})
    assert len(list(enumerate_selections(g))) == 1


def test_selection_count_product():
    g = Correspondence.from_map({"u1": ["a"], "u2": ["a", "b"]})
    sels = list(enumerate_selections(g))
    assert len(sels) == 2
    assert sels[0]["u1"] == "a"


def test_selection_count_line_network():
    g, _ = line_network_game([0.25, 0.25, 0.25, 0.25])
    assert len(list(enumerate_selections(g))) == 8


def test_selection_guard():
    g = Correspondence.from_map({f"u{i}": ["a", "b", "c", "d"] for i in range(11)})
    with pytest.raises(TooManySelections):
        list(enumerate_selections(g))


def test_selection_pushforward_dominated_by_capacity():
    g, nu = entry_regions()
    k = len(g.outcome_support)
    for sel in enumerate_selections(g):
        push = {y: 0 for y in g.outcome_support}
        for u, y in sel.items():
            push[y] += nu.numerator(u)
        for r in range(k + 1):
            for sub in itertools.combinations(g.outcome_support, r):
                assert sum(push[y] for y in sub) <= capacity_fp(g, nu, list(sub))


def test_minimax_single_valued_trivial():
    g = Correspondence.from_map({"u1": ["a"], "u2": ["b"]})
    nu = make_distribution([("u1", 0.5), ("u2", 0.5)])
    p = make_distribution([("a", 0.7), ("b", 0.3)])
    rep = selection_minimax_check(g, nu, p)
    assert rep.equal and rep.lhs == pytest.approx(0.2)


def test_minimax_entry_instance():
    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.5), ("(1,0)", 0.0), ("(1,1)", 0.2)])
    rep = selection_minimax_check(g, nu, p)
    assert rep.equal
    assert rep.lhs == pytest.approx(0.1) and rep.rhs == pytest.approx(0.1)


def test_minimax_compatible_instance():
    # compatible P that is itself a selection pushforward (mid -> (0,1))
    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.4), ("(1,0)", 0.0), ("(1,1)", 0.3)])
    rep = selection_minimax_check(g, nu, p)
    assert rep.equal and rep.lhs_fp == 0 and rep.rhs_fp == 0


def test_minimax_can_differ_on_forced_splits():
    # a single latent atom with a two-point image cannot be split by any
    # selection, so the diagnostic honestly reports lhs > rhs
    g = Correspondence.from_map({"u": ["a", "b"]})
    nu = make_distribution([("u", 1.0)])
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    rep = selection_minimax_check(g, nu, p)
    assert rep.rhs_fp == 0
    assert rep.lhs == pytest.approx(0.5)
    assert not rep.equal


def test_json_round_trip():
    g, _ = entry_regions()
    h = Correspondence.from_json(g.to_json())
    assert h.latent_support == g.latent_support
    assert h.outcome_support == g.outcome_support
    assert h.image == g.image


def test_label_lookups_agree_with_json_images():
    g, _ = entry_regions()
    assert g.to_json()["G"] == {u: list(g.outcomes_of(u)) for u in g.latent_support}
    assert g.extend_outcomes(["(1,1)", "new"]).outcome_support == g.outcome_support + ("new",)
    with pytest.raises(ValueError):
        g.outcomes_of("nowhere")


def test_extend_outcomes_appends_each_label_once():
    g, _ = entry_regions()
    h = g.extend_outcomes(["x", "x", "(1,1)", "y", "x"])
    assert h.outcome_support == g.outcome_support + ("x", "y")


@pytest.mark.parametrize("key", ["latent", "outcomes"])
def test_from_json_rejects_repeated_label(key):
    obj = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["b"]}}
    obj[key] = obj[key] + obj[key][:1]
    with pytest.raises(DuplicateLabel, match=repr(obj[key][0])):
        Correspondence.from_json(obj)


@pytest.mark.parametrize("labels", [["b", "a"], [0.5, "a"], [1.0, True]], ids=["text", "mixed", "bool"])
def test_ascending_needs_numeric_labels(labels):
    with pytest.raises(NotOrdered):
        ascending(labels)


@settings(max_examples=50)
@given(st.data())
def test_witness_certifies_value(data):
    k = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=6))
    images = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << k) - 1), min_size=m, max_size=m)
    )
    g = Correspondence(tuple(f"u{j}" for j in range(m)), tuple(f"y{i}" for i in range(k)), tuple(images))
    nu_w = data.draw(st.lists(st.integers(min_value=0, max_value=50), min_size=m, max_size=m))
    p_w = data.draw(st.lists(st.integers(min_value=0, max_value=50), min_size=k, max_size=k))
    if sum(nu_w) == 0 or sum(p_w) == 0:
        return
    nu = make_distribution((f"u{j}", w / sum(nu_w)) for j, w in enumerate(nu_w))
    p = make_distribution((f"y{i}", w / sum(p_w)) for i, w in enumerate(p_w))
    rep = core_deficiency_bruteforce(g, nu, p)
    claimed = sum(n for i, n in enumerate(p.numerators) if rep.witness_bits >> i & 1)
    claimed -= capacity_fp(g, nu, rep.witness_bits)
    assert claimed == rep.raw_fp
    assert rep.value_fp == max(rep.raw_fp, 0)


def test_adjacency_matrix_multibyte_bitsets():
    rng = np.random.default_rng(4)
    outcomes = [f"y{i}" for i in range(70)]
    mapping = {f"u{j}": [y for y in outcomes if rng.random() < 0.3] or ["y69"] for j in range(25)}
    mapping["full"] = outcomes
    g = Correspondence.from_map(mapping, outcome_support=outcomes)
    adj = g.adjacency_matrix()
    assert adj.shape == (70, 26) and adj.dtype == bool
    for j, u in enumerate(g.latent_support):
        assert tuple(g.outcome_support[i] for i in np.flatnonzero(adj[:, j])) == g.outcomes_of(u)
