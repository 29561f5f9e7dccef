import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falsiflow.correspondence import (
    Correspondence,
    ascending,
    capacity,
    capacity_fp,
    max_halfline_deficiency_fp,
)
from falsiflow.errors import (
    DuplicateLabel,
    EmptyImage,
    FalsiflowError,
    NotOrdered,
    SupportMismatch,
)
from falsiflow.measure import DENOMINATOR, FiniteDistribution, make_distribution
from falsiflow.models import line_network_game, simulate
from falsiflow.semiparametric import SemiparametricModel, maximize_dual
from falsiflow.transport import solve_zero_one
from oracles import (
    SupportTooLarge,
    TooManySelections,
    core_deficiency_bruteforce,
    deficiency_table,
    enumerate_selections,
    from_bitsets,
    outcomes_of,
    preimage,
    selection_minimax_check,
    to_json,
)


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
        from_bitsets(("u",), ("a",), (0,))


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
                assert capacity_fp(g, nu, g.labels_of(a)) <= capacity_fp(g, nu, g.labels_of(b))


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
        direct -= capacity_fp(g, nu, g.labels_of(bits))
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
    h = Correspondence.from_json(to_json(g))
    assert h.latent_support == g.latent_support
    assert h.outcome_support == g.outcome_support
    assert h.image == g.image


def test_label_lookups_agree_with_json_images():
    g, _ = entry_regions()
    assert to_json(g)["G"] == {u: list(outcomes_of(g, u)) for u in g.latent_support}
    assert g.extend_outcomes(["(1,1)", "new"]).outcome_support == g.outcome_support + ("new",)
    with pytest.raises(ValueError):
        outcomes_of(g, "nowhere")


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
    g = from_bitsets(tuple(f"u{j}" for j in range(m)), tuple(f"y{i}" for i in range(k)), tuple(images))
    nu_w = data.draw(st.lists(st.integers(min_value=0, max_value=50), min_size=m, max_size=m))
    p_w = data.draw(st.lists(st.integers(min_value=0, max_value=50), min_size=k, max_size=k))
    if sum(nu_w) == 0 or sum(p_w) == 0:
        return
    nu = make_distribution((f"u{j}", w / sum(nu_w)) for j, w in enumerate(nu_w))
    p = make_distribution((f"y{i}", w / sum(p_w)) for i, w in enumerate(p_w))
    rep = core_deficiency_bruteforce(g, nu, p)
    claimed = sum(n for i, n in enumerate(p.numerators) if rep.witness_bits >> i & 1)
    claimed -= capacity_fp(g, nu, rep.witness)
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
        assert tuple(g.outcome_support[i] for i in np.flatnonzero(adj[:, j])) == outcomes_of(g, u)


@settings(max_examples=50)
@given(st.data())
def test_from_map_sorts_each_image_and_drops_repeats(data):
    k = data.draw(st.integers(min_value=1, max_value=12))
    m = data.draw(st.integers(min_value=1, max_value=8))
    outcomes = [f"y{i}" for i in range(k)]
    lists = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1), min_size=m, max_size=m))
    g = Correspondence.from_map({f"u{j}": [outcomes[i] for i in ys] for j, ys in enumerate(lists)}, outcomes)
    assert g.indptr.dtype == g.indices.dtype == np.int32
    assert not (g.indptr.flags.writeable or g.indices.flags.writeable)
    for j, ys in enumerate(lists):
        assert g.indices[g.indptr[j] : g.indptr[j + 1]].tolist() == sorted(set(ys))
    bitsets = [sum(1 << i for i in set(ys)) for ys in lists]
    # equality, the derived bitsets and the dense view all read the same relation
    assert g == from_bitsets(g.latent_support, outcomes, bitsets)
    assert hash(g) == hash(from_bitsets(g.latent_support, outcomes, bitsets))
    assert g.image == tuple(bitsets)
    adj = g.adjacency_matrix()
    assert adj.shape == (k, m) and adj.dtype == bool
    assert [sum(1 << i for i in np.flatnonzero(adj[:, j])) for j in range(m)] == bitsets
    if bitsets != [(1 << k) - 1] * m:
        assert g != from_bitsets(g.latent_support, outcomes, [(1 << k) - 1] * m)


def test_equality_compares_labels_and_arrays():
    g, _ = entry_regions()
    assert g == Correspondence(g.latent_support, g.outcome_support, [0, 1, 3, 4], [0, 1, 2, 3])
    assert g != Correspondence(g.latent_support, g.outcome_support, [0, 1, 2, 4], [0, 1, 2, 3])
    assert g != g.extend_outcomes(["new"])
    assert g != Correspondence(("x", "mid", "hi"), g.outcome_support, g.indptr, g.indices)
    assert g != "not a correspondence"


def test_stored_arrays_are_checked():
    with pytest.raises(SupportMismatch, match="^one image per latent label required$"):
        Correspondence(("u", "v"), ("a",), [0, 1], [0])
    with pytest.raises(EmptyImage, match="^latent point 'v' has an empty outcome set$"):
        Correspondence(("u", "v"), ("a",), [0, 1, 1], [0])
    with pytest.raises(SupportMismatch, match="^latent point 'v' references outcome indices out of range$"):
        Correspondence(("u", "v"), ("a", "b"), [0, 1, 2], [0, 2])
    indices = np.array([0, 1], dtype=np.int32)
    g = Correspondence(("u", "v"), ("a", "b"), [0, 1, 2], indices)
    indices[0] = 1  # the caller's array is copied, not shared
    assert g.indices.tolist() == [0, 1]


SPEC = {"latent": ["u1", "u2"], "outcomes": ["a", "b"], "G": {"u1": ["a"], "u2": ["b", "a"]}}


@pytest.mark.parametrize("change,error,message", [
    ({"G": {"u1": ["a"], "u2": ["z"]}}, SupportMismatch,
     "outcome 'z' of latent 'u2' not in the outcome support"),
    ({"G": {"u1": ["a"], "u2": ["b", [1]]}}, SupportMismatch,
     "correspondence 'G' label [1] is not a string or number"),
    ({"G": {"u1": ["a"], "u2": [True]}}, SupportMismatch,
     "correspondence 'G' label True is not a string or number"),
    ({"G": {"u1": "a", "u2": ["b"]}}, SupportMismatch,
     "correspondence 'G' 'a' must be a list of labels"),
    ({"G": {"u1": ["a"], "u2": []}}, EmptyImage, "latent point 'u2' has an empty outcome set"),
    ({"G": {"u1": ["a"]}}, SupportMismatch, "correspondence 'G' has no entry for the latent label 'u2'"),
    ({"latent": ["u1", 2], "G": {"u1": ["a"], "2": ["b"]}}, SupportMismatch,
     "correspondence 'G' has no entry for the latent label 2; "
     "JSON object keys are text, so 'G' cannot key a numeric label"),
    ({"latent": ["u1", "u2", "u1"]}, DuplicateLabel, "latent support repeats the label 'u1'"),
    ({"outcomes": ["a", "b", "b"]}, DuplicateLabel, "outcome support repeats the label 'b'"),
    ({"G": ["a"]}, SupportMismatch, "correspondence 'G' must map each latent label to a list of outcomes"),
], ids=["unknown-outcome", "label-type", "bool-label", "image-not-list", "empty-image",
        "missing-entry", "numeric-latent", "duplicate-latent", "duplicate-outcome", "G-not-object"])
def test_from_json_errors_keep_class_and_text(change, error, message):
    with pytest.raises(FalsiflowError) as exc:
        Correspondence.from_json(dict(SPEC, **change))
    assert type(exc.value) is error and str(exc.value) == message


def test_from_json_sorts_images():
    g = Correspondence.from_json(SPEC)
    assert g == Correspondence.from_map({"u1": ["a"], "u2": ["a", "b"]}, ["a", "b"])
    assert g.indices.tolist() == [0, 0, 1]


class RepeatingMap(dict):
    """A mapping whose iteration lists its first latent label twice."""

    def __iter__(self):
        keys = list(dict.__iter__(self))
        return iter(keys + keys[:1])


@pytest.mark.parametrize("build, message", [
    (lambda: Correspondence(("u", "u"), ("a",), [0, 1, 2], [0, 0]), "latent support repeats the label 'u'"),
    (lambda: Correspondence(("u",), ("a", "b", "a"), [0, 1], [0]), "outcome support repeats the label 'a'"),
    (lambda: Correspondence.from_map(RepeatingMap(u=["a"], v=["b"])), "latent support repeats the label 'u'"),
    (lambda: Correspondence.from_map({"u": ["a"], "v": ["b"]}, outcome_support=["a", "b", "a"]),
     "outcome support repeats the label 'a'"),
], ids=["constructor-latent", "constructor-outcome", "from_map-latent", "from_map-outcome"])
def test_repeated_labels_refused(build, message):
    with pytest.raises(DuplicateLabel) as exc:
        build()
    assert str(exc.value) == message


def test_solvers_never_read_the_dense_view_or_the_bitsets(monkeypatch):
    def fail(*args):
        raise AssertionError("a solver read a derived view of the correspondence")

    g, nu = entry_regions()
    p = make_distribution([("(0,0)", 0.3), ("(0,1)", 0.5), ("(1,0)", 0.0), ("(1,1)", 0.2)])
    monkeypatch.setattr(Correspondence, "adjacency_matrix", fail)
    monkeypatch.setattr(Correspondence, "image", property(fail))
    assert solve_zero_one(p, nu, g).primal_fp == 100000000
    outcomes = [0.0, 0.5, 0.8]
    line = Correspondence.from_map({"e1": [0.0, 0.5], "e2": [0.0, 0.8]}, outcomes)
    nu2 = make_distribution([("e1", 0.5), ("e2", 0.5)])
    q = make_distribution([(0.0, 0.1), (0.5, 0.1), (0.8, 0.8)])
    value, members, upper = max_halfline_deficiency_fp(line, nu2, q, [0, 1, 2], [1, 2, 3], [0, 1, 2])
    assert (value, members, upper) == (300000000, (0.8,), True)
    # moments that pin the latent distribution to nu give the transport value
    model = SemiparametricModel(g, np.eye(3)[:2] - np.array(nu.masses[:2])[:, None])
    assert maximize_dual(model, p).T == pytest.approx(0.1, abs=1e-9)
    assert simulate(g, nu, "uniform-random", 5, 1)


def test_check_at_scale_stays_within_memory():
    """10**5 latents, 5,000 outcomes, 3 * 10**5 arcs: the dense n_y x n_u
    matrix alone would be 500 MB of bools."""
    rng = np.random.default_rng(7)
    n_u, n_y = 10**5, 5000
    outcomes = [f"y{i}" for i in range(n_y)]
    picks = rng.integers(n_y, size=(n_u, 3)).tolist()
    mapping = {f"u{j}": [outcomes[i] for i in row] for j, row in enumerate(picks)}
    numers = np.full(n_u, DENOMINATOR // n_u)
    nu = FiniteDistribution(tuple(mapping), tuple(numers.tolist()))
    p_numers = np.bincount(rng.integers(n_y, size=n_u), minlength=n_y) * (DENOMINATOR // n_u)
    p = FiniteDistribution(tuple(outcomes), tuple(p_numers.tolist()))
    tracemalloc.start()
    try:
        g = Correspondence.from_map(mapping, outcomes)
        result = solve_zero_one(p, nu, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.indices) > 2.9 * 10**5
    assert int(result.plan_mass.sum()) == DENOMINATOR - result.primal_fp
    assert peak < 100 * 2**20
