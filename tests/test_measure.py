import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from falsiflow.errors import (
    BadDenominator,
    BadMass,
    DuplicateLabel,
    EmptyData,
    FalsiflowError,
    MassSumOutOfTolerance,
    NegativeMass,
)
from falsiflow.measure import (
    DENOMINATOR,
    FiniteDistribution,
    _round_preserving_sum,
    align,
    empirical,
    make_distribution,
)
from oracles import total_variation, total_variation_fp


def test_uniform_two_point():
    p = make_distribution([("a", 0.5), ("b", 0.5)])
    assert p.support == ("a", "b")
    assert p.numerators == (DENOMINATOR // 2, DENOMINATOR // 2)


def test_tolerance_absorption():
    p = make_distribution([("a", 0.3), ("b", 0.7000000001)])
    assert p.mass("a") == pytest.approx(0.3)
    assert p.mass("b") == pytest.approx(0.7)
    assert sum(p.numerators) == DENOMINATOR


def test_duplicate_label_rejected():
    with pytest.raises(DuplicateLabel):
        make_distribution([("a", 0.5), ("a", 0.5)])


def test_negative_mass_rejected():
    with pytest.raises(NegativeMass):
        make_distribution([("a", -0.1), ("b", 1.1)])


def test_sum_out_of_tolerance():
    with pytest.raises(MassSumOutOfTolerance):
        make_distribution([("a", 0.5), ("b", 0.6)])


def test_empirical_counts():
    p = empirical(["a", "a", "b", "a"])
    assert p.support == ("a", "b")
    assert p.mass("a") == pytest.approx(0.75)
    assert p.mass("b") == pytest.approx(0.25)


def test_empirical_singleton():
    p = empirical(["x"])
    assert p.support == ("x",)
    assert p.numerators == (DENOMINATOR,)


def test_empirical_empty():
    with pytest.raises(EmptyData):
        empirical([])


def test_empirical_permutation_covariant():
    a = empirical(["a", "b", "b", "c"])
    b = empirical(["c", "b", "a", "b"])
    assert {y: a.numerator(y) for y in a.support} == {y: b.numerator(y) for y in b.support}


def test_tv_identity():
    p = make_distribution([("a", 0.4), ("b", 0.6)])
    assert total_variation(p, p) == 0.0


def test_tv_known_value():
    p = make_distribution([("a", 0.7), ("b", 0.3)])
    q = make_distribution([("a", 0.5), ("b", 0.5)])
    assert total_variation(p, q) == pytest.approx(0.2)


def test_tv_disjoint_supports():
    p = make_distribution([("a", 1.0)])
    q = make_distribution([("b", 1.0)])
    assert total_variation(p, q) == 1.0


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10),
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10),
)
def test_tv_equals_subset_sup(counts_p, counts_q):
    # sup over subsets of p(A) - q(A) equals the one-sided mass sum
    k = max(len(counts_p), len(counts_q))
    labels = [f"y{i}" for i in range(k)]
    obs_p = [lab for lab, c in zip(labels, counts_p) for _ in range(c)] or [labels[0]]
    obs_q = [lab for lab, c in zip(labels, counts_q) for _ in range(c)] or [labels[0]]
    p, q = empirical(obs_p), empirical(obs_q)
    best = 0
    for r in range(len(labels) + 1):
        for sub in itertools.combinations(labels, r):
            best = max(best, sum(p.numerator(y) - q.numerator(y) for y in sub))
    assert total_variation_fp(p, q) == best


@given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=12))
def test_fixed_point_masses_sum_to_one(raw):
    total = sum(raw)
    p = make_distribution((f"y{i}", v / total) for i, v in enumerate(raw))
    assert sum(p.numerators) == DENOMINATOR


def test_align_zero_fills():
    p = make_distribution([("b", 1.0)])
    q = align(p, ["a", "b", "c"])
    assert q.support == ("a", "b", "c")
    assert q.numerators == (0, DENOMINATOR, 0)


def test_residual_goes_to_largest_mass():
    # 3 x 1/3 cannot be exact; the largest (first, by tie-break) absorbs it
    p = make_distribution([("a", 1 / 3), ("b", 1 / 3), ("c", 1 / 3)])
    assert sorted(p.numerators, reverse=True)[0] - sorted(p.numerators)[0] == 1
    assert sum(p.numerators) == DENOMINATOR


def round_preserving_sum_python(values):
    """The pure-Python formula: round each mass, residual to the first largest."""
    numers = [round(v * DENOMINATOR) for v in values]
    residual = DENOMINATOR - sum(numers)
    if residual:
        k = max(range(len(numers)), key=lambda i: (numers[i], -i))
        numers[k] += residual
    return numers


@pytest.mark.parametrize("seed", range(5))
def test_round_preserving_sum_matches_python_formula(seed):
    rng = np.random.default_rng(seed)
    for trial in range(200):
        w = rng.random(int(rng.integers(1, 40))) ** int(rng.integers(1, 5))
        if trial % 2:
            w = np.round(w * 3) + 1          # ties at the maximum
        values = (w / w.sum()).tolist()
        numers = _round_preserving_sum(values)
        assert numers.dtype == np.int64
        assert numers.tolist() == round_preserving_sum_python(values)
        p = make_distribution(zip(range(len(values)), values))
        assert p.numerators == tuple(numers.tolist())
        assert all(type(n) is int for n in p.numerators)


def test_round_preserving_sum_negative_residual_and_tie():
    # both round up to 500000001, so the residual is -2 and goes to the first
    values = [0.5000000006, 0.5000000006]
    assert round(values[0] * DENOMINATOR) == 500000001
    assert (_round_preserving_sum(values).tolist() == round_preserving_sum_python(values)
            == [499999999, 500000001])


@pytest.mark.parametrize("seed", range(5))
def test_round_preserving_sum_block_matches_rows(seed):
    # a block of count rows over n, as the bootstrap rounds them, with the
    # tie and negative-residual rows of the tests above mixed in
    rng = np.random.default_rng(seed)
    width = int(rng.integers(2, 30))
    n = int(rng.integers(1, 5000))
    rows = rng.multinomial(n, rng.dirichlet(np.ones(width)), size=200) / n
    rows[::7] = np.round(rng.random(width) * 3) + 1
    rows[::7] /= rows[::7].sum(axis=1, keepdims=True)
    rows[3, :2] = 0.5000000006
    rows[3, 2:] = 0.0
    block = _round_preserving_sum(rows)
    assert block.dtype == np.int64 and block.shape == rows.shape
    for row, numers in zip(rows, block):
        assert numers.tolist() == _round_preserving_sum(row).tolist() == round_preserving_sum_python(row.tolist())


@pytest.mark.parametrize(
    "build,bad",
    [
        ("make_distribution", math.nan),
        ("make_distribution", math.inf),
        ("from_json", math.nan),
        ("from_json", math.inf),
        ("from_json", 1e30),
    ],
)
def test_non_finite_or_oversized_mass_rejected(build, bad):
    with pytest.raises(FalsiflowError, match=re.escape(repr(bad))):
        if build == "make_distribution":
            make_distribution([("a", bad), ("b", 0.5)])
        else:
            FiniteDistribution.from_json({"support": ["a", "b"], "mass": [bad, 0], "denominator": 1})


def test_from_json_checks_the_sum_against_any_denominator():
    with pytest.raises(MassSumOutOfTolerance, match="0.5"):
        FiniteDistribution.from_json({"support": ["a", "b"], "mass": [1, 1], "denominator": 4})
    q = FiniteDistribution.from_json({"support": ["a", "b"], "mass": [1, 3], "denominator": 4})
    assert q.numerators == (250000000, 750000000)


def test_from_json_default_denominator_takes_whole_masses():
    q = FiniteDistribution.from_json({"support": ["a", "b"], "mass": [5e8, 500000000]})
    assert q.numerators == (500000000, 500000000) and all(type(k) is int for k in q.numerators)
    # a mass that is not finite is named before a negative one
    with pytest.raises(BadMass, match="^mass inf is not a finite number$"):
        FiniteDistribution.from_json({"support": ["a", "b"], "mass": [-0.5, math.inf]})


@pytest.mark.parametrize("support, label", [("[1, 1]", "1"), ("[1, 1.0]", "1"), ("[NaN, NaN]", "nan")],
                         ids=["ints", "int-and-float", "nans"])
def test_from_json_repeated_numbers_keep_their_text(support, label):
    # only a string and a number can share a text without being equal, so the
    # record refuses these, by the text json_labels would have given them
    obj = json.loads(f'{{"support": {support}, "mass": [1, 1], "denominator": 2}}')
    with pytest.raises(DuplicateLabel, match=f"^support repeats the label {label}$"):
        FiniteDistribution.from_json(obj)


@pytest.mark.parametrize("build", [
    lambda: make_distribution([(float("nan"), 0.5), ("a", 0.25), (float("nan"), 0.25)]),
    lambda: FiniteDistribution((float("nan"), np.float64("nan")), (1, DENOMINATOR - 1)),
], ids=["make_distribution", "FiniteDistribution"])
def test_second_nan_label_is_a_repeat(build):
    # two NaN objects are unequal, so a set keeps both; they are one label all the same
    with pytest.raises(DuplicateLabel) as exc:
        build()
    assert str(exc.value) == "support repeats the label nan"
    assert make_distribution([(float("nan"), 0.5), ("a", 0.5)]).numerators == (500000000, 500000000)


@pytest.mark.parametrize("denominator", [0, -4, "4", None, True, math.nan, math.inf])
def test_from_json_rejects_bad_denominators(denominator):
    with pytest.raises(BadDenominator):
        FiniteDistribution.from_json({"support": ["a"], "mass": [1], "denominator": denominator})


def test_label_lookups_keep_their_errors():
    p = make_distribution([("a", 0.25), ("b", 0.75)])
    assert p.numerator("b") == 750000000
    assert p.numerator("zz") == 0
