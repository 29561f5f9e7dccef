"""Empirical test statistics and bootstrap critical values.

The bootstrap is nonparametric: resamples are multinomial draws from the
empirical distribution over its sorted support, so the p-value depends only on
the data multiset, B and the seed.  Replicates are recentered before
comparison: for the set-supremum statistics each replicate is the supremum of
the bootstrap empirical process sup_A [P*(A) - P_n(A)] over the statistic's
class of sets (the least-favorable null approximation, valid whichever
capacity constraints bind), and for the dual statistic the observed value is
subtracted.  This keeps the test conservative under the null while retaining
power against fixed alternatives.

The half-line statistic searches no outcome sets: in outcome order, P_n and
the capacity of every half-line are prefix sums
(:func:`~falsiflow.correspondence.max_halfline_deficiency_fp`), and the
set-supremum replicates of a block of resamples come from one count matrix.
The dual-statistic replicates of a block are built from the same count
matrix and certified together by one batched LP
(:func:`~falsiflow.semiparametric.maximize_dual_batch`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .correspondence import Correspondence, ascending, max_halfline_deficiency_fp
from .errors import EmptyData, SupportMismatch
from .measure import (
    DENOMINATOR,
    FiniteDistribution,
    Label,
    empirical,
    make_distribution,
)
from .semiparametric import DualCertificate, SemiparametricModel, maximize_dual, maximize_dual_batch
from .transport import solve_zero_one

#: Resample counts held at once: the bootstrap draws its replicates in blocks.
REPLICATE_BLOCK = 2**20


@dataclass(frozen=True)
class TestReport:
    statistic_name: str
    value: float
    n: int
    witness: tuple[Label, ...] | None = None
    certificate: DualCertificate | None = None
    pvalue: float | None = None
    B: int | None = None
    seed: int | None = None
    replicates: tuple[float, ...] | None = None

    @property
    def scaled_value(self) -> float:
        return math.sqrt(self.n) * self.value

    def to_json(self) -> dict:
        obj = {
            "statistic": self.statistic_name,
            "value": self.value,
            "scaled_value": self.scaled_value,
            "n": self.n,
        }
        if self.witness is not None:
            obj["witness"] = [str(y) for y in self.witness]
        if self.certificate is not None:
            obj["certificate"] = self.certificate.to_json()
        if self.pvalue is not None:
            obj["pvalue"] = self.pvalue
            obj["B"] = self.B
            obj["seed"] = self.seed
        return obj

    def to_csv(self) -> str:
        """One row per bootstrap replicate, for audit."""
        lines = ["replicate,value"]
        lines.append(f"observed,{self.value!r}")
        for b, v in enumerate(self.replicates or ()):
            lines.append(f"{b},{v!r}")
        return "\n".join(lines) + "\n"


def statistic_tv_core(
    data: Sequence[Label], nu: FiniteDistribution, g: Correspondence
) -> TestReport:
    """Largest excess of the empirical distribution over the model capacity.

    Zero exactly when the empirical distribution is achievable by the model;
    observed labels the model does not list count against it.
    """
    if not data:
        raise EmptyData("no observations")
    result = solve_zero_one(empirical(data), nu, g)
    return TestReport(
        statistic_name="tv-core",
        value=result.primal_value,
        n=len(data),
        witness=result.witness,
    )


def statistic_tn_halflines(
    data: Sequence[float], nu: FiniteDistribution, g_on_line: Correspondence
) -> TestReport:
    """Deficiency maximized over the 2n half-line classes at the observations.

    Outcome labels must be totally ordered (numeric, no NaN).  The classes
    are {y' <= y} and {y' > y} at each observed y, scanned by the prefix sums
    of :func:`~falsiflow.correspondence.max_halfline_deficiency_fp`; the
    witness is the first maximizing class in ascending y, lower before upper.
    """
    if not data:
        raise EmptyData("no observations")
    p = empirical(list(data))
    g_ext = g_on_line.extend_outcomes(p.support)
    support = g_ext.outcome_support
    order = ascending(support)
    rank = {support[i]: k for k, i in enumerate(order)}
    cuts = np.array(sorted(rank[y] for y in p.support)) + 1
    value_fp, witness, _ = max_halfline_deficiency_fp(g_ext, nu, p, order, cuts, cuts)
    return TestReport(
        statistic_name="tn-halflines",
        value=value_fp / DENOMINATOR,
        n=len(data),
        witness=witness,
    )


def statistic_semiparametric(data: Sequence[Label], model: SemiparametricModel) -> TestReport:
    """Dual moment-restriction statistic on the empirical distribution."""
    if not data:
        raise EmptyData("no observations")
    cert = maximize_dual(model, empirical(data))
    return TestReport(
        statistic_name="semi",
        value=max(cert.T, 0.0),
        n=len(data),
        certificate=cert,
    )


def _compute(kind, data, model):
    """The statistic ``kind`` on ``data``; ``model`` as in :func:`bootstrap_pvalue`."""
    if kind == "semi":
        return statistic_semiparametric(data, model)
    if kind not in ("tv-core", "tn-halflines"):
        raise SupportMismatch(f"unknown statistic kind {kind!r}")
    nu, g = model
    return (statistic_tv_core if kind == "tv-core" else statistic_tn_halflines)(data, nu, g)


def _recentered_replicates(kind, star_counts, base_counts, support, model, observed):
    """Recentered bootstrap replicate values, one per row of resample counts.

    For "tv-core" a replicate is sup over all subsets of [P*(A) - P_n(A)],
    i.e. the one-sided total variation of the resample against the data; for
    "tn-halflines" the same supremum restricted to the half-line classes at
    the observed points, the largest absolute prefix sum in label order.  Both
    are exact integers over n, computed for all rows at once.  For "semi" the
    replicate is the dual statistic on the resample minus the observed value;
    each resample's distribution is built from its count row, and all of them
    are certified by one batched LP (:func:`maximize_dual_batch`).
    """
    if kind == "semi":
        resamples = [make_distribution(zip(support, row / observed.n)) for row in star_counts]
        return [max(c.T, 0.0) - observed.value for c in maximize_dual_batch(model, resamples)]
    excess = star_counts - base_counts
    if kind == "tv-core":
        return (np.maximum(excess, 0).sum(axis=1) / observed.n).tolist()
    prefix = np.cumsum(excess[:, ascending(support)], axis=1)
    return (np.abs(prefix).max(axis=1) / observed.n).tolist()


def bootstrap_pvalue(
    data: Sequence[Label],
    model,
    statistic_kind: str,
    B: int,
    seed: int,
) -> TestReport:
    """Bootstrap p-value for a statistic kind.

    ``model`` is (nu, correspondence) for "tv-core"/"tn-halflines" or a
    :class:`SemiparametricModel` for "semi".  Resamples are multinomial over
    the sorted empirical support; with T̃*_b the recentered replicate value,
    p = (1 + #{T̃*_b >= T}) / (B + 1).  A failing replicate aborts the run.
    """
    if not data:
        raise EmptyData("no observations")
    if B < 1:
        raise SupportMismatch("B must be at least 1")
    observed = _compute(statistic_kind, list(data), model)

    n = len(data)
    p_n = empirical(data)
    order = sorted(range(len(p_n.support)), key=lambda i: str(p_n.support[i]))
    support = [p_n.support[i] for i in order]
    probs = np.array([p_n.numerators[i] for i in order], dtype=float) / DENOMINATOR

    tally = Counter(data)
    base_counts = np.array([tally[lab] for lab in support], dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(B)
    rows = max(1, REPLICATE_BLOCK // len(support))
    replicates: list[float] = []
    for start in range(0, B, rows):
        draws = [np.random.default_rng(c).multinomial(n, probs) for c in children[start:start + rows]]
        replicates += _recentered_replicates(
            statistic_kind, np.array(draws), base_counts, support, model, observed
        )
    exceed = sum(value >= observed.value for value in replicates)
    pvalue = (1 + exceed) / (B + 1)
    return replace(observed, pvalue=pvalue, B=B, seed=seed, replicates=tuple(replicates))
