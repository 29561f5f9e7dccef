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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .correspondence import Correspondence, capacity_fp
from .errors import EmptyData, NotOrdered, SupportMismatch
from .measure import (
    DENOMINATOR,
    FiniteDistribution,
    Label,
    align,
    empirical,
)
from .semiparametric import DualCertificate, SemiparametricModel, maximize_dual
from .transport import solve_zero_one


@dataclass(frozen=True)
class TestReport:
    statistic_name: str
    value: float
    scaled_value: float           # sqrt(n) * value
    n: int
    witness: tuple[Label, ...] | None = None
    certificate: DualCertificate | None = None
    pvalue: float | None = None
    B: int | None = None
    seed: int | None = None
    replicates: tuple[float, ...] | None = None

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


def _extend(g: Correspondence, p: FiniteDistribution) -> tuple[Correspondence, FiniteDistribution]:
    """Bring an empirical distribution onto the model's outcome support.

    Observed labels outside the support are appended with empty preimage, so
    their mass immediately counts against the model.
    """
    g = g.extend_outcomes(p.support)
    return g, align(p, g.outcome_support)


def statistic_tv_core(
    data: Sequence[Label], nu: FiniteDistribution, g: Correspondence
) -> TestReport:
    """Largest excess of the empirical distribution over the model capacity.

    Zero exactly when the empirical distribution is achievable by the model.
    """
    if not data:
        raise EmptyData("no observations")
    g_ext, p_n = _extend(g, empirical(data))
    result = solve_zero_one(p_n, nu, g_ext)
    n = len(data)
    return TestReport(
        statistic_name="tv-core",
        value=result.primal_value,
        scaled_value=math.sqrt(n) * result.primal_value,
        n=n,
        witness=result.witness,
    )


def statistic_tn_halflines(
    data: Sequence[float], nu: FiniteDistribution, g_on_line: Correspondence
) -> TestReport:
    """Deficiency maximized over the 2n half-line classes at the observations.

    Outcome labels must be totally ordered (numeric); reports the maximizing
    half-line as the witness.
    """
    if not data:
        raise EmptyData("no observations")
    g_ext, p_n = _extend(g_on_line, empirical(list(data)))
    support = g_ext.outcome_support
    try:
        keyed = sorted(range(len(support)), key=lambda i: support[i])
    except TypeError as exc:
        raise NotOrdered("half-line statistics need a totally ordered outcome support") from exc

    best_fp, best_bits = None, 0
    for y in sorted(set(data)):
        low = sum(1 << i for i in keyed if support[i] <= y)
        high = sum(1 << i for i in keyed if support[i] > y)
        for bits in (low, high):
            value = sum(
                n for i, n in enumerate(p_n.numerators) if bits >> i & 1
            ) - capacity_fp(g_ext, nu, bits)
            if best_fp is None or value > best_fp:
                best_fp, best_bits = value, bits
    assert best_fp is not None
    n = len(data)
    value = best_fp / DENOMINATOR
    return TestReport(
        statistic_name="tn-halflines",
        value=value,
        scaled_value=math.sqrt(n) * value,
        n=n,
        witness=g_ext.labels_of(best_bits),
    )


def statistic_semiparametric(data: Sequence[Label], model: SemiparametricModel) -> TestReport:
    """Dual moment-restriction statistic on the empirical distribution."""
    if not data:
        raise EmptyData("no observations")
    g_ext, p_n = _extend(model.correspondence, empirical(data))
    if g_ext is not model.correspondence:
        model = SemiparametricModel(g_ext, model.moments, truncated=model.truncated)
    cert = maximize_dual(model, p_n)
    n = len(data)
    value = max(cert.T, 0.0)
    return TestReport(
        statistic_name="semi",
        value=value,
        scaled_value=math.sqrt(n) * value,
        n=n,
        certificate=cert,
    )


def _compute(kind, counts, n, support, model):
    """Statistic value from resample counts over a sorted support."""
    data = [lab for lab, c in zip(support, counts) for _ in range(int(c))]
    if kind == "tv-core":
        nu, g = model
        return statistic_tv_core(data, nu, g)
    if kind == "tn-halflines":
        nu, g = model
        return statistic_tn_halflines(data, nu, g)
    if kind == "semi":
        return statistic_semiparametric(data, model)
    raise SupportMismatch(f"unknown statistic kind {kind!r}")


def _recentered_replicate(kind, star_counts, base_counts, n, support, model, observed):
    """Recentered bootstrap replicate value.

    For "tv-core" this is sup over all subsets of [P*(A) - P_n(A)], i.e. the
    one-sided total variation of the resample against the data; for
    "tn-halflines" the same supremum restricted to the half-line classes at the
    observed points.  Both are exact integer computations on the counts.  For
    "semi" the replicate is the dual statistic on the resample minus the
    observed value.
    """
    if kind == "tv-core":
        excess = sum(max(int(s) - int(b), 0) for s, b in zip(star_counts, base_counts))
        return excess / n
    if kind == "tn-halflines":
        order = sorted(range(len(support)), key=lambda i: support[i])
        best = 0
        prefix = 0
        for i in order:
            prefix += int(star_counts[i]) - int(base_counts[i])
            best = max(best, prefix, -prefix)
        return best / n
    rep = _compute(kind, star_counts, n, support, model)
    return rep.value - observed.value


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
    observed = _compute(statistic_kind, [1] * len(data), len(data), list(data), model)

    n = len(data)
    p_n = empirical(data)
    order = sorted(range(len(p_n.support)), key=lambda i: str(p_n.support[i]))
    support = [p_n.support[i] for i in order]
    probs = np.array([p_n.numerators[i] for i in order], dtype=float) / DENOMINATOR

    tally = Counter(data)
    base_counts = [tally[lab] for lab in support]
    replicates = []
    exceed = 0
    for child in np.random.SeedSequence(seed).spawn(B):
        rng = np.random.default_rng(child)
        counts = rng.multinomial(n, probs)
        value = _recentered_replicate(
            statistic_kind, counts, base_counts, n, support, model, observed
        )
        replicates.append(value)
        if value >= observed.value:
            exceed += 1
    pvalue = (1 + exceed) / (B + 1)
    return TestReport(
        statistic_name=observed.statistic_name,
        value=observed.value,
        scaled_value=observed.scaled_value,
        n=n,
        witness=observed.witness,
        certificate=observed.certificate,
        pvalue=pvalue,
        B=B,
        seed=seed,
        replicates=tuple(replicates),
    )
