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

Replicate b draws its resample from PCG64 seeded by
``SeedSequence(seed).spawn(B)[b]``, so B is at most 2**32.  The child states
of a block of replicates are derived in bulk with uint32 array arithmetic
(:func:`_spawned_pcg64_states`), checked against numpy's own child 0, and set
in turn on one reused generator; the draws are numpy's, bit for bit.

A sample is counted once by :func:`tally`, from its labels or from a
{label: count} mapping; the statistics and the bootstrap take its
:class:`Sample` in place of the labels, so ``invert`` counts its data once
for all of its grid points.

A set-supremum replicate is never below 0, since the empty set attains
P*(∅) - P_n(∅) = 0 (Galichon & Henry, *RES* 78, 2011).  So when the observed
"tv-core" or "tn-halflines" statistic is 0, every replicate reaches it and
p = (1 + B) / (B + 1) = 1 exactly; with ``replicates=False``,
:func:`bootstrap_pvalue` then returns that p without drawing.

The half-line statistic searches no outcome sets: in outcome order, P_n and
the capacity of every half-line are prefix sums
(:func:`~falsiflow.correspondence.max_halfline_deficiency_fp`), and the
set-supremum replicates of a block of resamples come from one count matrix.
The dual-statistic replicates of a block are the same count matrix, rounded
at once to mass rows, solved with the observed P_n's row by
:func:`~falsiflow.semiparametric.maximize_dual_batch`, which takes an LP only
for a distribution no earlier LP's optimal basis covers; P_n comes first, so
its certificate is that of :func:`~falsiflow.semiparametric.maximize_dual`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .correspondence import Correspondence, ascending, max_halfline_deficiency_fp
from .errors import FalsiflowError, SupportMismatch
from .measure import DENOMINATOR, FiniteDistribution, Label, _round_preserving_sum, empirical
from .semiparametric import DualCertificate, SemiparametricModel, maximize_dual, maximize_dual_batch
from .transport import solve_zero_one

#: Resample counts held at once: the bootstrap draws its replicates in blocks.
REPLICATE_BLOCK = 2**20

# SeedSequence's hash constants (O'Neill's seed_seq as numpy ports it) and the
# PCG64 multiplier; NEP 19 keeps both bit streams fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
#: MULT_A**k, and generate_state's hash constants INIT_B * MULT_B**j, mod 2**32.
_MULT_A_POWERS = np.array([pow(_MULT_A, k, 2**32) for k in range(5)], dtype=np.uint32)
_STATE_HASHES = np.array([_INIT_B * pow(_MULT_B, j, 2**32) & _MASK32 for j in range(9)],
                         dtype=np.uint32)


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


class Sample(NamedTuple):
    """A sample as the statistics and the bootstrap read it (see :func:`tally`)."""

    n: int
    p_n: FiniteDistribution     # the empirical distribution, labels in first-appearance order
    support: tuple[Label, ...]  # the same labels sorted by str: the resampling order
    probs: np.ndarray           # P_n on ``support``, as floats
    base_counts: np.ndarray     # the sample's counts on ``support``, int64


def tally(data: Sequence[Label] | Mapping[Label, int] | Sample) -> Sample:
    """Count a sample once for its statistic and its bootstrap.

    ``data`` is the observed labels, or a {label: count} mapping of them in
    order of first appearance.  A ``Sample`` is returned as it is, so a
    caller testing several models tallies once.
    """
    if isinstance(data, Sample):
        return data
    counts = Counter(data)
    p_n = empirical(counts)
    order = sorted(range(len(p_n.support)), key=lambda i: str(p_n.support[i]))
    support = tuple(p_n.support[i] for i in order)
    probs = np.array([p_n.numerators[i] for i in order], dtype=float) / DENOMINATOR
    base_counts = np.array([counts[lab] for lab in support], dtype=np.int64)
    return Sample(counts.total(), p_n, support, probs, base_counts)


def statistic_tv_core(
    data: Sequence[Label] | Sample, nu: FiniteDistribution, g: Correspondence
) -> TestReport:
    """Largest excess of the empirical distribution over the model capacity.

    Zero exactly when the empirical distribution is achievable by the model;
    observed labels the model does not list count against it.
    """
    sample = tally(data)
    result = solve_zero_one(sample.p_n, nu, g)
    return TestReport(
        statistic_name="tv-core",
        value=result.primal_value,
        n=sample.n,
        witness=result.witness,
    )


def statistic_tn_halflines(
    data: Sequence[float] | Sample, nu: FiniteDistribution, g_on_line: Correspondence
) -> TestReport:
    """Deficiency maximized over the 2n half-line classes at the observations.

    Outcome labels must be totally ordered (numeric, no NaN).  The classes
    are {y' <= y} and {y' > y} at each observed y, scanned by the prefix sums
    of :func:`~falsiflow.correspondence.max_halfline_deficiency_fp`; the
    witness is the first maximizing class in ascending y, lower before upper.
    """
    sample = tally(data)
    p = sample.p_n
    g_ext = g_on_line.extend_outcomes(p.support)
    support = g_ext.outcome_support
    order = ascending(support)
    rank = {support[i]: k for k, i in enumerate(order)}
    cuts = np.array(sorted(rank[y] for y in p.support)) + 1
    value_fp, witness, _ = max_halfline_deficiency_fp(g_ext, nu, p, order, cuts, cuts)
    return TestReport(
        statistic_name="tn-halflines",
        value=value_fp / DENOMINATOR,
        n=sample.n,
        witness=witness,
    )


def statistic_semiparametric(data: Sequence[Label] | Sample,
                             model: SemiparametricModel) -> TestReport:
    """Dual moment-restriction statistic on the empirical distribution."""
    sample = tally(data)
    return _semi_report(sample, maximize_dual(model, sample.p_n))


def _semi_report(sample: Sample, cert: DualCertificate) -> TestReport:
    return TestReport(statistic_name="semi", value=max(cert.T, 0.0), n=sample.n, certificate=cert)


def _compute(kind, data, model):
    """The parametric statistic ``kind`` on ``data``; ``model`` as in :func:`bootstrap_pvalue`."""
    if kind not in ("tv-core", "tn-halflines"):
        raise SupportMismatch(f"unknown statistic kind {kind!r}")
    if isinstance(model, SemiparametricModel):
        raise SupportMismatch(f"statistic kind {kind!r} needs a (nu, correspondence) pair, "
                              "not a SemiparametricModel")
    nu, g = model
    return (statistic_tv_core if kind == "tv-core" else statistic_tn_halflines)(data, nu, g)


def _recentered_replicates(kind, star_counts, sample: Sample, model, observed):
    """The statistic's report, ``observed`` or else computed here, and the
    recentered bootstrap replicate values, one per row of resample counts.

    For "tv-core" a replicate is sup over all subsets of [P*(A) - P_n(A)],
    i.e. the one-sided total variation of the resample against the data; for
    "tn-halflines" the same supremum restricted to the half-line classes at
    the observed points, the largest absolute prefix sum in label order.  Both
    are exact integers over n, computed for all rows at once.  For "semi" the
    replicate is the dual statistic on the resample minus the observed value;
    the count rows over n are rounded as ``make_distribution`` rounds one,
    behind P_n's row when ``observed`` is None, and certified by one
    :func:`maximize_dual_batch` call on P_n's labels, in P_n's order.
    """
    if kind == "semi":
        block = np.vstack([sample.probs] * (observed is None) + [star_counts / sample.n])
        # in P_n's order, labels the model does not list extend its outcomes
        # as in maximize_dual(model, P_n), so every row is certified alike
        position = {y: k for k, y in enumerate(sample.support)}
        columns = [position[y] for y in sample.p_n.support]
        masses = _round_preserving_sum(block)[:, columns] / DENOMINATOR
        certs = maximize_dual_batch(model, sample.p_n.support, masses)
        if observed is None:
            observed = _semi_report(sample, certs.pop(0))
        return observed, [max(c.T, 0.0) - observed.value for c in certs]
    excess = star_counts - sample.base_counts
    if kind == "tv-core":
        return observed, (np.maximum(excess, 0).sum(axis=1) / sample.n).tolist()
    prefix = np.cumsum(excess[:, ascending(sample.support)], axis=1)
    return observed, (np.abs(prefix).max(axis=1) / sample.n).tolist()


def _spawned_pcg64_states(seeds: np.random.SeedSequence, first: int, count: int) -> list[dict]:
    """PCG64 ``state`` entries of ``default_rng(child)`` for children
    ``first .. first + count - 1`` of ``seeds.spawn``, all derived at once.

    A child's entropy is the run entropy, zero-padded to at least 4 words, and
    then its spawn-key word.  So every child's pool equals ``seeds.pool`` until
    that last word, which is hashed with the next four hash constants and mixed
    into the four pool words, one row per child.  ``generate_state(4, uint64)``
    then hashes each pool into seed words (a, b, c, d), and PCG64 sets
    inc = (c:d) << 1 | 1 and state = ((a:b) + inc) * MULT + inc, modulo 2**128.
    """
    words = max(4, -(-int(seeds.entropy).bit_length() // 32))
    # the run words took 4 + 12 hashes filling and cross-mixing the pool, and
    # 4 more for each word past the fourth
    const = _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 2**32) & _MASK32
    mix = _MULT_A_POWERS * np.uint32(const)
    pool = (np.arange(first, first + count, dtype=np.uint32)[:, None] ^ mix[:4]) * mix[1:]
    pool ^= pool >> 16
    pool = seeds.pool * np.uint32(_MIX_L) - np.uint32(_MIX_R) * pool
    pool ^= pool >> 16
    state = (np.concatenate((pool, pool), axis=1) ^ _STATE_HASHES[:8]) * _STATE_HASHES[1:]
    state ^= state >> 16
    out = []
    for a, b, c, d in state.astype("<u4").view("<u8").astype(np.uint64).tolist():
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        out.append({"state": (((a << 64 | b) + inc) * _PCG64_MULT + inc) & _MASK128, "inc": inc})
    return out


def bootstrap_pvalue(
    data: Sequence[Label] | Sample,
    model,
    statistic_kind: str,
    B: int,
    seed: int,
    *,
    replicates: bool = True,
) -> TestReport:
    """Bootstrap p-value for a statistic kind.

    ``model`` is (nu, correspondence) for "tv-core"/"tn-halflines" or a
    :class:`SemiparametricModel` for "semi".  Resamples are multinomial over
    the sorted empirical support; with T̃*_b the recentered replicate value,
    p = (1 + #{T̃*_b >= T}) / (B + 1).  A failing replicate aborts the run.
    ``data`` is what :func:`tally` takes, or its result.  For "semi" the
    statistic is solved with the first block of resamples, its LP first.

    The report holds the replicates drawn.  With ``replicates=False`` a
    caller that reads only p lets a "tv-core" or "tn-halflines" statistic of
    0 skip the draws: each of those replicates is a supremum over a class of
    sets holding the empty set, so it is at least 0, and p is 1 exactly.
    That report has ``replicates == ()``.
    """
    sample = tally(data)
    if B < 1:
        raise SupportMismatch("B must be at least 1")
    if B > 2**32:
        raise SupportMismatch("B must be at most 2**32, one spawn-key word per replicate")
    if statistic_kind != "semi":
        observed = _compute(statistic_kind, sample, model)
    elif isinstance(model, SemiparametricModel):
        observed = None
    else:
        raise SupportMismatch("statistic kind 'semi' needs a SemiparametricModel, "
                              f"not a {type(model).__name__}")
    if not replicates and observed is not None and observed.value == 0:
        return replace(observed, pvalue=1.0, B=B, seed=seed, replicates=())

    seeds = np.random.SeedSequence(seed)
    bitgen = np.random.PCG64(np.random.SeedSequence(seeds.entropy, spawn_key=(0,)))
    state = bitgen.state
    draw = np.random.Generator(bitgen).multinomial
    rows = max(1, REPLICATE_BLOCK // len(sample.support))
    values: list[float] = []
    for start in range(0, B, rows):
        children = _spawned_pcg64_states(seeds, start, min(rows, B - start))
        if start == 0 and children[0] != state["state"]:
            raise FalsiflowError("the bulk-derived bootstrap seeds differ from numpy's SeedSequence")
        draws = []
        for child in children:
            state["state"] = child
            bitgen.state = state
            draws.append(draw(sample.n, sample.probs))
        observed, block = _recentered_replicates(statistic_kind, np.array(draws), sample, model, observed)
        values += block
    exceed = sum(value >= observed.value for value in values)
    pvalue = (1 + exceed) / (B + 1)
    return replace(observed, pvalue=pvalue, B=B, seed=seed, replicates=tuple(values))
