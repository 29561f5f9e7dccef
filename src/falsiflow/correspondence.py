"""Set-valued model correspondences, capacity functionals and Core utilities.

A :class:`Correspondence` links a finite latent support to a finite outcome
support; the induced capacity of an outcome set A is the latent mass whose
image touches A.  A distribution of outcomes is compatible with the model
exactly when no outcome set carries more probability than its capacity; the
brute-force maximizer of that deficiency is the falsification witness.
"""

from __future__ import annotations

import itertools
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (DuplicateLabel, EmptyImage, NotOrdered, SupportMismatch, SupportTooLarge,
                     TooManySelections)
from .measure import DENOMINATOR, FiniteDistribution, Label, align, json_labels

#: Guard on exhaustive subset enumeration.
BRUTEFORCE_MAX_OUTCOMES = 20

#: Guard on selection enumeration (product of image sizes).
MAX_SELECTIONS = 10**6


@dataclass(frozen=True)
class Correspondence:
    """Bipartite relation between latent and outcome supports.

    ``image`` holds, for each latent label (in ``latent_support`` order), the
    bitset of admissible outcome indices.  Images must be nonempty.
    """

    latent_support: tuple[Label, ...]
    outcome_support: tuple[Label, ...]
    image: tuple[int, ...]

    def __post_init__(self):
        if len(self.image) != len(self.latent_support):
            raise SupportMismatch("one image bitset per latent label required")
        full = (1 << len(self.outcome_support)) - 1
        for u, bits in zip(self.latent_support, self.image):
            if bits == 0:
                raise EmptyImage(f"latent point {u!r} has an empty outcome set")
            if bits & ~full:
                raise SupportMismatch(f"latent point {u!r} references outcome indices out of range")

    @staticmethod
    def from_map(
        mapping: Mapping[Label, Sequence[Label]],
        outcome_support: Sequence[Label] | None = None,
    ) -> "Correspondence":
        """Build from {latent label: admissible outcome labels}."""
        latents = tuple(mapping.keys())
        if outcome_support is None:
            seen: dict[Label, None] = {}
            for ys in mapping.values():
                for y in ys:
                    seen.setdefault(y)
            outcome_support = tuple(seen)
        outcome_support = tuple(outcome_support)
        index = {y: i for i, y in enumerate(outcome_support)}
        image = []
        for u in latents:
            bits = 0
            for y in mapping[u]:
                if y not in index:
                    raise SupportMismatch(f"outcome {y!r} of latent {u!r} not in the outcome support")
                bits |= 1 << index[y]
            image.append(bits)
        return Correspondence(latents, outcome_support, tuple(image))

    def outcomes_of(self, u: Label) -> tuple[Label, ...]:
        bits = self.image[self.latent_support.index(u)]
        return self.labels_of(bits)

    def labels_of(self, bits: int) -> tuple[Label, ...]:
        return tuple(y for i, y in enumerate(self.outcome_support) if bits >> i & 1)

    def bitset_of(self, labels: Sequence[Label]) -> int:
        index = {y: i for i, y in enumerate(self.outcome_support)}
        bits = 0
        for y in labels:
            if y not in index:
                raise SupportMismatch(f"unknown outcome label {y!r}")
            bits |= 1 << index[y]
        return bits

    def extend_outcomes(self, extra: Sequence[Label]) -> "Correspondence":
        """Append outcome labels with empty preimage (capacity 0)."""
        known = set(self.outcome_support)
        new = [y for y in dict.fromkeys(extra) if y not in known]
        if not new:
            return self
        return Correspondence(self.latent_support, self.outcome_support + tuple(new), self.image)

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean matrix, entry [i, j] true when outcome i is admissible for latent j."""
        n_y = len(self.outcome_support)
        width = (n_y + 7) // 8
        # int() because images built from numpy integers have no to_bytes
        raw = b"".join(int(bits).to_bytes(width, "little") for bits in self.image)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(self.image), width)
        return np.unpackbits(rows, axis=1, count=n_y, bitorder="little").T.astype(bool)

    def to_json(self) -> dict:
        return {
            "latent": [str(u) for u in self.latent_support],
            "outcomes": [str(y) for y in self.outcome_support],
            "G": {
                str(u): [str(y) for y in self.labels_of(bits)]
                for u, bits in zip(self.latent_support, self.image)
            },
        }

    @staticmethod
    def from_json(obj: dict) -> "Correspondence":
        for key in ("latent", "outcomes"):
            labels = json_labels(obj[key], f"correspondence {key!r}")
            repeated = [y for y, count in Counter(labels).items() if count > 1]
            if repeated:
                raise DuplicateLabel(f"correspondence {key!r} repeats the label {repeated[0]!r}")
        images = obj["G"]
        if not isinstance(images, dict):
            raise SupportMismatch("correspondence 'G' must map each latent label to a list of outcomes")
        for u in obj["latent"]:
            if u not in images:
                why = "" if isinstance(u, str) else (
                    "; JSON object keys are text, so 'G' cannot key a numeric label")
                raise SupportMismatch(
                    f"correspondence 'G' has no entry for the latent label {u!r}{why}")
        mapping = {u: json_labels(images[u], "correspondence 'G'") for u in obj["latent"]}
        return Correspondence.from_map(mapping, outcome_support=obj["outcomes"])


def preimage(g: Correspondence, a: int | Sequence[Label]) -> tuple[Label, ...]:
    """Latent labels whose image intersects the outcome set ``a``.

    ``a`` is a bitset over outcome indices or a sequence of outcome labels.
    """
    bits = a if isinstance(a, int) else g.bitset_of(a)
    return tuple(u for u, img in zip(g.latent_support, g.image) if img & bits)


def capacity(g: Correspondence, nu: FiniteDistribution, a: int | Sequence[Label]) -> float:
    """The Choquet capacity of outcome set ``a``: latent mass whose image touches it."""
    return capacity_fp(g, nu, a) / DENOMINATOR


def capacity_fp(g: Correspondence, nu: FiniteDistribution, a: int | Sequence[Label]) -> int:
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    bits = a if isinstance(a, int) else g.bitset_of(a)
    return sum(n for n, img in zip(nu.numerators, g.image) if img & bits)


def ascending(labels: Sequence[Label]) -> list[int]:
    """Indices of ``labels`` from lowest to highest; only real numbers other than NaN are ordered."""
    if not all(isinstance(y, numbers.Real) and not isinstance(y, bool) and y == y for y in labels):
        raise NotOrdered("half-line statistics need numeric outcome labels, not text or NaN")
    return sorted(range(len(labels)), key=lambda i: labels[i])


def max_halfline_deficiency_fp(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution,
    order: Sequence[int], lower_cuts: Sequence[int], upper_cuts: Sequence[int],
) -> tuple[int, tuple[Label, ...], bool]:
    """First maximum of the fixed-point P(A) - capacity(A) over half-line classes.

    ``p`` is aligned onto the outcome support (a label of ``p`` the support
    does not list raises :class:`SupportMismatch`), and ``order`` lists the
    outcome indices from lowest to highest.  Lower cut k is the class of the
    k lowest outcomes, upper cut k the class of the others; candidates run
    lower_cuts[0], upper_cuts[0], lower_cuts[1], ... and ties go to the first.
    Returns the maximum, its class in support order and whether it is upper.
    P and the capacity of every class are prefix sums in exact int64: an image
    touches the k lowest outcomes exactly when its lowest outcome is among
    them, so nu is tallied by each latent's lowest and highest outcome.
    """
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    p = align(p, g.outcome_support)
    n_y = len(g.outcome_support)
    order = np.asarray(order, dtype=np.intp)
    ranked = g.adjacency_matrix()[order]
    mass = np.array(nu.numerators, dtype=np.int64)
    lowest = np.zeros(n_y, dtype=np.int64)
    np.add.at(lowest, ranked.argmax(axis=0), mass)
    highest = np.zeros(n_y, dtype=np.int64)
    np.add.at(highest, n_y - 1 - ranked[::-1].argmax(axis=0), mass)
    cap_below = np.concatenate(([0], np.cumsum(lowest)))
    cap_above = np.concatenate((np.cumsum(highest[::-1])[::-1], [0]))
    p_below = np.concatenate(([0], np.cumsum(np.array(p.numerators, dtype=np.int64)[order])))
    values = np.column_stack(
        [(p_below - cap_below)[lower_cuts], (p_below[-1] - p_below - cap_above)[upper_cuts]]
    )
    # row-major argmax: the first maximum in the candidate order
    row, is_upper = np.unravel_index(np.argmax(values), values.shape)
    cut = (upper_cuts if is_upper else lower_cuts)[row]
    members = np.sort(order[cut:] if is_upper else order[:cut])
    return int(values[row, is_upper]), tuple(g.outcome_support[i] for i in members), bool(is_upper)


@dataclass(frozen=True)
class DeficiencyReport:
    """Exhaustive maximum of P(A) - capacity(A) with a canonical witness."""

    value: float          # clamped at 0
    raw: float            # unclamped maximum
    value_fp: int
    raw_fp: int
    witness_bits: int
    witness: tuple[Label, ...]


def _subset_sum_transform(point_masses: np.ndarray, k: int) -> np.ndarray:
    """In-place zeta transform: out[A] = sum of point_masses over subsets of A."""
    arr = point_masses.copy()
    for bit in range(k):
        step = 1 << bit
        view = arr.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]
    return arr


def deficiency_table(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> np.ndarray:
    """Fixed-point deficiency P(A) - capacity(A) for every outcome subset A.

    Index ``A`` is the outcome-index bitset.  Exact int64 arithmetic.
    """
    k = len(g.outcome_support)
    if k > BRUTEFORCE_MAX_OUTCOMES:
        raise SupportTooLarge(f"{k} outcomes exceeds the brute-force guard ({BRUTEFORCE_MAX_OUTCOMES})")
    if p.support != g.outcome_support:
        raise SupportMismatch("p must live on the outcome support of the correspondence")
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")

    size = 1 << k
    p_point = np.zeros(size, dtype=np.int64)
    for i, n in enumerate(p.numerators):
        p_point[1 << i] = n
    p_of = _subset_sum_transform(p_point, k)

    # capacity(A) = 1 - mass of latents whose whole image avoids A
    inside = np.zeros(size, dtype=np.int64)
    for n, img in zip(nu.numerators, g.image):
        inside[img] += n
    h = _subset_sum_transform(inside, k)          # h[B] = nu{u : image(u) subset of B}
    flip = (size - 1) ^ np.arange(size)
    cap = DENOMINATOR - h[flip]
    return p_of - cap


def _canonical_argmax(table: np.ndarray) -> int:
    """Maximizer bitset with smallest cardinality, ties by lexicographic index order."""
    best = int(table.max())
    candidates = np.flatnonzero(table == best)
    popcounts = np.array([int(a).bit_count() for a in candidates])
    candidates = candidates[popcounts == popcounts.min()]

    def lex_key(mask: int) -> tuple:
        return tuple(i for i in range(64) if mask >> i & 1)

    return int(min((int(a) for a in candidates), key=lex_key))


def core_deficiency_bruteforce(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> DeficiencyReport:
    """Exhaustively maximize P(A) - capacity(A) over all outcome subsets.

    The maximum is nonnegative (the empty set attains 0); a strictly positive
    value falsifies the model and the witness is the canonical maximizer.
    """
    table = deficiency_table(g, nu, p)
    raw = int(table.max())
    bits = _canonical_argmax(table)
    value = max(raw, 0)
    return DeficiencyReport(
        value=value / DENOMINATOR,
        raw=raw / DENOMINATOR,
        value_fp=value,
        raw_fp=raw,
        witness_bits=bits,
        witness=g.labels_of(bits),
    )


def enumerate_selections(g: Correspondence) -> Iterator[dict[Label, Label]]:
    """Yield every single-valued map u -> y with y admissible for u.

    Lexicographic over the per-latent outcome index choices.
    """
    choices = []
    count = 1
    for bits in g.image:
        opts = [i for i in range(len(g.outcome_support)) if bits >> i & 1]
        count *= len(opts)
        if count > MAX_SELECTIONS:
            raise TooManySelections(f"more than {MAX_SELECTIONS} selections")
        choices.append(opts)
    for combo in itertools.product(*choices):
        yield {u: g.outcome_support[i] for u, i in zip(g.latent_support, combo)}


@dataclass(frozen=True)
class MinimaxReport:
    """Diagnostic comparison of the selection minimax with the capacity deficiency."""

    lhs: float
    rhs: float
    lhs_fp: int
    rhs_fp: int
    equal: bool
    best_selection: dict[Label, Label]


def selection_minimax_check(
    g: Correspondence, nu: FiniteDistribution, p: FiniteDistribution
) -> MinimaxReport:
    """Compare min over selections of the worst-set excess with the capacity bound.

    lhs = min_s max_A [P(A) - (nu s^{-1})(A)]; rhs is the brute-force deficiency.
    Reported, not asserted: the equality is known to hold only under conditions
    on the instance.
    """
    rhs = core_deficiency_bruteforce(g, nu, p)
    best_fp = None
    best_sel: dict[Label, Label] = {}
    index = {y: i for i, y in enumerate(g.outcome_support)}
    for sel in enumerate_selections(g):
        push = [0] * len(g.outcome_support)
        for n, u in zip(nu.numerators, g.latent_support):
            push[index[sel[u]]] += n
        tv = sum(max(pn - qn, 0) for pn, qn in zip(p.numerators, push))
        if best_fp is None or tv < best_fp:
            best_fp, best_sel = tv, sel
    assert best_fp is not None
    return MinimaxReport(
        lhs=best_fp / DENOMINATOR,
        rhs=rhs.value,
        lhs_fp=best_fp,
        rhs_fp=rhs.value_fp,
        equal=best_fp == rhs.value_fp,
        best_selection=best_sel,
    )
