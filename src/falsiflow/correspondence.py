"""Set-valued model correspondences, capacity functionals and Core utilities.

A :class:`Correspondence` links a finite latent support to a finite outcome
support; the induced capacity of an outcome set A is the latent mass whose
image touches A.  A distribution of outcomes is compatible with the model
exactly when no outcome set carries more probability than its capacity; the
brute-force maximizer of that deficiency is the falsification witness.

The relation is stored in compressed sparse row form: latent j admits the
outcome indices ``indices[indptr[j]:indptr[j + 1]]``, ascending and without
repeats.  Memory grows with the number of admissible (latent, outcome) pairs,
not with the product of the supports.  Outcome *sets*, such as a witness or a
query A, are int bitsets over outcome indices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (DuplicateLabel, EmptyImage, NotOrdered, SupportMismatch, SupportTooLarge,
                     TooManySelections)
from .measure import (DENOMINATOR, JSON_LABEL_TYPES, FiniteDistribution, Label, align, is_real,
                      json_labels)

#: Guard on exhaustive subset enumeration.
BRUTEFORCE_MAX_OUTCOMES = 20

#: Guard on selection enumeration (product of image sizes).
MAX_SELECTIONS = 10**6


@dataclass(frozen=True, eq=False)
class Correspondence:
    """Bipartite relation between latent and outcome supports.

    Latent j (in ``latent_support`` order) admits the outcome indices
    ``indices[indptr[j]:indptr[j + 1]]``, ascending and without repeats;
    :meth:`from_map` builds them so.  Images must be nonempty.  Both arrays
    are read-only int32.
    """

    latent_support: tuple[Label, ...]
    outcome_support: tuple[Label, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices"):  # own read-only copies
            arr = np.array(getattr(self, name), dtype=np.int32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        indptr, indices = self.indptr, self.indices
        if (indptr.shape != (len(self.latent_support) + 1,) or indices.ndim != 1
                or indptr[0] != 0 or indptr[-1] != len(indices)):
            raise SupportMismatch("one image per latent label required")
        empty = np.diff(indptr) <= 0
        if empty.any():
            raise EmptyImage(f"latent point {self.latent_support[empty.argmax()]!r} has an empty outcome set")
        if indices.size and not (0 <= indices.min() and indices.max() < len(self.outcome_support)):
            bad = ((indices < 0) | (indices >= len(self.outcome_support))).argmax()
            u = self.latent_support[np.searchsorted(indptr, bad, side="right") - 1]
            raise SupportMismatch(f"latent point {u!r} references outcome indices out of range")

    def __eq__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        return (self.latent_support == other.latent_support
                and self.outcome_support == other.outcome_support
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.latent_support, self.outcome_support, self.indices.tobytes()))

    @staticmethod
    def from_map(
        mapping: Mapping[Label, Sequence[Label]],
        outcome_support: Sequence[Label] | None = None,
    ) -> "Correspondence":
        """Build from {latent label: admissible outcome labels}, in any order and with repeats."""
        latents = tuple(mapping)
        return _from_lists(latents, [mapping[u] for u in latents], outcome_support)

    @cached_property
    def image(self) -> tuple[int, ...]:
        """Each latent's image as a bitset over outcome indices; derived from the arrays."""
        bits = [0] * len(self.latent_support)
        rows = np.repeat(np.arange(len(bits)), np.diff(self.indptr))
        for j, i in zip(rows.tolist(), self.indices.tolist()):
            bits[j] |= 1 << i
        return tuple(bits)

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
        return Correspondence(self.latent_support, self.outcome_support + tuple(new),
                              self.indptr, self.indices)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean view, entry [i, j] true when outcome i is admissible for latent j."""
        adj = np.zeros((len(self.outcome_support), len(self.latent_support)), dtype=bool)
        adj[self.indices, np.repeat(np.arange(adj.shape[1]), np.diff(self.indptr))] = True
        return adj

    @staticmethod
    def from_json(obj: dict) -> "Correspondence":
        for key in ("latent", "outcomes"):
            what = f"correspondence {key!r}"
            refuse_repeats(json_labels(obj[key], what), what)
        images = obj["G"]
        if not isinstance(images, dict):
            raise SupportMismatch("correspondence 'G' must map each latent label to a list of outcomes")
        latents = obj["latent"]
        try:
            lists = [images[u] for u in latents]
        except KeyError:
            u = next(u for u in latents if u not in images)
            why = "" if isinstance(u, str) else (
                "; JSON object keys are text, so 'G' cannot key a numeric label")
            raise SupportMismatch(
                f"correspondence 'G' has no entry for the latent label {u!r}{why}") from None
        if not (all(type(ys) is list for ys in lists)
                and set(map(type, itertools.chain.from_iterable(lists))) <= JSON_LABEL_TYPES):
            for ys in lists:  # names the first offending list or label
                json_labels(ys, "correspondence 'G'")
        return _from_lists(tuple(latents), lists, obj["outcomes"])


def refuse_repeats(labels: Sequence[Label], what: str):
    """Raise :class:`DuplicateLabel` naming the first label that ``labels`` repeats."""
    if len(set(labels)) != len(labels):
        repeated = next(y for y, count in Counter(labels).items() if count > 1)
        raise DuplicateLabel(f"{what} repeats the label {repeated!r}")


def _from_lists(
    latents: tuple[Label, ...], images: list, outcome_support: Sequence[Label] | None
) -> Correspondence:
    """The correspondence in which ``latents[j]`` admits the labels ``images[j]``.

    Each label is looked up once; each image is sorted and freed of repeats by
    one sort of the keys latent * n_y + outcome index, which keeps latents in
    order, and a mask of equal neighbours.
    """
    flat = itertools.chain.from_iterable(images)
    if outcome_support is None:
        outcome_support = dict.fromkeys(flat)
        flat = itertools.chain.from_iterable(images)
    outcome_support = tuple(outcome_support)
    index = {y: i for i, y in enumerate(outcome_support)}
    sizes = np.fromiter(map(len, images), dtype=np.int64, count=len(images))
    try:
        keys = np.fromiter(map(index.__getitem__, flat), dtype=np.int64, count=int(sizes.sum()))
    except KeyError:
        u, y = next((u, y) for u, ys in zip(latents, images) for y in ys if y not in index)
        raise SupportMismatch(f"outcome {y!r} of latent {u!r} not in the outcome support") from None
    n_y = len(outcome_support)
    keys += np.repeat(np.arange(len(latents), dtype=np.int64) * n_y, sizes)
    keys.sort()
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    rows, indices = np.divmod(keys[keep], n_y) if n_y else (keys, keys)
    indptr = np.zeros(len(latents) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(latents)), out=indptr[1:])
    return Correspondence(latents, outcome_support, indptr, indices)


def capacity(g: Correspondence, nu: FiniteDistribution, a: int | Sequence[Label]) -> float:
    """The Choquet capacity of outcome set ``a``: latent mass whose image touches it."""
    return capacity_fp(g, nu, a) / DENOMINATOR


def capacity_fp(g: Correspondence, nu: FiniteDistribution, a: int | Sequence[Label]) -> int:
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    bits = a if isinstance(a, int) else g.bitset_of(a)
    n_y = len(g.outcome_support)
    raw = (bits & ((1 << n_y) - 1)).to_bytes((n_y + 7) // 8, "little")
    in_a = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_y, bitorder="little").view(bool)
    touches = np.logical_or.reduceat(in_a[g.indices], g.indptr[:-1])
    return int(np.array(nu.numerators, dtype=np.int64)[touches].sum())


def ascending(labels: Sequence[Label]) -> list[int]:
    """Indices of ``labels`` from lowest to highest; only real numbers other than NaN are ordered."""
    if not all(is_real(y) and y == y for y in labels):
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
    them, so nu is tallied by each latent's lowest and highest outcome rank.
    """
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    p = align(p, g.outcome_support)
    n_y = len(g.outcome_support)
    order = np.asarray(order, dtype=np.intp)
    rank = np.empty(n_y, dtype=np.intp)
    rank[order] = np.arange(n_y)
    ranks, starts = rank[g.indices], g.indptr[:-1]
    mass = np.array(nu.numerators, dtype=np.int64)
    lowest = np.zeros(n_y, dtype=np.int64)
    np.add.at(lowest, np.minimum.reduceat(ranks, starts), mass)
    highest = np.zeros(n_y, dtype=np.int64)
    np.add.at(highest, np.maximum.reduceat(ranks, starts), mass)
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
