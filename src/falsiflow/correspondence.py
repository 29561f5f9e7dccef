"""Set-valued model correspondences and their capacity functional.

A :class:`Correspondence` links a finite latent support to a finite outcome
support; the induced capacity of an outcome set A is the latent mass whose
image touches A.  A distribution of outcomes is compatible with the model
exactly when no outcome set carries more probability than its capacity.

The relation is stored in compressed sparse row form: latent j admits the
outcome indices ``indices[indptr[j]:indptr[j + 1]]``, ascending and without
repeats.  Memory grows with the number of admissible (latent, outcome) pairs,
not with the product of the supports.  Outcome *sets*, such as a witness or a
query A, are sequences of outcome labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import EmptyImage, NotOrdered, SupportMismatch
from .measure import (DENOMINATOR, JSON_LABEL_TYPES, FiniteDistribution, Label, align, is_real,
                      json_field, json_labels, refuse_repeats)

@dataclass(frozen=True, eq=False)
class Correspondence:
    """Bipartite relation between latent and outcome supports.

    Latent j (in ``latent_support`` order) admits the outcome indices
    ``indices[indptr[j]:indptr[j + 1]]``, ascending and without repeats;
    :meth:`from_map` builds them so.  Images must be nonempty, and neither
    support may repeat a label.  Both arrays are read-only int32.
    """

    latent_support: tuple[Label, ...]
    outcome_support: tuple[Label, ...]
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        refuse_repeats(self.latent_support, "latent support")
        refuse_repeats(self.outcome_support, "outcome support")
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
            json_labels(json_field(obj, key, "correspondence"), f"correspondence {key!r}")
        images = json_field(obj, "G", "correspondence")
        if not isinstance(images, dict):
            raise SupportMismatch("correspondence 'G' must map each latent label to a list of outcomes")
        latents = obj["latent"]
        try:
            lists = list(map(images.__getitem__, latents))
        except KeyError:
            u = next(u for u in latents if u not in images)
            why = "" if isinstance(u, str) else (
                "; JSON object keys are text, so 'G' cannot key a numeric label")
            raise SupportMismatch(
                f"correspondence 'G' has no entry for the latent label {u!r}{why}") from None
        if not (set(map(type, lists)) <= {list}
                and set(map(type, itertools.chain.from_iterable(lists))) <= JSON_LABEL_TYPES):
            for ys in lists:  # names the first offending list or label
                json_labels(ys, "correspondence 'G'", distinct=False)
        return _from_lists(tuple(latents), lists, obj["outcomes"])


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


def capacity(g: Correspondence, nu: FiniteDistribution, a: Sequence[Label]) -> float:
    """The Choquet capacity of the outcome labels ``a``: latent mass whose image touches them."""
    return capacity_fp(g, nu, a) / DENOMINATOR


def capacity_fp(g: Correspondence, nu: FiniteDistribution, a: Sequence[Label]) -> int:
    if nu.support != g.latent_support:
        raise SupportMismatch("nu must live on the latent support of the correspondence")
    members = set(a)
    if not members.issubset(g.outcome_support):
        unknown = next(y for y in a if y not in g.outcome_support)
        raise SupportMismatch(f"unknown outcome label {unknown!r}")
    in_a = np.fromiter(map(members.__contains__, g.outcome_support), dtype=bool,
                       count=len(g.outcome_support))
    touches = np.logical_or.reduceat(in_a[g.indices], g.indptr[:-1])
    return int(np.array(nu.numerators, dtype=np.int64)[touches].sum())


def ascending(labels: Sequence[Label]) -> list[int]:
    """Indices of ``labels`` from lowest to highest; only real numbers other than NaN are ordered."""
    if not all(is_real(y) and y == y for y in labels):
        raise NotOrdered("half-line statistics need numeric outcome labels, not text or NaN")
    return sorted(range(len(labels)), key=labels.__getitem__)


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
