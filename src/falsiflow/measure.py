"""Finite probability distributions in exact fixed-point arithmetic.

Masses are stored as 64-bit integer numerators over the fixed denominator
``DENOMINATOR`` = 10**9.  This makes compatibility verdicts (module
``transport``) exact integer comparisons instead of float-tolerance calls.

The label rules live here too: :func:`refuse_repeats` is the records' check on
repeated labels, and :func:`json_labels` refuses two JSON labels sharing a text.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    BadDenominator,
    BadMass,
    DuplicateLabel,
    EmptyData,
    MassSumOutOfTolerance,
    NegativeMass,
    SupportMismatch,
)

#: Fixed-point denominator for all probability masses.
DENOMINATOR = 10**9

#: Tolerance on the pre-rounding sum of input masses (matches the resolution).
SUM_TOLERANCE = 1e-9

Label = Hashable

#: The types a label read from a JSON file may have.
JSON_LABEL_TYPES = {str, int, float}


def is_real(v) -> bool:
    """Whether ``v`` is a real number; a bool, which Python counts as one, is not."""
    # the exact-type tests answer for Python's own numbers without the ABC check
    return type(v) is float or type(v) is int or (isinstance(v, numbers.Real) and not isinstance(v, bool))


@dataclass(frozen=True)
class FiniteDistribution:
    """A labeled finite support with nonnegative fixed-point masses summing to one.

    ``support`` preserves insertion order; ``numerators`` are integer masses
    over :data:`DENOMINATOR`.  Instances are immutable and safe to share.
    """

    support: tuple[Label, ...]
    numerators: tuple[int, ...]

    def __post_init__(self):
        if len(self.support) != len(self.numerators):
            raise SupportMismatch("support and mass lists differ in length")
        refuse_repeats(self.support, "support")
        if min(self.numerators, default=0) < 0:
            raise NegativeMass("fixed-point masses must be nonnegative")
        if sum(self.numerators) != DENOMINATOR:
            raise MassSumOutOfTolerance(
                f"fixed-point masses sum to {sum(self.numerators)}, expected {DENOMINATOR}"
            )

    def __len__(self):
        return len(self.support)

    @property
    def masses(self) -> tuple[float, ...]:
        return tuple(n / DENOMINATOR for n in self.numerators)

    def numerator(self, label: Label) -> int:
        """Integer mass of ``label`` (0 if absent)."""
        try:
            return self.numerators[self.support.index(label)]
        except ValueError:
            return 0

    def mass(self, label: Label) -> float:
        return self.numerator(label) / DENOMINATOR

    @staticmethod
    def from_json(obj: dict) -> "FiniteDistribution":
        if not isinstance(obj, dict):
            raise SupportMismatch(
                f"a distribution must be a JSON object with 'support' and 'mass', "
                f"not a {type(obj).__name__}"
            )
        denom = obj.get("denominator", DENOMINATOR)
        if isinstance(denom, bool) or not isinstance(denom, (int, float)) or not 0 < denom < math.inf:
            raise BadDenominator(f"denominator {denom!r} must be a positive finite number")
        masses = json_field(obj, "mass", "distribution")
        if not isinstance(masses, list):
            raise BadMass(f"mass {masses!r} must be a list of numbers")
        types = set(map(type, masses))
        if not types <= {int, float}:
            for m in masses:
                if isinstance(m, bool) or not isinstance(m, (int, float)):
                    raise BadMass(f"mass {m!r} is not a number")
        support = json_labels(json_field(obj, "support", "distribution"), "support")
        if denom == DENOMINATOR:
            if types <= {int} and min(masses, default=0) >= 0:  # the numerators as given
                return FiniteDistribution(tuple(support), tuple(masses))
            # the loop names the offending mass; one that is not finite is named
            # before one that is negative or fractional
            numerators, bad = [], []
            for m in masses:
                try:
                    k = int(m)
                except (OverflowError, ValueError):  # int() of inf or NaN
                    raise BadMass(f"mass {m!r} is not a finite number") from None
                if k != m or k < 0:
                    bad.append(m)
                numerators.append(k)
            if bad:
                if bad[0] < 0:
                    raise NegativeMass(f"mass {bad[0]!r} is negative")
                raise BadMass(f"mass {bad[0]!r} is not a whole number at denominator {DENOMINATOR}")
            return FiniteDistribution(tuple(support), tuple(numerators))
        if len(support) != len(masses):
            raise SupportMismatch("support and mass lists differ in length")
        return make_distribution(zip(support, (m / denom for m in masses)))


def refuse_repeats(labels: Sequence[Label], what: str) -> Sequence[Label]:
    """Raise :class:`DuplicateLabel` naming the first label that ``labels`` repeats;
    else return ``labels``."""
    if len(set(labels)) != len(labels):
        repeated = next(y for y, count in Counter(labels).items() if count > 1)
        raise DuplicateLabel(f"{what} repeats the label {repeated!r}")
    return labels


def json_field(obj: dict, key: str, what: str):
    """``obj[key]`` of a JSON object; ``what`` names the object in the error
    when the key is absent."""
    try:
        return obj[key]
    except KeyError:
        raise SupportMismatch(f"{what} is missing field {key!r}") from None


def json_labels(labels, where: str, distinct: bool = True) -> list:
    """``labels`` read from a JSON file, checked to be a list of strings and numbers;
    ``where`` names the list in the error.  Unless ``distinct`` is false, two labels
    with one text, such as 1 and "1", are refused, since files and outputs carry
    labels as text; equal labels are left to the record built from the list."""
    if not isinstance(labels, list):
        raise SupportMismatch(f"{where} {labels!r} must be a list of labels")
    types = set(map(type, labels))
    if not types <= JSON_LABEL_TYPES:
        for y in labels:
            if isinstance(y, bool) or not isinstance(y, (str, int, float)):
                raise SupportMismatch(f"{where} label {y!r} is not a string or number")
    # two numbers share no text unless equal, and JSON gives back one NaN object
    if distinct and str in types and len(types) > 1:
        refuse_repeats(list(map(str, labels)), f"{where}, read as text,")
    return labels


def _round_preserving_sum(values) -> np.ndarray:
    """Round each row of probabilities, one row (1-D) or a block (2-D), to
    int64 fixed point; assign each row's residual to its largest mass.

    ``np.rint`` rounds half to even, as ``round`` does; the residual goes to
    the first of the row's largest numerators.
    """
    numers = np.rint(np.asarray(values, dtype=float) * DENOMINATOR).astype(np.int64)
    rows = numers.reshape(-1, numers.shape[-1])  # a view: numers gets the residuals
    at = (np.arange(len(rows)), rows.argmax(axis=1))
    rows[at] += DENOMINATOR - rows.sum(axis=1)
    if (rows[at] < 0).any():
        raise MassSumOutOfTolerance("rounding residual exceeds the largest mass")
    return numers


def make_distribution(pairs: Iterable[tuple[Label, float]]) -> FiniteDistribution:
    """Build a distribution from (label, mass) pairs.

    Masses must be nonnegative and sum to 1 within 1e-9 before fixed-point
    rounding; a rounding residual is absorbed by the largest mass.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyData("cannot build a distribution from an empty list")
    labels = [lab for lab, _ in pairs]
    values = [float(m) for _, m in pairs]
    if any(v < 0 for v in values):
        raise NegativeMass(f"negative mass in {values}")
    for lab, v in zip(labels, values):
        if not math.isfinite(v):
            raise MassSumOutOfTolerance(f"mass {v!r} of label {lab!r} is not finite")
    total = sum(values)
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise MassSumOutOfTolerance(f"masses sum to {total!r}, expected 1 within {SUM_TOLERANCE}")
    return FiniteDistribution(tuple(labels), tuple(_round_preserving_sum(values).tolist()))


def empirical(observations: Sequence[Label] | Mapping[Label, int]) -> FiniteDistribution:
    """Empirical distribution of a sample: mass of each label is count/n.

    The sample is its observations or a {label: count} mapping of them.
    Support is the distinct observed labels in first-appearance order.
    """
    counts = Counter(observations)
    if not counts:
        raise EmptyData("empirical distribution of an empty sample")
    n = sum(counts.values())
    return make_distribution((lab, c / n) for lab, c in counts.items())


def align(p: FiniteDistribution, support: Sequence[Label]) -> FiniteDistribution:
    """Re-express ``p`` on ``support`` (in that order), zero-filling missing labels.

    Every label of ``p`` must appear in ``support``.
    """
    target = set(support)
    missing = [lab for lab in p.support if lab not in target]
    if missing:
        raise SupportMismatch(f"labels {missing} not present in the target support")
    mass = dict(zip(p.support, p.numerators))
    return FiniteDistribution(tuple(support), tuple(mass.get(lab, 0) for lab in support))
