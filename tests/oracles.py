"""Helpers the tests read a correspondence with, beside its own methods.

They read the relation through its derived bitsets (``Correspondence.image``)
or its index slices, so that they check the stored arrays from another side.
"""

from typing import Sequence

from falsiflow.correspondence import Correspondence
from falsiflow.measure import Label


def from_bitsets(latents: Sequence[Label], outcomes: Sequence[Label], images: Sequence[int]) -> Correspondence:
    """The correspondence in which ``latents[j]`` admits the outcome indices set in ``images[j]``."""
    return Correspondence.from_map(
        {u: [y for i, y in enumerate(outcomes) if bits >> i & 1] for u, bits in zip(latents, images)},
        outcome_support=outcomes,
    )


def outcomes_of(g: Correspondence, u: Label) -> tuple[Label, ...]:
    """The admissible outcomes of latent ``u``, in support order; ValueError for an unknown ``u``."""
    j = g.latent_support.index(u)
    return tuple(g.outcome_support[i] for i in g.indices[g.indptr[j] : g.indptr[j + 1]])


def preimage(g: Correspondence, a: int | Sequence[Label]) -> tuple[Label, ...]:
    """Latent labels whose image intersects the outcome set ``a``.

    ``a`` is a bitset over outcome indices or a sequence of outcome labels.
    """
    bits = a if isinstance(a, int) else g.bitset_of(a)
    return tuple(u for u, img in zip(g.latent_support, g.image) if img & bits)


def to_json(g: Correspondence) -> dict:
    """The ``custom`` spec form of ``g``, every label written as text.

    Numeric labels therefore come back from ``Correspondence.from_json`` as
    text, so this round trip holds for text labels only.
    """
    return {
        "latent": [str(u) for u in g.latent_support],
        "outcomes": [str(y) for y in g.outcome_support],
        "G": {str(u): [str(y) for y in outcomes_of(g, u)] for u in g.latent_support},
    }
