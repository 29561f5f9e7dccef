"""Semantic exception hierarchy shared by all falsiflow modules: one class per
failure, and every :class:`FalsiflowError` ends the CLI with exit code 2."""


class FalsiflowError(Exception):
    """Base class for all falsiflow errors."""


# -- distribution construction -------------------------------------------------

class NegativeMass(FalsiflowError):
    pass


class MassSumOutOfTolerance(FalsiflowError):
    pass


class BadDenominator(FalsiflowError):
    """A fixed-point denominator that is not a positive finite number."""


class BadMass(FalsiflowError):
    """A mass in a distribution file that is not a finite number."""


class DuplicateLabel(FalsiflowError):
    """A list that repeats a label, or, read from a file, holds two labels with one text."""


class EmptyData(FalsiflowError):
    pass


# -- correspondence / transport ------------------------------------------------

class SupportMismatch(FalsiflowError):
    """Labels or lists that do not fit together, or a JSON object that lacks a field."""


class EmptyImage(FalsiflowError):
    """A latent point with an empty outcome set; correspondences must be nonempty-valued."""


class NotOrdered(FalsiflowError):
    pass


# -- linear programming ---------------------------------------------------------

class DimensionMismatch(FalsiflowError):
    pass


class LpFailure(FalsiflowError):
    pass


class CertificateMismatch(FalsiflowError):
    """An independent certificate does not reproduce a solver's optimal value."""


class Infeasible(FalsiflowError):
    """An infeasible LP; for the semiparametric primal, no latent distribution on
    the grid satisfies the moment restrictions (empty V) and the dual is unbounded."""


# -- model constructors / simulation ---------------------------------------------

class BadParameters(FalsiflowError):
    pass


class NotMonotone(FalsiflowError):
    pass


class GridTooCoarse(FalsiflowError):
    pass


class BadRule(FalsiflowError):
    pass
