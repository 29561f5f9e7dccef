"""Semantic exception hierarchy shared by all falsiflow modules."""


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
    """A mass in a distribution file that is not a number."""


class DuplicateLabel(FalsiflowError):
    pass


class EmptyData(FalsiflowError):
    pass


# -- correspondence / transport ------------------------------------------------

class SupportMismatch(FalsiflowError):
    pass


class SupportTooLarge(FalsiflowError):
    pass


class TooManySelections(FalsiflowError):
    pass


class EmptyImage(FalsiflowError):
    """A latent point with an empty outcome set; correspondences must be nonempty-valued."""


class UnknownOutcome(FalsiflowError):
    pass


class NotOrdered(FalsiflowError):
    pass


# -- linear programming ---------------------------------------------------------

class DimensionMismatch(FalsiflowError):
    pass


class LpFailure(FalsiflowError):
    pass


class IterationLimit(FalsiflowError):
    pass


class CertificateMismatch(FalsiflowError):
    """An independent certificate does not reproduce a solver's optimal value."""


class Infeasible(FalsiflowError):
    """No feasible point; for the semiparametric primal this signals that no
    latent distribution on the grid satisfies the moment restrictions."""


# -- semiparametric dual ---------------------------------------------------------

class Diverged(FalsiflowError):
    """The dual supremum is not attained: the primal LP is infeasible because no
    latent distribution on the grid satisfies the moment restrictions (empty V),
    so the dual objective is unbounded."""


# -- model constructors / simulation ---------------------------------------------

class BadParameters(FalsiflowError):
    pass


class NotMonotone(FalsiflowError):
    pass


class GridTooCoarse(FalsiflowError):
    pass


class BadRule(FalsiflowError):
    pass
