"""Exact compatibility checks and falsification tests for models that map
latent states to sets of observable outcomes."""

from .correspondence import (
    Correspondence,
    DeficiencyReport,
    MinimaxReport,
    capacity,
    capacity_fp,
    core_deficiency_bruteforce,
    deficiency_table,
    enumerate_selections,
    selection_minimax_check,
)
from .errors import FalsiflowError
from .inference import (
    TestReport,
    bootstrap_pvalue,
    statistic_semiparametric,
    statistic_tn_halflines,
    statistic_tv_core,
)
from .measure import (
    DENOMINATOR,
    FiniteDistribution,
    align,
    empirical,
    make_distribution,
    total_variation,
)
from .semiparametric import (
    DualCertificate,
    SemiparametricModel,
    maximize_dual,
    primal_lp,
)
from .transport import TransportResult, solve_zero_one

__version__ = "0.1.0"

__all__ = [
    "Correspondence",
    "DENOMINATOR",
    "DeficiencyReport",
    "DualCertificate",
    "FalsiflowError",
    "FiniteDistribution",
    "MinimaxReport",
    "SemiparametricModel",
    "TestReport",
    "TransportResult",
    "align",
    "bootstrap_pvalue",
    "capacity",
    "capacity_fp",
    "core_deficiency_bruteforce",
    "deficiency_table",
    "empirical",
    "enumerate_selections",
    "make_distribution",
    "maximize_dual",
    "primal_lp",
    "selection_minimax_check",
    "solve_zero_one",
    "statistic_semiparametric",
    "statistic_tn_halflines",
    "statistic_tv_core",
    "total_variation",
]
