"""Exact compatibility checks and falsification tests for models that map
latent states to sets of observable outcomes."""

from .correspondence import Correspondence, capacity, capacity_fp
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
)
from .semiparametric import (
    DualCertificate,
    SemiparametricModel,
    maximize_dual,
)
from .transport import TransportResult, solve_zero_one

__version__ = "0.1.0"

__all__ = [
    "Correspondence",
    "DENOMINATOR",
    "DualCertificate",
    "FalsiflowError",
    "FiniteDistribution",
    "SemiparametricModel",
    "TestReport",
    "TransportResult",
    "align",
    "bootstrap_pvalue",
    "capacity",
    "capacity_fp",
    "empirical",
    "make_distribution",
    "maximize_dual",
    "solve_zero_one",
    "statistic_semiparametric",
    "statistic_tn_halflines",
    "statistic_tv_core",
]
