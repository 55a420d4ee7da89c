"""Stochastic block models for partially observed networks.

Joint variational estimation of the SBM and of the process that generated the
missing dyads (MCAR / MAR / MNAR designs), imputation of the unobserved part
of the network, and block-count selection by ICL.
"""

from .errors import InputError, NumericalError
from .evaluation import ExperimentSpec, ari, auc, compare_designs, run_auc_sweep
from .network import (
    CovariateSet,
    PartialAdjacency,
    Partition,
    degrees,
    l1_similarity,
    logistic,
    transfer_covariates,
)
from .sampling import (
    AVAILABLE_SAMPLINGS,
    SamplingDesign,
    design_df,
    observe_network,
    sampling_loglik,
    update_psi,
)
from .sbm import (MembershipDraw, SbmParams, expected_loglik_sbm, predict_probabilities,
                  sample_network, spectral_init)
from .vem import (
    ControlOptions,
    FitCollection,
    FitResult,
    VariationalState,
    elbo,
    estimate_miss_sbm,
    explore,
    fit_single,
    icl,
    icl_penalty,
    impute,
    m_step,
    ve_step,
)

__all__ = [
    "AVAILABLE_SAMPLINGS",
    "ControlOptions",
    "CovariateSet",
    "ExperimentSpec",
    "FitCollection",
    "FitResult",
    "InputError",
    "MembershipDraw",
    "NumericalError",
    "PartialAdjacency",
    "Partition",
    "SamplingDesign",
    "SbmParams",
    "VariationalState",
    "ari",
    "auc",
    "compare_designs",
    "degrees",
    "design_df",
    "elbo",
    "estimate_miss_sbm",
    "expected_loglik_sbm",
    "explore",
    "fit_single",
    "icl",
    "icl_penalty",
    "impute",
    "l1_similarity",
    "logistic",
    "m_step",
    "observe_network",
    "predict_probabilities",
    "run_auc_sweep",
    "sample_network",
    "sampling_loglik",
    "spectral_init",
    "transfer_covariates",
    "update_psi",
    "ve_step",
]

__version__ = "0.1.0"
