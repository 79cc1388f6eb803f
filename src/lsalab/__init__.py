"""Constant step-size linear stochastic approximation with iterate averaging.

The package simulates the recursion theta_t = theta_{t-1} + alpha*(b_t - A_t
theta_{t-1}) with averaged output, computes the spectral gaps that certify a
step-size, evaluates closed-form MSE envelopes, transforms problems whose
mean matrix is merely Hurwitz into positive definite ones, tunes the
step-size automatically by instability detection, and instantiates
temporal-difference policy evaluation as (b, A) distributions.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCurve,
    BoundInputs,
    CertifiedRegimeError,
    beta_coefficient,
    beta_partial_sum,
    bound_curve,
    bound_inputs_for,
    lower_bound,
    upper_bound,
)
from .engine import (
    DIVERGENCE_SENTINEL,
    MseCurve,
    RunConfig,
    run_mse,
    run_mse_many,
)
from .problem_io import load_problem, load_problem_file
from .problems import (
    Moments,
    ProblemDistribution,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
)
from .spectral import (
    NotPositiveDefiniteError,
    SpectralReport,
    check_weak_admissibility_psd_class,
    inadmissibility_witness_pb,
    rho_d,
    rho_s,
    spectral_report,
    witness_alpha,
)
from .td import SyntheticMdp, TdInstance, gtd_instance, stationary_distribution, td0_instance
from .transform import (
    NotHurwitzError,
    TransformFailedError,
    TransformResult,
    hurwitz_to_pd,
    transform_distribution,
    transform_moments,
    transform_problem,
)
from .tuner import NoStableStepSizeError, TunerConfig, TunerTrace, tune

__all__ = [
    "__version__",
    "Moments",
    "ProblemDistribution",
    "make_finite_support",
    "make_gaussian_noise",
    "make_lower_bound_instance",
    "SpectralReport",
    "rho_d",
    "rho_s",
    "witness_alpha",
    "spectral_report",
    "check_weak_admissibility_psd_class",
    "inadmissibility_witness_pb",
    "NotPositiveDefiniteError",
    "TransformResult",
    "hurwitz_to_pd",
    "transform_distribution",
    "transform_moments",
    "transform_problem",
    "NotHurwitzError",
    "TransformFailedError",
    "RunConfig",
    "MseCurve",
    "run_mse",
    "run_mse_many",
    "DIVERGENCE_SENTINEL",
    "BoundInputs",
    "BoundCurve",
    "upper_bound",
    "lower_bound",
    "bound_curve",
    "bound_inputs_for",
    "beta_coefficient",
    "beta_partial_sum",
    "CertifiedRegimeError",
    "TunerConfig",
    "TunerTrace",
    "tune",
    "NoStableStepSizeError",
    "SyntheticMdp",
    "TdInstance",
    "td0_instance",
    "gtd_instance",
    "stationary_distribution",
    "load_problem",
    "load_problem_file",
]
