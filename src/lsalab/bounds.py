"""Closed-form MSE envelopes for the averaged iterate.

Both bounds are driven by the spectral gaps at the chosen step-size (computed
for the transformed problem when a similarity transform is needed) and by the
noise constants sigma1^2 = sigma_A^2||theta*||^2 + sigma_b^2 and
sigma2^2 = sigma_A^2||theta*||.

Upper bound at time t:

    nu * ( ||theta_0 - theta*||^2 / (t+1)^2  +  v^2 / (t+1) )

with v^2 = alpha^2 sigma1^2 + alpha sigma2^2 ||theta_0 - theta*|| and

    nu = (1 + 2 sqrt(g) / (1 - sqrt(g))) * kappa(U)^2 / (alpha rho_s),
    g = 1 - alpha rho_d.

The cross-term factor uses sqrt(g) = ||I - alpha A_P|| per power of the mean
iteration matrix, so sum_m ||(I - alpha A_P)^m|| <= sqrt(g)/(1 - sqrt(g)).
Using g per power instead is not a valid bound: on the constant-diagonal
family with b-noise the exact MSE exceeds the resulting envelope, while the
sqrt form matches it exactly (the mean iteration matrix is symmetric PSD
there, making the geometric-series bound tight).

Lower envelope: the paper's worst-case construction,

    (1/(alpha^2 rho_d rho_s)) * ( beta_t ||theta_0 - theta*||^2
        + v^2 * sum_{s=1..t} beta_{t-s} ) / (t+1)^2,
    beta_t = 1 - (1 - alpha rho_s)^t.

It shows that no bound in these constants can be much smaller than the
upper one, because some problem attains it: it is sharp only on the
constant-diagonal family with noise on the first coordinate of b.  It is
not a lower bound on the MSE of the problem at hand: on GTD2, TD(0) and the
Fig. 1 problems the exact MSE falls far below it.

The beta partial sum is evaluated in closed form:
sum_{s=1..t} beta_{t-s} = t - (1 - (1-x)^t)/x with x = alpha rho_s.

Where a term overflows (a far fixed point or start), the envelopes read
+inf, never NaN: ||theta_0 - theta*|| is +inf where the difference
overflows and is computed without squaring when the squares would, and a
zero coefficient times an infinite constant counts as zero (an empty sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import Moments
from .spectral import rho_d as _rho_d, rho_s as _rho_s
from .transform import TransformResult

__all__ = [
    "BoundInputs",
    "BoundCurve",
    "upper_bound",
    "lower_bound",
    "bound_curve",
    "beta_coefficient",
    "beta_partial_sum",
    "bound_inputs_for",
    "CertifiedRegimeError",
]


class CertifiedRegimeError(ValueError):
    """Step-size outside the certified regime (a spectral gap is nonpositive)."""


@dataclass(frozen=True)
class BoundInputs:
    """Everything the bound formulas need at a fixed step-size.

    rho_d and rho_s are the gaps of the (possibly transformed) problem;
    sigma1_sq and sigma2_sq are the noise constants of the original problem;
    kappa_U is 1 when no transform was applied.
    """

    alpha: float
    rho_d: float
    rho_s: float
    theta_0: np.ndarray
    theta_star: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    kappa_U: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:  # NaN fails too
            raise ValueError("alpha must be finite and positive")
        if self.rho_d <= 0 or self.rho_s <= 0:
            raise CertifiedRegimeError(
                f"outside certified regime: rho_d={self.rho_d:g}, rho_s={self.rho_s:g}"
            )

    @property
    def initial_err(self) -> float:
        """||theta_0 - theta*||, +inf where the difference overflows."""
        with np.errstate(over="ignore"):
            diff = np.asarray(self.theta_0) - np.asarray(self.theta_star)
        if np.abs(diff).max() < 1e150:  # no sum of squares can overflow
            return float(np.linalg.norm(diff))
        return math.hypot(*np.abs(diff))

    @property
    def initial_err_sq(self) -> float:
        """||theta_0 - theta*||^2, +inf where the square overflows."""
        try:
            return self.initial_err**2
        except OverflowError:
            return math.inf

    @property
    def v_sq(self) -> float:
        return self.alpha**2 * self.sigma1_sq + self.alpha * self.sigma2_sq * self.initial_err

    @property
    def nu(self) -> float:
        g = max(1.0 - self.alpha * self.rho_d, 0.0)
        sq = np.sqrt(g)
        cross = 2.0 * sq / (1.0 - sq) if sq < 1.0 else np.inf
        return (1.0 + cross) * self.kappa_U**2 / (self.alpha * self.rho_s)


@dataclass(frozen=True)
class BoundCurve:
    """Upper/lower envelopes on a time grid, with the bias/variance split."""

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    upper_bias: np.ndarray
    upper_variance: np.ndarray
    beta: np.ndarray


def upper_bound(inputs: BoundInputs, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total, bias, variance) of the upper envelope at time(s) t."""
    t = np.asarray(t, dtype=float)
    nu = inputs.nu
    bias = nu * inputs.initial_err_sq / (t + 1.0) ** 2
    variance = nu * inputs.v_sq / (t + 1.0)
    return bias + variance, bias, variance


def beta_coefficient(inputs: BoundInputs, t) -> np.ndarray:
    """beta_t = 1 - (1 - alpha rho_s)^t, in (0, 1) and increasing for t >= 1."""
    x = inputs.alpha * inputs.rho_s
    return 1.0 - (1.0 - x) ** np.asarray(t, dtype=float)


def beta_partial_sum(x: float, t) -> np.ndarray:
    """sum_{s=1..t} (1 - (1-x)^(t-s)) = t - (1 - (1-x)^t)/x, elementwise in t."""
    t = np.asarray(t, dtype=float)
    return t - (1.0 - (1.0 - x) ** t) / x


def _times(coef: np.ndarray, value: float) -> np.ndarray:
    """coef * value for a nonnegative constant value, counting 0 * inf as 0.

    Where value is +inf, a positive coefficient gives +inf and a
    nonpositive one (a sum with no terms, or its rounding) gives 0.
    """
    return np.where(coef > 0, math.inf, 0.0) if value == math.inf else coef * value


def lower_bound(inputs: BoundInputs, t) -> np.ndarray:
    """The paper's worst-case lower envelope at time(s) t.

    Sharp only on the constant-diagonal family; not a lower bound on the MSE
    of an arbitrary problem (see the module docstring).
    """
    t = np.asarray(t, dtype=float)
    lead = 1.0 / (inputs.alpha**2 * inputs.rho_d * inputs.rho_s)
    noise = _times(beta_partial_sum(inputs.alpha * inputs.rho_s, t), inputs.v_sq)
    bias = _times(beta_coefficient(inputs, t), inputs.initial_err_sq)
    return lead * (bias + noise) / (t + 1.0) ** 2


def bound_curve(inputs: BoundInputs, times) -> BoundCurve:
    """Evaluate both envelopes on a time grid."""
    times = np.asarray(times)
    total, bias, variance = upper_bound(inputs, times)
    return BoundCurve(
        times=times,
        lower=lower_bound(inputs, times),
        upper=total,
        upper_bias=bias,
        upper_variance=variance,
        beta=beta_coefficient(inputs, times),
    )


def bound_inputs_for(
    moments: Moments,
    alpha: float,
    theta_0,
    transform: TransformResult | None = None,
) -> BoundInputs:
    """Assemble BoundInputs from problem moments and an optional transform.

    The gaps are evaluated on the transformed moments when a transform is
    given (kappa(U) then enters the constant); the noise magnitudes and the
    fixed point come from the original problem.  Raises ValueError without
    a fixed point or when theta_0 is not a finite d-vector.
    """
    if moments.theta_star is None:
        raise ValueError("moments carry no fixed point")
    theta_0 = np.asarray(theta_0)
    if theta_0.shape != moments.b_P.shape:
        raise ValueError(f"theta_0 must have shape {moments.b_P.shape}")
    if not np.isfinite(theta_0).all():
        raise ValueError("theta_0 must be finite")
    if transform is not None:
        if transform.transformed_moments is None:
            raise ValueError("transform carries no transformed moments")
        gap_moments = transform.transformed_moments
        kappa = transform.kappa_U
    else:
        gap_moments = moments
        kappa = 1.0
    return BoundInputs(
        alpha=alpha,
        rho_d=_rho_d(gap_moments, alpha),
        rho_s=_rho_s(gap_moments, alpha),
        theta_0=theta_0,
        theta_star=moments.theta_star,
        sigma1_sq=moments.sigma1_sq,
        sigma2_sq=moments.sigma2_sq,
        kappa_U=kappa,
    )
