"""Closed-form MSE envelopes for the averaged iterate.

Both bounds are functions of four inputs, which a ``BoundInputs`` holds: the
problem's moments, the step-size alpha, the start theta_0 and optionally the
PD-certifying similarity U (needed when the mean is not positive definite).
Everything else is derived from them: the spectral gaps rho_d and rho_s at alpha (of the
transformed problem when U is given), kappa(U), the fixed point theta* and
the noise constants sigma1^2 = sigma_A^2||theta*||^2 + sigma_b^2 and
sigma2^2 = sigma_A^2||theta*|| of the original problem.

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

Every difference that cancels as alpha -> 0 is evaluated in a form that
keeps its digits down to the smallest accepted alpha: 1 - sqrt(g) as
min(alpha rho_d, 1)/(1 + sqrt(g)), beta_t with x = alpha rho_s as
-expm1(t log1p(-x)), and the partial sum sum_{s=1..t} beta_{t-s} =
t - beta_t/x, where t x is small, as its series C(t,2) x - C(t,3) x^2 + ...
The envelopes divide by alpha rho_d and alpha rho_s one factor at a time and
scale v^2 by alpha only after dividing it, so nu and 1/(alpha^2 rho_d rho_s),
which overflow near that alpha, are never formed on the way.

Where a term overflows (a far fixed point or start), the envelopes read
+inf, never NaN: ||theta_0 - theta*|| is +inf where the difference
overflows and is computed without squaring when the squares would, and a
zero coefficient times an infinite constant counts as zero (an empty sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problems import Moments, _check_theta0
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

    Holds its inputs ``(moments, alpha, theta_0, transform=None)`` and derives
    the rest, so ``dataclasses.replace`` of an input re-derives it: rho_d and
    rho_s are the gaps at alpha of ``transform.transformed_moments`` (of
    ``moments`` without a transform), kappa_U is the transform's kappa(U), 1
    without one, and theta*, sigma1_sq and sigma2_sq are read from
    ``moments``, the original problem.  Raises ValueError without a fixed
    point, for a theta_0 that is not a finite d-vector, a transform without
    transformed moments, an alpha that is not finite and positive or one so
    small that alpha^2 rho_d rho_s underflows to 0 (below about 1e-162 on
    the TD problems), and CertifiedRegimeError when a gap is nonpositive.
    """

    moments: Moments
    alpha: float
    theta_0: np.ndarray
    transform: TransformResult | None = None
    rho_d: float = field(init=False)
    rho_s: float = field(init=False)

    def __post_init__(self):
        m = self.moments
        if m.theta_star is None:
            raise ValueError("moments carry no fixed point")
        object.__setattr__(self, "theta_0", _check_theta0(self.theta_0, len(m.b_P)))
        if self.transform is not None:
            m = self.transform.transformed_moments
            if m is None:
                raise ValueError("transform carries no transformed moments")
        rd, rs = _rho_d(m, self.alpha), _rho_s(m, self.alpha)
        if rd <= 0 or rs <= 0:
            raise CertifiedRegimeError(f"outside certified regime: rho_d={rd:g}, rho_s={rs:g}")
        if self.alpha**2 * rd * rs == 0:  # the bounds divide by it
            raise ValueError(
                f"alpha={self.alpha!r} is too small: alpha^2 rho_d rho_s underflows to 0"
            )
        object.__setattr__(self, "rho_d", rd)
        object.__setattr__(self, "rho_s", rs)

    @property
    def kappa_U(self) -> float:
        return 1.0 if self.transform is None else self.transform.kappa_U

    @property
    def initial_err(self) -> float:
        """||theta_0 - theta*||, +inf where the difference overflows."""
        with np.errstate(over="ignore"):
            diff = self.theta_0 - self.moments.theta_star
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
    def v_sq_per_alpha(self) -> float:
        """v^2 / alpha = alpha sigma1^2 + sigma2^2 ||theta_0 - theta*||."""
        m = self.moments
        return self.alpha * m.sigma1_sq + m.sigma2_sq * self.initial_err

    @property
    def v_sq(self) -> float:
        return self.alpha * self.v_sq_per_alpha

    @property
    def nu_x(self) -> float:
        """nu * alpha rho_s = (1 + 2 sqrt(g)/(1 - sqrt(g))) kappa(U)^2, finite
        wherever nu overflows."""
        x = self.alpha * self.rho_d
        sq = math.sqrt(max(1.0 - x, 0.0))
        one_minus_sq = min(x, 1.0) / (1.0 + sq)  # 1 - sqrt(g) without cancelling
        return (1.0 + 2.0 * sq / one_minus_sq) * self.kappa_U**2

    @property
    def nu(self) -> float:
        return self.nu_x / (self.alpha * self.rho_s)


@dataclass(frozen=True)
class BoundCurve:
    """Lower and upper envelopes on a time grid; the upper one is held as its
    bias and variance terms, and ``upper`` is their sum."""

    times: np.ndarray
    lower: np.ndarray
    upper_bias: np.ndarray
    upper_variance: np.ndarray

    @property
    def upper(self) -> np.ndarray:
        return self.upper_bias + self.upper_variance


def upper_bound(inputs: BoundInputs, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total, bias, variance) of the upper envelope at time(s) t."""
    t = np.asarray(t, dtype=float)
    nu_x = inputs.nu_x
    with np.errstate(over="ignore"):  # a bound past the float range reads +inf
        bias = nu_x * (inputs.initial_err_sq / (inputs.alpha * inputs.rho_s) / (t + 1.0) ** 2)
        variance = nu_x * (inputs.v_sq_per_alpha / inputs.rho_s / (t + 1.0))
    return bias + variance, bias, variance


def beta_coefficient(x: float, t) -> np.ndarray:
    """beta_t = 1 - (1 - x)^t for x = alpha rho_s in (0, 1], elementwise in t.

    In (0, 1] and increasing for t >= 1; evaluated as -expm1(t log1p(-x)),
    which keeps its relative precision as x -> 0.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):  # x = 1: log1p(-1) = -inf, beta_t = 1
        return -np.expm1(t * np.log1p(-min(x, 1.0)))


def beta_partial_sum(x: float, t) -> np.ndarray:
    """sum_{s=1..t} beta_{t-s} = t - beta_t/x, elementwise in t.

    Where t x <= 1 the difference cancels, so the alternating series
    sum_{k>=2} (-1)^k C(t,k) x^(k-1) is summed instead: there term k is at
    most 2/k! of the first, so the terms up to k = 20 leave a relative
    error below 1e-19.
    """
    t = np.asarray(t, dtype=float)
    small = t * x <= 1.0
    ts = np.where(small, t, 0.0)  # the series only where it is used
    term = ts * x * (ts - 1.0) / 2.0  # C(t,2) x
    series = term
    for k in range(2, 20):
        term = term * (-(ts - k) * x / (k + 1))
        series = series + term
    return np.where(small, series, t - beta_coefficient(x, t) / x)


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
    x = inputs.alpha * inputs.rho_s
    with np.errstate(over="ignore"):  # a bound past the float range reads +inf
        bias = _times(beta_coefficient(x, t) / x, inputs.initial_err_sq) / inputs.alpha
        noise = _times(beta_partial_sum(x, t) / x, inputs.v_sq_per_alpha)
        return (bias + noise) / (inputs.rho_d * (t + 1.0) ** 2)


def bound_curve(inputs: BoundInputs, times) -> BoundCurve:
    """Evaluate both envelopes on a time grid."""
    times = np.asarray(times)
    _, bias, variance = upper_bound(inputs, times)
    return BoundCurve(times, lower_bound(inputs, times), bias, variance)


def bound_inputs_for(
    moments: Moments, alpha: float, theta_0, transform: TransformResult | None = None
) -> BoundInputs:
    """``BoundInputs(moments, alpha, theta_0, transform)``."""
    return BoundInputs(moments, alpha, theta_0, transform)
