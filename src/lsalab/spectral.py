"""Spectral step-size certificates for the averaged iteration.

Two scalar gaps govern contraction of the error dynamics at step-size alpha:

- the deterministic gap, the smallest eigenvalue of
  (A_P + A_P^*) - alpha * A_P^* A_P, which controls the mean iteration matrix
  (||I - alpha A_P||^2 = 1 - alpha * rho_d); and
- the stochastic gap, the smallest eigenvalue of (A_P + A_P^*) - alpha * C_P,
  which controls the expected squared contraction of the random iteration
  matrix (E||(I - alpha A_t) x||^2 <= (1 - alpha * rho_s) ||x||^2).

Positive gaps certify stability; a closed-form witness step-size guarantees
positivity for every smaller alpha whenever A_P + A_P^* is positive definite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .problems import Moments, ProblemDistribution, make_finite_support, spectral_norm

__all__ = [
    "SpectralReport",
    "rho_d",
    "rho_s",
    "witness_alpha",
    "spectral_report",
    "check_weak_admissibility_psd_class",
    "inadmissibility_witness_pb",
    "NotPositiveDefiniteError",
]


class NotPositiveDefiniteError(ValueError):
    """A_P + A_P^* has a nonpositive eigenvalue; no direct witness exists."""


def _min_eig_hermitian(H: np.ndarray) -> float:
    """Smallest eigenvalue of (H + H^*)/2; the infimum of x^* H x over unit x.

    Formed as H/2 + H^*/2, which does not overflow where H + H^* would and,
    halving being exact above the subnormals, has the same bits elsewhere."""
    Hh = 0.5 * H + 0.5 * H.conj().T
    return float(np.linalg.eigvalsh(Hh)[0])


def _gap(moments: Moments, alpha: float, M: np.ndarray) -> float:
    """lam_min of the Hermitian part of H - alpha*M, H = A_P + A_P^* and M
    PSD; -inf where alpha*M has an entry past the float range.  The gap then
    lies below minus the largest double, to within rounding: such an entry
    puts alpha*lam_max(M) past the range (M is PSD); lam_min(H - alpha*M) <=
    lam_max(H) - alpha*lam_max(M); and lam_max(H) <= 2||A_P|| <= 2 sqrt(d *
    1.8e308) for any ``Moments``, as ||A_P||^2 <= trace(C_P).  Finite gaps
    keep their bits."""
    if not 0 < alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be finite and positive")
    A = moments.A_P
    with np.errstate(over="ignore"):
        H = A + A.conj().T - alpha * M
    return _min_eig_hermitian(H) if np.isfinite(H).all() else -math.inf


def rho_d(moments: Moments, alpha: float) -> float:
    """Deterministic spectral gap at step-size alpha (M = A_P^* A_P in ``_gap``)."""
    return _gap(moments, alpha, moments.A_P.conj().T @ moments.A_P)


def rho_s(moments: Moments, alpha: float) -> float:
    """Stochastic spectral gap at step-size alpha (M = C_P in ``_gap``)."""
    return _gap(moments, alpha, moments.C_P)


def witness_alpha(moments: Moments) -> float:
    """Certified step-size ceiling lam_min(A_P^* + A_P) / (||A_P||^2 + sigma_A^2).

    Every alpha strictly below the returned value has a positive stochastic
    gap provided C_P <= A_P^* A_P + sigma_A^2 I (which holds whenever
    sigma_A_sq genuinely bounds E||A_t - A_P||^2).  Callers should stay
    strictly below; the command-line tools apply a 0.99 safety factor.

    Where ||A_P||^2 + sigma_A^2 overflows, underflows to zero or is
    subnormal, the ratio is taken as (lam / h) / h with h = hypot(||A_P||,
    sigma_A), so a mean scaled far from 1 still gets its witness.

    Raises NotPositiveDefiniteError when A_P + A_P^* is not positive definite;
    apply the similarity transform first in that case.
    """
    A = moments.A_P
    lam = _min_eig_hermitian(A + A.conj().T)
    if lam <= 0:
        raise NotPositiveDefiniteError(
            "mean matrix is not positive definite; apply transform first"
        )
    norm = spectral_norm(A)
    try:
        denominator = norm**2 + moments.sigma_A_sq
    except OverflowError:
        denominator = math.inf
    if sys.float_info.min <= denominator < math.inf:
        return lam / denominator
    h = math.hypot(norm, math.sqrt(moments.sigma_A_sq))
    return lam / h / h


@dataclass(frozen=True)
class SpectralReport:
    """Both gaps at one step-size.

    contraction_factor_s = 1 - alpha*rho_s bounds the expected squared norm
    contraction per step; contraction_factor_d = 1 - alpha*rho_d equals
    ||I - alpha A_P||^2.  The witness step-size does not depend on alpha:
    ``witness_alpha`` gives it.
    """

    alpha: float
    rho_d: float
    rho_s: float

    @property
    def contraction_factor_s(self) -> float:
        return 1.0 - self.alpha * self.rho_s

    @property
    def contraction_factor_d(self) -> float:
        return 1.0 - self.alpha * self.rho_d


def spectral_report(moments: Moments, alpha: float) -> SpectralReport:
    """Evaluate both gaps at alpha."""
    return SpectralReport(alpha, rho_d(moments, alpha), rho_s(moments, alpha))


def check_weak_admissibility_psd_class(bound_B: float) -> float:
    """Class-level witness 2/B for distributions supported on PSD matrices.

    For any distribution whose A_t are almost surely PSD with ||A_t|| <= B,
    C_P <= B * A_P, hence the stochastic gap at alpha is at least
    (2 - alpha*B) * lam_min(A_P + A_P^T) >= 0 for all alpha < 2/B.  Raises
    ValueError unless B is finite and positive; reads inf where 2/B overflows.
    """
    if not 0 < bound_B < np.inf:  # NaN fails too
        raise ValueError("bound must be finite and positive")
    return 2.0 / float(bound_B)  # a Python float overflows to inf without a warning


def inadmissibility_witness_pb(alpha: float) -> ProblemDistribution:
    """A bounded positive-definite-mean family that defeats the step-size alpha.

    Returns the two-point distribution on {+I, -I} (d = 2, b = 0) with
    P(+I) = 1/2 + eps and eps = alpha/8.  Its mean is 2*eps*I (positive
    definite, norm <= 1) yet C_P = I, so the stochastic gap at alpha equals
    4*eps - alpha = -alpha/2 < 0: no step-size works uniformly over bounded
    positive-definite families.
    """
    if not 0 < alpha < np.inf:  # NaN fails too
        raise ValueError("alpha must be finite and positive")
    eps = alpha / 8.0
    if eps >= 0.5:
        raise ValueError("alpha too large: need alpha/8 < 1/2")
    eye = np.eye(2)
    zero = np.zeros(2)
    return make_finite_support(
        [((zero, eye), 0.5 + eps), ((zero, -eye), 0.5 - eps)],
        label=f"pm_identity(eps={eps:g})",
    )
