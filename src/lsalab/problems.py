"""Data distributions for the linear stochastic approximation iteration.

A problem is a distribution P over pairs (b, A) with b a d-vector and A a
d x d matrix.  The iteration theta_t = theta_{t-1} + alpha*(b_t - A_t theta_{t-1})
driven by i.i.d. draws from P targets theta* = A_P^{-1} b_P, where A_P and b_P
are the means of A_t and b_t.

Conventions
-----------
- Samplers are pure functions of a numpy Generator plus a shape: calling
  ``p.sample(rng, shape)`` returns ``(b, A)`` with shapes ``shape + (d,)`` and
  ``shape + (d, d)``.  Identical generators reproduce identical samples, and
  cloned generators give independent streams, so replications can run
  concurrently without shared state.
- Matrix norms are spectral (operator 2-) norms throughout; vector norms are
  Euclidean.  sigma_A_sq bounds E||A_t - A_P||^2 and sigma_b_sq bounds
  E||b_t - b_P||^2 in those norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = [
    "Moments",
    "ProblemDistribution",
    "make_finite_support",
    "make_gaussian_noise",
    "make_lower_bound_instance",
    "estimate_moments",
    "spectral_norm",
    "spectral_norms",
]

#: condition-number cliff above which an estimated mean matrix is treated as
#: singular and no fixed point is reported
SINGULAR_COND_LIMIT = 1e12

Sampler = Callable[[np.random.Generator, tuple], tuple[np.ndarray, np.ndarray]]


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of a single matrix."""
    return float(np.linalg.norm(A, ord=2))


def spectral_norms(As: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stacked (..., d, d) array."""
    return np.linalg.svd(As, compute_uv=False)[..., 0]


@dataclass(frozen=True)
class Moments:
    """First and second moments of a (b, A) distribution.

    ``sigma1_sq = sigma_A_sq*||theta*||^2 + sigma_b_sq`` and
    ``sigma2_sq = sigma_A_sq*||theta*||`` are the noise constants entering the
    error bounds; they are None when no fixed point exists (singular mean).
    """

    A_P: np.ndarray
    b_P: np.ndarray
    C_P: np.ndarray
    sigma_A_sq: float
    sigma_b_sq: float
    theta_star: np.ndarray | None
    sigma1_sq: float | None
    sigma2_sq: float | None

    @classmethod
    def from_parts(
        cls,
        A_P: np.ndarray,
        b_P: np.ndarray,
        C_P: np.ndarray,
        sigma_A_sq: float,
        sigma_b_sq: float,
        cond_limit: float = SINGULAR_COND_LIMIT,
    ) -> "Moments":
        """Assemble moments, solving for theta* when the mean is invertible."""
        A_P = np.asarray(A_P)
        b_P = np.asarray(b_P)
        C_P = np.asarray(C_P)
        if np.linalg.cond(A_P) < cond_limit:
            theta_star = np.linalg.solve(A_P, b_P)
            # hypot does not overflow where squaring the entries would, and
            # a noise-free A contributes 0 even when ||theta*||^2 is inf
            nrm = math.hypot(*np.abs(theta_star))
            if sigma_A_sq == 0:
                sigma1_sq = float(sigma_b_sq)
                sigma2_sq = 0.0
            else:
                sigma1_sq = sigma_A_sq * (nrm * nrm) + sigma_b_sq
                sigma2_sq = sigma_A_sq * nrm
        else:
            theta_star = None
            sigma1_sq = None
            sigma2_sq = None
        return cls(
            A_P=A_P,
            b_P=b_P,
            C_P=C_P,
            sigma_A_sq=float(sigma_A_sq),
            sigma_b_sq=float(sigma_b_sq),
            theta_star=theta_star,
            sigma1_sq=sigma1_sq,
            sigma2_sq=sigma2_sq,
        )

    @property
    def dim(self) -> int:
        return self.A_P.shape[0]


@dataclass(frozen=True)
class FiniteAtoms:
    """Support of a finite distribution: atoms (b_i, A_i) with weights p_i.

    ``b_noise`` adds Gaussian scatter to the intercept: atom i draws
    b = bs[i] + z * b_noise[i] with z ~ N(0, 1), independent of everything
    else (TD's reward noise).  None means the intercepts are exact.
    """

    probs: np.ndarray
    bs: np.ndarray  # (k, d)
    As: np.ndarray  # (k, d, d)
    b_noise: np.ndarray | None = None  # (k, d)


@dataclass(frozen=True)
class ProblemDistribution:
    """A sampleable (b, A) distribution, with exact moments when known.

    ``sample(rng, shape)`` draws ``shape``-many i.i.d. pairs.  ``atoms`` is set
    for finite-support families so downstream transforms can map moments in
    closed form.  ``seed`` is an optional default stream carried over from a
    problem file; runs always take their own seeds.
    """

    dim: int
    sample: Sampler
    exact_moments: Moments | None
    label: str
    atoms: FiniteAtoms | None = None
    seed: int | None = None

    def with_label(self, label: str) -> "ProblemDistribution":
        return replace(self, label=label)


def make_finite_support(atoms, label: str = "finite") -> ProblemDistribution:
    """Finite-support distribution from ``[((b, A), p), ...]`` atoms.

    Moments are computed in closed form by weighted sums, including the exact
    second moment C_P = sum_i p_i A_i^* A_i and the exact noise magnitudes
    sigma_A_sq = E||A - A_P||^2, sigma_b_sq = E||b - b_P||^2.

    Raises ValueError on dimension mismatch or if the probabilities are not a
    distribution (negative entries, or not summing to 1 within 1e-12).
    """
    if len(atoms) == 0:
        raise ValueError("need at least one atom")
    bs = []
    As = []
    probs = []
    for (b, A), p in atoms:
        bs.append(np.atleast_1d(np.asarray(b)))
        As.append(np.atleast_2d(np.asarray(A)))
        probs.append(float(p))
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise ValueError("atom probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities sum to {probs.sum()!r}, not 1")
    d = bs[0].shape[0]
    for b, A in zip(bs, As):
        if b.shape != (d,) or A.shape != (d, d):
            raise ValueError(
                f"atom shapes {b.shape}, {A.shape} do not match dimension {d}"
            )
    dtype = np.result_type(float, *(a.dtype for a in As), *(b.dtype for b in bs))
    return _finite_problem(
        FiniteAtoms(probs=probs, bs=np.stack(bs).astype(dtype), As=np.stack(As).astype(dtype)),
        label,
    )


def _finite_problem(atoms: FiniteAtoms, label: str) -> ProblemDistribution:
    """The distribution over validated atoms: index sampler and exact moments.

    Each draw picks an atom index with probability p_i, then (only when
    ``atoms.b_noise`` is set) one standard normal for the intercept scatter.
    """
    probs, bs, As, b_noise = atoms.probs, atoms.bs, atoms.As, atoms.b_noise

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        idx = rng.choice(len(probs), size=shape, p=probs)
        b = bs[idx]
        if b_noise is not None:
            b = b + rng.standard_normal(shape)[..., None] * b_noise[idx]
        return b, As[idx]

    return ProblemDistribution(
        dim=bs.shape[1],
        sample=sample,
        exact_moments=_finite_support_moments(atoms),
        label=label,
        atoms=atoms,
    )


def _finite_support_moments(atoms: FiniteAtoms) -> Moments:
    """Exact moments of a finite-support distribution, by weighted sums."""
    probs, bs, As = atoms.probs, atoms.bs, atoms.As
    w = probs[:, None]
    b_P = (w * bs).sum(axis=0)
    A_P = (w[:, :, None] * As).sum(axis=0)
    AhA = np.einsum("kji,kjl->kil", As.conj(), As)  # A_k^* A_k
    C_P = (w[:, :, None] * AhA).sum(axis=0)
    sigma_A_sq = float((probs * spectral_norms(As - A_P) ** 2).sum())
    b_dev_sq = (np.abs(bs - b_P) ** 2).sum(axis=1)
    if atoms.b_noise is not None:
        b_dev_sq = b_dev_sq + (np.abs(atoms.b_noise) ** 2).sum(axis=1)
    sigma_b_sq = float((probs * b_dev_sq).sum())
    return Moments.from_parts(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)


# --- entrywise Gaussian noise, calibrated to a spectral-norm target ----------

# cache of E||G||^2 for G a d x d standard normal matrix, keyed by d
_GINIBRE_SPECNORM_SQ: dict[int, float] = {}
_CALIBRATION_SAMPLES = 40_000
_CALIBRATION_SEED = 20240901


def _mean_specnorm_sq_standard(d: int) -> float:
    """E||G||^2 for a d x d matrix of i.i.d. standard normals (Monte Carlo).

    Computed once per dimension with a fixed seed so the derived entry scale
    is deterministic; the relative standard error at the default sample count
    is well under 1%, inside the 2% calibration budget.
    """
    if d not in _GINIBRE_SPECNORM_SQ:
        rng = np.random.default_rng(_CALIBRATION_SEED + d)
        n = max(2_000, _CALIBRATION_SAMPLES // d)
        total = 0.0
        chunk = max(1, 2_000_000 // (d * d))
        left = n
        while left > 0:
            take = min(chunk, left)
            G = rng.standard_normal((take, d, d))
            total += float((spectral_norms(G) ** 2).sum())
            left -= take
        _GINIBRE_SPECNORM_SQ[d] = total / n
    return _GINIBRE_SPECNORM_SQ[d]


def make_gaussian_noise(
    A_P,
    b_P,
    sigma_A: float,
    sigma_b: float,
    label: str | None = None,
) -> ProblemDistribution:
    """Mean matrix plus i.i.d. Gaussian-entry perturbations.

    Samples A_t = A_P + M_t and b_t = b_P + N_t with independent zero-mean
    Gaussian entries, scaled so that E||M_t||^2 = sigma_A^2 (calibrated via a
    one-time Monte Carlo constant per dimension) and E||N_t||^2 = sigma_b^2
    (exact).  M_t and N_t are independent, so E[M_t N_t] = 0.

    Exact moments carry C_P = A_P^T A_P + s^2 d I, where s is the entry scale:
    for i.i.d. entries E[M^T M] = s^2 d I.
    """
    if sigma_A < 0 or sigma_b < 0:
        raise ValueError("noise magnitudes must be nonnegative")
    A_P = np.atleast_2d(np.asarray(A_P, dtype=float))
    if A_P.shape[0] != A_P.shape[1]:
        raise ValueError("A_P must be square")
    d = A_P.shape[0]
    b_P = np.atleast_1d(np.asarray(b_P, dtype=float))
    if b_P.shape != (d,):
        raise ValueError(f"b_P must have shape ({d},)")

    entry_scale_A = sigma_A / np.sqrt(_mean_specnorm_sq_standard(d)) if sigma_A else 0.0
    entry_scale_b = sigma_b / np.sqrt(d)

    C_P = A_P.T @ A_P + entry_scale_A**2 * d * np.eye(d)
    moments = Moments.from_parts(A_P, b_P, C_P, sigma_A**2, sigma_b**2)

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        if entry_scale_A:
            A = A_P + entry_scale_A * rng.standard_normal(shape + (d, d))
        else:
            A = np.broadcast_to(A_P, shape + (d, d)).copy()
        if entry_scale_b:
            b = b_P + entry_scale_b * rng.standard_normal(shape + (d,))
        else:
            b = np.broadcast_to(b_P, shape + (d,)).copy()
        return b, A

    if label is None:
        label = f"gaussian(d={d}, sigma_A={sigma_A:g}, sigma_b={sigma_b:g})"
    return ProblemDistribution(dim=d, sample=sample, exact_moments=moments, label=label)


def make_lower_bound_instance(
    lambda_min: float, lambda_max: float, sigma_b: float
) -> ProblemDistribution:
    """Two-dimensional worst-case family: constant diagonal mean, noise on b.

    A_t = diag(lambda_min, lambda_max) for all t; b_t = (N_t, 0) with N_t
    zero-mean Gaussian of variance sigma_b^2.  The fixed point is 0 and the
    iteration matrix is deterministic (sigma_A = 0), which makes the averaged
    error computable in closed form and the error bounds tight.
    """
    if not (0 < lambda_min < lambda_max):
        raise ValueError("need 0 < lambda_min < lambda_max")
    if sigma_b < 0:
        raise ValueError("sigma_b must be nonnegative")
    A = np.diag([float(lambda_min), float(lambda_max)])
    b_P = np.zeros(2)
    moments = Moments.from_parts(A, b_P, A.T @ A, 0.0, sigma_b**2)

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        b = np.zeros(shape + (2,))
        if sigma_b:
            b[..., 0] = sigma_b * rng.standard_normal(shape)
        return b, np.broadcast_to(A, shape + (2, 2)).copy()

    return ProblemDistribution(
        dim=2,
        sample=sample,
        exact_moments=moments,
        label=f"lower_bound({lambda_min:g},{lambda_max:g},sigma_b={sigma_b:g})",
    )


def estimate_moments(
    p: ProblemDistribution,
    n_samples: int,
    seed,
    chunk: int = 100_000,
) -> Moments:
    """Empirical moments from n_samples draws of p, deterministic given seed.

    Means and raw second moments are sample averages; the centered noise
    magnitudes use the unbiased 1/(n-1) convention.  If the estimated mean
    matrix is numerically singular (condition number above 1e12), no fixed
    point is reported.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    start_state = rng.bit_generator.state  # replayed for the centered pass

    # pass 1: means and the raw second moment
    sum_b = None
    sum_A = None
    sum_C = None
    left = n_samples
    while left > 0:
        take = min(chunk, left)
        b, A = p.sample(rng, (take,))
        C = np.einsum("kji,kjl->il", A.conj(), A)
        if sum_b is None:
            sum_b, sum_A, sum_C = b.sum(axis=0), A.sum(axis=0), C
        else:
            sum_b = sum_b + b.sum(axis=0)
            sum_A = sum_A + A.sum(axis=0)
            sum_C = sum_C + C
        left -= take
    b_P = sum_b / n_samples
    A_P = sum_A / n_samples
    C_P = sum_C / n_samples

    # pass 2: deviations from the final means, replaying the same stream
    rng.bit_generator.state = start_state
    dev_b = 0.0
    dev_A = 0.0
    left = n_samples
    while left > 0:
        take = min(chunk, left)
        b, A = p.sample(rng, (take,))
        dev_b += float((np.abs(b - b_P) ** 2).sum())
        dev_A += float((spectral_norms(A - A_P) ** 2).sum())
        left -= take
    sigma_b_sq = dev_b / (n_samples - 1)
    sigma_A_sq = dev_A / (n_samples - 1)

    return Moments.from_parts(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)
