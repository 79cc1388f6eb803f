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
- A problem may also carry a ``StepForm``: how the engine draws a step and
  applies it to a batch of states without forming A_t.  The Gaussian family
  has one, drawing d normals per step for the matrix noise instead of d^2;
  its steps follow the law of ``sample`` but are a different random stream.
  Every other problem steps through its dense (b, A) draws.
- Matrix norms are spectral (operator 2-) norms throughout; vector norms are
  Euclidean.  sigma_A_sq bounds E||A_t - A_P||^2 and sigma_b_sq bounds
  E||b_t - b_P||^2 in those norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np
from numpy.polynomial import legendre

__all__ = [
    "Moments",
    "ProblemDistribution",
    "StepForm",
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

#: draws per chunk of ``estimate_moments``
_ESTIMATE_CHUNK = 100_000

Sampler = Callable[[np.random.Generator, tuple], tuple[np.ndarray, np.ndarray]]
Draws = tuple[np.ndarray, ...]


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
    ) -> "Moments":
        """Assemble moments, solving for theta* when the mean is invertible
        (condition number below SINGULAR_COND_LIMIT)."""
        A_P = np.asarray(A_P)
        b_P = np.asarray(b_P)
        C_P = np.asarray(C_P)
        if np.linalg.cond(A_P) < SINGULAR_COND_LIMIT:
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
class StepForm:
    """How the engine draws steps and applies them, in place of dense (b, A).

    ``draw(rng, n)`` returns a tuple of arrays with leading axis n, one row
    per step; the engine stacks the rows of R replications into (n, R, ...)
    blocks.  ``direction(draws, s, theta)`` returns b_s - A_s theta for step s
    of those blocks and an (R, d) state, computed row by row, so a
    replication's result does not depend on the rest of its batch.

    ``key`` names the direction: forms with equal keys draw arrays of the same
    layout and have interchangeable ``direction``s, so the engine may step the
    replications of several problems as rows of one state, each row drawing
    through its own problem's ``draw``.  The dense form derived from
    ``sample`` is keyed ``"dense"``.
    """

    draw: Callable[[np.random.Generator, int], Draws]
    direction: Callable[[Draws, int, np.ndarray], np.ndarray]
    key: Hashable


@dataclass(frozen=True)
class ProblemDistribution:
    """A sampleable (b, A) distribution, with exact moments when known.

    ``sample(rng, shape)`` draws ``shape``-many i.i.d. pairs.  ``atoms`` is set
    for finite-support families so downstream transforms can map moments in
    closed form.  A problem without atoms that carries exact moments must
    have matrix noise N = A_t - A_P whose law is invariant under left
    rotation, N -> QN for orthogonal Q (true of the Gaussian family and of
    every sigma_A = 0 problem): the transform's closed-form second moment
    rests on it.  ``seed`` is an optional default stream carried over from a
    problem file; runs always take their own seeds.  ``step_form`` is how the
    engine steps the problem; None means through the dense (b, A) of
    ``sample``.
    """

    dim: int
    sample: Sampler
    exact_moments: Moments | None
    label: str
    atoms: FiniteAtoms | None = None
    seed: int | None = None
    step_form: StepForm | None = None


def make_finite_support(atoms, label: str = "finite") -> ProblemDistribution:
    """Finite-support distribution from ``[((b, A), p), ...]`` atoms.

    Moments are computed in closed form by weighted sums, including the exact
    second moment C_P = sum_i p_i A_i^* A_i and the exact noise magnitudes
    sigma_A_sq = E||A - A_P||^2, sigma_b_sq = E||b - b_P||^2.

    Raises ValueError on dimension mismatch, on non-finite entries of an atom
    or a probability, or if the probabilities are not a distribution
    (negative entries, or not summing to 1 within 1e-12).
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
    bs, As = np.stack(bs), np.stack(As)
    _check_finite(b=bs, A=As, p=probs)
    dtype = np.result_type(float, As.dtype, bs.dtype)
    return _finite_problem(
        FiniteAtoms(probs=probs, bs=bs.astype(dtype), As=As.astype(dtype)), label
    )


def _check_finite(**arrays) -> None:
    """Raise ValueError naming the first array with a NaN or inf entry."""
    for name, value in arrays.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")


def _finite_problem(atoms: FiniteAtoms, label: str) -> ProblemDistribution:
    """The distribution over validated atoms: index sampler and exact moments.

    Each draw picks an atom index with probability p_i (drawing nothing when
    there is one atom), then (only when ``atoms.b_noise`` is set) one
    standard normal for the intercept scatter.
    """
    probs, bs, As, b_noise = atoms.probs, atoms.bs, atoms.As, atoms.b_noise

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        one = len(probs) == 1  # choice would consume the stream for a sure draw
        idx = np.zeros(shape, int) if one else rng.choice(len(probs), size=shape, p=probs)
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


@functools.cache
def _mean_specnorm_sq_standard(d: int, nodes: int = 24) -> float:
    """c_d = E||G||^2 for a d x d matrix G of i.i.d. standard normals, exact.

    ||G||^2 is the largest eigenvalue of the real Wishart matrix G^T G ~
    W_d(d, I), whose eigenvalue density has the weight lambda^(-1/2)
    e^(-lambda/2) on [0, inf).  By de Bruijn's (1955) integration formula,
    its CDF is a Pfaffian, F(x) = sqrt(det A(x) / det A(inf)) (Chiani 2014,
    J. Multivariate Anal. 129), where A(x) is the d x d skew matrix of
    sign-kernel integrals a_ij(x) = int int_[0,x]^2 sgn(z - y) psi_i(y)
    psi_j(z), bordered by int_0^x psi_i when d is odd, for any basis
    psi_i = (polynomial of degree i) * weight.  Then c_d = int (1 - F).

    With lambda = u^2 the weighted basis becomes g_i(u) = 2 h_2i(u) on
    u >= 0, h_k the orthonormal Hermite functions (this basis keeps A(inf)
    well conditioned: cond 43 at d = 32, 193 at d = 128).  G_i = int_0^u g_i
    and H_ij = int_0^u G_i g_j give a_ij = H_ij - H_ji, and
    c_d = int_0^umax (1 - F(u^2)) 2u du.  All three integrals run on panels
    of ``nodes`` Gauss-Legendre nodes up to umax = sqrt(8d + 120), past
    which 1 - F is below double precision; inside a panel the integrals to
    each node come from the Legendre interpolant.

    The result is c_1 = 1 and c_2 = 2 + pi/2 to rounding; it agrees with
    Monte Carlo (|z| < 3) from d = 3 to d = 128 and moves by less than
    1e-13 (relative) when the nodes double, up to d = 384.  It takes 0.02 s
    at d = 32, 0.3 s at d = 128 and 12 s at d = 384 on a 2-vCPU host, and is
    cached per (d, nodes).
    """
    t, w = legendre.leggauss(nodes)
    # S[k, m] = int_{-1}^{t_k} of the m-th Lagrange polynomial on the nodes
    S = legendre.legvander(t, nodes) @ legendre.legint(
        np.linalg.inv(legendre.legvander(t, nodes - 1)), lbnd=-1
    )
    u_max = math.sqrt(8 * d + 120)
    # h_2d oscillates with a wavelength of about pi/sqrt(d): unit panels
    # resolve it up to d = 128, narrower ones beyond
    panels = math.ceil(u_max * math.sqrt(max(1, d / 128)))
    h = u_max / panels / 2  # half a panel's width
    u = (2 * np.arange(panels)[:, None] + 1 + t) * h  # (panels, nodes)
    g = 2 * _even_hermite_functions(u.ravel(), d).reshape(panels, nodes, d)
    G_end = np.zeros(d)
    H_end = np.zeros((d, d))
    logdet = np.empty((panels, nodes))
    for p in range(panels):
        G = G_end + h * (S @ g[p])  # (nodes, d): G_i at each node
        H = H_end + h * np.matmul((S[:, :, None] * G).transpose(0, 2, 1), g[p])
        logdet[p] = _sign_kernel_logdet(G, H)
        G_end = G_end + h * (w @ g[p])
        H_end = H_end + h * ((w[:, None] * G).T @ g[p])
    one_minus_F = -np.expm1(0.5 * (logdet - _sign_kernel_logdet(G_end, H_end)))
    return float(((h * w) * 2 * u * one_minus_F).sum())


def _even_hermite_functions(u: np.ndarray, d: int) -> np.ndarray:
    """(len(u), d) array of h_0(u), h_2(u), ..., h_2(d-1)(u).

    h_k(u) = H_k(u) e^(-u^2/2) / sqrt(2^k k! sqrt(pi)), by the three-term
    recurrence on the polynomial part; a node's running values are scaled
    down by 1e100 whenever they pass it and the scale is kept in log form,
    so neither e^(-u^2/2) nor the growing polynomial under- or overflows.
    """
    out = np.empty((len(u), d))
    log_scale = -0.5 * u * u
    prev = np.zeros_like(u)
    cur = np.full_like(u, math.pi**-0.25)
    for k in range(2 * d - 1):
        if k % 2 == 0:
            out[:, k // 2] = cur * np.exp(log_scale)
        prev, cur = cur, math.sqrt(2 / (k + 1)) * u * cur - math.sqrt(k / (k + 1)) * prev
        big = np.abs(cur) > 1e100
        if big.any():
            cur[big] *= 1e-100
            prev[big] *= 1e-100
            log_scale[big] += 100 * math.log(10)
    return out


def _sign_kernel_logdet(G: np.ndarray, H: np.ndarray) -> np.ndarray:
    """log det of the skew matrices H - H^T, bordered by G when d is odd.

    A real skew matrix's determinant is the square of its Pfaffian; where
    rounding makes it nonpositive (only near u = 0, where F vanishes) the
    result is -inf.
    """
    A = H - np.swapaxes(H, -1, -2)
    d = A.shape[-1]
    if d % 2:
        B = np.zeros(A.shape[:-2] + (d + 1, d + 1))
        B[..., :d, :d] = A
        B[..., :d, d] = G
        B[..., d, :d] = -G
        A = B
    sign, logdet = np.linalg.slogdet(A)
    return np.where(sign > 0, logdet, -np.inf)


def make_gaussian_noise(
    A_P,
    b_P,
    sigma_A: float,
    sigma_b: float,
    label: str | None = None,
) -> ProblemDistribution:
    """Mean matrix plus i.i.d. Gaussian-entry perturbations.

    Samples A_t = A_P + M_t and b_t = b_P + N_t with independent zero-mean
    Gaussian entries, scaled so that E||M_t||^2 = sigma_A^2 and
    E||N_t||^2 = sigma_b^2, both exactly: the matrix entries have scale
    sigma_A / sqrt(c_d), c_d = E||G||^2 for a d x d standard normal G (see
    ``_mean_specnorm_sq_standard``).  M_t and N_t are independent, so
    E[M_t N_t] = 0.

    Exact moments carry C_P = A_P^T A_P + s^2 d I, where s is the entry scale:
    for i.i.d. entries E[M^T M] = s^2 d I.  Raises ValueError on a negative
    or non-finite noise magnitude, on non-finite entries of A_P or b_P, and
    on shapes that do not match.

    The engine steps this family matrix-free: M_t is independent of
    theta_{t-1}, so given theta, M_t theta has exactly the law of
    s ||theta|| z with z ~ N(0, I_d).  Its ``step_form`` draws the noise
    array s z first, then b_t when sigma_b > 0 (a fixed b is read from b_P),
    d normals each per step, and applies b_t - A_P theta - ||theta|| s z.
    When sigma_A = 0 the noise array is zeros and draws nothing, so every
    problem of one mean shares the layout and the key (A_P with its shape,
    plus b_P when b is fixed), and runs at different sigma_A can step as rows
    of one state; a lone sigma_A = 0 run still computes the zero noise term,
    which leaves its bits unchanged.  Runs therefore draw a different stream
    than ``sample`` from the same seed, with the same law (the same stream
    when sigma_A = 0).
    """
    if not (0 <= sigma_A < math.inf and 0 <= sigma_b < math.inf):
        raise ValueError("noise magnitudes must be finite and nonnegative")
    A_P = np.atleast_2d(np.asarray(A_P, dtype=float))
    if A_P.shape[0] != A_P.shape[1]:
        raise ValueError("A_P must be square")
    d = A_P.shape[0]
    b_P = np.atleast_1d(np.asarray(b_P, dtype=float))
    if b_P.shape != (d,):
        raise ValueError(f"b_P must have shape ({d},)")
    _check_finite(A_P=A_P, b_P=b_P)

    entry_scale_A = sigma_A / np.sqrt(_mean_specnorm_sq_standard(d)) if sigma_A else 0.0
    entry_scale_b = sigma_b / np.sqrt(d)

    C_P = A_P.T @ A_P + entry_scale_A**2 * d * np.eye(d)
    moments = Moments.from_parts(A_P, b_P, C_P, sigma_A**2, sigma_b**2)

    def draw_b(rng: np.random.Generator, shape: tuple) -> np.ndarray:
        if entry_scale_b:
            return b_P + entry_scale_b * rng.standard_normal(shape + (d,))
        return np.broadcast_to(b_P, shape + (d,)).copy()

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        if entry_scale_A:
            A = A_P + entry_scale_A * rng.standard_normal(shape + (d, d))
        else:
            A = np.broadcast_to(A_P, shape + (d, d)).copy()
        return draw_b(rng, shape), A

    def draw(rng: np.random.Generator, n: int) -> Draws:
        if entry_scale_A:
            noise = entry_scale_A * rng.standard_normal((n, d))
        else:
            noise = np.zeros((n, d))
        return (noise, draw_b(rng, (n,))) if entry_scale_b else (noise,)

    def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
        # A_P theta one row at a time: a single gemm over the batch would
        # round differently with the batch size
        v = (draws[1][s] if entry_scale_b else b_P) - np.matmul(A_P, theta[..., None])[..., 0]
        v -= _row_norms(theta) * draws[0][s]
        return v

    key = ("gaussian", A_P.shape, A_P.tobytes(), None if entry_scale_b else b_P.tobytes())
    step_form = StepForm(draw, direction, key)
    if label is None:
        label = f"gaussian(d={d}, sigma_A={sigma_A:g}, sigma_b={sigma_b:g})"
    return ProblemDistribution(
        dim=d, sample=sample, exact_moments=moments, label=label, step_form=step_form
    )


def _row_norms(theta: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (R, d) array, as an (R, 1) column.

    Each row is reduced on its own (vecdot), so its norm does not depend on
    the other rows.  A row whose squared norm overflows (norm beyond
    ~1.3e154) is recomputed by hypot, so a finite state has a finite norm.
    """
    rows = theta[:, None, :]
    sq = np.vecdot(rows, rows)
    nrm = np.sqrt(sq)
    if not np.maximum.reduce(sq, axis=None) < np.inf:
        big = ~(sq < np.inf)
        nrm[big] = np.hypot.reduce(rows[big], axis=-1)
    return nrm


def make_lower_bound_instance(
    lambda_min: float, lambda_max: float, sigma_b: float
) -> ProblemDistribution:
    """Two-dimensional worst-case family: constant diagonal mean, noise on b.

    A_t = diag(lambda_min, lambda_max) for all t; b_t = (N_t, 0) with N_t
    zero-mean Gaussian of variance sigma_b^2.  The fixed point is 0 and the
    iteration matrix is deterministic (sigma_A = 0), which makes the averaged
    error computable in closed form and the error bounds tight.  It is the
    finite distribution of one atom (b = 0, A) whose intercept scatter is
    (sigma_b, 0).  Raises ValueError unless 0 < lambda_min < lambda_max and
    sigma_b >= 0, all finite.
    """
    if not (0 < lambda_min < lambda_max < math.inf):
        raise ValueError("need 0 < lambda_min < lambda_max, finite")
    if not 0 <= sigma_b < math.inf:
        raise ValueError("sigma_b must be finite and nonnegative")
    atoms = FiniteAtoms(
        probs=np.ones(1),
        bs=np.zeros((1, 2)),
        As=np.diag([float(lambda_min), float(lambda_max)])[None],
        b_noise=np.array([[float(sigma_b), 0.0]]) if sigma_b else None,
    )
    label = f"lower_bound({lambda_min:g},{lambda_max:g},sigma_b={sigma_b:g})"
    return _finite_problem(atoms, label)


def estimate_moments(p: ProblemDistribution, n_samples: int, seed: int) -> Moments:
    """Empirical moments from n_samples draws of p, deterministic given seed.

    Means and raw second moments are sample averages; the centered noise
    magnitudes use the unbiased 1/(n-1) convention.  If the estimated mean
    matrix is numerically singular (condition number above 1e12), no fixed
    point is reported.  Draws come in chunks of 100,000.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    rng = np.random.default_rng(seed)
    start_state = rng.bit_generator.state  # replayed for the centered pass

    # pass 1: means and the raw second moment
    sum_b = None
    sum_A = None
    sum_C = None
    left = n_samples
    while left > 0:
        take = min(_ESTIMATE_CHUNK, left)
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
        take = min(_ESTIMATE_CHUNK, left)
        b, A = p.sample(rng, (take,))
        dev_b += float((np.abs(b - b_P) ** 2).sum())
        dev_A += float((spectral_norms(A - A_P) ** 2).sum())
        left -= take
    sigma_b_sq = dev_b / (n_samples - 1)
    sigma_A_sq = dev_A / (n_samples - 1)

    return Moments.from_parts(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)
