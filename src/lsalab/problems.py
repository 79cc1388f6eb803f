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
- Every problem also carries a ``StepForm``: how the engine draws a step
  and applies it to a batch of states without forming A_t.  The Gaussian
  family's form draws d normals per step for the whole noise when
  sigma_b > 0 (and for the matrix noise when sigma_b = 0), not d^2 + d;
  its steps follow the law of ``sample`` but are a different random stream
  (the same stream when sigma_A = 0; at d = 2 the step rounds A_P theta by
  columns).
  Finite-support problems (plain finite, lower-bound, TD(0), GTD, GTD2 and
  transformed atoms) draw atom indices and gather each step's A_i from the
  atoms; they draw the stream of ``sample``, bit for bit.
- Matrix norms are spectral (operator 2-) norms throughout; vector norms are
  Euclidean.  sigma_A_sq bounds E||A_t - A_P||^2 and sigma_b_sq bounds
  E||b_t - b_P||^2 in those norms.
- sigma_A_sq enters only the certificates, not the iteration.  A
  finite-support problem computes its own (an SVD per atom) on the first
  read, so loading, simulating and tuning one never pays for it.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
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
    "spectral_norm",
    "spectral_norms",
]

#: condition-number cliff above which a mean matrix is treated as singular
#: and no fixed point is reported
SINGULAR_COND_LIMIT = 1e12

#: a finite problem's guide table has at most 2**_GUIDE_BITS buckets
_GUIDE_BITS = 16

Sampler = Callable[[np.random.Generator, tuple], tuple[np.ndarray, np.ndarray]]
Draws = tuple[np.ndarray, ...]


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of a single matrix."""
    return float(np.linalg.norm(A, ord=2))


def spectral_norms(As: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stacked (..., d, d) array."""
    return np.linalg.svd(As, compute_uv=False)[..., 0]


class _ReadOnce:
    """A float field of a frozen dataclass that may be given as a
    zero-argument function instead: the function runs on the first read of
    the field, and its value is kept in its place."""

    def __set_name__(self, owner, name):
        self.slot = f"_{name}"

    def __get__(self, obj, owner=None):
        if obj is None:  # no class-level default: the field stays required
            raise AttributeError(self.slot[1:])
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = float(value())
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value if callable(value) else float(value)


@dataclass(frozen=True)
class Moments:
    """First and second moments of a (b, A) distribution.

    Built from ``(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)``; the rest is
    derived.  theta* = A_P^{-1} b_P when the mean is invertible (condition
    number below SINGULAR_COND_LIMIT), and then
    ``sigma1_sq = sigma_A_sq*||theta*||^2 + sigma_b_sq`` and
    ``sigma2_sq = sigma_A_sq*||theta*||`` are the noise constants entering
    the error bounds; all three are None when no fixed point exists
    (singular mean).

    sigma_A_sq enters only the certificates (the witness step-size and the
    bounds), never the iteration, so it may be given as a zero-argument
    function of the moments it is built from: it runs on the first read of
    ``sigma_A_sq`` and its value is kept.  Finite-support problems give it
    that way, since theirs takes an SVD of every atom.  ``sigma1_sq`` and
    ``sigma2_sq`` are likewise computed on their first read.

    Raises ValueError naming the field when C_P, sigma_b_sq or a
    sigma_A_sq given as a number is not finite: the constructors form them
    without raising or warning, so a problem whose second moments exceed
    the float range is refused here, when it is built.
    """

    A_P: np.ndarray
    b_P: np.ndarray
    C_P: np.ndarray
    sigma_A_sq: float = _ReadOnce()
    sigma_b_sq: float
    theta_star: np.ndarray | None = field(init=False)

    def __post_init__(self):
        for name, value, what in (
            # the sigma_A_sq given: a number, or the function that computes it
            ("sigma_A_sq", self.__dict__["_sigma_A_sq"], "E||A - A_P||^2"),
            ("sigma_b_sq", self.sigma_b_sq, "E||b - b_P||^2"),
            ("C_P", self.C_P, "E[A^* A]"),
        ):
            if not (callable(value) or np.isfinite(value).all()):
                raise ValueError(f"{name} = {what} exceeds the float range "
                                 f"(largest double {sys.float_info.max:.4g})")
        A_P = np.asarray(self.A_P)
        b_P = np.asarray(self.b_P)
        theta_star = None
        if np.linalg.cond(A_P) < SINGULAR_COND_LIMIT:
            theta_star = np.linalg.solve(A_P, b_P)
        for name, value in (
            ("A_P", A_P), ("b_P", b_P), ("C_P", np.asarray(self.C_P)),
            ("sigma_b_sq", float(self.sigma_b_sq)), ("theta_star", theta_star),
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def sigma1_sq(self) -> float | None:
        if self.theta_star is None:
            return None
        if self.sigma_A_sq == 0:  # 0, not 0*inf, when ||theta*||^2 is inf
            return self.sigma_b_sq
        nrm = math.hypot(*np.abs(self.theta_star))  # squaring the entries may overflow
        return self.sigma_A_sq * (nrm * nrm) + self.sigma_b_sq

    @functools.cached_property
    def sigma2_sq(self) -> float | None:
        if self.theta_star is None:
            return None
        if self.sigma_A_sq == 0:
            return 0.0
        return self.sigma_A_sq * math.hypot(*np.abs(self.theta_star))


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
    blocks, each of the dtype its array is drawn with (the run's float or
    complex dtype, or int64 for the atom indices of a finite problem).
    ``direction(draws, s, theta)`` returns b_s - A_s theta for step s of
    those blocks and an (R, d) state, computed row by row or elementwise, so
    a replication's result does not depend on the rest of its batch.

    ``key`` names the direction: forms with equal keys draw arrays of the same
    layout and have interchangeable ``direction``s, so the engine may step the
    replications of several problems as rows of one state, each row drawing
    through its own problem's ``draw``.  Only a sigma_b = 0 Gaussian form is
    keyed by content (A_P and b_P, which its direction reads); any other
    form's key is a fresh ``object()``, equal only to itself.

    ``draw`` is a function of (generator, n) alone, and it consumes the
    generator on every call or on none.  A form that consumes none draws the
    same arrays from every stream, so its replications are one trajectory,
    which the engine steps and reduces once (see ``engine.run_mse_many``).
    """

    draw: Callable[[np.random.Generator, int], Draws]
    direction: Callable[[Draws, int, np.ndarray], np.ndarray]
    key: Hashable


@dataclass(frozen=True)
class ProblemDistribution:
    """A sampleable (b, A) distribution with its exact moments and step form.

    ``sample(rng, shape)`` draws ``shape``-many i.i.d. pairs, ``exact_moments``
    holds the exact moments of that law and ``step_form`` is how the engine
    steps it (d normals per step for the Gaussian family, for the whole
    noise when sigma_b > 0; (b, atom index) draws for finite-support
    problems).  Every constructor sets both, and construction raises
    TypeError when they are not a ``Moments`` and a ``StepForm``.  ``dim``
    is not an argument: it is read from the moments'
    b_P.  The run's dtype is that of A_P and b_P (at least float64),
    which the draws share.  ``atoms`` is set for finite-support families so
    downstream transforms can map moments in closed form.  A problem without
    atoms must have matrix noise N = A_t - A_P whose law is invariant under
    left rotation, N -> QN for orthogonal Q (true of the Gaussian family and
    of every sigma_A = 0 problem): the transform's closed-form second moment
    rests on it.  ``seed`` is an optional default stream carried over from a
    problem file (None or a non-negative integer, else ValueError); runs
    always take their own seeds.
    """

    dim: int = field(init=False)
    sample: Sampler
    exact_moments: Moments
    label: str
    step_form: StepForm
    atoms: FiniteAtoms | None = None
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.exact_moments, Moments):
            raise TypeError("exact_moments must be a Moments")
        if not isinstance(self.step_form, StepForm):
            raise TypeError("step_form must be a StepForm")
        if self.seed is not None:
            _check_integer(self.seed, "seed", seed=True)
        object.__setattr__(self, "dim", len(self.exact_moments.b_P))


def _check_integer(value, name: str, seed: bool = False, least: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (a float
    such as 2.0 is not: slices reject it), and at least ``least`` when
    given; the message then gives the value and the bound.

    A seed must also be non-negative and not a bool.  Sequences of ints are
    refused too: ``SeedSequence`` takes them, but no caller passes one.
    """
    try:
        ok = operator.index(value) >= 0 or not seed
    except TypeError:
        ok = False
    if not ok or (seed and isinstance(value, (bool, np.bool_))):
        kind = "a non-negative integer" if seed else "an integer"
        raise ValueError(f"{name} must be {kind}, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name}={value} must be at least {least}")


def _check_theta0(theta_0, dim: int, dtype=None) -> np.ndarray:
    """theta_0 as an array of ``dtype``; ValueError unless a finite dim-vector."""
    theta_0 = np.asarray(theta_0, dtype=dtype)
    if theta_0.shape != (dim,):
        raise ValueError(f"theta_0 must have shape ({dim},)")
    if not np.isfinite(theta_0).all():
        raise ValueError("theta_0 must be finite")
    return theta_0


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
        As.append(np.asarray(A))
        probs.append(float(p))
    probs = np.asarray(probs, dtype=float)
    if np.any(probs < 0):
        raise ValueError("atom probabilities must be nonnegative")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities sum to {float(probs.sum())!r}, not 1")
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
    standard normal for the intercept scatter.  The index of a uniform u is
    #{i : cdf[i] <= u} over the cumulative weights, the search
    ``Generator.choice(k, size=n, p=probs)`` makes on the same stream
    without re-checking and re-summing ``probs`` on every call.  It is an
    indexed search (Chen & Asau, AIIE Transactions 6(2), 1974), built here
    once (``_indexed_search``): a guide table over m equal buckets of [0, 1)
    gives the index of every uniform whose bucket holds no cdf entry, and
    only the others are binary searched, so a draw costs little more than
    its uniforms and indexes exactly as the binary search does.

    The problem steps through atom indices: its ``step_form`` draws an
    intercept block and an int64 index block, and ``direction`` gathers the
    matrices A_i of each step's indices.  ``sample`` is built on the same
    ``draw``, so a run's steps are ``sample``'s draws, bit for bit.  The
    form's key is a fresh ``object()``: only runs of this one problem batch.
    """
    probs, bs, As, b_noise = atoms.probs, atoms.bs, atoms.As, atoms.b_noise
    d = bs.shape[1]
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    indices = _indexed_search(cdf)

    def draw(rng: np.random.Generator, n: int) -> Draws:
        if len(probs) == 1:  # a search would consume the stream for a sure draw
            idx = np.zeros(n, np.int64)
        else:
            idx = indices(rng.random(n))
        b = bs.take(idx, axis=0)
        if b_noise is not None:
            b += rng.standard_normal(n)[:, None] * b_noise.take(idx, axis=0)
        return b, idx

    def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
        b, idx = draws
        return b[s] - np.matmul(As.take(idx[s], axis=0), theta[..., None])[..., 0]

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        b, idx = draw(rng, math.prod(shape))
        return b.reshape(shape + (d,)), As.take(idx.reshape(shape), axis=0)

    return ProblemDistribution(
        sample=sample,
        exact_moments=_finite_support_moments(atoms),
        label=label,
        atoms=atoms,
        step_form=StepForm(draw, direction, object()),
    )


def _indexed_search(cdf: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """``u -> cdf.searchsorted(u, side="right")`` for uniforms u in [0, 1),
    by an indexed search (Chen & Asau, AIIE Transactions 6(2), 1974).

    ``cdf`` is non-decreasing with last entry 1.  A guide table, built here
    once, holds first[j] = #{i : cdf[i] <= j/m} for m a power of two, about
    16 per entry and at most 2**_GUIDE_BITS, so that u*m and cdf*m are
    exact; as j is an integer, cdf[i]*m <= j exactly when ceil(cdf[i]*m) <= j,
    so the table is a running count of those ceilings.  For j = floor(u*m)
    the index lies between first[j] and first[j+1].  Where they agree (all
    but at most len(cdf) of the m buckets) it is first[j]; the uniforms of
    the other buckets are binary searched.  The result equals the binary
    search's, bit for bit, as int64.  The table takes 8*(m+1) bytes:
    128 KiB for 900 entries, at most 512 KiB.
    """
    m = 1 << min(_GUIDE_BITS, (16 * len(cdf) - 1).bit_length())
    first = np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1).cumsum()
    guide = first[:-1]
    guide[guide != first[1:]] = -1  # a bucket holding a cdf entry: search it

    def search(u: np.ndarray) -> np.ndarray:
        idx = guide[(u * m).astype(np.intp)]
        amb = np.flatnonzero(idx < 0)
        if amb.size:
            idx[amb] = cdf.searchsorted(u[amb], side="right")
        return idx

    return search


def _finite_support_moments(atoms: FiniteAtoms) -> Moments:
    """Exact moments of a finite-support distribution, by weighted sums.

    sigma_A_sq = sum_i p_i ||A_i - A_P||^2 takes one batched SVD of the
    atoms' deviations, so it is computed on its first read (see ``Moments``).
    Where a squared norm overflows, the sum is taken again as
    sum_i p_i (n_i/m)^2 * m * m, m the largest norm; that read raises
    ValueError naming sigma_A_sq when the sum itself exceeds the float range.
    """
    probs, bs, As = atoms.probs, atoms.bs, atoms.As
    w = probs[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # Moments refuses an overflow
        b_P = (w * bs).sum(axis=0)
        A_P = (w[:, :, None] * As).sum(axis=0)
        AhA = np.einsum("kji,kjl->kil", As.conj(), As)  # A_k^* A_k
        C_P = (w[:, :, None] * AhA).sum(axis=0)
        b_dev_sq = (np.abs(bs - b_P) ** 2).sum(axis=1)
        if atoms.b_noise is not None:
            b_dev_sq = b_dev_sq + (np.abs(atoms.b_noise) ** 2).sum(axis=1)
        sigma_b_sq = float((probs * b_dev_sq).sum())

    def sigma_A_sq() -> float:  # an SVD per atom, run on the first read
        norms = spectral_norms(As - A_P)
        with np.errstate(over="ignore", invalid="ignore"):
            value = float((probs * norms**2).sum())
        if not value < math.inf:  # a square overflowed; the weighted sum may not
            m = float(norms.max())
            value = float((probs * (norms / m) ** 2).sum()) * m * m
        if not value < math.inf:
            raise ValueError("sigma_A_sq = E||A - A_P||^2 exceeds the float range "
                             f"(largest double {sys.float_info.max:.4g})")
        return value

    return Moments(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)


# --- entrywise Gaussian noise, calibrated to a spectral-norm target ----------


@functools.cache
def _mean_specnorm_sq_standard(d: int) -> float:
    """c_d = E||G||^2 for a d x d matrix G of i.i.d. standard normals, exact.

    c_1 = E z^2 = 1 and c_2 = 2 + pi/2 (from the joint eigenvalue density of
    W_2(2, I)) are returned in closed form; d >= 3 takes
    ``_specnorm_sq_quadrature`` with 24 nodes, cached per d.  The
    quadrature runs on BLAS, LAPACK and numpy's SIMD ``exp``, whose last
    bits vary with the host (3.570796326794894 at d = 2 on an x86-64 host,
    against 3.5707963267948966), so the closed forms keep every
    d <= 2 Gaussian problem, Fig. 1 among them, the same on every host.
    """
    if d == 1:
        return 1.0
    if d == 2:
        return 2 + math.pi / 2
    return _specnorm_sq_quadrature(d, 24)


def _specnorm_sq_quadrature(d: int, nodes: int) -> float:
    """c_d = E||G||^2 (see ``_mean_specnorm_sq_standard``) by quadrature.

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
    at d = 32, 0.3 s at d = 128 and 12 s at d = 384 on a 2-vCPU host.
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
    on shapes that do not match: A_P must be a square matrix (2-D), b_P a
    vector of its size.

    The engine steps this family matrix-free: M_t and N_t are independent
    of theta_{t-1}, so given theta, N_t - M_t theta has exactly the law of
    hypot(s_b, s ||theta||) z with z ~ N(0, I_d), s_b and s the entry scales
    of N_t and M_t.  Its ``step_form`` therefore draws d normals per step
    for the whole noise.  When sigma_b > 0 it draws z alone and applies
    (b_P + hypot(s_b, s ||theta||) z) - A_P theta, reading b_P, s_b and s
    from its closure as it reads A_P.  The noise is added to b_P first, so
    at sigma_A = 0, where hypot(s_b, 0) = s_b, the step is
    (b_P + s_b z) - A_P theta, the stream of ``sample`` bit for bit.
    When sigma_b = 0 it draws s z alone and applies b_P - A_P theta -
    ||theta|| s z.  At d = 2 the direction is computed elementwise on the
    state's two columns, with A_P theta = theta_1 a_1 + theta_2 a_2 (a_k the
    columns of A_P) and ||theta|| = hypot(theta_1, theta_2): faster than a
    gemv per row.  At d >= 3, where column sums are slower, A_P theta is one
    gemv per row and the norm that of ``_row_norms``.  Neither norm loses a
    small state to underflow.
    With sigma_b = 0 the key is A_P and b_P, so problems that differ in
    sigma_A alone step as rows of one state; with sigma_b > 0 it is a fresh
    ``object()``, so only runs of one problem batch.  When sigma_A =
    sigma_b = 0 the noise array is zeros and draws nothing, and the step
    still computes the zero noise term, which leaves its bits unchanged.
    Runs with sigma_A > 0 therefore draw a different stream than ``sample``
    from the same seed, with the same law; at d = 2 the step also rounds
    A_P theta by columns, so its bits differ from a gemv of ``sample``'s
    A_t in the last places.
    """
    if not (0 <= sigma_A < math.inf and 0 <= sigma_b < math.inf):
        raise ValueError("noise magnitudes must be finite and nonnegative")
    A_P = np.asarray(A_P, dtype=float)
    if A_P.ndim != 2 or A_P.shape[0] != A_P.shape[1]:
        raise ValueError(f"A_P must be a square matrix, not of shape {A_P.shape}")
    d = A_P.shape[0]
    b_P = np.atleast_1d(np.asarray(b_P, dtype=float))
    if b_P.shape != (d,):
        raise ValueError(f"b_P must have shape ({d},)")
    _check_finite(A_P=A_P, b_P=b_P)

    entry_scale_A = sigma_A / np.sqrt(_mean_specnorm_sq_standard(d)) if sigma_A else 0.0
    entry_scale_b = sigma_b / np.sqrt(d)

    # numpy's scalar power rounds as Python's **, which raises on overflow
    with np.errstate(over="ignore", invalid="ignore"):  # Moments refuses an overflow
        squares = np.float64(sigma_A) ** 2, np.float64(sigma_b) ** 2
        C_P = A_P.T @ A_P + entry_scale_A**2 * d * np.eye(d)
    moments = Moments(A_P, b_P, C_P, *squares)

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        shape = tuple(np.atleast_1d(shape).astype(int)) if shape != () else ()
        if entry_scale_A:
            A = A_P + entry_scale_A * rng.standard_normal(shape + (d, d))
        else:
            A = np.broadcast_to(A_P, shape + (d, d)).copy()
        if entry_scale_b:
            return b_P + entry_scale_b * rng.standard_normal(shape + (d,)), A
        return np.broadcast_to(b_P, shape + (d,)).copy(), A

    def draw(rng: np.random.Generator, n: int) -> Draws:
        if entry_scale_b:  # z, scaled in the direction
            return (rng.standard_normal((n, d)),)
        if entry_scale_A:
            return (entry_scale_A * rng.standard_normal((n, d)),)
        return (np.zeros((n, d)),)

    if d == 2:
        a0, a1 = A_P.T[:, :, None].copy()  # the columns of A_P, as (2, 1) arrays
        b_col = b_P[:, None]

        # elementwise on the state's columns x and y, so no row depends on
        # the rest of the batch; on the (2, R) transposes each pass runs
        # along the batch, not along a row of two
        if entry_scale_b:
            def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
                x, y = theta.T
                v = b_col + np.hypot(entry_scale_b, entry_scale_A * np.hypot(x, y)) * draws[0][s].T
                v -= x * a0 + y * a1
                return v.T
        else:
            def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
                x, y = theta.T
                v = b_col - (x * a0 + y * a1)
                v -= np.hypot(x, y) * draws[0][s].T
                return v.T
    else:
        # A_P theta one gemv per row: a single gemm over the batch would
        # round differently with the batch size
        if entry_scale_b:
            def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
                v = b_P + np.hypot(entry_scale_b, entry_scale_A * _row_norms(theta)) * draws[0][s]
                v -= np.matmul(A_P, theta[..., None])[..., 0]
                return v
        else:
            def direction(draws: Draws, s: int, theta: np.ndarray) -> np.ndarray:
                v = b_P - np.matmul(A_P, theta[..., None])[..., 0]
                v -= _row_norms(theta) * draws[0][s]
                return v

    key = object() if entry_scale_b else ("gaussian", A_P.shape, A_P.tobytes(), b_P.tobytes())
    step_form = StepForm(draw, direction, key)
    if label is None:
        label = f"gaussian(d={d}, sigma_A={sigma_A:g}, sigma_b={sigma_b:g})"
    return ProblemDistribution(
        sample=sample, exact_moments=moments, label=label, step_form=step_form
    )


def _row_norms(theta: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real (R, d) array, as an (R, 1) column.

    Each row is reduced on its own (vecdot), so its norm does not depend on
    the other rows.  A row whose squared norm overflows (norm beyond
    ~1.3e154) or falls below the smallest normal double (norm below
    ~1.5e-154, where the squares lose digits or vanish) is recomputed by
    hypot, which squares nothing: a finite state has a finite norm, and a
    small nonzero state a nonzero one.
    """
    rows = theta[:, None, :]
    sq = np.vecdot(rows, rows)
    nrm = np.sqrt(sq)
    tiny = 2.0**-1022  # the smallest normal double
    if not tiny <= np.minimum.reduce(sq, axis=None) <= np.maximum.reduce(sq, axis=None) < np.inf:
        odd = ~((tiny <= sq) & (sq < np.inf))
        nrm[odd] = np.hypot.reduce(rows[odd], axis=-1)
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

