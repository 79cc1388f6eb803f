"""Similarity transforms that turn a Hurwitz mean matrix into a PD one.

A matrix whose eigenvalues all have positive real part need not satisfy
x^*(A + A^*)x > 0, but it is always similar to a matrix L with L^* + L
symmetric positive definite.  Running the iteration in the transformed
coordinates gamma = U^{-1} theta restores the spectral-gap certificates at
the price of a condition-number factor kappa(U)^2 in the error bounds.

Construction routes, in order:

1. identity short-circuit when A + A^* is already PD (kappa = 1);
2. eigendecomposition when the eigenvector matrix is well conditioned
   (L diagonal, L^* + L = 2 diag(Re lambda_i) > 0);
3. complex Schur form with a geometric diagonal rescaling
   D = diag(1, delta, delta^2, ...), shrinking delta by halves until the
   off-diagonal mass is small enough that L^* + L is PD.  Defective inputs
   take this route: numerical Jordan forms are ill-conditioned.  It alone
   loads ``scipy.linalg``.

Moments of the transformed pair (U^{-1} b, U^{-1} A U) are computed without
sampling.  For a finite-support problem (plain finite, every TD instance)
all of them are exact weighted sums over the transformed atoms; on the
identity route they are the problem's own exact moments, reused.  For a
problem without atoms, A_U = Lambda, b_U = U^{-1} b_P and the second moment
C_U are exact (see ``transform_moments``); sigma_A^2 and sigma_b^2 become
the bounds kappa(U)^2 sigma_A^2 and ||U^{-1}||^2 sigma_b^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import (
    FiniteAtoms,
    Moments,
    ProblemDistribution,
    _finite_problem,
    _finite_support_moments,
    spectral_norm,
)
from .spectral import _min_eig_hermitian

__all__ = [
    "TransformResult",
    "hurwitz_to_pd",
    "transform_moments",
    "transform_distribution",
    "transform_problem",
    "NotHurwitzError",
    "TransformFailedError",
]

#: the eigenvector route is taken only below this condition number of V
_DIAG_COND_LIMIT = 1e8

#: halvings of the Schur route's delta before giving up
_MAX_HALVINGS = 60


class NotHurwitzError(ValueError):
    """Some eigenvalue has nonpositive real part."""


class TransformFailedError(RuntimeError):
    """No PD-certifying transform found within the rescaling budget."""


@dataclass(frozen=True)
class TransformResult:
    """An invertible U with Lambda = U^{-1} A U satisfying Lambda^* + Lambda > 0.

    kappa_U = ||U|| * ||U^{-1}||, which enters the error-bound constant, is
    derived from U and U_inv (exactly 1.0 on the identity route).
    transformed_moments is populated by transform_problem only;
    hurwitz_to_pd leaves it None.
    """

    U: np.ndarray
    U_inv: np.ndarray
    Lambda: np.ndarray
    transformed_moments: Moments | None = None
    kappa_U: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kappa_U", spectral_norm(self.U) * spectral_norm(self.U_inv))

    @property
    def identity(self) -> bool:
        """Whether U is exactly I, the route taken when A + A^* is PD."""
        return np.array_equal(self.U, np.eye(len(self.U)))

    @property
    def min_eig_sym(self) -> float:
        """Smallest eigenvalue of Lambda^* + Lambda (positive by construction)."""
        return _min_eig_hermitian(self.Lambda + self.Lambda.conj().T)


def hurwitz_to_pd(A_P) -> TransformResult:
    """Find U such that U^{-1} A_P U has positive definite Hermitian part.

    Raises NotHurwitzError if some eigenvalue of A_P has nonpositive real
    part, and TransformFailedError if the Schur rescaling fails to reach
    positive definiteness within 60 halvings of delta (never silently
    ignored).
    """
    A = np.atleast_2d(np.asarray(A_P))
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    d = A.shape[0]
    eigs = np.linalg.eigvals(A)
    if np.min(eigs.real) <= 0:
        raise NotHurwitzError(
            f"not Hurwitz: eigenvalue with real part {np.min(eigs.real):g} <= 0"
        )

    # already PD: identity transform, smallest possible condition number
    if _min_eig_hermitian(A + A.conj().T) > 0:
        eye = np.eye(d, dtype=A.dtype)
        return TransformResult(U=eye, U_inv=eye, Lambda=A.copy())

    # diagonalizable route
    w, V = np.linalg.eig(A)
    condV = np.linalg.cond(V)
    if condV < _DIAG_COND_LIMIT:
        V_inv = np.linalg.inv(V)
        Lam = V_inv @ A @ V
        inv_ok = np.linalg.norm(V @ V_inv - np.eye(d), 2) <= 1e-9
        if inv_ok and _min_eig_hermitian(Lam + Lam.conj().T) > 0:
            return TransformResult(U=V, U_inv=V_inv, Lambda=Lam)

    # defective (or borderline) route: Schur + geometric diagonal rescaling.
    # Only this route needs scipy; importing it costs about 0.27 s and 20 MB
    # (2-vCPU host), so it is not loaded at module scope.
    import scipy.linalg

    T, Q = scipy.linalg.schur(A.astype(complex), output="complex")
    delta = 1.0
    for _ in range(_MAX_HALVINGS):
        D = delta ** np.arange(d)
        Lam = (T * D[None, :]) / D[:, None]  # D^{-1} T D
        if _min_eig_hermitian(Lam + Lam.conj().T) > 0:
            U = Q * D[None, :]  # Q @ diag(D)
            U_inv = Q.conj().T / D[:, None]  # diag(1/D) @ Q^*
            return TransformResult(U=U, U_inv=U_inv, Lambda=Lam)
        delta *= 0.5
    raise TransformFailedError(
        f"transform failed: no PD rescaling after {_MAX_HALVINGS} halvings"
    )


def _transform_atoms(atoms: FiniteAtoms, tr: TransformResult) -> FiniteAtoms:
    """Atoms (U^{-1} b_i, U^{-1} A_i U), intercept scatter mapped by U^{-1}."""
    U, U_inv = tr.U, tr.U_inv
    b_noise = None
    if atoms.b_noise is not None:
        b_noise = np.einsum("ij,kj->ki", U_inv, atoms.b_noise)
    return FiniteAtoms(
        probs=atoms.probs,
        bs=np.einsum("ij,kj->ki", U_inv, atoms.bs),
        As=np.einsum("ij,kjl,lm->kim", U_inv, atoms.As, U),
        b_noise=b_noise,
    )


def transform_moments(p: ProblemDistribution, tr: TransformResult) -> Moments:
    """Moments of the transformed distribution (U^{-1} b, U^{-1} A U), drawing nothing.

    A finite-support problem (plain finite, every TD instance) gets weighted
    sums over its transformed atoms, all exact.  On the identity route
    (``tr.identity``) those atoms are its own, so it gets ``p.exact_moments``
    itself, not a recomputation of them.  A problem without atoms
    gets A_U = Lambda, b_U = U^{-1} b_P and the exact second moment

        C_U = Lambda^* Lambda + (||U^{-1}||_F^2 / d) U^* (C_P - A_P^* A_P) U,

    which holds because the matrix noise N = A - A_P keeps its law under
    N -> QN for orthogonal Q (the ``ProblemDistribution`` contract), so
    E[N^* G N] = tr(G)/d E[N^* N] for G = U^{-*} U^{-1}.  Its noise
    magnitudes are the bounds sigma_A^2 -> kappa(U)^2 sigma_A^2 and
    sigma_b^2 -> ||U^{-1}||^2 sigma_b^2.
    """
    if p.atoms is not None:
        if tr.identity:
            return p.exact_moments
        return _finite_support_moments(_transform_atoms(p.atoms, tr))
    m = p.exact_moments
    U, U_inv = tr.U, tr.U_inv
    A_U = U_inv @ m.A_P @ U
    noise_C = m.C_P - m.A_P.conj().T @ m.A_P  # E[N^* N]
    scale = np.linalg.norm(U_inv, "fro") ** 2 / p.dim
    C_U = A_U.conj().T @ A_U + scale * (U.conj().T @ noise_C @ U)
    sigma_A_sq = tr.kappa_U**2 * m.sigma_A_sq
    sigma_b_sq = spectral_norm(U_inv) ** 2 * m.sigma_b_sq
    return Moments(A_U, U_inv @ m.b_P, C_U, sigma_A_sq, sigma_b_sq)


def transform_distribution(p: ProblemDistribution, tr: TransformResult) -> ProblemDistribution:
    """Distribution of (U^{-1} b_t, U^{-1} A_t U): the finite problem over the
    transformed atoms, which draws p's atom indices from the same stream.

    Raises ValueError for a problem without atoms (the Gaussian family), whose
    transformed moments ``transform_moments`` gives in closed form.
    """
    if tr.U.shape[0] != p.dim:
        raise ValueError("transform dimension does not match distribution")
    if p.atoms is None:
        raise ValueError(f"{p.label!r} has no atoms: only finite-support problems transform")
    return _finite_problem(_transform_atoms(p.atoms, tr), f"{p.label}@transformed")


def transform_problem(p: ProblemDistribution) -> TransformResult:
    """The PD-certifying transform of p's mean matrix, carrying the moments
    of the transformed problem (``transform_moments``).

    Build the transformed distribution itself with ``transform_distribution``.
    """
    tr = hurwitz_to_pd(p.exact_moments.A_P)
    return TransformResult(tr.U, tr.U_inv, tr.Lambda, transform_moments(p, tr))
