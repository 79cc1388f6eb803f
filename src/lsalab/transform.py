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
   off-diagonal mass is small enough that L^* + L is PD.

The exact Jordan-chain rescaling (superdiagonal entries proportional to the
real part of the eigenvalue) is available separately for hand-built defective
inputs; route 3 is the production path because numerical Jordan forms are
ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .problems import (
    FiniteAtoms,
    Moments,
    ProblemDistribution,
    _finite_problem,
    _finite_support_moments,
    spectral_norm,
)

__all__ = [
    "TransformResult",
    "hurwitz_to_pd",
    "jordan_scaled_transform",
    "transform_moments",
    "transform_distribution",
    "transform_problem",
    "NotHurwitzError",
    "TransformFailedError",
]


class NotHurwitzError(ValueError):
    """Some eigenvalue has nonpositive real part."""


class TransformFailedError(RuntimeError):
    """No PD-certifying transform found within the rescaling budget."""


@dataclass(frozen=True)
class TransformResult:
    """An invertible U with Lambda = U^{-1} A U satisfying Lambda^* + Lambda > 0.

    kappa_U = ||U|| * ||U^{-1}|| enters the error-bound constant.
    transformed_moments is populated by transform_problem / transform_moments.
    """

    U: np.ndarray
    U_inv: np.ndarray
    Lambda: np.ndarray
    kappa_U: float
    transformed_moments: Moments | None = None

    @property
    def min_eig_sym(self) -> float:
        """Smallest eigenvalue of Lambda^* + Lambda (positive by construction)."""
        H = self.Lambda + self.Lambda.conj().T
        return float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0])


def _kappa(U: np.ndarray, U_inv: np.ndarray) -> float:
    return spectral_norm(U) * spectral_norm(U_inv)


def hurwitz_to_pd(
    A_P,
    diag_cond_limit: float = 1e8,
    max_halvings: int = 60,
) -> TransformResult:
    """Find U such that U^{-1} A_P U has positive definite Hermitian part.

    Raises NotHurwitzError if some eigenvalue of A_P has nonpositive real
    part, and TransformFailedError if the Schur rescaling fails to reach
    positive definiteness within max_halvings (never silently ignored).
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
    H = A + A.conj().T
    sym_min = float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[0])
    if sym_min > 0:
        eye = np.eye(d, dtype=A.dtype)
        return TransformResult(U=eye, U_inv=eye, Lambda=A.copy(), kappa_U=1.0)

    # diagonalizable route
    w, V = np.linalg.eig(A)
    condV = np.linalg.cond(V)
    if condV < diag_cond_limit:
        V_inv = np.linalg.inv(V)
        Lam = V_inv @ A @ V
        Hs = Lam + Lam.conj().T
        inv_ok = np.linalg.norm(V @ V_inv - np.eye(d), 2) <= 1e-9
        if inv_ok and float(np.linalg.eigvalsh(0.5 * (Hs + Hs.conj().T))[0]) > 0:
            return TransformResult(U=V, U_inv=V_inv, Lambda=Lam, kappa_U=_kappa(V, V_inv))

    # defective (or borderline) route: Schur + geometric diagonal rescaling
    T, Q = scipy.linalg.schur(A.astype(complex), output="complex")
    delta = 1.0
    for _ in range(max_halvings):
        D = delta ** np.arange(d)
        Lam = (T * D[None, :]) / D[:, None]  # D^{-1} T D
        Hs = Lam + Lam.conj().T
        if float(np.linalg.eigvalsh(0.5 * (Hs + Hs.conj().T))[0]) > 0:
            U = Q * D[None, :]  # Q @ diag(D)
            U_inv = Q.conj().T / D[:, None]  # diag(1/D) @ Q^*
            return TransformResult(U=U, U_inv=U_inv, Lambda=Lam, kappa_U=_kappa(U, U_inv))
        delta *= 0.5
    raise TransformFailedError(
        f"transform failed: no PD rescaling after {max_halvings} halvings"
    )


def jordan_scaled_transform(V, blocks) -> TransformResult:
    """Exact rescaling of a known Jordan decomposition A = V J V^{-1}.

    ``blocks`` is a list of (eigenvalue, size) pairs describing J's Jordan
    blocks in order.  The returned U = V D uses the diagonal
    D = blockdiag(diag(1, r, r^2, ...)) with r = Re(eigenvalue) per block, so
    the transformed matrix has r on the superdiagonal instead of 1 and its
    Hermitian part is a PD tridiagonal.  Intended for small hand-built inputs
    where V and the block structure are known exactly.
    """
    V = np.asarray(V, dtype=complex)
    d = V.shape[0]
    sizes = [int(m) for _, m in blocks]
    if sum(sizes) != d:
        raise ValueError("block sizes must sum to the dimension")
    diag = []
    Lam = np.zeros((d, d), dtype=complex)
    pos = 0
    for lam, m in blocks:
        r = float(np.real(lam))
        if r <= 0:
            raise NotHurwitzError(f"not Hurwitz: Re(eigenvalue) = {r:g} <= 0")
        diag.extend(r**j for j in range(m))
        for j in range(m):
            Lam[pos + j, pos + j] = lam
            if j + 1 < m:
                Lam[pos + j, pos + j + 1] = r
        pos += m
    D = np.asarray(diag)
    U = V * D[None, :]
    U_inv = np.linalg.inv(U)
    result = TransformResult(U=U, U_inv=U_inv, Lambda=Lam, kappa_U=_kappa(U, U_inv))
    if result.min_eig_sym <= 0:
        raise TransformFailedError("rescaled Jordan form is not PD (check inputs)")
    return result


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


def transform_moments(
    p: ProblemDistribution,
    tr: TransformResult,
    n_estimate: int = 200_000,
    seed: int = 0,
) -> Moments:
    """Moments of the transformed distribution (U^{-1} b, U^{-1} A U).

    Exact, with no sampling, for finite-support families (plain finite
    problems and every TD instance: weighted sums over the transformed atoms)
    and when the matrix part is deterministic (sigma_A = 0, where
    C = Lambda^* Lambda).  Monte Carlo runs only for a distribution without
    atoms whose matrix is random (the Gaussian family): its second moment is
    then estimated from n_estimate draws, and its noise magnitudes are mapped
    as the bounds sigma_A^2 -> kappa(U)^2 sigma_A^2 and
    sigma_b^2 -> ||U^{-1}||^2 sigma_b^2.
    """
    if p.atoms is not None:
        return _finite_support_moments(_transform_atoms(p.atoms, tr))
    if p.exact_moments is None:
        raise ValueError("distribution has no exact moments; use estimate_moments first")
    m = p.exact_moments
    A_U = tr.U_inv @ m.A_P @ tr.U
    b_U = tr.U_inv @ m.b_P
    u_inv_norm = spectral_norm(tr.U_inv)
    if m.sigma_A_sq == 0.0:
        C_U = A_U.conj().T @ A_U
        sigma_A_sq = 0.0
    else:
        rng = np.random.default_rng(seed)
        C_U = np.zeros((p.dim, p.dim), dtype=complex)
        left = n_estimate
        chunk = max(1, 2_000_000 // (p.dim * p.dim))
        while left > 0:
            take = min(chunk, left)
            _, A = p.sample(rng, (take,))
            AU = np.einsum("ij,kjl,lm->kim", tr.U_inv, A, tr.U)
            C_U += np.einsum("kji,kjl->il", AU.conj(), AU)
            left -= take
        C_U /= n_estimate
        sigma_A_sq = tr.kappa_U**2 * m.sigma_A_sq
    sigma_b_sq = u_inv_norm**2 * m.sigma_b_sq
    return Moments.from_parts(A_U, b_U, C_U, sigma_A_sq, sigma_b_sq)


def transform_distribution(
    p: ProblemDistribution,
    tr: TransformResult,
    n_estimate: int = 200_000,
    seed: int = 0,
) -> ProblemDistribution:
    """Distribution of (U^{-1} b_t, U^{-1} A_t U) under the given transform."""
    if tr.U.shape[0] != p.dim:
        raise ValueError("transform dimension does not match distribution")
    label = f"{p.label}@transformed"
    if p.atoms is not None:
        return _finite_problem(_transform_atoms(p.atoms, tr), label)
    U, U_inv = tr.U, tr.U_inv

    def sample(rng: np.random.Generator, shape=()) -> tuple[np.ndarray, np.ndarray]:
        b, A = p.sample(rng, shape)
        bT = np.einsum("ij,...j->...i", U_inv, b)
        AT = np.einsum("ij,...jl,lm->...im", U_inv, A, U)
        return bT, AT

    moments = None
    if p.exact_moments is not None:
        moments = transform_moments(p, tr, n_estimate=n_estimate, seed=seed)
    return ProblemDistribution(dim=p.dim, sample=sample, exact_moments=moments, label=label)


def transform_problem(
    p: ProblemDistribution,
    n_estimate: int = 200_000,
    seed: int = 0,
) -> tuple[ProblemDistribution, TransformResult]:
    """Transform a problem so its mean matrix is PD; returns (P_U, transform).

    The returned TransformResult carries the transformed moments.
    """
    if p.exact_moments is None:
        raise ValueError("distribution has no exact moments; use estimate_moments first")
    tr = hurwitz_to_pd(p.exact_moments.A_P)
    p_U = transform_distribution(p, tr, n_estimate=n_estimate, seed=seed)
    tr = replace(tr, transformed_moments=p_U.exact_moments)
    return p_U, tr
