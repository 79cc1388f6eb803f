import dataclasses

import numpy as np
import pytest

from lsalab import (
    NotHurwitzError,
    SyntheticMdp,
    gtd_instance,
    hurwitz_to_pd,
    jordan_scaled_transform,
    make_finite_support,
    make_gaussian_noise,
    rho_d,
    rho_s,
    transform_distribution,
    transform_moments,
    transform_problem,
    witness_alpha,
)
from lsalab.problems import FiniteAtoms, _finite_problem

JORDAN_2 = np.array([[0.1, 1.0], [0.0, 0.1]])


def spectrum_distance(got, want) -> float:
    """Greedy matching distance between two spectra (conjugate-order agnostic)."""
    got = np.asarray(got)
    want = np.asarray(want).copy()
    used = np.zeros(len(want), bool)
    worst = 0.0
    for x in got:
        d = np.abs(want - x)
        d[used] = np.inf
        i = int(np.argmin(d))
        used[i] = True
        worst = max(worst, float(d[i]))
    return worst


def random_hurwitz_non_pd(seed, d=3):
    """Random matrix with positive-real-part spectrum but indefinite symmetric part."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        M = rng.standard_normal((d, d)) * rng.uniform(0.5, 3.0)
        eigs = np.linalg.eigvals(M)
        A = M + (0.05 + max(0.0, -eigs.real.min() + 0.05)) * np.eye(d)
        sym_min = np.linalg.eigvalsh(A + A.T).min()
        if np.linalg.eigvals(A).real.min() > 0 and sym_min < -1e-6:
            return A
    raise AssertionError("could not build a non-PD Hurwitz sample")


class TestHurwitzToPd:
    def test_identity_shortcut_spd(self):
        tr = hurwitz_to_pd(np.diag([1.0, 2.0]))
        assert np.allclose(tr.U, np.eye(2))
        assert tr.kappa_U == pytest.approx(1.0)
        assert np.allclose(tr.Lambda, np.diag([1.0, 2.0]))

    def test_identity_shortcut_rotation(self):
        # A + A^T = 2I is PD even though A is far from symmetric
        A = np.array([[1.0, -10.0], [10.0, 1.0]])
        tr = hurwitz_to_pd(A)
        assert np.allclose(tr.U, np.eye(2))
        assert tr.min_eig_sym == pytest.approx(2.0)

    def test_not_hurwitz_rejected(self):
        with pytest.raises(NotHurwitzError, match="not Hurwitz"):
            hurwitz_to_pd(np.diag([-1.0, 2.0]))
        with pytest.raises(NotHurwitzError):
            hurwitz_to_pd(np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_defective_jordan_block(self):
        tr = hurwitz_to_pd(JORDAN_2)
        assert tr.min_eig_sym > 0
        assert np.allclose(np.sort(np.linalg.eigvals(tr.Lambda).real), [0.1, 0.1], atol=1e-8)
        assert np.linalg.norm(tr.U @ tr.U_inv - np.eye(2)) <= 1e-8

    @pytest.mark.parametrize("seed", range(20))
    def test_random_hurwitz(self, seed):
        A = random_hurwitz_non_pd(seed)
        tr = hurwitz_to_pd(A)
        assert tr.min_eig_sym > 0
        assert np.linalg.norm(tr.U @ tr.U_inv - np.eye(3)) <= 1e-8
        assert (
            spectrum_distance(np.linalg.eigvals(tr.Lambda), np.linalg.eigvals(A)) <= 1e-8
        )

    def test_defective_3chain_triangular(self):
        J = 0.2 * np.eye(3) + np.diag([1.0, 1.0], k=1)
        tr = hurwitz_to_pd(J)
        assert tr.min_eig_sym > 0
        assert (
            spectrum_distance(np.linalg.eigvals(tr.Lambda), np.linalg.eigvals(J)) <= 1e-8
        )

    def test_hand_built_defective_3x3_dense(self):
        # V J V^{-1} with a 3-chain at 0.2: numerically defective.  The
        # eigenvalues of a defective matrix are conditioned like eps^(1/3),
        # so the computed spectra of A and Lambda can only agree to ~1e-5;
        # the similarity itself is exact to rounding.
        V = np.array([[1.0, 0.3, -0.2], [0.0, 1.0, 0.5], [0.2, 0.0, 1.0]])
        J = 0.2 * np.eye(3) + np.diag([1.0, 1.0], k=1)
        A = V @ J @ np.linalg.inv(V)
        tr = hurwitz_to_pd(A)
        assert tr.min_eig_sym > 0
        rec = tr.U @ tr.Lambda @ tr.U_inv
        assert np.linalg.norm(rec - A) <= 1e-10 * np.linalg.norm(A)
        assert (
            spectrum_distance(np.linalg.eigvals(tr.Lambda), np.linalg.eigvals(A)) <= 1e-4
        )

    def test_round_trip_vectors(self):
        A = random_hurwitz_non_pd(3)
        tr = hurwitz_to_pd(A)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(3)
        gamma = tr.U_inv @ theta
        assert np.linalg.norm(tr.U @ gamma - theta) < 1e-10


class TestJordanScaledTransform:
    def test_single_block(self):
        tr = jordan_scaled_transform(np.eye(2), [(0.1, 2)])
        # superdiagonal becomes Re(lambda); Hermitian part is PD tridiagonal
        assert tr.Lambda[0, 1] == pytest.approx(0.1)
        assert tr.min_eig_sym > 0
        assert np.allclose(tr.U, np.diag([1.0, 0.1]))

    def test_recovers_matrix(self):
        V = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        blocks = [(0.3, 2), (0.5 + 0.2j, 1)]
        J = np.array([[0.3, 1, 0], [0, 0.3, 0], [0, 0, 0.5 + 0.2j]])
        A = V @ J @ np.linalg.inv(V)
        tr = jordan_scaled_transform(V, blocks)
        # U Lambda U^{-1} must reproduce A
        assert np.allclose(tr.U @ tr.Lambda @ tr.U_inv, A, atol=1e-10)
        assert tr.min_eig_sym > 0

    def test_rejects_non_hurwitz_block(self):
        with pytest.raises(NotHurwitzError):
            jordan_scaled_transform(np.eye(2), [(-0.1, 2)])


class TestTransformDistribution:
    def test_identity_transform_is_noop(self):
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.ones(2), 0.0, 1.0)
        p_U, tr = transform_problem(p)
        assert np.allclose(tr.U, np.eye(2))
        b, A = p_U.sample(np.random.default_rng(0), (10,))
        b0, A0 = p.sample(np.random.default_rng(0), (10,))
        assert np.allclose(b, b0) and np.allclose(A, A0)

    def test_scalar_matrices_commute(self):
        # +-identity atoms are invariant under any similarity
        p = make_finite_support(
            [((np.zeros(2), np.eye(2)), 0.6), ((np.zeros(2), -np.eye(2)), 0.4)]
        )
        tr = hurwitz_to_pd(JORDAN_2)
        p_U = transform_distribution(p, tr)
        assert np.allclose(p_U.atoms.As[0], np.eye(2), atol=1e-12)
        assert np.allclose(p_U.atoms.As[1], -np.eye(2), atol=1e-12)

    def test_finite_support_moments_match_bruteforce(self):
        from lsalab.transform import TransformResult

        rng = np.random.default_rng(5)
        bs = rng.standard_normal((2, 2))
        As = rng.standard_normal((2, 2, 2))
        probs = np.array([0.25, 0.75])
        U = rng.standard_normal((2, 2)) + 3 * np.eye(2)
        Ui = np.linalg.inv(U)
        # without and with intercept scatter b = b_i + z*n_i
        for noise in (np.zeros((2, 2)), np.array([[0.5, -1.0], [2.0, 0.3]])):
            atoms = FiniteAtoms(probs=probs, bs=bs, As=As, b_noise=noise if noise.any() else None)
            p = _finite_problem(atoms, "finite")
            tr = TransformResult(
                U=U, U_inv=Ui, Lambda=Ui @ p.exact_moments.A_P @ U, kappa_U=np.linalg.cond(U)
            )
            m = transform_distribution(p, tr).exact_moments
            # brute force over transformed atoms
            A_exp = sum(w * (Ui @ A @ U) for A, w in zip(As, probs))
            C_exp = sum(w * (Ui @ A @ U).T @ (Ui @ A @ U) for A, w in zip(As, probs))
            b_exp = sum(w * (Ui @ b) for b, w in zip(bs, probs))
            sA_exp = sum(
                w * np.linalg.norm(Ui @ A @ U - A_exp, 2) ** 2 for A, w in zip(As, probs)
            )
            sb_exp = sum(
                w * (np.sum((Ui @ b - b_exp) ** 2) + np.sum((Ui @ n) ** 2))
                for b, n, w in zip(bs, noise, probs)
            )
            assert np.allclose(m.A_P, A_exp, atol=1e-10)
            assert np.allclose(m.C_P, C_exp, atol=1e-10)
            assert np.allclose(m.b_P, b_exp, atol=1e-10)
            assert m.sigma_A_sq == pytest.approx(sA_exp, rel=1e-10)
            assert m.sigma_b_sq == pytest.approx(sb_exp, rel=1e-10)
            m2 = transform_moments(p, tr)
            assert np.array_equal(m2.C_P, m.C_P) and m2.sigma_b_sq == m.sigma_b_sq

    def test_gtd2_transform_is_enumerated(self):
        # off-policy GTD2: Hurwitz with a singular symmetric part, so a
        # nontrivial U; its transformed moments come from the atoms alone
        rng = np.random.default_rng(8)
        P = rng.uniform(0.1, 1.0, (4, 4))
        Pb = rng.uniform(0.1, 1.0, (4, 4))
        mdp = SyntheticMdp(
            features=rng.standard_normal((4, 2)),
            transitions=P / P.sum(axis=1, keepdims=True),
            rewards=rng.standard_normal(4),
            discount=0.9,
            behavior_transitions=Pb / Pb.sum(axis=1, keepdims=True),
            reward_noise_std=0.5,
        )
        inst = gtd_instance(mdp, 1.0, variant="gtd2")

        def no_draws(rng, shape=()):
            raise AssertionError("transform drew samples")

        p = dataclasses.replace(inst.problem, sample=no_draws)
        _, tr = transform_problem(p)
        assert tr.kappa_U > 1
        m, m_U = p.exact_moments, tr.transformed_moments
        assert m_U.sigma_A_sq <= tr.kappa_U**2 * m.sigma_A_sq
        assert m_U.sigma_b_sq <= np.linalg.norm(tr.U_inv, 2) ** 2 * m.sigma_b_sq
        assert np.allclose(m_U.A_P, tr.Lambda, atol=1e-10)

    def test_sampler_matches_transformed_atoms(self):
        p = make_finite_support(
            [((np.ones(2), JORDAN_2), 0.5), ((np.zeros(2), np.diag([0.3, 0.4])), 0.5)]
        )
        tr = hurwitz_to_pd(np.array([[0.2, 1.0], [0.0, 0.2]]))
        p_U = transform_distribution(p, tr)
        b, A = p_U.sample(np.random.default_rng(1), (50,))
        b_raw, A_raw = p.sample(np.random.default_rng(1), (50,))
        assert np.allclose(A, np.einsum("ij,kjl,lm->kim", tr.U_inv, A_raw, tr.U))
        assert np.allclose(b, np.einsum("ij,kj->ki", tr.U_inv, b_raw))


class TestTransformedGaps:
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_gaps_positive_below_witness(self, seed):
        A = random_hurwitz_non_pd(seed)
        p = make_gaussian_noise(A, np.ones(3), 0.5, 0.2)
        p_U, tr = transform_problem(p, seed=seed)
        m_U = tr.transformed_moments
        wit = witness_alpha(m_U)
        for alpha in np.linspace(1e-4, 0.99 * wit, 7):
            assert rho_s(m_U, alpha) > 0
            assert rho_d(m_U, alpha) > 0

    def test_deterministic_matrix_gaps_exact(self):
        p = make_gaussian_noise(JORDAN_2, np.array([1.0, 1.0]), 0.0, 0.5)
        p_U, tr = transform_problem(p)
        m_U = tr.transformed_moments
        assert m_U.sigma_A_sq == 0.0
        assert np.allclose(m_U.C_P, m_U.A_P.conj().T @ m_U.A_P)
        wit = witness_alpha(m_U)
        assert rho_s(m_U, 0.99 * wit) > 0
