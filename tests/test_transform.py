import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsalab
from lsalab import (
    NotHurwitzError,
    SyntheticMdp,
    TransformFailedError,
    TransformResult,
    gtd_instance,
    hurwitz_to_pd,
    make_finite_support,
    make_gaussian_noise,
    rho_d,
    rho_s,
    transform_moments,
    transform_problem,
    witness_alpha,
)
from lsalab.problem_io import load_problem_file
from lsalab.problems import FiniteAtoms, _finite_problem, _finite_support_moments, spectral_norm
from lsalab.transform import _transform_atoms
from oracles import estimate_moments

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"
JORDAN_2 = np.array([[0.1, 1.0], [0.0, 0.1]])
CHAIN_3 = 0.2 * np.eye(3) + np.diag([1.0, 1.0], k=1)  # 3-chain at 0.2, kappa(U) = 16
EPS = np.finfo(float).eps


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

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            hurwitz_to_pd(np.ones((2, 3)))

    def test_defective_jordan_block(self):
        tr = hurwitz_to_pd(JORDAN_2)
        assert tr.min_eig_sym > 0
        assert np.allclose(np.sort(np.linalg.eigvals(tr.Lambda).real), [0.1, 0.1], atol=1e-8)
        assert np.linalg.norm(tr.U @ tr.U_inv - np.eye(2)) <= 1e-8

    def test_only_the_schur_route_imports_scipy(self):
        # a fresh interpreter: the in-process Schur tests import scipy, so a
        # sys.modules check here would depend on test order
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import lsalab, lsalab.cli
            assert "scipy" not in sys.modules
            tr = lsalab.hurwitz_to_pd(np.array([[0.1, 1.0], [0.0, 0.1]]))
            assert np.linalg.eigvalsh(tr.Lambda.conj().T + tr.Lambda)[0] > 0
            assert "scipy.linalg" in sys.modules
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(lsalab.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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
        tr = hurwitz_to_pd(CHAIN_3)
        assert tr.min_eig_sym > 0
        assert (
            spectrum_distance(np.linalg.eigvals(tr.Lambda), np.linalg.eigvals(CHAIN_3)) <= 1e-8
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

    def test_rescaling_budget_exhausted(self):
        # Hurwitz and defective, and already in Schur form: D^{-1} A D is PD
        # only once 1e12 delta < 2e-12, about 79 halvings, past the 60 allowed
        A = np.array([[1e-12, 1e12], [0.0, 1e-12]])
        with pytest.raises(TransformFailedError, match="no PD rescaling after 60 halvings"):
            hurwitz_to_pd(A)

    def test_round_trip_vectors(self):
        A = random_hurwitz_non_pd(3)
        tr = hurwitz_to_pd(A)
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(3)
        gamma = tr.U_inv @ theta
        assert np.linalg.norm(tr.U @ gamma - theta) < 1e-10


class TestTransformDistribution:
    def test_scalar_matrices_commute(self):
        # +-identity atoms are invariant under any similarity
        p = make_finite_support(
            [((np.zeros(2), np.eye(2)), 0.6), ((np.zeros(2), -np.eye(2)), 0.4)]
        )
        atoms_U = _transform_atoms(p.atoms, hurwitz_to_pd(JORDAN_2))
        assert np.allclose(atoms_U.As[0], np.eye(2), atol=1e-12)
        assert np.allclose(atoms_U.As[1], -np.eye(2), atol=1e-12)

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
            tr = TransformResult(U=U, U_inv=Ui, Lambda=Ui @ p.exact_moments.A_P @ U)
            m = _finite_support_moments(_transform_atoms(atoms, tr))
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
        tr = transform_problem(p)
        assert tr.kappa_U > 1
        m, m_U = p.exact_moments, tr.transformed_moments
        assert m_U.sigma_A_sq <= tr.kappa_U**2 * m.sigma_A_sq
        assert m_U.sigma_b_sq <= np.linalg.norm(tr.U_inv, 2) ** 2 * m.sigma_b_sq
        assert np.allclose(m_U.A_P, tr.Lambda, atol=1e-10)

    def test_gaussian_transform_draws_nothing(self):
        # the Gaussian family has no atoms; its transformed moments are
        # closed-form too
        def no_draws(rng, shape=()):
            raise AssertionError("transform drew samples")

        p = dataclasses.replace(make_gaussian_noise(JORDAN_2, np.ones(2), 0.5, 0.3), sample=no_draws)
        tr = transform_problem(p)
        assert tr.kappa_U > 1
        m, m_U = p.exact_moments, tr.transformed_moments
        assert m_U.sigma_A_sq == pytest.approx(tr.kappa_U**2 * m.sigma_A_sq)
        assert m_U.sigma_b_sq == pytest.approx(np.linalg.norm(tr.U_inv, 2) ** 2 * m.sigma_b_sq)
        assert np.allclose(m_U.A_P, tr.Lambda, atol=1e-10)


#: atoms around the Jordan block, whose transform takes the complex Schur route
JORDAN_ATOMS = make_finite_support([
    ((np.ones(2), JORDAN_2 + 0.05 * np.array([[1.0, 0.0], [1.0, -1.0]])), 0.5),
    ((np.array([0.0, 2.0]), JORDAN_2 - 0.05 * np.array([[1.0, 0.0], [1.0, -1.0]])), 0.5),
])


@st.composite
def pd_mean_atoms(draw):
    """Atoms of a random finite problem whose mean has a PD symmetric part,
    with or without intercept scatter: the atoms are shifted by a multiple
    of I past the mean's smallest symmetric eigenvalue."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, d = draw(st.integers(1, 50)), draw(st.integers(1, 4))
    probs = rng.dirichlet(np.ones(k))
    As = rng.standard_normal((k, d, d))
    A_P = np.einsum("k,kij->ij", probs, As)
    shift = rng.uniform(0.1, 1.0) - min(0.0, np.linalg.eigvalsh(A_P + A_P.T).min() / 2)
    return FiniteAtoms(
        probs=probs,
        bs=rng.standard_normal((k, d)),
        As=As + shift * np.eye(d),
        b_noise=rng.standard_normal((k, d)) if draw(st.booleans()) else None,
    )


class TestIdentityRoute:
    """On the identity route (U = I) a finite problem's transformed moments
    are its own exact moments, not recomputed."""

    @staticmethod
    def check_reused(p):
        tr = transform_problem(p)
        assert np.array_equal(tr.U, np.eye(p.dim))
        m = tr.transformed_moments
        assert m is p.exact_moments
        # what the atom route would have computed, field by field
        again = _finite_support_moments(_transform_atoms(p.atoms, tr))
        for name in ("A_P", "b_P", "C_P", "theta_star"):
            assert np.array_equal(getattr(again, name), getattr(m, name))
        for name in ("sigma_A_sq", "sigma_b_sq", "sigma1_sq", "sigma2_sq"):
            assert getattr(again, name) == getattr(m, name)

    @settings(max_examples=100, deadline=None)
    @given(pd_mean_atoms())
    def test_finite_problem_reuses_its_moments(self, atoms):
        self.check_reused(_finite_problem(atoms, "pd-mean"))

    def test_td0_file_reuses_its_moments(self):
        self.check_reused(load_problem_file(PROBLEMS / "td0_onpolicy.json"))

    def test_gaussian_problem_keeps_the_closed_form(self):
        # no atoms: C_U = Lambda^* Lambda + (||U^-1||_F^2 / d) U^* (C_P - A_P^* A_P) U
        # is computed, even though U = I
        p = make_gaussian_noise(np.array([[1.0, -10.0], [10.0, 1.0]]), np.ones(2), 20.0, 0.0)
        tr = transform_problem(p)
        assert np.array_equal(tr.U, np.eye(2))
        m, m_U = p.exact_moments, tr.transformed_moments
        assert m_U is not m
        assert np.allclose(m_U.C_P, m.C_P, rtol=1e-12, atol=0)


class TestTransformedRun:
    def test_jordan_example_is_complex(self):
        tr = transform_problem(JORDAN_ATOMS)
        assert np.iscomplexobj(tr.U) and tr.kappa_U > 1


class TestTransformedGaps:
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_gaps_positive_below_witness(self, seed):
        A = random_hurwitz_non_pd(seed)
        p = make_gaussian_noise(A, np.ones(3), 0.5, 0.2)
        tr = transform_problem(p)
        m_U = tr.transformed_moments
        wit = witness_alpha(m_U)
        for alpha in np.linspace(1e-4, 0.99 * wit, 7):
            assert rho_s(m_U, alpha) > 0
            assert rho_d(m_U, alpha) > 0

    def test_deterministic_matrix_gaps_exact(self):
        p = make_gaussian_noise(JORDAN_2, np.array([1.0, 1.0]), 0.0, 0.5)
        tr = transform_problem(p)
        m_U = tr.transformed_moments
        assert m_U.sigma_A_sq == 0.0
        assert np.allclose(m_U.C_P, m_U.A_P.conj().T @ m_U.A_P)
        LhL = tr.Lambda.conj().T @ tr.Lambda
        assert np.linalg.norm(m_U.C_P - LhL) <= 1e-12 * np.linalg.norm(LhL)
        wit = witness_alpha(m_U)
        assert rho_s(m_U, 0.99 * wit) > 0


class TestClosedFormSecondMoment:
    """The transformed Gaussian second moment against Monte Carlo: draws of
    A from P, mapped to U^{-1} A U."""

    N_DRAWS = 100_000  # one chunk of estimate_moments, replayable below

    @pytest.mark.parametrize(
        "A, sigma_A",
        [(JORDAN_2, 0.5), (CHAIN_3, 2.0), (random_hurwitz_non_pd(1, d=4), 1.0)],
        ids=["jordan2", "chain3", "random-d4"],
    )
    def test_matches_monte_carlo(self, A, sigma_A):
        d = A.shape[0]
        p = make_gaussian_noise(A, np.ones(d), sigma_A, 0.3)
        tr = transform_problem(p)
        assert tr.kappa_U > 1
        C_U = tr.transformed_moments.C_P

        def sample_U(rng, shape):
            b, A = p.sample(rng, shape)
            return b @ tr.U_inv.T, tr.U_inv @ A @ tr.U

        est = estimate_moments(dataclasses.replace(p, sample=sample_U), self.N_DRAWS, seed=11).C_P
        # the same draws again, for the entrywise standard error
        _, A_U = sample_U(np.random.default_rng(11), (self.N_DRAWS,))
        X = np.einsum("kji,kjl->kil", A_U.conj(), A_U)
        assert np.allclose(X.mean(axis=0), est, rtol=1e-10, atol=0)
        for part in (np.real, np.imag):
            se = part(X).std(axis=0, ddof=1) / np.sqrt(self.N_DRAWS)
            diff = part(est) - part(C_U)
            noisy = se > 1e-12 * np.abs(C_U).max()
            assert np.all(np.abs(diff[noisy]) <= 5 * se[noisy])
            assert np.all(np.abs(diff[~noisy]) <= 1e-10 * np.abs(C_U).max())


def hurwitz_matrix(kind, seed):
    """A random Hurwitz matrix, d = 2 to 4, scaled by 10^u (u uniform in
    [-3, 3]), of one of four kinds: "pd" (PD symmetric part: the identity
    route), "random" (an indefinite symmetric part: the eigenvector route),
    "jordan" (a Jordan block at 0.05-0.4, conjugated by a well-conditioned
    S: mostly the Schur route) and "near-defective" (that block with 1e-14
    to 1e-6 in its corner: either route)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind == "pd":
        B, S = rng.standard_normal((2, d, d))
        return (B @ B.T + 0.1 * np.eye(d) + (S - S.T)) * scale
    if kind == "random":
        return random_hurwitz_non_pd(int(rng.integers(2**31)), d) * scale
    J = rng.uniform(0.05, 0.4) * np.eye(d) + np.diag(np.ones(d - 1), 1)
    if kind == "near-defective":
        J[-1, 0] = 10.0 ** rng.uniform(-14, -6)
    S = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    return np.linalg.solve(S, J @ S) * scale


def route_of(A):
    """hurwitz_to_pd(A) and the route it took: "identity", "eigen" or "schur"."""
    import scipy.linalg

    with mock.patch.object(scipy.linalg, "schur", wraps=scipy.linalg.schur) as schur:
        tr = hurwitz_to_pd(A)
    return tr, "identity" if tr.identity else "schur" if schur.called else "eigen"


class TestTransformProperties:
    """Identities of the transform that hold exactly up to rounding.  Each
    tolerance is a multiple of the largest error a sweep of 1,600 matrices
    (similarity: 1.6 eps kappa(U) ||A||; kappa(U) never below 1) and 3,000
    problems (second moment: 5.5 eps ||C_P||) found."""

    KINDS = ("pd", "random", "jordan", "near-defective")

    def test_every_route_is_drawn(self):
        routes = {kind: {route_of(hurwitz_matrix(kind, seed))[1] for seed in range(8)}
                  for kind in self.KINDS}
        assert routes["pd"] == {"identity"} and routes["random"] == {"eigen"}
        assert "schur" in routes["jordan"] and "schur" in routes["near-defective"]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1))
    def test_similarity_holds(self, kind, seed):
        A = hurwitz_matrix(kind, seed)
        tr, _ = route_of(A)
        err = spectral_norm(tr.U_inv @ A @ tr.U - tr.Lambda)
        assert err <= 16 * EPS * tr.kappa_U * spectral_norm(A)
        assert tr.min_eig_sym > 0
        assert tr.kappa_U >= 1 - 4 * EPS

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_unitary_transform_maps_the_second_moment(self, seed):
        # for unitary U both the weighted sums over the atoms and the closed
        # form of a problem without atoms give C_U = U^* C_P U
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        As = rng.standard_normal((k, d, d)) * 10.0 ** rng.uniform(-3, 3)
        p = _finite_problem(FiniteAtoms(rng.dirichlet(np.ones(k)), rng.standard_normal((k, d)), As), "r")
        U, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        m = p.exact_moments
        tr = TransformResult(U, U.conj().T, U.conj().T @ m.A_P @ U)
        want = U.conj().T @ m.C_P @ U
        for q in (p, dataclasses.replace(p, atoms=None)):
            got = transform_moments(q, tr).C_P
            assert spectral_norm(got - want) <= 32 * EPS * spectral_norm(m.C_P)
