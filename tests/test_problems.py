import numpy as np
import pytest

from lsalab import (
    Moments,
    estimate_moments,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
)
from lsalab.problems import _mean_specnorm_sq_standard, spectral_norm, spectral_norms


def pm_identity(eps):
    eye = np.eye(2)
    z = np.zeros(2)
    return make_finite_support([((z, eye), 0.5 + eps), ((z, -eye), 0.5 - eps)])


class TestFiniteSupport:
    def test_single_atom_deterministic(self):
        p = make_finite_support([((np.zeros(2), np.eye(2)), 1.0)])
        m = p.exact_moments
        assert np.allclose(m.A_P, np.eye(2))
        assert np.allclose(m.C_P, np.eye(2))
        assert m.sigma_A_sq == 0.0
        assert np.allclose(m.theta_star, 0.0)

    def test_single_atom_huge_fixed_point(self):
        # ||theta*||^2 = 1e400 overflows; the noise constants of a noise-free
        # atom are still 0, not 0*inf = NaN
        p = make_finite_support([((np.array([1e200]), np.array([[1.0]])), 1.0)])
        m = p.exact_moments
        assert m.theta_star[0] == 1e200
        assert m.sigma1_sq == 0.0 and m.sigma2_sq == 0.0
        # with matrix noise only the square overflows, to +inf
        m = Moments.from_parts(np.eye(1), np.array([1e200]), np.eye(1), 0.5, 0.0)
        assert m.sigma2_sq == pytest.approx(0.5e200)
        assert m.sigma1_sq == np.inf

    def test_pm_identity_family(self):
        m = pm_identity(0.1).exact_moments
        assert np.allclose(m.A_P, 0.2 * np.eye(2))
        assert np.allclose(m.C_P, np.eye(2))

    def test_two_atom_scalar(self):
        p = make_finite_support(
            [((np.array([1.0]), np.array([[2.0]])), 0.5),
             ((np.array([3.0]), np.array([[4.0]])), 0.5)]
        )
        m = p.exact_moments
        assert m.A_P[0, 0] == pytest.approx(3.0)
        assert m.b_P[0] == pytest.approx(2.0)
        assert m.C_P[0, 0] == pytest.approx(10.0)
        assert m.theta_star[0] == pytest.approx(2.0 / 3.0)

    def test_bad_probabilities(self):
        z, eye = np.zeros(2), np.eye(2)
        with pytest.raises(ValueError):
            make_finite_support([((z, eye), 0.7), ((z, eye), 0.2)])
        with pytest.raises(ValueError):
            make_finite_support([((z, eye), 1.5), ((z, eye), -0.5)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_finite_support(
                [((np.zeros(2), np.eye(2)), 0.5), ((np.zeros(3), np.eye(3)), 0.5)]
            )

    def test_sampler_reproducible(self):
        p = pm_identity(0.1)
        b1, A1 = p.sample(np.random.default_rng(7), (100,))
        b2, A2 = p.sample(np.random.default_rng(7), (100,))
        assert np.array_equal(A1, A2) and np.array_equal(b1, b2)
        assert b1.shape == (100, 2) and A1.shape == (100, 2, 2)


class TestGaussianNoise:
    def test_deterministic_case(self):
        A = np.array([[1.0, -10.0], [10.0, 1.0]])
        b = A @ np.ones(2)
        p = make_gaussian_noise(A, b, 0.0, 0.0)
        m = p.exact_moments
        assert np.allclose(m.theta_star, [1.0, 1.0])
        assert np.allclose(m.C_P, A.T @ A)
        bs, As = p.sample(np.random.default_rng(0), (5,))
        assert np.allclose(As, A) and np.allclose(bs, b)

    def test_additive_noise_only(self):
        p = make_gaussian_noise(np.eye(2), np.zeros(2), 0.0, 1.0)
        m = p.exact_moments
        assert np.allclose(m.theta_star, 0.0)
        assert m.sigma_b_sq == pytest.approx(1.0)
        bs, _ = p.sample(np.random.default_rng(3), (200_000,))
        assert (np.abs(bs) ** 2).sum(axis=1).mean() == pytest.approx(1.0, rel=0.02)

    def test_matrix_mean_recovered(self):
        # sample mean of many draws should sit within 3 standard errors
        A = np.array([[1.0, -10.0], [10.0, 1.0]])
        p = make_gaussian_noise(A, A @ np.ones(2), 5.0, 0.0)
        _, As = p.sample(np.random.default_rng(11), (100_000,))
        entry_std = As[:, 0, 0].std(ddof=1)
        se = entry_std / np.sqrt(As.shape[0])
        assert np.all(np.abs(As.mean(axis=0) - A) < 3 * se + 1e-12)

    def test_spectral_norm_calibration(self):
        # E||M||^2 hits the requested sigma_A^2 within 3 standard errors
        # (0.19%); the scale's old Monte Carlo constant, 1% high, read z = -5
        p = make_gaussian_noise(np.eye(2), np.zeros(2), 4.0, 0.0)
        _, As = p.sample(np.random.default_rng(5), (150_000,))
        sq = spectral_norms(As - np.eye(2)) ** 2
        assert abs(sq.mean() - 16.0) < 3 * sq.std(ddof=1) / np.sqrt(len(sq))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            make_gaussian_noise(np.eye(2), np.zeros(2), -1.0, 0.0)
        with pytest.raises(ValueError):
            make_gaussian_noise(np.eye(2), np.zeros(2), 0.0, -0.1)


class TestGinibreConstant:
    """c_d = E||G||^2 for a d x d standard normal G, by Pfaffian quadrature."""

    def test_closed_forms(self):
        # c_1 = E z^2; c_2 = 2 + pi/2 from the joint eigenvalue density of W_2(2, I)
        assert _mean_specnorm_sq_standard(1) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert _mean_specnorm_sq_standard(2) == pytest.approx(2 + np.pi / 2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("d, n", [(3, 200_000), (4, 200_000), (16, 40_000), (32, 10_000)])
    def test_agrees_with_monte_carlo(self, d, n):
        rng = np.random.default_rng(d)
        chunk = 2_000_000 // (d * d)
        sq = np.concatenate([
            spectral_norms(rng.standard_normal((min(chunk, n - i), d, d))) ** 2
            for i in range(0, n, chunk)
        ])
        z = (sq.mean() - _mean_specnorm_sq_standard(d)) / (sq.std(ddof=1) / np.sqrt(n))
        assert abs(z) < 3

    def test_converged_in_the_nodes(self):
        c = _mean_specnorm_sq_standard(64)
        assert abs(_mean_specnorm_sq_standard(64, nodes=48) / c - 1) < 1e-12


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_gaussian_noise(np.eye(2), np.array([np.nan, 1.0]), 1.0, 0.0),
            lambda: make_gaussian_noise(np.array([[1.0, np.inf], [0, 1]]), np.ones(2), 1.0, 0.0),
            lambda: make_gaussian_noise(np.eye(2), np.ones(2), np.nan, 0.0),
            lambda: make_gaussian_noise(np.eye(2), np.ones(2), 1.0, np.inf),
            lambda: make_finite_support([((np.array([np.nan]), np.eye(1)), 1.0)]),
            lambda: make_finite_support([((np.zeros(1), np.array([[np.inf]])), 1.0)]),
            lambda: make_finite_support(
                [((np.zeros(1), np.eye(1)), np.nan), ((np.zeros(1), np.eye(1)), 1.0)]
            ),
            lambda: make_lower_bound_instance(1.0, np.inf, 1.0),
            lambda: make_lower_bound_instance(np.nan, 2.0, 1.0),
            lambda: make_lower_bound_instance(1.0, 2.0, np.nan),
        ],
    )
    def test_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestLowerBoundInstance:
    def test_moments(self):
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        m = p.exact_moments
        assert np.allclose(m.A_P, np.diag([1.0, 2.0]))
        assert m.sigma_A_sq == 0.0
        assert m.sigma_b_sq == pytest.approx(1.0)
        assert np.allclose(m.theta_star, 0.0)
        bs, _ = p.sample(np.random.default_rng(0), (100_000,))
        assert np.all(bs[:, 1] == 0.0)
        assert (bs[:, 0] ** 2).mean() == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("sigma_b", [0.0, 0.3, 1.0])
    def test_one_atom_distribution(self, sigma_b):
        # one atom (b = 0, A), intercept scatter (sigma_b, 0): the sampler draws
        # no atom index, so b_t[0] = sigma_b z_t on the bare normal stream
        p = make_lower_bound_instance(0.5, 4.0, sigma_b)
        A = np.diag([0.5, 4.0])
        assert p.atoms is not None and p.atoms.probs.tolist() == [1.0]
        b, As = p.sample(np.random.default_rng(5), (7, 3))
        want_b = np.zeros((7, 3, 2))
        if sigma_b:
            want_b[..., 0] = sigma_b * np.random.default_rng(5).standard_normal((7, 3))
        assert b.tobytes() == want_b.tobytes()
        assert As.tobytes() == np.broadcast_to(A, (7, 3, 2, 2)).tobytes()
        m, want = p.exact_moments, Moments.from_parts(A, np.zeros(2), A.T @ A, 0.0, sigma_b**2)
        for name in ("A_P", "b_P", "C_P", "theta_star"):
            assert getattr(m, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("sigma_A_sq", "sigma_b_sq", "sigma1_sq", "sigma2_sq"):
            assert getattr(m, name) == getattr(want, name), name

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            make_lower_bound_instance(2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_lower_bound_instance(1.0, 1.0, 0.0)


class TestEstimateMoments:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_support_within_standard_errors(self, seed):
        p = make_finite_support(
            [((np.array([1.0, 0.0]), np.array([[2.0, 0.5], [0.0, 1.0]])), 0.3),
             ((np.array([0.0, 2.0]), np.array([[1.0, 0.0], [0.3, 3.0]])), 0.7)]
        )
        exact = p.exact_moments
        est = estimate_moments(p, 1_000_000, seed)
        n = 1_000_000
        # entrywise mean comparison: per-atom spread bounds the standard error
        spread_A = np.abs(p.atoms.As - exact.A_P).max()
        spread_b = np.abs(p.atoms.bs - exact.b_P).max()
        assert np.abs(est.A_P - exact.A_P).max() < 5 * spread_A / np.sqrt(n)
        assert np.abs(est.b_P - exact.b_P).max() < 5 * spread_b / np.sqrt(n)
        assert np.abs(est.C_P - exact.C_P).max() < 5 * 20 / np.sqrt(n)
        assert est.theta_star == pytest.approx(exact.theta_star, abs=1e-2)

    def test_pm_identity_sigma_A(self):
        # brute-force over the two atoms: E||M||^2 with eps = 0.1
        p = pm_identity(0.1)
        exact = (0.5 + 0.1) * spectral_norm(np.eye(2) - 0.2 * np.eye(2)) ** 2 + (
            0.5 - 0.1
        ) * spectral_norm(-np.eye(2) - 0.2 * np.eye(2)) ** 2
        assert p.exact_moments.sigma_A_sq == pytest.approx(exact)
        est = estimate_moments(p, 1_000_000, 42)
        # variance of ||M||^2 over the atoms bounds the MC error
        var = (0.6 * (0.64 - exact) ** 2 + 0.4 * (1.44 - exact) ** 2)
        assert est.sigma_A_sq == pytest.approx(exact, abs=5 * np.sqrt(var / 1e6))

    def test_deterministic_distribution(self):
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, 0.0)
        est = estimate_moments(p, 1000, 0)
        assert np.allclose(est.A_P, np.diag([1.0, 2.0]))
        assert est.sigma_A_sq == 0.0 and est.sigma_b_sq == 0.0
        assert np.allclose(est.C_P, np.diag([1.0, 4.0]))

    def test_deterministic_given_seed(self):
        p = make_gaussian_noise(np.eye(2), np.zeros(2), 1.0, 1.0)
        a = estimate_moments(p, 5000, 9)
        b = estimate_moments(p, 5000, 9)
        assert np.array_equal(a.A_P, b.A_P)
        assert a.sigma_A_sq == b.sigma_A_sq

    def test_n_too_small(self):
        p = pm_identity(0.1)
        with pytest.raises(ValueError):
            estimate_moments(p, 1, 0)


class TestInvariants:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: pm_identity(0.1),
            lambda: make_gaussian_noise(
                np.array([[1.0, -10.0], [10.0, 1.0]]), np.array([-9.0, 11.0]), 5.0, 1.0
            ),
            lambda: make_lower_bound_instance(0.5, 4.0, 1.0),
        ],
    )
    def test_second_moment_dominates_mean_square(self, factory):
        m = factory().exact_moments
        diff = m.C_P - m.A_P.conj().T @ m.A_P
        assert np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min() >= -1e-10

    def test_matrix_noise_is_centered(self):
        # batch mean of A - A_P should shrink like sigma_A/sqrt(n)
        p = make_gaussian_noise(
            np.array([[1.0, -10.0], [10.0, 1.0]]), np.array([-9.0, 11.0]), 5.0, 0.0
        )
        n = 100_000
        _, As = p.sample(np.random.default_rng(123), (n,))
        M_bar = As.mean(axis=0) - p.exact_moments.A_P
        assert spectral_norm(M_bar) < 5 * 5.0 / np.sqrt(n)

    def test_sigma1_sigma2_consistent(self):
        m = make_gaussian_noise(
            np.array([[1.0, -10.0], [10.0, 1.0]]), np.array([-9.0, 11.0]), 5.0, 2.0
        ).exact_moments
        nrm = np.linalg.norm(m.theta_star)
        assert m.sigma1_sq == pytest.approx(m.sigma_A_sq * nrm**2 + m.sigma_b_sq)
        assert m.sigma2_sq == pytest.approx(m.sigma_A_sq * nrm)

    def test_moments_report_no_fixed_point_when_singular(self):
        m = Moments.from_parts(np.zeros((2, 2)), np.ones(2), np.eye(2), 0.0, 0.0)
        assert m.theta_star is None and m.sigma1_sq is None
