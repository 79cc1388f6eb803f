import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsalab import (
    NotPositiveDefiniteError,
    check_weak_admissibility_psd_class,
    inadmissibility_witness_pb,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
    rho_d,
    rho_s,
    spectral_report,
    witness_alpha,
)
from lsalab.problems import Moments, spectral_norm
from lsalab.spectral import _min_eig_hermitian

ROT = np.array([[1.0, -10.0], [10.0, 1.0]])


def moments_of(A, sigma_A=0.0, b=None):
    A = np.asarray(A, dtype=float)
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    return make_gaussian_noise(A, b, sigma_A, 0.0).exact_moments


class TestRhoD:
    def test_identity(self):
        assert rho_d(moments_of(np.eye(2)), 0.5) == pytest.approx(1.5)

    def test_diagonal(self):
        # branches 2 - 0.4*1 and 4 - 0.4*4; the min is the first
        assert rho_d(moments_of(np.diag([1.0, 2.0])), 0.4) == pytest.approx(1.6)

    def test_rotation_closed_form(self):
        # A + A^T = 2I and A^T A = 101 I, so the gap is 2 - 101*alpha
        assert rho_d(moments_of(ROT), 0.01) == pytest.approx(0.99)

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            rho_d(moments_of(np.eye(2)), 0.0)

    @pytest.mark.parametrize("gap", [rho_d, rho_s])
    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_alpha_must_be_finite(self, gap, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            gap(moments_of(np.eye(2)), alpha)


class TestMinEigHermitian:
    def test_same_bits_as_the_halved_sum(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 6):
            H = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-100, 100)
            assert _min_eig_hermitian(H) == np.linalg.eigvalsh(0.5 * (H + H.T))[0]

    def test_gaps_within_a_factor_2_of_the_float_range(self):
        # at alpha = 1, A + A^* - alpha A^* A is about -1.68e308 * I, and
        # H + H^* overflowed: rho_d and rho_s read NaN
        a = 1.3e154
        m = make_finite_support([((np.ones(2), a * np.eye(2)), 0.999),
                                 ((np.ones(2), -a * np.eye(2)), 0.001)]).exact_moments
        a_P = float(m.A_P[0, 0])
        assert rho_d(m, 1.0) == pytest.approx(2 * a_P - a_P * a_P, rel=1e-15)
        assert rho_s(m, 1.0) == pytest.approx(2 * a_P - float(m.C_P[0, 0]), rel=1e-15)
        assert _min_eig_hermitian(np.diag([-1.5e308, 1.0])) == -1.5e308


class TestRhoS:
    def test_pm_identity_formula(self):
        # 4*eps - alpha for the +-identity family
        for eps, alpha in [(0.1, 0.3), (0.05, 0.4), (0.2, 0.1)]:
            p = make_finite_support(
                [((np.zeros(2), np.eye(2)), 0.5 + eps),
                 ((np.zeros(2), -np.eye(2)), 0.5 - eps)]
            )
            assert rho_s(p.exact_moments, alpha) == pytest.approx(4 * eps - alpha)

    def test_deterministic_equals_rho_d(self):
        m = moments_of(ROT)
        for alpha in [0.001, 0.01, 0.019]:
            assert rho_s(m, alpha) == pytest.approx(rho_d(m, alpha))

    def test_lower_bound_instance_diagonal(self):
        m = make_lower_bound_instance(1.0, 2.0, 0.0).exact_moments
        assert rho_s(m, 0.1) == pytest.approx(1.9)
        # spec'd plug-in: 1 - 0.4*(2*0.5 - 0.4*0.25) = 0.64
        m2 = make_lower_bound_instance(0.5, 4.0, 1.0).exact_moments
        assert 1 - 0.4 * rho_s(m2, 0.4) == pytest.approx(1 - 0.4 * (2 * 0.5 - 0.4 * 0.25))


class TestWitness:
    def test_identity(self):
        assert witness_alpha(moments_of(np.eye(2))) == pytest.approx(2.0)

    def test_rotation_with_noise(self):
        assert witness_alpha(
            make_gaussian_noise(ROT, np.zeros(2), 5.0, 0.0).exact_moments
        ) == pytest.approx(2.0 / 126.0)

    def test_rotation_noiseless(self):
        assert witness_alpha(moments_of(ROT)) == pytest.approx(2.0 / 101.0)

    def test_not_pd_raises(self):
        A = np.array([[0.1, 1.0], [0.0, 0.1]])  # Hurwitz but indefinite symmetric part
        with pytest.raises(NotPositiveDefiniteError, match="transform"):
            witness_alpha(moments_of(A))

    @pytest.mark.parametrize("seed", range(8))
    def test_certifies_positive_gap(self, seed):
        # random PD-mean family with noise: rho_s must be positive at 0.99*witness
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((3, 3))
        S = rng.standard_normal((3, 3))
        A = B @ B.T + 0.5 * np.eye(3) + (S - S.T)  # PD symmetric part by construction
        m = make_gaussian_noise(A, rng.standard_normal(3), 1.5, 0.5).exact_moments
        # premise of the certificate: C_P <= A^T A + sigma_A^2 I
        gap = m.A_P.T @ m.A_P + m.sigma_A_sq * np.eye(3) - m.C_P
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-9
        wit = witness_alpha(m)
        assert rho_s(m, 0.99 * wit) > 0
        assert rho_d(m, 0.99 * wit) > 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(-300, 300), st.floats(0.0, 2.0))
    @example(0, -200, 0.0)  # ||A_P||^2 underflows to 0
    @example(0, 160, 0.0)  # ||A_P||^2 overflows
    @example(0, -155, 1.0)  # ||A_P||^2 + sigma_A^2 is subnormal
    def test_witness_at_every_scale(self, seed, k, noise):
        # a random PD mean scaled by 10^k, with sigma_A = noise * 10^k where
        # its square is a double: the witness is lam / (||A_P||^2 + sigma_A^2)
        # to a few ulps, however far ||A_P||^2 lies outside the normal range
        rng = np.random.default_rng(seed)
        B, S = rng.standard_normal((2, 3, 3))
        A = (B @ B.T + 0.5 * np.eye(3) + (S - S.T)) * 10.0**k
        sq = (Fraction(noise) * Fraction(10) ** k) ** 2
        sigma_A_sq = float(sq) if sq <= sys.float_info.max else 0.0
        m = Moments(A, np.zeros(3), np.zeros((3, 3)), sigma_A_sq, 0.0)
        lam = Fraction(_min_eig_hermitian(A + A.T))
        exact = lam / (Fraction(spectral_norm(A)) ** 2 + Fraction(sigma_A_sq))
        got = witness_alpha(m)
        assert abs(Fraction(got) - exact) <= exact * Fraction(2, 10**15)


class TestReport:
    def test_fields_and_contraction_factors(self):
        m = moments_of(np.diag([1.0, 2.0]))
        rep = spectral_report(m, 0.4)
        assert rep.rho_d == pytest.approx(1.6)
        assert rep.contraction_factor_d == pytest.approx(1 - 0.4 * 1.6)
        assert rep.contraction_factor_s == pytest.approx(1 - 0.4 * rep.rho_s)
        assert witness_alpha(m) == pytest.approx(2.0 / 4.0)

    def test_witness_none_when_not_pd(self):
        # the report holds the gaps alone; the witness is witness_alpha's,
        # which a mean without a PD symmetric part does not have
        m = moments_of(np.array([[0.1, 1.0], [0.0, 0.1]]))
        rep = spectral_report(m, 0.1)
        assert (rep.rho_d, rep.rho_s) == (rho_d(m, 0.1), rho_s(m, 0.1))
        with pytest.raises(NotPositiveDefiniteError):
            witness_alpha(m)

    def test_rho_d_dominates_rho_s(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            A = rng.standard_normal((3, 3))
            m = make_gaussian_noise(A, rng.standard_normal(3), 1.0, 0.0).exact_moments
            for alpha in [0.01, 0.1, 1.0]:
                assert rho_d(m, alpha) >= rho_s(m, alpha) - 1e-10

    def test_rho_s_decreasing_in_alpha(self):
        m = make_gaussian_noise(ROT, np.zeros(2), 3.0, 0.0).exact_moments
        grid = np.linspace(0.001, 0.05, 30)
        vals = [rho_s(m, a) for a in grid]
        assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))


class TestPsdClass:
    def test_formula(self):
        assert check_weak_admissibility_psd_class(1.0) == pytest.approx(2.0)
        assert check_weak_admissibility_psd_class(4.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bound_must_be_finite_and_positive(self, bad):
        # NaN read nan and inf read 0.0, a witness no step-size passes
        with pytest.raises(ValueError, match="bound must be finite and positive"):
            check_weak_admissibility_psd_class(bad)

    def test_subnormal_bound_reads_inf(self):
        # numpy's scalar division overflowed with a RuntimeWarning
        assert check_weak_admissibility_psd_class(np.float64(1e-320)) == np.inf

    @pytest.mark.parametrize("seed", range(20))
    def test_random_psd_families_certified(self, seed):
        # finite distributions on PSD matrices with ||A|| <= B stay stable
        # at 0.9 * (2/B)
        rng = np.random.default_rng(1000 + seed)
        B = 2.0
        atoms = []
        k = rng.integers(2, 5)
        probs = rng.dirichlet(np.ones(k))
        for j in range(k):
            R = rng.standard_normal((3, 2))
            S = R @ R.T
            S *= rng.uniform(0.2, 1.0) * B / np.linalg.norm(S, 2)
            atoms.append(((rng.standard_normal(3), S), probs[j]))
        p = make_finite_support(atoms)
        alpha = 0.9 * check_weak_admissibility_psd_class(B)
        assert rho_s(p.exact_moments, alpha) >= -1e-10

    def test_gap_not_uniformly_positive_over_class(self):
        # the class-level witness keeps every gap positive, but PSD families
        # whose smallest mean eigenvalue approaches 0 drive the gap to 0, so
        # no uniform positive infimum exists at any fixed step-size
        B = 1.0
        alpha = 0.9 * check_weak_admissibility_psd_class(B)
        gaps = []
        for lam in [1.0, 0.1, 0.01, 0.001]:
            gaps.append(rho_s(moments_of(np.diag([lam, 1.0])), alpha))
        assert all(g > 0 for g in gaps)
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        assert gaps[-1] < 1e-2


class TestInadmissibilityWitness:
    def test_rho_matches_formula(self):
        p = inadmissibility_witness_pb(0.4)
        assert rho_s(p.exact_moments, 0.4) == pytest.approx(-0.2, abs=1e-12)
        p2 = inadmissibility_witness_pb(0.08)
        assert rho_s(p2.exact_moments, 0.08) == pytest.approx(-0.04, abs=1e-12)

    def test_mean_is_pd_and_bounded(self):
        p = inadmissibility_witness_pb(0.4)
        m = p.exact_moments
        assert np.linalg.eigvalsh(m.A_P + m.A_P.T).min() > 0
        assert all(np.linalg.norm(A, 2) <= 1.0 + 1e-12 for A in p.atoms.As)


class TestMonteCarloContraction:
    @pytest.mark.parametrize(
        "factory,alpha",
        [
            (lambda: make_gaussian_noise(ROT, np.zeros(2), 5.0, 0.0), 0.01),
            (lambda: inadmissibility_witness_pb(0.4), 0.05),
        ],
    )
    def test_expected_step_contraction(self, factory, alpha):
        # E||(I - alpha A)x||^2 <= (1 - alpha rho_s) ||x||^2, checked on
        # random unit vectors with a 5-standard-error allowance
        p = factory()
        m = p.exact_moments
        bound = 1 - alpha * rho_s(m, alpha)
        rng = np.random.default_rng(77)
        n = 10_000
        _, As = p.sample(rng, (n,))
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        vals = (np.abs(np.einsum("kij,j->ki", np.eye(2) - alpha * As, x)) ** 2).sum(axis=1)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert vals.mean() <= bound + 5 * se
