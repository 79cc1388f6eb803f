import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalab import (
    BoundInputs,
    Moments,
    TransformResult,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
    rho_d,
    rho_s,
)
from lsalab.problems import (
    FiniteAtoms,
    _even_hermite_functions,
    _finite_problem,
    _finite_support_moments,
    _indexed_search,
    _mean_specnorm_sq_standard,
    _specnorm_sq_quadrature,
    spectral_norm,
    spectral_norms,
)
from oracles import estimate_moments


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
        m = Moments(np.eye(1), np.array([1e200]), np.eye(1), 0.5, 0.0)
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


@st.composite
def random_atoms(draw):
    """Atoms of a random finite problem, with or without intercept scatter;
    the weights sum to 1 up to rounding, as Dirichlet draws do."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # past 6 atoms the draws run through the guide table's ambiguous buckets
    k = draw(st.one_of(st.integers(1, 6), st.integers(7, 1000)))
    d = draw(st.integers(1, 4))
    return FiniteAtoms(
        probs=rng.dirichlet(np.ones(k)),
        bs=rng.standard_normal((k, d)),
        As=rng.standard_normal((k, d, d)),
        b_noise=rng.standard_normal((k, d)) if draw(st.booleans()) else None,
    )


class TestAtomDraws:
    @settings(max_examples=200, deadline=None)
    @given(random_atoms(), st.integers(0, 700), st.integers(0, 2**32 - 1))
    def test_draw_is_choice_then_normals(self, atoms, n, seed):
        # the stream ``sample`` drew through ``Generator.choice`` before the
        # step form searched the cumulative weights itself
        rng = np.random.default_rng(seed)
        b, idx = _finite_problem(atoms, "random").step_form.draw(rng, n)
        ref = np.random.default_rng(seed)
        k = len(atoms.probs)
        want_idx = ref.choice(k, size=n, p=atoms.probs) if k > 1 else np.zeros(n, np.int64)
        want_b = atoms.bs[want_idx]
        if atoms.b_noise is not None:
            want_b = want_b + ref.standard_normal(n)[:, None] * atoms.b_noise[want_idx]
        assert idx.dtype == np.int64 and idx.shape == (n,)
        np.testing.assert_array_equal(idx, want_idx)
        assert b.tobytes() == want_b.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (3, 4), 7])
    def test_sample_is_the_draw_reshaped(self, shape):
        p = make_lower_bound_instance(1.0, 2.0, 0.5)  # one atom, intercept scatter
        q = pm_identity(0.1)  # two atoms, exact intercepts
        for prob in (p, q):
            b, A = prob.sample(np.random.default_rng(3), shape)
            full = () if shape == () else tuple(np.atleast_1d(shape))
            assert b.shape == full + (2,) and A.shape == full + (2, 2)
            bd, idx = prob.step_form.draw(np.random.default_rng(3), math.prod(full))
            assert b.reshape(-1, 2).tobytes() == bd.tobytes()
            np.testing.assert_array_equal(A.reshape(-1, 2, 2), prob.atoms.As[idx])

    def test_key_equals_only_itself(self):
        # a finite form batches only with its own problem: equal atoms built
        # apart get keys that differ, and a copy of the problem keeps its key
        As = np.random.default_rng(4).standard_normal((50, 3, 3))
        probs = np.full(50, 1 / 50)
        p = _finite_problem(FiniteAtoms(probs, np.zeros((50, 3)), As), "a")
        again = _finite_problem(FiniteAtoms(probs, np.zeros((50, 3)), As), "a")
        assert p.step_form.key != again.step_form.key
        assert pm_identity(0.1).step_form.key != pm_identity(0.1).step_form.key
        assert dataclasses.replace(p, label="b").step_form.key == p.step_form.key
        assert p.step_form.key == p.step_form.key

    def test_problem_holds_no_second_copy_of_the_matrices(self):
        k, d = 400, 16
        rng = np.random.default_rng(5)
        atoms = FiniteAtoms(np.full(k, 1 / k), rng.standard_normal((k, d)),
                            rng.standard_normal((k, d, d)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            p = _finite_problem(atoms, "wide")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert p.atoms.As is atoms.As
        assert held < atoms.As.nbytes / 4, (held, atoms.As.nbytes)


@st.composite
def cumulative_weights(draw):
    """A cdf as ``_finite_problem`` builds it, from up to 5,000 weights
    (past 4,096 the guide table's size cap leaves fewer than 16 buckets per
    weight): some weights zero, and a run of 1e-9 weights, so that one
    bucket holds many cdf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 5000))
    w = rng.exponential(size=k)
    w[rng.random(k) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    start = draw(st.integers(0, k - 1))
    w[start : start + draw(st.integers(0, k))] = 1e-9
    w[-1] += w.sum() == 0  # at least one positive weight
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return cdf


def probe_uniforms(cdf, rng):
    """Uniforms at every j/2**16 (so at every bucket edge j/m of any table
    size m <= 2**16), at every cdf entry below 1, just below each of those,
    at 0, at the largest double below 1, and 1,000 random ones."""
    edges = np.concatenate([np.arange(2**16) / 2**16, cdf[cdf < 1]])
    return np.concatenate(
        [edges, np.nextafter(edges, 0), [0.0, np.nextafter(1.0, 0.0)], rng.random(1000)]
    )


class TestIndexedSearch:
    @settings(max_examples=100, deadline=None)
    @given(cumulative_weights(), st.integers(0, 2**32 - 1))
    def test_equals_the_binary_search(self, cdf, seed):
        u = probe_uniforms(cdf, np.random.default_rng(seed))
        idx = _indexed_search(cdf)(u)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, cdf.searchsorted(u, side="right"))

    def test_past_the_size_cap_most_uniforms_are_binary_searched(self):
        # 200,000 near-equal weights over at most 2**16 buckets: almost every
        # bucket holds a cdf entry, so almost every uniform takes the fallback
        rng = np.random.default_rng(4)
        cdf = rng.uniform(0.5, 1.5, 200_000).cumsum()
        cdf /= cdf[-1]
        first = cdf.searchsorted(np.arange(2**16 + 1) / 2**16, side="right")
        u = probe_uniforms(cdf, rng)
        assert (first[:-1] != first[1:])[(u * 2**16).astype(int)].mean() > 0.9
        np.testing.assert_array_equal(_indexed_search(cdf)(u), cdf.searchsorted(u, side="right"))


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

    def test_intercept_of_another_dimension_rejected(self):
        for b in (np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(ValueError, match=r"^b_P must have shape \(2,\)$"):
                make_gaussian_noise(np.eye(2), b, 1.0, 0.0)

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

    def test_quadrature_matches_the_closed_forms(self):
        # d <= 2 returns the closed forms; the quadrature behind d >= 3 agrees
        assert _mean_specnorm_sq_standard(1) == 1.0
        assert _mean_specnorm_sq_standard(2) == 2 + math.pi / 2
        assert _specnorm_sq_quadrature(1, 24) == pytest.approx(1.0, rel=1e-12, abs=0)
        assert _specnorm_sq_quadrature(2, 24) == pytest.approx(2 + np.pi / 2, rel=1e-12, abs=0)

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

    def test_hermite_functions_past_the_rescale(self):
        # from d = 96 the recurrence passes 1e100 at the largest nodes, and
        # the values are rescaled; they equal the recurrence in 50 digits
        d = 96
        u = np.linspace(0.0, math.sqrt(8 * d + 120), 61)
        got = _even_hermite_functions(u, d)
        want = np.empty_like(got)
        peak = Decimal(0)
        with localcontext() as ctx:
            ctx.prec = 50
            pi = Decimal("3.14159265358979323846264338327950288419716939937510")
            for n, x in enumerate(map(Decimal, u.tolist())):
                weight = (-x * x / 2).exp()
                prev, cur = Decimal(0), pi ** Decimal("-0.25")
                for k in range(2 * d - 1):
                    if k % 2 == 0:
                        want[n, k // 2] = cur * weight
                    prev, cur = cur, ((Decimal(2) / (k + 1)).sqrt() * x * cur
                                      - (Decimal(k) / (k + 1)).sqrt() * prev)
                    peak = max(peak, abs(cur))
        assert peak > Decimal("1e100")
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)

    def test_converged_in_the_nodes(self):
        c = _mean_specnorm_sq_standard(64)
        assert abs(_specnorm_sq_quadrature(64, 48) / c - 1) < 1e-12


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


class TestProblemsAreReal:
    """A problem is real: building one whose mean is complex raises, and no
    constructor drops an imaginary part."""

    @pytest.mark.parametrize("b, A, name", [
        (np.zeros(2), np.eye(2, dtype=complex), "A_P"),  # a zero imaginary part too
        (np.array([1j, 0.0]), np.eye(2), "b_P"),
    ])
    def test_complex_atoms_are_refused(self, b, A, name):
        with pytest.raises(ValueError, match=f"^exact_moments.{name} must be real, not complex$"):
            make_finite_support([((b, A), 0.5), ((np.ones(2), 2 * np.eye(2)), 0.5)])

    @pytest.mark.parametrize("name", ["A_P", "b_P"])
    def test_complex_moments_are_refused_on_replace(self, name):
        p = make_finite_support([((np.ones(2), np.eye(2)), 0.5), ((np.zeros(2), 3 * np.eye(2)), 0.5)])
        m = p.exact_moments
        means = {"A_P": m.A_P, "b_P": m.b_P}
        means[name] = means[name] + 1j
        moments = Moments(means["A_P"], means["b_P"], m.C_P, m.sigma_A_sq, m.sigma_b_sq)
        with pytest.raises(ValueError, match=f"^exact_moments.{name} must be real, not complex$"):
            dataclasses.replace(p, exact_moments=moments)

    @pytest.mark.parametrize("A_P, b_P, name", [
        (np.array([[1 + 1j, 0], [0, 1]]), [1, 1], "A_P"),
        (np.eye(2, dtype=complex), [1, 1], "A_P"),
        ([[1, 0], [0, 1j]], [1, 1], "A_P"),  # a list that holds a complex number
        (np.eye(2), [1, 1j], "b_P"),
        (np.eye(2), np.ones(2, dtype=complex), "b_P"),
    ])
    def test_gaussian_means_must_be_real(self, A_P, b_P, name):
        with pytest.raises(ValueError, match=f"^{name} must be real, not complex$"):
            make_gaussian_noise(A_P, b_P, 0.5, 0.0)

    @pytest.mark.parametrize("make, name", [
        (lambda z: make_finite_support([((np.ones(2), np.eye(2)), z)]), "p"),
        (lambda z: make_gaussian_noise(np.eye(2), np.ones(2), z, 0.0), "sigma_A"),
        (lambda z: make_gaussian_noise(np.eye(2), np.ones(2), 0.5, z), "sigma_b"),
        (lambda z: make_lower_bound_instance(z, 2.0, 1.0), "lambda_min"),
        (lambda z: make_lower_bound_instance(1.0, 2 * z, 1.0), "lambda_max"),
        (lambda z: make_lower_bound_instance(1.0, 2.0, z), "sigma_b"),
    ])
    def test_complex_scalars_are_refused(self, make, name):
        # numpy compares complex scalars, and float() of one drops its imaginary part
        with pytest.raises(ValueError, match=f"^{name} must be real, not complex$"):
            make(np.complex128(1.0))


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
        m, want = p.exact_moments, Moments(A, np.zeros(2), A.T @ A, 0.0, sigma_b**2)
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
        m = Moments(np.zeros((2, 2)), np.ones(2), np.eye(2), 0.0, 0.0)
        assert m.theta_star is None and m.sigma1_sq is None and m.sigma2_sq is None

    def test_derived_fields_are_not_arguments(self):
        args = (np.eye(2), np.ones(2), np.eye(2), 0.5, 0.0)
        for name in ("theta_star", "sigma1_sq", "sigma2_sq"):
            with pytest.raises(TypeError):
                Moments(*args, **{name: None})
        m = Moments(*args)
        assert m.theta_star.tolist() == [1.0, 1.0] and m.sigma2_sq == 0.5 * math.sqrt(2)
        # a problem's dimension is that of its moments
        p = pm_identity(0.1)
        assert p.dim == 2
        m3 = Moments(np.eye(3), np.ones(3), np.eye(3), 0.0, 0.0)
        assert dataclasses.replace(p, exact_moments=m3).dim == 3
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(p, dim=3)
        # the certificate records derive their gaps and kappa(U)
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        for name in ("rho_d", "rho_s"):
            with pytest.raises(TypeError):
                BoundInputs(m, 0.1, np.zeros(2), **{name: 1.0})
        inputs = BoundInputs(m, 0.1, np.zeros(2))
        assert (inputs.rho_d, inputs.rho_s, inputs.kappa_U) == (rho_d(m, 0.1), rho_s(m, 0.1), 1.0)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(inputs, rho_s=1.0)
        U = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TypeError):
            TransformResult(U, np.linalg.inv(U), np.eye(2), kappa_U=1.0)
        assert TransformResult(U, np.linalg.inv(U), np.eye(2)).kappa_U == 2.0  # ||U|| ||U^-1||


def eager_noise_constants(m: Moments, atoms: FiniteAtoms) -> tuple:
    """sigma_A_sq, sigma1_sq and sigma2_sq as ``_finite_support_moments`` and
    ``Moments`` computed them when the problem was built."""
    sigma_A_sq = float((atoms.probs * spectral_norms(atoms.As - m.A_P) ** 2).sum())
    if m.theta_star is None:
        return sigma_A_sq, None, None
    nrm = math.hypot(*np.abs(m.theta_star))
    if sigma_A_sq == 0:
        return sigma_A_sq, float(m.sigma_b_sq), 0.0
    return sigma_A_sq, sigma_A_sq * (nrm * nrm) + m.sigma_b_sq, sigma_A_sq * nrm


class TestLazySigmaA:
    """A finite problem's sigma_A_sq (an SVD per atom) is computed on its
    first read, once, and equals what building the problem computed."""

    @settings(max_examples=100, deadline=None)
    @given(random_atoms(), st.booleans(), st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_equals_the_eager_formula(self, atoms, transformed, first, seed):
        if transformed:  # complex atoms U^-1 A_i U, U^-1 b_i, as a transform makes
            rng = np.random.default_rng(seed)
            d = atoms.bs.shape[1]
            U = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) + 2 * np.eye(d)
            U_inv = np.linalg.inv(U)
            atoms = FiniteAtoms(
                probs=atoms.probs,
                bs=np.einsum("ij,kj->ki", U_inv, atoms.bs),
                As=np.einsum("ij,kjl,lm->kim", U_inv, atoms.As, U),
                b_noise=atoms.b_noise,
            )
        names = ("sigma_A_sq", "sigma1_sq", "sigma2_sq")
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            m = _finite_support_moments(atoms)
            assert svd.call_count == 0
            getattr(m, names[first])  # any of the three reads it first
            assert svd.call_count == 1
            got = [getattr(m, name) for name in names]
            assert svd.call_count == 1
        want = eager_noise_constants(m, atoms)
        assert [type(x) for x in got] == [type(x) for x in want]
        assert got == list(want)  # bit for bit

    def test_computed_once(self):
        m = pm_identity(0.1).exact_moments
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            first, second = m.sigma_A_sq, m.sigma_A_sq
            assert svd.call_count == 1
        assert first == second == pytest.approx(0.6 * 0.8**2 + 0.4 * 1.2**2)
        # replace reads it and passes the value on
        assert dataclasses.replace(m, sigma_b_sq=1.0).sigma_A_sq == first

    @pytest.mark.parametrize("p_far", [0.001, 0.0])
    def test_squared_norms_past_the_float_range(self, p_far):
        # A_P is near a*I, so the far atom's deviation norm squared (about
        # 2a^2) overflows while the weighted sum does not; it warned
        # "overflow encountered in square" (and read NaN at p_far = 0)
        a = 1.3e154
        atoms = [((np.ones(2), a * np.eye(2)), 1 - p_far), ((np.ones(2), -a * np.eye(2)), p_far)]
        m = make_finite_support(atoms).exact_moments
        a_P = Fraction(m.A_P[0, 0])
        want = sum(Fraction(w) * (Fraction(A[0, 0]) - a_P) ** 2 for (_, A), w in atoms)
        assert math.isfinite(m.C_P[0, 0])
        assert m.sigma_A_sq == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_sum_past_the_float_range_names_sigma_A(self):
        # reflections around a mean of a/2 * I: E||A - A_P||^2 = 1.25 a^2
        # exceeds the largest double while C_P = a^2 I does not
        a = 1.3e154
        p = make_finite_support([
            ((np.ones(2), a * np.eye(2)), 0.5),
            ((np.ones(2), a * np.diag([1.0, -1.0])), 0.25),
            ((np.ones(2), a * np.diag([-1.0, 1.0])), 0.25),
        ])
        with pytest.raises(ValueError, match=r"^sigma_A_sq = E\|\|A - A_P\|\|\^2 exceeds the float range"):
            p.exact_moments.sigma_A_sq

    def test_floats_still_taken_positionally(self):
        m = Moments(np.eye(2), np.ones(2), np.eye(2), 0.5, 0.0)
        assert (m.sigma_A_sq, m.sigma_b_sq) == (0.5, 0.0)
        assert type(m.sigma_A_sq) is float and type(m.sigma_b_sq) is float
        assert m.sigma1_sq == 0.5 * (math.sqrt(2) * math.sqrt(2)) and m.sigma2_sq == 0.5 * math.sqrt(2)
        m = Moments(np.eye(2), np.ones(2), np.eye(2), np.float64(0.25), np.float32(0.5))
        assert type(m.sigma_A_sq) is float and type(m.sigma_b_sq) is float
        with pytest.raises(TypeError):
            Moments(np.eye(2), np.ones(2), np.eye(2), 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.sigma_A_sq = 1.0
        assert "sigma_A_sq=0.25" in repr(m)
