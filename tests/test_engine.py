from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsalab import (
    RunConfig,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
    rho_s,
    run_mse,
    run_single,
    witness_alpha,
)
from lsalab import engine
from lsalab.engine import _SAMPLE_CHUNK, _replication_rngs, _simulate_block, divergence_bound
from lsalab.problems import FiniteAtoms, _finite_problem


def scalar_problem(a=1.0, b=0.0):
    return make_finite_support([((np.array([b]), np.array([[a]])), 1.0)])


def pm_identity(eps):
    z, eye = np.zeros(2), np.eye(2)
    return make_finite_support([((z, eye), 0.5 + eps), ((z, -eye), 0.5 - eps)])


class TestRunSingle:
    def test_geometric_recursion(self):
        # b=0, A=1, alpha=0.5, theta_0=1: theta_t = 0.5^t
        p = scalar_problem()
        cfg = RunConfig(alpha=0.5, horizon=4, theta_0=np.array([1.0]), record_stride=1)
        r = run_single(p, cfg)
        assert np.allclose(r.theta[:, 0], [0.5, 0.25, 0.125, 0.0625])
        assert r.theta_hat[1, 0] == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert not r.diverged

    def test_averaged_closed_form_on_diagonal_family(self):
        # noiseless: hat components follow (1/(t+1)) (alpha*lam)^{-1} (1-(1-alpha*lam)^{t+1}) theta_0
        p = make_lower_bound_instance(1.0, 2.0, 0.0)
        cfg = RunConfig(alpha=0.1, horizon=10, theta_0=np.array([1.0, 1.0]), record_stride=1)
        r = run_single(p, cfg)
        t = 10
        for i, lam in enumerate([1.0, 2.0]):
            expect = (1 / (t + 1)) * (1 / (0.1 * lam)) * (1 - (1 - 0.1 * lam) ** (t + 1))
            assert abs(r.theta_hat[-1, i] - expect) < 1e-10

    def test_average_identity_matches_batch_mean(self):
        # incremental average equals the batch mean of recorded iterates
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.ones(2), 1.0, 1.0)
        cfg = RunConfig(alpha=0.05, horizon=300, theta_0=None, record_stride=1, seed=4)
        r = run_single(p, cfg)
        batch = np.cumsum(np.vstack([np.zeros(2), r.theta]), axis=0)[1:]
        counts = np.arange(2, 302)[:, None]  # theta_0 contributes too
        batch = (batch + 0.0) / counts  # mean over theta_0..theta_t with theta_0 = 0
        rel = np.abs(r.theta_hat - batch) / np.maximum(np.abs(batch), 1e-30)
        assert rel.max() < 1e-10

    def test_determinism(self):
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.ones(2), 1.0, 1.0)
        cfg = RunConfig(alpha=0.05, horizon=200, record_stride=10, seed=11)
        a = run_single(p, cfg)
        b = run_single(p, cfg)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.theta_hat, b.theta_hat)

    def test_divergence_flagging(self):
        # alpha far beyond stability: iterates blow past the sentinel
        p = scalar_problem(a=1.0)
        cfg = RunConfig(alpha=3.0, horizon=2000, theta_0=np.array([1.0]), record_stride=100)
        r = run_single(p, cfg)
        assert r.diverged and r.diverged_at is not None
        assert np.isinf(r.sq_err[r.times >= r.diverged_at]).all()

    def test_far_fixed_point_is_not_divergence(self):
        # theta* = 1e155 lies beyond DIVERGENCE_SENTINEL itself; the bound is
        # relative to the problem, so a contracting run is not flagged
        p = scalar_problem(a=1.0, b=1e155)
        cfg = RunConfig(alpha=0.5, horizon=400, record_stride=100)
        r = run_single(p, cfg)
        assert not r.diverged and r.diverged_at is None
        assert r.theta[-1, 0] == pytest.approx(1e155)
        assert np.isfinite(r.sq_err).all()
        assert run_mse(p, cfg).n_diverged.sum() == 0

    def test_complex_data_supported(self):
        from lsalab import hurwitz_to_pd, transform_distribution

        base = make_gaussian_noise(
            np.array([[0.1, 1.0], [0.0, 0.1]]), np.array([1.0, 0.2]), 0.0, 0.3
        )
        tr = hurwitz_to_pd(np.array([[0.1, 1.0], [0.0, 0.1]]))
        p = transform_distribution(base, tr)
        cfg = RunConfig(alpha=0.05, horizon=50, record_stride=10, seed=0)
        r = run_single(p, cfg)
        assert np.iscomplexobj(r.theta_hat)
        assert r.sq_err is not None and np.isfinite(r.sq_err).all()


class TestRunMse:
    def test_single_replication_matches_run_single(self):
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        cfg = RunConfig(alpha=0.1, horizon=100, record_stride=10, n_replications=1, seed=3)
        curve = run_mse(p, cfg)
        single = run_single(p, cfg)
        assert np.allclose(curve.mse, single.sq_err)
        assert np.all(curve.stderr == 0.0)

    def test_deterministic_problem_identical_curves(self):
        p = make_lower_bound_instance(1.0, 2.0, 0.0)
        c1 = run_mse(p, RunConfig(alpha=0.1, horizon=50, record_stride=5, n_replications=1, seed=0),)
        c5 = run_mse(p, RunConfig(alpha=0.1, horizon=50, record_stride=5, n_replications=5, seed=9),)
        assert np.allclose(c1.mse, c5.mse)
        assert np.allclose(c5.stderr, 0.0)

    def test_batching_does_not_change_result(self):
        # each replication draws from its own stream and leaves the live set
        # alone when it diverges, so a batch equals its replications run singly
        p = pm_identity(0.05)
        cfg = RunConfig(alpha=2.0, horizon=720, theta_0=np.array([1.0, 1.0]),
                        record_stride=24, n_replications=12, seed=5)
        theta, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 12))
        assert 0 < (div >= 0).sum() < 12
        for r, rng in enumerate(_replication_rngs(cfg.seed, 12)):
            theta_r, hat_r, div_r = _simulate_block(p, cfg, [rng])
            assert np.array_equal(theta_r[:, 0], theta[:, r])
            assert np.array_equal(hat_r[:, 0], hat[:, r])
            assert div_r[0] == div[r]

    def test_stderr_shrinks_with_replications(self):
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        small = run_mse(p, RunConfig(alpha=0.1, horizon=200, record_stride=200, n_replications=50, seed=1))
        large = run_mse(p, RunConfig(alpha=0.1, horizon=200, record_stride=200, n_replications=800, seed=1))
        assert large.stderr[-1] < small.stderr[-1]

    def test_diverged_replications_counted_and_excluded(self):
        # +-identity at alpha past the almost-sure threshold: every path explodes
        p = pm_identity(0.05)
        cfg = RunConfig(
            alpha=2.5, horizon=3000, theta_0=np.array([1.0, 1.0]),
            record_stride=500, n_replications=20, seed=7,
        )
        curve = run_mse(p, cfg)
        assert curve.n_diverged[-1] == 20
        assert np.isinf(curve.mse[-1])

    def test_overflowed_error_is_inf_not_divergence(self):
        # theta* = 1e155: early errors of a converging run exceed ~1.3e154,
        # so their squares overflow; that reads inf, never NaN or divergence
        p = scalar_problem(a=1.0, b=1e155)
        cfg = RunConfig(alpha=0.5, horizon=400, record_stride=10, n_replications=3)
        curve = run_mse(p, cfg)
        assert curve.mse[0] == np.inf and curve.stderr[0] == np.inf
        assert not np.isnan(curve.mse).any() and not np.isnan(curve.stderr).any()
        assert curve.n_diverged.sum() == 0
        assert np.isfinite(curve.mse[-1]) and curve.stderr[-1] == 0.0
        r = run_single(p, cfg)
        assert r.sq_err[0] == np.inf and not r.diverged
        # at t=20 every squared error is 9.07e307: finite, but their plain sum
        # overflows; the mean is the representable common value
        assert curve.times[1] == 20 and np.isfinite(r.sq_err[1])
        assert curve.mse[1] == r.sq_err[1] and curve.stderr[1] == 0.0

    def test_theta_star_required(self):
        p = pm_identity(0.05)  # theta* = 0 exists, so strip the moments
        import dataclasses

        p2 = dataclasses.replace(p, exact_moments=None, atoms=None)
        with pytest.raises(ValueError, match="theta_star"):
            run_mse(p2, RunConfig(alpha=0.1, horizon=10, record_stride=1))


class TestStatisticalProperties:
    def test_iterate_second_moment_contraction(self):
        # E||theta_t - theta*||^2 stays under the geometric envelope plus the
        # noise floor, with a 5-standard-error allowance
        A = np.array([[1.0, -10.0], [10.0, 1.0]])
        p = make_gaussian_noise(A, A @ np.ones(2), 2.0, 1.0)
        m = p.exact_moments
        alpha = 0.5 * witness_alpha(m)
        rs = rho_s(m, alpha)
        theta0 = np.zeros(2)
        e0 = np.linalg.norm(theta0 - m.theta_star)
        R = 1000
        cfg = RunConfig(alpha=alpha, horizon=400, theta_0=theta0, record_stride=40,
                        n_replications=R, seed=13)
        # per-replication squared iterate errors at recorded times
        theta_snaps, _, _ = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))
        sq = ((theta_snaps - m.theta_star) ** 2).sum(axis=2)
        for i, t in enumerate(cfg.record_times()):
            bound = (
                (1 - alpha * rs) ** t * e0**2
                + alpha * m.sigma1_sq / rs
                + m.sigma2_sq * e0 / rs
            )
            se = sq[i].std(ddof=1) / np.sqrt(R)
            assert sq[i].mean() <= bound + 5 * se

    def test_unstable_gap_grows_mean_square(self):
        # rho_s < 0 shows up as growth of the Monte Carlo mean square
        p = pm_identity(0.05)
        assert rho_s(p.exact_moments, 0.4) == pytest.approx(-0.2)
        cfg = RunConfig(alpha=0.4, horizon=60, theta_0=np.array([1.0, 1.0]),
                        record_stride=30, n_replications=4000, seed=2)
        theta_snaps, _, _ = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 4000))
        sq = (theta_snaps**2).sum(axis=2)
        assert sq[1].mean() > sq[0].mean() > 2.0  # 1.08^30 ~ 10


def reference_block(p, cfg, rngs):
    """One replication at a time, one step at a time: the oracle of ``_simulate_block``.

    Draws in the engine's chunks from each replication's stream and freezes a
    replication at the step that would take it past the divergence bound.
    """
    theta0 = np.zeros(p.dim) if cfg.theta_0 is None else np.asarray(cfg.theta_0, float)
    bound = divergence_bound(p, theta0)
    record = list(cfg.record_times())
    theta_snaps, hat_snaps, diverged_at = [], [], []
    for rng in rngs:
        theta, hat, div = theta0.copy(), theta0.copy(), -1
        thetas, hats = [], []
        t = 0
        while t < cfg.horizon:
            bs, As = p.sample(rng, (min(_SAMPLE_CHUNK, cfg.horizon - t),))
            for b, A in zip(bs, As):
                t += 1
                if div < 0:
                    nxt = theta + cfg.alpha * (b - A @ theta)
                    if np.abs(nxt).max() <= bound:
                        theta = nxt
                        hat = hat + (theta - hat) / (t + 1)
                    else:
                        div = t
                if t in record:
                    thetas.append(theta)
                    hats.append(hat)
        theta_snaps.append(thetas)
        hat_snaps.append(hats)
        diverged_at.append(div)
    return (
        np.array(theta_snaps).transpose(1, 0, 2),
        np.array(hat_snaps).transpose(1, 0, 2),
        np.array(diverged_at),
    )


@st.composite
def finite_runs(draw):
    """A random finite-support problem (d <= 3), a run on it and a sentinel.

    Atoms are A_i = I + 0.6 G_i, so small step-sizes converge and large ones
    diverge; a divergence sentinel drawn down to 10 lets replications of one
    run diverge at different steps within short horizons.  Half the problems
    scatter their intercepts, which draws one normal per step after the atom
    index.
    """
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(k))
    atoms = FiniteAtoms(
        probs=probs / probs.sum(),
        bs=rng.standard_normal((k, d)),
        As=np.eye(d) + 0.6 * rng.standard_normal((k, d, d)),
        b_noise=rng.standard_normal((k, d)) if draw(st.booleans()) else None,
    )
    horizon = draw(st.integers(1, 1200))
    cfg = RunConfig(
        alpha=10 ** draw(st.floats(-2.0, 1.0)),
        horizon=horizon,
        theta_0=rng.standard_normal(d) if draw(st.booleans()) else None,
        record_stride=draw(st.integers(1, horizon)),
        n_replications=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return _finite_problem(atoms, "random"), cfg, 10.0 ** draw(st.integers(1, 150))


class TestAgainstReferenceLoop:
    @settings(max_examples=200, deadline=None)
    @given(finite_runs())
    def test_matches_per_replication_loop(self, run):
        p, cfg, sentinel = run
        R = cfg.n_replications
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            theta, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))
            ref_theta, ref_hat, ref_div = reference_block(p, cfg, _replication_rngs(cfg.seed, R))
        assert np.array_equal(div, ref_div)
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12)
        np.testing.assert_allclose(hat, ref_hat, rtol=1e-12)
