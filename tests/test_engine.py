import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lsalab import (
    RunConfig,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
    rho_s,
    run_mse,
    run_mse_many,
    witness_alpha,
)
from lsalab import engine
from lsalab.cli import FIG1_MEAN
from lsalab.engine import (
    _SAMPLE_CHUNK,
    _advance,
    _dense_direction,
    _replication_rngs,
    _simulate_block,
    divergence_bound,
)
from lsalab.problems import FiniteAtoms, _finite_problem


def scalar_problem(a=1.0, b=0.0):
    return make_finite_support([((np.array([b]), np.array([[a]])), 1.0)])


def pm_identity(eps):
    z, eye = np.zeros(2), np.eye(2)
    return make_finite_support([((z, eye), 0.5 + eps), ((z, -eye), 0.5 - eps)])


def one_replication(p, cfg):
    """Replication 0 of ``run_mse(p, cfg)``, alone.

    Returns its iterate and running-average snapshots, (n_records, d) each,
    its divergence time (-1 when it never diverges) and its ``run_mse``
    curve, whose mse is the replication's squared error.
    """
    cfg = dataclasses.replace(cfg, n_replications=1)
    theta, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 1))
    return theta[:, 0], hat[:, 0], int(div[0]), run_mse(p, cfg)


class TestRunSingle:
    def test_geometric_recursion(self):
        # b=0, A=1, alpha=0.5, theta_0=1: theta_t = 0.5^t
        p = scalar_problem()
        cfg = RunConfig(alpha=0.5, horizon=4, theta_0=np.array([1.0]), record_stride=1)
        theta, hat, div, _ = one_replication(p, cfg)
        assert np.allclose(theta[:, 0], [0.5, 0.25, 0.125, 0.0625])
        assert hat[1, 0] == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert div == -1

    def test_averaged_closed_form_on_diagonal_family(self):
        # noiseless: hat components follow (1/(t+1)) (alpha*lam)^{-1} (1-(1-alpha*lam)^{t+1}) theta_0
        p = make_lower_bound_instance(1.0, 2.0, 0.0)
        cfg = RunConfig(alpha=0.1, horizon=10, theta_0=np.array([1.0, 1.0]), record_stride=1)
        _, hat, _, _ = one_replication(p, cfg)
        t = 10
        for i, lam in enumerate([1.0, 2.0]):
            expect = (1 / (t + 1)) * (1 / (0.1 * lam)) * (1 - (1 - 0.1 * lam) ** (t + 1))
            assert abs(hat[-1, i] - expect) < 1e-10

    def test_average_identity_matches_batch_mean(self):
        # incremental average equals the batch mean of recorded iterates
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.ones(2), 1.0, 1.0)
        cfg = RunConfig(alpha=0.05, horizon=300, theta_0=None, record_stride=1, seed=4)
        theta, hat, _, _ = one_replication(p, cfg)
        batch = np.cumsum(np.vstack([np.zeros(2), theta]), axis=0)[1:]
        counts = np.arange(2, 302)[:, None]  # theta_0 contributes too
        batch = (batch + 0.0) / counts  # mean over theta_0..theta_t with theta_0 = 0
        rel = np.abs(hat - batch) / np.maximum(np.abs(batch), 1e-30)
        assert rel.max() < 1e-10

    def test_determinism(self):
        p = make_gaussian_noise(np.diag([1.0, 2.0]), np.ones(2), 1.0, 1.0)
        cfg = RunConfig(alpha=0.05, horizon=200, record_stride=10, seed=11)
        theta_a, hat_a, _, curve_a = one_replication(p, cfg)
        theta_b, hat_b, _, curve_b = one_replication(p, cfg)
        assert np.array_equal(theta_a, theta_b)
        assert np.array_equal(hat_a, hat_b)
        assert np.array_equal(curve_a.mse, curve_b.mse)

    def test_divergence_flagging(self):
        # alpha far beyond stability: theta_t = (-2)^t passes the bound 1e150
        # at step 499 (2^498 < 1e150 < 2^499)
        p = scalar_problem(a=1.0)
        cfg = RunConfig(alpha=3.0, horizon=2000, theta_0=np.array([1.0]), record_stride=100)
        theta, _, div, curve = one_replication(p, cfg)
        assert div == 499
        assert theta[-1, 0] == (-2.0) ** 498  # frozen before the diverging step
        after = curve.times >= div
        assert np.array_equal(curve.n_diverged, after.astype(np.int64))
        assert np.isinf(curve.mse[after]).all() and np.isfinite(curve.mse[~after]).all()

    def test_far_fixed_point_is_not_divergence(self):
        # theta* = 1e155 lies beyond DIVERGENCE_SENTINEL itself; the bound is
        # relative to the problem, so a contracting run is not flagged
        p = scalar_problem(a=1.0, b=1e155)
        cfg = RunConfig(alpha=0.5, horizon=400, record_stride=100)
        theta, _, div, curve = one_replication(p, cfg)
        assert div == -1
        assert theta[-1, 0] == pytest.approx(1e155)
        assert np.isfinite(curve.mse).all()
        assert run_mse(p, cfg).n_diverged.sum() == 0

    def test_complex_data_supported(self):
        from lsalab import hurwitz_to_pd, transform_distribution

        base = make_gaussian_noise(
            np.array([[0.1, 1.0], [0.0, 0.1]]), np.array([1.0, 0.2]), 0.0, 0.3
        )
        tr = hurwitz_to_pd(np.array([[0.1, 1.0], [0.0, 0.1]]))
        p = transform_distribution(base, tr)
        cfg = RunConfig(alpha=0.05, horizon=50, record_stride=10, seed=0)
        _, hat, div, curve = one_replication(p, cfg)
        assert np.iscomplexobj(hat) and div == -1
        assert np.isfinite(curve.mse).all()


class TestAdvance:
    """The kernel's divergence rule: at the first step that would take some
    rows past the bound, only the other rows take it."""

    BOUND = 1e3

    def draws(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal((5, 2, 2))
        A = np.eye(2) + 0.3 * rng.standard_normal((5, 2, 2, 2))
        A[2, 1] = -1e6 * np.eye(2)  # row 1 passes the bound at step 2
        return b, A

    @pytest.mark.parametrize("columns", [False, True], ids=["numbers", "columns"])
    def test_crossing_row_holds_and_the_other_steps(self, columns):
        draws = self.draws()
        direction = _dense_direction
        theta = np.array([[1.0, -1.0], [0.5, 2.0]])
        hat = np.array([[0.8, -0.6], [0.4, 1.5]])
        alpha, n = (np.array([[0.1], [0.2]]), np.array([[3], [7]])) if columns else (0.1, 3)
        before = theta.copy(), hat.copy()

        th, h, k, bad = _advance(theta, hat, n, draws, direction, alpha, self.BOUND)
        assert k == 3
        assert bad.tolist() == [False, True]
        assert theta.tobytes() == before[0].tobytes() and hat.tobytes() == before[1].tobytes()

        # row 1 holds its state from before step 2
        th2, h2, k2, bad2 = _advance(
            theta, hat, n, tuple(x[:2] for x in draws), direction, alpha, self.BOUND
        )
        assert (k2, bad2) == (2, None)
        assert th[1].tobytes() == th2[1].tobytes()
        assert h[1].tobytes() == h2[1].tobytes()

        # row 0 takes step 2, bit for bit as it would alone
        th0, h0, k0, bad0 = _advance(
            theta[:1], hat[:1], 3, tuple(x[:3, :1] for x in draws), direction, 0.1, self.BOUND
        )
        assert (k0, bad0) == (3, None)
        assert th[0].tobytes() == th0[0].tobytes()
        assert h[0].tobytes() == h0[0].tobytes()


class TestRunMse:
    def test_single_replication_matches_run_single(self):
        # at one replication the curve is that trajectory's squared error
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        cfg = RunConfig(alpha=0.1, horizon=100, record_stride=10, n_replications=1, seed=3)
        curve = run_mse(p, cfg)
        _, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 1))
        assert div[0] == -1
        sq = (np.abs(hat[:, 0] - p.exact_moments.theta_star) ** 2).sum(axis=-1)
        assert np.array_equal(curve.mse, sq)
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
        _, _, div, one = one_replication(p, cfg)
        assert one.mse[0] == np.inf and div == -1 and one.n_diverged.sum() == 0
        # at t=20 every squared error is 9.07e307: finite, but their plain sum
        # overflows; the mean is the representable common value
        assert curve.times[1] == 20 and np.isfinite(one.mse[1])
        assert curve.mse[1] == one.mse[1] and curve.stderr[1] == 0.0

    def test_theta_star_required(self):
        p = pm_identity(0.05)  # theta* = 0 exists, so strip the moments
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

    @pytest.mark.parametrize(
        "form, sigma_b", [("matrix-free", 1.0), ("matrix-free", 0.0), ("dense", 1.0)]
    )
    def test_iterate_error_matches_exact_second_moment(self, form, sigma_b):
        # e_t = theta_t - theta* = M e_{t-1} + alpha (xi_t - N_t theta_{t-1}),
        # M = I - alpha A_P, so m_t = E e_t and P_t = E e_t e_t^T follow
        #   m_t = M m_{t-1},
        #   P_t = M P_{t-1} M^T
        #         + alpha^2 (s_A^2 E||theta_{t-1}||^2 + s_b^2) I,
        # with E||theta||^2 = tr P + 2 m.theta* + ||theta*||^2 and s_A, s_b
        # the entry scales of the matrix and intercept noise.  At this alpha
        # and horizon a 5% error in the noise scale gives |z| above 8.
        d, alpha, R, H = 2, 0.01, 4000, 1000
        p = make_gaussian_noise(FIG1_MEAN, FIG1_MEAN @ np.ones(d), 5.0, sigma_b)
        if form == "dense":
            p = dataclasses.replace(p, step_form=None)
        m = p.exact_moments
        sA_sq = np.trace(m.C_P - m.A_P.T @ m.A_P) / d**2
        sb_sq = sigma_b**2 / d
        ts = m.theta_star
        M = np.eye(d) - alpha * m.A_P
        mean = -ts  # theta_0 = 0
        P = np.outer(mean, mean)
        exact = [np.trace(P)]
        for _ in range(H):
            q = sA_sq * (np.trace(P) + 2 * mean @ ts + ts @ ts) + sb_sq
            mean, P = M @ mean, M @ P @ M.T + alpha**2 * q * np.eye(d)
            exact.append(np.trace(P))
        cfg = RunConfig(alpha=alpha, horizon=H, record_stride=50, n_replications=R, seed=17)
        theta_snaps, _, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))
        assert (div < 0).all()
        sq = ((theta_snaps - ts) ** 2).sum(axis=2)
        z = (sq.mean(axis=1) - np.array(exact)[cfg.record_times()]) / (
            sq.std(axis=1, ddof=1) / np.sqrt(R)
        )
        assert np.abs(z).max() <= 5

    def test_unstable_gap_grows_mean_square(self):
        # rho_s < 0 shows up as growth of the Monte Carlo mean square
        p = pm_identity(0.05)
        assert rho_s(p.exact_moments, 0.4) == pytest.approx(-0.2)
        cfg = RunConfig(alpha=0.4, horizon=60, theta_0=np.array([1.0, 1.0]),
                        record_stride=30, n_replications=4000, seed=2)
        theta_snaps, _, _ = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 4000))
        sq = (theta_snaps**2).sum(axis=2)
        assert sq[1].mean() > sq[0].mean() > 2.0  # 1.08^30 ~ 10


class TestGaussianStepForm:
    # sigma_A = 2 at alpha = 1 with the sentinel patched to 100: replications
    # pass the bound at scattered times, some before the horizon, some not.
    # A_P is not diagonal, so computing A_P theta with one gemm over the
    # batch would round differently at d = 5 and d = 32.  At sigma_A = 0
    # the noise array is zeros and the step equals that of ``sample``; alpha
    # = 2.05 puts the eigenvalue of I - alpha A_P at -1.05, so intercept noise
    # scatters the divergence times and the noise-free rows diverge at once.
    @pytest.mark.parametrize(
        "d, sigma_A, sigma_b, alpha, horizon",
        [(2, 2.0, 0.0, 1.0, 40), (5, 2.0, 0.5, 1.0, 40), (32, 2.0, 0.5, 1.0, 70),
         (2, 0.0, 0.0, 2.05, 80), (2, 0.0, 0.5, 2.05, 40)],
        ids=["2-0.0-40", "5-0.5-40", "32-0.5-70", "no-matrix-noise-2-0.0-80",
             "no-matrix-noise-2-0.5-40"],
    )
    def test_batching_does_not_change_result(self, d, sigma_A, sigma_b, alpha, horizon):
        A_P = np.eye(d) + np.triu(np.full((d, d), 0.5 / d), 1)
        p = make_gaussian_noise(A_P, np.ones(d), sigma_A, sigma_b)
        cfg = RunConfig(alpha=alpha, horizon=horizon, record_stride=5, n_replications=12, seed=5)
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", 100):
            theta, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 12))
            if sigma_A or sigma_b:
                assert 0 < (div >= 0).sum() < 12
            else:
                assert div[0] > 0 and (div == div[0]).all()
            for r, rng in enumerate(_replication_rngs(cfg.seed, 12)):
                theta_r, hat_r, div_r = _simulate_block(p, cfg, [rng])
                assert np.array_equal(theta_r[:, 0], theta[:, r])
                assert np.array_equal(hat_r[:, 0], hat[:, r])
                assert div_r[0] == div[r]
            if not sigma_A:
                ref_theta, ref_hat, ref_div = reference_block(p, cfg, _replication_rngs(cfg.seed, 12))
                assert np.array_equal(ref_theta, theta)
                assert np.array_equal(ref_hat, hat)
                assert np.array_equal(ref_div, div)

    def test_key_names_the_direction(self):
        # the key holds A_P, and b_P only when b is fixed; not the noise levels
        A, b = FIG1_MEAN, np.ones(2)

        def key(*args):
            return make_gaussian_noise(*args).step_form.key

        assert key(A, b, 0.0, 0.0) == key(A, b, 2.0, 0.0) != key(A, 2 * b, 2.0, 0.0)
        assert key(A, b, 0.0, 0.5) == key(A, 2 * b, 2.0, 1.0) != key(A, b, 2.0, 0.0)
        assert key(A, b, 2.0, 0.5) != key(2 * A, b, 2.0, 0.5)

    def test_runs_never_call_sample(self):
        def no_draws(rng, shape=()):
            raise AssertionError("the engine drew dense (b, A) samples")

        for sigma_A in (0.0, 1.0):
            base = make_gaussian_noise(np.diag([1.0, 2.0, 3.0]), np.ones(3), sigma_A, 0.5)
            p = dataclasses.replace(base, sample=no_draws)
            cfg = RunConfig(alpha=0.1, horizon=600, record_stride=50, n_replications=3, seed=2)
            assert np.isfinite(run_mse(p, cfg).mse).all()
            theta, _, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, 1))
            assert np.isfinite(theta).all() and div[0] == -1

    def test_far_fixed_point_is_not_divergence(self):
        # ||theta||^2 overflows near theta* = 1e155, well within the
        # divergence bound; the norm in the step must stay finite there
        p = make_gaussian_noise(np.eye(2), np.full(2, 1e155), 0.1, 0.0)
        cfg = RunConfig(alpha=0.5, horizon=400, record_stride=100, n_replications=3)
        _, hat, div, _ = one_replication(p, cfg)
        assert div == -1
        assert hat[-1] == pytest.approx(np.full(2, 1e155), rel=0.05)
        assert run_mse(p, cfg).n_diverged.sum() == 0


def reference_block(p, cfg, rngs):
    """One replication at a time, one step at a time: the oracle of ``_simulate_block``.

    Draws in the engine's chunks from each replication's stream and freezes a
    replication at the step that would take it past the divergence bound.
    """
    theta0 = np.zeros(p.dim) if cfg.theta_0 is None else np.asarray(cfg.theta_0, float)
    bound = divergence_bound(p, theta0)
    record = set(cfg.record_times().tolist())
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


def row_peaks(p, cfg):
    """Largest |theta_t|_inf of each replication up to the horizon, by the reference
    loop; inf for a replication that passes the 1e300 cap of the bound."""
    with mock.patch.object(engine, "DIVERGENCE_SENTINEL", np.inf):
        theta, _, div = reference_block(
            p, dataclasses.replace(cfg, record_stride=1), _replication_rngs(cfg.seed, cfg.n_replications)
        )
    return np.where(div < 0, np.abs(theta).max(axis=(0, 2)), np.inf)


@st.composite
def finite_runs(draw):
    """A random finite-support problem (d <= 3), a run on it and a sentinel.

    Atoms are A_i = I + 0.6 G_i, so small step-sizes converge and large ones
    diverge.  Half the problems scatter their intercepts, which draws one
    normal per step after the atom index.  The sentinel is drawn from 10 to
    1e150, or, in about three quarters of the examples (then with at least
    two replications), aimed between the peaks of two replications, found
    by the reference loop without a bound, so that some replications of the
    run diverge and the others do not.
    """
    aimed = draw(st.integers(0, 3)) > 0  # the sentinel goes between two peaks
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
        n_replications=draw(st.integers(2 if aimed else 1, 6)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    p = _finite_problem(atoms, "random")
    sentinel = 10.0 ** draw(st.integers(1, 150))
    if aimed:
        peaks = np.unique(row_peaks(p, cfg))
        gaps = [(a, b) for a, b in zip(peaks, peaks[1:]) if 0 < a < 1e299 and b > (1 + 1e-9) * a]
        if gaps:
            a, b = gaps[draw(st.integers(0, len(gaps) - 1))]
            with mock.patch.object(engine, "DIVERGENCE_SENTINEL", 1.0):
                scale = divergence_bound(p, np.zeros(d) if cfg.theta_0 is None else cfg.theta_0)
            sentinel = min(np.sqrt(a) * np.sqrt(b), 2 * a) / scale
    return p, cfg, sentinel


#: the run the property test always includes: replications 0-3 diverge, in
#: the second draw chunk, and 4-5 do not
PARTIAL_DIVERGENCE = (
    pm_identity(0.05),
    RunConfig(alpha=2.0, horizon=720, theta_0=np.ones(2), record_stride=24, n_replications=6, seed=5),
    1e150,
)


class TestAgainstReferenceLoop:
    def test_example_covers_partial_divergence_past_a_chunk(self):
        p, cfg, sentinel = PARTIAL_DIVERGENCE
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            _, _, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, cfg.n_replications))
        assert 0 < (div >= 0).sum() < len(div)
        assert (div[div >= 0] > _SAMPLE_CHUNK).all()

    @settings(max_examples=200, deadline=None)
    @given(finite_runs())
    @example(PARTIAL_DIVERGENCE)
    def test_matches_per_replication_loop(self, run):
        p, cfg, sentinel = run
        R = cfg.n_replications
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            theta, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))
            ref_theta, ref_hat, ref_div = reference_block(p, cfg, _replication_rngs(cfg.seed, R))
        assert np.array_equal(div, ref_div)
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12)
        np.testing.assert_allclose(hat, ref_hat, rtol=1e-12)


@st.composite
def finite_batches(draw):
    """Random finite-support runs that may share one batch, and a sentinel.

    The runs share d, horizon, record stride and theta_0; their intercepts
    are scaled so that ||theta*||_inf <= 1/2, which gives every run the
    divergence bound of theta_0.  Each run has its own atoms, alpha (all
    equal in some batches), replication count and seed.  Atoms
    A_i = I + 1.2 G_i spread the rows' growth rates (twice the spread of
    ``finite_runs``), so that with a sentinel drawn down to 10 rows leave the
    batch at different steps in about a third of the batches.
    """
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = draw(st.integers(1, 600))
    stride = draw(st.integers(1, horizon))
    theta_0 = rng.standard_normal(d) if draw(st.booleans()) else None
    n_runs = draw(st.integers(1, 4))
    shared_alpha = 10 ** draw(st.floats(-1.5, 0.5)) if draw(st.booleans()) else None
    problems, cfgs = [], []
    for _ in range(n_runs):
        k = draw(st.integers(1, 4))
        probs = rng.dirichlet(np.ones(k))
        atoms = FiniteAtoms(
            probs=probs / probs.sum(),
            bs=rng.standard_normal((k, d)),
            As=np.eye(d) + 1.2 * rng.standard_normal((k, d, d)),
            b_noise=rng.standard_normal((k, d)) if draw(st.booleans()) else None,
        )
        theta_star = _finite_problem(atoms, "random").exact_moments.theta_star
        assume(theta_star is not None)
        scale = max(1.0, 2 * np.abs(theta_star).max())
        problems.append(_finite_problem(dataclasses.replace(atoms, bs=atoms.bs / scale), "random"))
        cfgs.append(RunConfig(
            alpha=shared_alpha or 10 ** draw(st.floats(-1.5, 0.5)),
            horizon=horizon,
            theta_0=theta_0,
            record_stride=stride,
            n_replications=draw(st.integers(1, 5)),
            seed=draw(st.integers(0, 2**32 - 1)),
        ))
    return problems, cfgs, 10.0 ** draw(st.integers(1, 30))


class TestRunMseMany:
    @settings(max_examples=100, deadline=None)
    @given(finite_batches())
    def test_matches_one_run_mse_per_run(self, batch):
        problems, cfgs, sentinel = batch
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            curves = run_mse_many(problems, cfgs)
            assert len(curves) == len(problems)
            for p, cfg, curve in zip(problems, cfgs, curves):
                alone = run_mse(p, cfg)
                assert curve.n_replications == alone.n_replications
                for name in ("times", "mse", "stderr", "n_diverged"):
                    np.testing.assert_array_equal(getattr(curve, name), getattr(alone, name))

    def test_runs_that_cannot_share_a_batch_raise(self):
        p = pm_identity(0.05)  # dense, theta* = 0
        cfg = RunConfig(alpha=0.1, horizon=50, record_stride=5)
        gaussian = make_gaussian_noise(np.eye(2), np.zeros(2), 0.5, 0.0)
        far = make_finite_support([((np.array([5.0, 0.0]), np.eye(2)), 1.0)])  # theta* = (5, 0)
        complex_p = make_finite_support([((np.zeros(2, complex), np.eye(2, dtype=complex)), 1.0)])
        cases = [
            ([p, gaussian], [cfg, cfg], "step-form key"),
            ([p, p], [cfg, dataclasses.replace(cfg, horizon=60)], "horizon"),
            ([p, p], [cfg, dataclasses.replace(cfg, record_stride=10)], "record stride"),
            ([p, p], [cfg, dataclasses.replace(cfg, theta_0=np.ones(2))], "theta_0"),
            ([p, far], [cfg, cfg], "divergence bound"),
            ([p, complex_p], [cfg, cfg], "dtype"),
            ([], [], "at least one run"),
        ]
        for problems, cfgs, match in cases:
            with pytest.raises(ValueError, match=match):
                run_mse_many(problems, cfgs)
        # what the runs may differ in: alpha, seed, replications, noise level
        quiet = make_gaussian_noise(np.eye(2), np.zeros(2), 0.0, 0.0)
        other = dataclasses.replace(cfg, alpha=0.2, seed=3, n_replications=4)
        assert len(run_mse_many([gaussian, quiet], [cfg, other])) == 2


def reference_mse_curve(times, hat, div, theta_star):
    """``engine._mse_curve`` as a reduction per record, the reference the
    batched aggregation must match bit for bit."""
    R = len(div)
    sq = engine._sq_err(hat, theta_star)
    valid = ~((div[None, :] >= 0) & (div[None, :] <= times[:, None]))
    mse = np.full(len(times), np.inf)
    stderr = np.zeros(len(times))
    with np.errstate(over="ignore"):
        for i in range(len(times)):
            vals = sq[i, valid[i]]
            if not len(vals):
                continue
            scale = 1.0
            mse[i] = vals.mean()
            if not np.isfinite(mse[i]):
                if not np.isfinite(vals).all():
                    stderr[i] = np.inf
                    continue
                scale = vals.max()
                vals = vals / scale
                mse[i] = scale * vals.mean()
            if len(vals) > 1:
                stderr[i] = scale * (vals.std(ddof=1) / np.sqrt(len(vals)))
    return mse, stderr, R - valid.sum(axis=1)


class TestMseCurveAggregation:
    @pytest.mark.parametrize(
        "p, cfg, sentinel",
        [
            PARTIAL_DIVERGENCE,
            # every replication diverges, at different records
            (pm_identity(0.05), RunConfig(
                alpha=2.5, horizon=3000, theta_0=np.ones(2), record_stride=500,
                n_replications=20, seed=7), 1e150),
            # overflowed squared errors (t=10), an overflowing sum of finite
            # ones (t=20), then finite records
            (scalar_problem(a=1.0, b=1e155), RunConfig(
                alpha=0.5, horizon=400, record_stride=10, n_replications=3), 1e150),
            # one replication, and a Gaussian run with every record finite
            (scalar_problem(a=1.0, b=1.0), RunConfig(
                alpha=0.5, horizon=50, record_stride=5, n_replications=1), 1e150),
            (make_gaussian_noise(FIG1_MEAN, FIG1_MEAN @ np.ones(2), 5.0, 0.5), RunConfig(
                alpha=0.005, horizon=600, record_stride=25, n_replications=40, seed=3), 1e150),
        ],
        ids=["partial-divergence", "all-diverge", "overflow", "one-replication", "gaussian"],
    )
    def test_matches_per_record_reduction(self, p, cfg, sentinel):
        R = cfg.n_replications
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            _, hat, div = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))
        times, theta_star = cfg.record_times(), p.exact_moments.theta_star
        curve = engine._mse_curve(times, hat, div, theta_star)
        mse, stderr, n_div = reference_mse_curve(times, hat, div, theta_star)
        assert curve.mse.tobytes() == mse.tobytes()
        assert curve.stderr.tobytes() == stderr.tobytes()
        assert np.array_equal(curve.n_diverged, n_div)
