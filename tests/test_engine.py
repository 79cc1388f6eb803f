import dataclasses
import math
import tracemalloc
from pathlib import Path
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
from lsalab.cli import FIG1_MEAN, FIG1_SIGMAS, FIG1_STRIDE, make_fig1_problem
from lsalab.engine import (
    _CHECK_EVERY,
    _SAMPLE_CHUNK,
    _advance,
    _replication_rngs,
    _simulate_runs,
    divergence_bound,
)
from lsalab.problem_io import load_problem_file
from lsalab.problems import FiniteAtoms, StepForm, _finite_problem, _mean_specnorm_sq_standard
from lsalab.transform import transform_distribution, transform_problem
from oracles import exact_mse_gaussian

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"


def scalar_problem(a=1.0, b=0.0):
    return make_finite_support([((np.array([b]), np.array([[a]])), 1.0)])


def pm_identity(eps):
    z, eye = np.zeros(2), np.eye(2)
    return make_finite_support([((z, eye), 0.5 + eps), ((z, -eye), 0.5 - eps)])


def gemv_direction(draws, s, theta):
    """b_s - A_s theta for dense draws b (S, R, d) and A (S, R, d, d), by one
    gemv per row, as the finite step form applies its atoms."""
    b, A = draws
    return b[s] - np.matmul(A[s], theta[..., None])[..., 0]


def dense_form(p):
    """p stepping through the dense (b, A) draws of ``p.sample``, applied by
    ``gemv_direction``: the reference its own step form must match in law
    (Gaussian) or in bits (finite support)."""
    form = StepForm(lambda rng, n: p.sample(rng, (n,)), gemv_direction, "dense")
    return dataclasses.replace(p, step_form=form)


def one_replication(p, cfg):
    """Replication 0 of ``run_mse(p, cfg)``, alone.

    Returns its iterate and running-average snapshots, (n_records, d) each,
    its divergence time (-1 when it never diverges) and its ``run_mse``
    curve, whose mse is the replication's squared error.
    """
    cfg = dataclasses.replace(cfg, n_replications=1)
    theta, hat, div = _simulate_runs([p], [cfg], [_replication_rngs(cfg.seed, 1)], keep_theta=True)
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

        # a Jordan-block mean takes the complex Schur route; the intercepts
        # scatter by +-0.3 around (1, 0.2)
        J = np.array([[0.1, 1.0], [0.0, 0.1]])
        base = make_finite_support(
            [((np.array([1.3, 0.2]), J), 0.5), ((np.array([0.7, 0.2]), J), 0.5)]
        )
        p = transform_distribution(base, hurwitz_to_pd(J))
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
        direction = gemv_direction
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

    def stepwise(self, theta, hat, n, draws, alpha):
        """``_advance`` one step per call: the per-step divergence rule."""
        for s in range(len(draws[0])):
            one = tuple(x[s : s + 1] for x in draws)
            theta, hat, k, bad = _advance(theta, hat, n + s, one, gemv_direction, alpha, self.BOUND)
            if bad is not None:
                return theta, hat, s + 1, bad
        return theta, hat, len(draws[0]), None

    @staticmethod
    def crossing(at, row):
        def edit(b, A):
            A[at, row] = -1e6 * np.eye(2)
        return edit

    @staticmethod
    def turns_nan(b, A):
        # row 0 stays at theta_1 = 1 until step 3, where b - A theta = inf - inf
        A[:3, 0], b[:3, 0] = np.eye(2), 1.0
        A[3, 0], b[3, 0] = [[np.inf, 0.0], [0.0, 1.0]], [np.inf, 0.0]

    @staticmethod
    def comes_back(b, A):
        # row 2 passes the bound at step 2; alpha A = I at step 3 brings it to alpha b
        A[2, 2], A[3, 2] = -1e6 * np.eye(2), 10 * np.eye(2)

    CASES = {
        "crossing at step 0": (5, crossing(0, 1)),
        "crossing at a buffer's last step": (_CHECK_EVERY + 8, crossing(_CHECK_EVERY - 1, 0)),
        "crossing at the segment's last step": (_CHECK_EVERY, crossing(_CHECK_EVERY - 1, 2)),
        "a row turns NaN": (6, turns_nan),
        "a row passes the bound and comes back": (8, comes_back),
        "longer than the buffer": (3 * _CHECK_EVERY + 5, lambda b, A: None),
        "crossing in the third buffer": (3 * _CHECK_EVERY + 5, crossing(2 * _CHECK_EVERY + 3, 1)),
    }

    @pytest.mark.parametrize("columns", [False, True], ids=["numbers", "columns"])
    @pytest.mark.parametrize("case", CASES)
    def test_block_check_matches_stepwise(self, case, columns):
        steps, edit = self.CASES[case]
        rng = np.random.default_rng(9)
        b = rng.standard_normal((steps, 3, 2))
        A = np.eye(2) + 0.3 * rng.standard_normal((steps, 3, 2, 2))
        edit(b, A)
        theta = np.array([[1.0, -1.0], [0.5, 2.0], [-0.3, 0.7]])
        hat = np.array([[0.8, -0.6], [0.4, 1.5], [0.1, 0.2]])
        alpha, n = (np.array([[0.1], [0.1], [0.1]]), np.array([[3], [7], [0]])) if columns else (0.1, 3)
        before = theta.tobytes(), hat.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            got = _advance(theta, hat, n, (b, A), gemv_direction, alpha, self.BOUND)
            want = self.stepwise(theta, hat, n, (b, A), alpha)
        assert (theta.tobytes(), hat.tobytes()) == before
        assert got[2] == want[2]
        assert (got[3] is None) == (want[3] is None)
        if want[3] is not None:
            assert got[3].tolist() == want[3].tolist()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        if case == "a row turns NaN":
            assert (want[2], want[3].tolist()) == (4, [True, False, False])
            with np.errstate(invalid="ignore"):
                step = gemv_direction((b, A), 3, want[0])
            assert np.isnan(step[0, 0])
        if case == "a row passes the bound and comes back":
            assert (want[2], want[3].tolist()) == (3, [False, False, True])

    def test_buffers_do_not_grow_with_the_stride(self):
        # one 512-step segment at stride == horizon steps through (32, R, d)
        # iterate buffers, as a 16-step stride does through (16, R, d) ones;
        # a buffer as long as the segment, and the magnitudes tested on it,
        # would add two (512, R, d) arrays, 9.8 MB
        R, d, horizon = 200, 6, 512
        p = make_gaussian_noise(np.eye(d), np.ones(d), 0.5, 0.0)
        cfg = RunConfig(alpha=0.01, horizon=horizon, record_stride=horizon, n_replications=R)
        run_mse(p, dataclasses.replace(cfg, horizon=32, record_stride=32))  # warm caches
        peaks = {}
        for stride in (16, horizon):
            tracemalloc.start()
            try:
                run_mse(p, dataclasses.replace(cfg, record_stride=stride))
                peaks[stride] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capped = 3 * _CHECK_EVERY * R * d * 8  # two buffers and the magnitudes of one
        assert peaks[horizon] <= peaks[16] + capped

    def test_crossings_cost_few_dropped_steps(self):
        # 200 rows leave at ~100 distinct steps from 627 to 792; the kernel drops
        # what it stepped past each crossing, and the engine's span restarts
        # at one step after it, so the steps stepped stay within twice those
        # kept (with no restart, each crossing would step the rest of a buffer)
        z, eye = np.zeros(2), np.eye(2)
        p = make_finite_support([((z, eye), 0.55), ((z, -eye), 0.45)])
        calls = []

        def direction(draws, s, theta):
            calls.append(s)
            return p.step_form.direction(draws, s, theta)

        counted = dataclasses.replace(p, step_form=dataclasses.replace(p.step_form, direction=direction))
        cfg = RunConfig(alpha=2.0, horizon=2000, theta_0=np.ones(2), record_stride=500,
                        n_replications=200, seed=5)
        _, _, div = _simulate_runs(
            [counted], [cfg], [_replication_rngs(cfg.seed, 200)], keep_theta=True
        )
        assert (div > 0).all() and len(set(div.tolist())) > 50
        assert len(calls) <= 2 * div.max()


class TestRunMse:
    def test_single_replication_matches_run_single(self):
        # at one replication the curve is that trajectory's squared error
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        cfg = RunConfig(alpha=0.1, horizon=100, record_stride=10, n_replications=1, seed=3)
        curve = run_mse(p, cfg)
        _, hat, div = _simulate_runs([p], [cfg], [_replication_rngs(cfg.seed, 1)], keep_theta=True)
        assert div[0] == -1
        sq = (np.abs(hat[:, 0] - p.exact_moments.theta_star) ** 2).sum(axis=-1)
        assert np.array_equal(curve.mse, sq)
        assert np.all(curve.stderr == 0.0)

    def test_deterministic_problem_identical_curves(self):
        p = make_lower_bound_instance(1.0, 2.0, 0.0)
        c1 = run_mse(p, RunConfig(alpha=0.1, horizon=50, record_stride=5, n_replications=1, seed=0),)
        c5 = run_mse(p, RunConfig(alpha=0.1, horizon=50, record_stride=5, n_replications=5, seed=9),)
        assert np.array_equal(c1.mse, c5.mse)
        assert np.all(c5.stderr == 0.0)

    def test_batching_does_not_change_result(self):
        # each replication draws from its own stream and leaves the live set
        # alone when it diverges, so a batch equals its replications run singly
        p = pm_identity(0.05)
        cfg = RunConfig(alpha=2.0, horizon=720, theta_0=np.array([1.0, 1.0]),
                        record_stride=24, n_replications=12, seed=5)
        theta, hat, div = _simulate_runs(
            [p], [cfg], [_replication_rngs(cfg.seed, 12)], keep_theta=True
        )
        assert 0 < (div >= 0).sum() < 12
        for r, rng in enumerate(_replication_rngs(cfg.seed, 12)):
            theta_r, hat_r, div_r = _simulate_runs([p], [cfg], [[rng]], keep_theta=True)
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
        p = make_gaussian_noise([[1.0, 1.0], [1.0, 1.0]], [1.0, 0.0], 0.5, 0.0)  # singular mean
        assert p.exact_moments.theta_star is None
        with pytest.raises(ValueError, match=r"no fixed point \(singular mean matrix\)"):
            run_mse(p, RunConfig(alpha=0.1, horizon=10, record_stride=1))

    def test_exact_moments_required(self):
        with pytest.raises(TypeError, match="exact_moments must be a Moments"):
            dataclasses.replace(pm_identity(0.05), exact_moments=None)

    def test_step_form_required(self):
        for p in (pm_identity(0.05), make_gaussian_noise(np.eye(2), np.ones(2), 0.5, 0.0)):
            with pytest.raises(TypeError, match="step_form must be a StepForm"):
                dataclasses.replace(p, step_form=None)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, np.nan, np.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            RunConfig(alpha=alpha, horizon=10)

    @pytest.mark.parametrize(
        "name, value", [("horizon", 10.5), ("record_stride", 2.5), ("n_replications", 3.0)]
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            RunConfig(alpha=0.1, **{"horizon": 10, "record_stride": 2, name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"horizon": 0, "record_stride": 1}, "horizon=0 must be at least 1"),
        ({"record_stride": 0}, "record_stride=0 must be at least 1"),
        ({"record_stride": 60}, "record_stride=60 must not exceed horizon=50"),
        ({"n_replications": -2}, "n_replications=-2 must be at least 1"),
    ])
    def test_counts_out_of_range_name_their_value_and_bound(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(alpha=0.1, **{"horizon": 50, **kwargs})

    @pytest.mark.parametrize("seed", [1.5, 2.0, -1, True, [1, 2], "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RunConfig(alpha=0.1, horizon=100, seed=seed)
        assert RunConfig(alpha=0.1, horizon=100, seed=np.uint32(7)).seed == 7

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_theta_0_must_be_finite(self, bad):
        cfg = RunConfig(alpha=0.1, horizon=10, theta_0=np.array([bad, 0.0]), record_stride=5)
        with pytest.raises(ValueError, match="theta_0 must be finite"):
            run_mse(pm_identity(0.05), cfg)


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
        theta_snaps, _, _ = _simulate_runs(
            [p], [cfg], [_replication_rngs(cfg.seed, R)], keep_theta=True
        )
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
            p = dense_form(p)
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
        theta_snaps, _, div = _simulate_runs(
            [p], [cfg], [_replication_rngs(cfg.seed, R)], keep_theta=True
        )
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
        theta_snaps, _, _ = _simulate_runs(
            [p], [cfg], [_replication_rngs(cfg.seed, 4000)], keep_theta=True
        )
        sq = (theta_snaps**2).sum(axis=2)
        assert sq[1].mean() > sq[0].mean() > 2.0  # 1.08^30 ~ 10


def no_draws(rng, shape=()):
    raise AssertionError("the engine drew dense (b, A) samples")


def assert_direction_matches_gemv(rng, d, exponent, ulps):
    """The Gaussian direction of 50 random problems, 40 states each, against
    gemv rows and a ``math.hypot`` norm: within ``ulps`` ulps of the size of
    the terms it sums.  Half the problems have sigma_b = 0, whose direction
    is b_P - A_P theta - ||theta|| z, of size |b_P| + |A_P||theta| +
    ||theta|| |z|.  The others have sigma_b > 0, whose direction is
    (b_P + hypot(s_b, s ||theta||) z) - A_P theta, of size |b_P| +
    hypot(s_b, s ||theta||) |z| + |A_P||theta|; each draws its own sigma_A
    and sigma_b, and five of them have sigma_A = 0.  States, intercepts and
    s_b are of size 10**exponent, or of a random size from 1e-300 to 1e150
    when exponent is None."""
    c_d = _mean_specnorm_sq_standard(d)
    for trial in range(50):
        scale = 10.0 ** (rng.uniform(-300, 150) if exponent is None else exponent)
        A_P = rng.standard_normal((d, d)) * 10 ** rng.uniform(-2, 2)
        b_P = rng.standard_normal(d) * scale
        theta = rng.standard_normal((40, d)) * scale
        z = rng.standard_normal((1, 40, d))
        nrm = np.array([[math.hypot(*row)] for row in theta])
        A_theta = np.matmul(A_P, theta[..., None])[..., 0]
        A_size = np.abs(theta) @ np.abs(A_P).T
        if trial % 2:
            sigma_A = 0.0 if trial % 10 == 1 else rng.uniform(0.1, 4)
            sigma_b = scale * rng.uniform(0.1, 2)
            s_b, s = sigma_b / math.sqrt(d), sigma_A / math.sqrt(c_d)
            p = make_gaussian_noise(A_P, b_P, sigma_A, sigma_b)
            noise = np.array([[math.hypot(s_b, s * n)] for n in nrm[:, 0]])
            want = b_P + noise * z[0] - A_theta
            size = np.abs(b_P) + noise * np.abs(z[0]) + A_size
        else:
            p = make_gaussian_noise(A_P, b_P, 1.0, 0.0)
            want = b_P - A_theta - nrm * z[0]
            size = np.abs(b_P) + A_size + nrm * np.abs(z[0])
        got = p.step_form.direction((z,), 0, theta)
        assert (np.abs(got - want) <= ulps * np.spacing(size)).all()


class TestGaussianStepForm:
    # sigma_A = 2 at alpha = 1 with the sentinel patched to 100: replications
    # pass the bound at scattered times, some before the horizon, some not.
    # A_P is not diagonal, so computing A_P theta with one gemm over the
    # batch would round differently at d = 5 and d = 32.  At sigma_A = 0
    # the noise array is zeros and the step follows the stream of
    # ``sample``; alpha = 2.05 puts the eigenvalue of I - alpha A_P at -1.05,
    # so intercept noise scatters the divergence times and the noise-free
    # rows diverge at once.  At d = 2 the step computes A_P theta by columns
    # and ``sample``'s reference by gemv: on this A_P, whose entries 1, 0 and
    # 0.25 make every product exact, the two agree bit for bit; on FIG1_MEAN
    # they agree to rounding (alpha = 0.1: every row diverges at step 23).
    @pytest.mark.parametrize(
        "d, sigma_A, sigma_b, alpha, horizon, mean",
        [(2, 2.0, 0.0, 1.0, 40, None), (5, 2.0, 0.5, 1.0, 40, None),
         (32, 2.0, 0.5, 1.0, 70, None), (2, 0.0, 0.0, 2.05, 80, None),
         (2, 0.0, 0.5, 2.05, 40, None), (2, 0.0, 0.0, 0.1, 80, FIG1_MEAN)],
        ids=["2-0.0-40", "5-0.5-40", "32-0.5-70", "no-matrix-noise-2-0.0-80",
             "no-matrix-noise-2-0.5-40", "no-matrix-noise-fig1-mean-80"],
    )
    def test_batching_does_not_change_result(self, d, sigma_A, sigma_b, alpha, horizon, mean):
        A_P = np.eye(d) + np.triu(np.full((d, d), 0.5 / d), 1) if mean is None else mean
        p = make_gaussian_noise(A_P, np.ones(d), sigma_A, sigma_b)
        cfg = RunConfig(alpha=alpha, horizon=horizon, record_stride=5, n_replications=12, seed=5)
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", 100):
            theta, hat, div = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, 12)], keep_theta=True
            )
            if sigma_A or sigma_b:
                assert 0 < (div >= 0).sum() < 12
            else:
                assert div[0] > 0 and (div == div[0]).all()
            for r, rng in enumerate(_replication_rngs(cfg.seed, 12)):
                theta_r, hat_r, div_r = _simulate_runs([p], [cfg], [[rng]], keep_theta=True)
                assert np.array_equal(theta_r[:, 0], theta[:, r])
                assert np.array_equal(hat_r[:, 0], hat[:, r])
                assert div_r[0] == div[r]
            if not sigma_A:
                ref_theta, ref_hat, ref_div = reference_block(p, cfg, _replication_rngs(cfg.seed, 12))
                assert np.array_equal(ref_div, div)
                if mean is None:
                    assert np.array_equal(ref_theta, theta)
                    assert np.array_equal(ref_hat, hat)
                else:
                    np.testing.assert_allclose(theta, ref_theta, rtol=1e-12)
                    np.testing.assert_allclose(hat, ref_hat, rtol=1e-12)

    def test_key_names_the_direction(self):
        # with sigma_b = 0 the key holds A_P and b_P, the constants its
        # direction reads, and leaves out sigma_A; with sigma_b > 0 it
        # equals only itself
        A, b = FIG1_MEAN, np.ones(2)

        def key(*args):
            return make_gaussian_noise(*args).step_form.key

        assert key(A, b, 0.0, 0.0) == key(A, b, 2.0, 0.0) == key(A.copy(), b.copy(), 5.0, 0.0)
        assert key(A, b, 2.0, 0.0) != key(A, 2 * b, 2.0, 0.0)
        assert key(A, b, 2.0, 0.0) != key(2 * A, b, 2.0, 0.0)
        for sigma_A in (0.0, 2.0):
            assert key(A, b, sigma_A, 0.5) != key(A, b, sigma_A, 0.5)
            assert key(A, b, sigma_A, 0.5) != key(A, b, sigma_A, 0.0)
        p = make_gaussian_noise(A, b, 2.0, 0.5)
        assert dataclasses.replace(p, label="q").step_form.key == p.step_form.key

    @pytest.mark.parametrize("d, alpha", [(2, 0.7), (5, 0.9), (32, 0.96)])
    def test_runs_of_one_problem_batch_with_intercept_noise(self, d, alpha):
        # runs of one sigma_b > 0 problem that differ in alpha, seed and R
        # share one state.  With the sentinel at 100, rows of the run at
        # this alpha diverge at scattered times, so the batch drops rows
        # while others still step
        rng = np.random.default_rng(d)
        A_P = np.eye(d) + np.triu(np.full((d, d), 0.5 / d), 1)
        p = make_gaussian_noise(A_P, A_P @ rng.uniform(-1, 1, d), 2.0, 0.5)
        cfgs = [
            RunConfig(alpha=a, horizon=600, record_stride=25, n_replications=6 + i, seed=i)
            for i, a in enumerate([0.1, alpha, 0.2])
        ]
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", 100):
            curves = run_mse_many([p] * len(cfgs), cfgs)
            n_div = curves[1].n_diverged
            assert ((0 < n_div) & (n_div < cfgs[1].n_replications)).any()
            for cfg, curve in zip(cfgs, curves, strict=True):
                alone = run_mse(p, cfg)
                for name in ("mse", "stderr", "n_diverged"):
                    assert getattr(curve, name).tobytes() == getattr(alone, name).tobytes()

    @pytest.mark.parametrize("d", [2, 5, 32])
    @pytest.mark.parametrize(
        "other", [(-1.0, 2.0, 0.5), (1.0, 0.0, 0.5), (1.0, 2.0, 1.5), (1.0, 2.0, 0.0)],
        ids=["b_P", "sigma_A", "sigma_b", "no-intercept-noise"],
    )
    def test_runs_of_different_intercepts_or_noise_levels_do_not_batch(self, d, other):
        # with sigma_b > 0 the direction reads b_P and both noise scales from
        # its closure, so runs whose problems differ in any of them would
        # step with the first one's: the engine refuses them
        A_P = np.eye(d) + np.triu(np.full((d, d), 0.5 / d), 1)
        sign, sigma_A, sigma_b = other
        problems = [
            make_gaussian_noise(A_P, 0.5 * A_P @ np.ones(d), 2.0, 0.5),
            make_gaussian_noise(A_P, 0.5 * sign * (A_P @ np.ones(d)), sigma_A, sigma_b),
        ]
        cfgs = [RunConfig(alpha=0.1, horizon=50, n_replications=2)] * 2
        with pytest.raises(ValueError, match="step-form key"):
            run_mse_many(problems, cfgs)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sigma_A, sigma_b", [(0.0, 0.0), (2.0, 0.0), (0.0, 0.5), (2.0, 0.5)])
    def test_draw_returns_one_block_of_normals(self, d, sigma_A, sigma_b):
        # one float64 (n, d) array per draw: zeros with no noise, s z with
        # matrix noise alone, and z itself with intercept noise
        form = make_gaussian_noise(np.eye(d), np.ones(d), sigma_A, sigma_b).step_form
        for n in (1, 7):
            (x,) = form.draw(np.random.default_rng(n), n)
            assert x.dtype == np.float64 and x.shape == (n, d)
            z = np.random.default_rng(n).standard_normal((n, d))
            if sigma_b:
                assert np.array_equal(x, z)
            elif sigma_A:
                assert np.array_equal(x, sigma_A / math.sqrt(_mean_specnorm_sq_standard(d)) * z)
            else:
                assert not x.any()

    def test_runs_never_call_sample(self):
        for sigma_A in (0.0, 1.0):
            base = make_gaussian_noise(np.diag([1.0, 2.0, 3.0]), np.ones(3), sigma_A, 0.5)
            p = dataclasses.replace(base, sample=no_draws)
            cfg = RunConfig(alpha=0.1, horizon=600, record_stride=50, n_replications=3, seed=2)
            assert np.isfinite(run_mse(p, cfg).mse).all()
            theta, _, div = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, 1)], keep_theta=True
            )
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

    def test_noise_term_of_small_two_dimensional_states(self):
        # with A_P = 0 and b_P = 0 the direction at unit noise is -||theta||.
        # The squares of these states are subnormal or underflow: a norm
        # taken through them reads 4.99997e-160 for the first and 0 for the
        # second, which drops the matrix noise; hypot squares nothing
        p = make_gaussian_noise(np.zeros((2, 2)), np.zeros(2), 1.0, 0.0)
        theta = np.array([[3e-160, 4e-160], [1e-170, 2e-170]])
        v = p.step_form.direction((np.ones((1, 2, 2)),), 0, theta)
        want = -np.array([math.hypot(*row) for row in theta])
        np.testing.assert_allclose(v, np.column_stack([want, want]), rtol=4e-16, atol=0)

    @pytest.mark.parametrize("exponent", [0.0, 150.0, -300.0, None])
    def test_two_dimensional_direction_matches_gemv(self, exponent):
        # the column forms against gemv rows and a hypot norm: within 4 ulps
        # of the size of the terms they sum (over 3,000 random problems, 2.5
        # measured with sigma_b = 0 and 2 with sigma_b > 0); a wrong sign or
        # column of A_P is off by the size of a term
        assert_direction_matches_gemv(np.random.default_rng(19), 2, exponent, ulps=4)

    def test_noise_term_of_small_states_at_three_dimensions(self):
        # the direction at unit noise is -||theta|| again; at d = 3 the norm
        # is ``_row_norms``, which through the squares read 2.99998e-160 for
        # the first state and 0 for the second
        p = make_gaussian_noise(np.zeros((3, 3)), np.zeros(3), 1.0, 0.0)
        theta = np.array([[1e-160, 2e-160, 2e-160], [1e-170, 2e-170, 2e-170]])
        v = p.step_form.direction((np.ones((1, 2, 3)),), 0, theta)
        want = -np.array([math.hypot(*row) for row in theta])
        np.testing.assert_allclose(v, np.column_stack([want] * 3), rtol=4e-16, atol=0)

    @pytest.mark.parametrize("d", [3, 5, 32])
    def test_direction_matches_gemv_and_hypot(self, d):
        # states of random size from 1e-300 to 1e150; over 3,000 random
        # problems, 6 ulps measured at d = 32 and 2 at d = 3 and 5 with
        # sigma_b = 0, and 5 and 3 with sigma_b > 0.  A norm taken through
        # subnormal squares is off by up to the whole noise term
        assert_direction_matches_gemv(np.random.default_rng(d), d, None, ulps=8)


class TestFig1AgainstExactMse:
    """Fig. 1's Monte Carlo curves against the exact recursion of
    ``exact_mse_gaussian``: equal to rounding where nothing is drawn, within
    a z-gate elsewhere."""

    def test_noise_free_level_equals_exact(self):
        # one deterministic trajectory: the curve is its squared error, which
        # the recursion gives exactly; they differ by rounding (5.6e-13
        # relative at 4,000 steps, 6.2e-13 with a gemv per row).  A wrong
        # sign or column of A_P, or a noise term that does not vanish, moves
        # the trajectory.
        p = make_fig1_problem(0.0)
        cfg = RunConfig(alpha=2.0**-7, horizon=4000, record_stride=FIG1_STRIDE, n_replications=10)
        exact = exact_mse_gaussian(p, cfg.alpha, cfg.record_times())
        np.testing.assert_allclose(run_mse(p, cfg).mse, exact, rtol=1e-10)

    #: largest |z| allowed over a curve's records, for the one seed run
    #: (RunConfig's default, 0: 1.9-3.0).  Over seeds 0-199 at this shape
    #: (R = 100, 2,000 steps) it reached 4.40, 4.43, 4.99 and 6.25 at
    #: sigma_A = 2, 5, 10 and 20, with medians of 2.0-2.4: the mean of
    #: heavy-tailed squared errors mostly sits low, now and then far above.
    Z_GATE = 8.0

    # the levels' tuned step-sizes in ``repro-fig1`` at its defaults
    @pytest.mark.parametrize("sigma_A, alpha", [(2.0, 2.0**-7), (5.0, 2.0**-7),
                                                (10.0, 2.0**-7), (20.0, 2.0**-8)])
    def test_noisy_levels_within_z_gate(self, sigma_A, alpha):
        # a step with the noise term dropped steps every replication alike
        # (stderr 0, z infinite), and a wrong sign or column of A_P moves the
        # fixed point; a noise scale 10% too large reached a median |z| of
        # 8.5 at sigma_A = 20 over 20 seeds, but only 2.2 at sigma_A = 2: at
        # R = 100 the gate is coarse
        p = make_fig1_problem(sigma_A)
        cfg = RunConfig(alpha=alpha, horizon=2000, record_stride=FIG1_STRIDE, n_replications=100)
        curve = run_mse(p, cfg)
        assert curve.n_diverged[-1] == 0 and (curve.stderr > 0).all()
        z = (curve.mse - exact_mse_gaussian(p, alpha, cfg.record_times())) / curve.stderr
        assert np.abs(z).max() <= self.Z_GATE


class TestInterceptNoiseAgainstExactMse:
    """Runs with sigma_A > 0 and sigma_b > 0, whose step draws one normal
    vector z for the whole noise, hypot(s_b, s ||theta||) z, against the
    exact recursion of ``exact_mse_gaussian``, within a z-gate on every
    record."""

    #: largest |z| allowed over a curve's 20 records.  Over seeds 0-199 at
    #: this shape (R = 1,000, 1,000 steps) the largest was 3.64 at d = 2
    #: and 3.29 at d = 5, with medians of 1.82 and 1.54.  Over seeds 0-9 the
    #: smallest reading of each model error, at d = 2 and d = 5, was:
    #: s_b + s ||theta|| in place of the hypot 13.0 and 20.0, s_b dropped
    #: 14.0 and 17.1, the matrix term dropped 26.1 and 48.4
    Z_GATE = 6.0

    @pytest.mark.parametrize("d, sigma, alpha", [(2, 5.0, 2.0**-7), (5, 1.0, 0.05)],
                             ids=["fig1-mean", "d5"])
    def test_within_z_gate(self, d, sigma, alpha):
        A_P = FIG1_MEAN if d == 2 else np.eye(d) + np.triu(np.full((d, d), 0.5 / d), 1)
        p = make_gaussian_noise(A_P, A_P @ np.ones(d), sigma, sigma)
        cfg = RunConfig(alpha=alpha, horizon=1000, record_stride=50, n_replications=1000)
        curve = run_mse(p, cfg)
        assert curve.n_diverged[-1] == 0 and (curve.stderr > 0).all()
        z = (curve.mse - exact_mse_gaussian(p, alpha, cfg.record_times())) / curve.stderr
        assert np.abs(z).max() <= self.Z_GATE


def reference_block(p, cfg, rngs):
    """One replication at a time, one step at a time: the oracle of ``_simulate_runs``.

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
            _, _, div = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, cfg.n_replications)], keep_theta=True
            )
        assert 0 < (div >= 0).sum() < len(div)
        assert (div[div >= 0] > _SAMPLE_CHUNK).all()

    @settings(max_examples=200, deadline=None)
    @given(finite_runs())
    @example(PARTIAL_DIVERGENCE)
    def test_matches_per_replication_loop(self, run):
        p, cfg, sentinel = run
        R = cfg.n_replications
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            theta, hat, div = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, R)], keep_theta=True
            )
            ref_theta, ref_hat, ref_div = reference_block(p, cfg, _replication_rngs(cfg.seed, R))
        assert np.array_equal(div, ref_div)
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-12)
        np.testing.assert_allclose(hat, ref_hat, rtol=1e-12)


class TestAtomStepForm:
    @settings(max_examples=50, deadline=None)
    @given(finite_runs())
    @example(PARTIAL_DIVERGENCE)
    def test_matches_the_dense_form(self, run):
        p, cfg, sentinel = run
        dense = dense_form(p)
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            got = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, cfg.n_replications)], keep_theta=True
            )
            want = _simulate_runs(
                [dense], [cfg], [_replication_rngs(cfg.seed, cfg.n_replications)], keep_theta=True
            )
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()

    def test_runs_never_call_sample(self):
        # runs of one problem batched, and a problem run alone, step through
        # atom indices; the curves are those of the dense form
        p, q = pm_identity(0.05), pm_identity(0.2)
        cfg = RunConfig(alpha=0.3, horizon=700, record_stride=50, n_replications=4, seed=2)
        other = dataclasses.replace(cfg, alpha=0.2, seed=5, n_replications=3)
        want = [run_mse(p, cfg), run_mse(p, other), run_mse(q, other)]
        quiet_p, quiet_q = (dataclasses.replace(x, sample=no_draws) for x in (p, q))
        got = run_mse_many([quiet_p, quiet_p], [cfg, other]) + [run_mse(quiet_q, other)]
        for g, w in zip(got, want, strict=True):
            np.testing.assert_array_equal(g.mse, w.mse)
            np.testing.assert_array_equal(g.stderr, w.stderr)
        td = dataclasses.replace(load_problem_file(PROBLEMS / "td0_onpolicy.json"), sample=no_draws)
        assert np.isfinite(run_mse(td, cfg).mse).all()

    def test_no_dense_matrix_buffer(self):
        # the dense form's (512, 100, 6, 6) float64 buffer alone took 14.7 MB
        p = load_problem_file(PROBLEMS / "gtd2_offpolicy.json")
        cfg = RunConfig(alpha=0.01, horizon=512, record_stride=16, n_replications=100)
        run_mse(p, dataclasses.replace(cfg, horizon=16, n_replications=1))  # warm caches
        tracemalloc.start()
        try:
            curve = run_mse(p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(curve.mse).all()
        assert peak < 6e6


def batch_configs(draw, rng, d, n_runs):
    """Configs of ``n_runs`` runs that may share one batch: one horizon,
    record stride and theta_0 (random or zeros), with alpha (all equal in
    some batches), replication count and seed drawn per run."""
    horizon = draw(st.integers(1, 600))
    stride = draw(st.integers(1, horizon))
    theta_0 = rng.standard_normal(d) if draw(st.booleans()) else None
    shared_alpha = 10 ** draw(st.floats(-1.5, 0.5)) if draw(st.booleans()) else None
    return [
        RunConfig(
            alpha=shared_alpha or 10 ** draw(st.floats(-1.5, 0.5)),
            horizon=horizon,
            theta_0=theta_0,
            record_stride=stride,
            n_replications=draw(st.integers(1, 5)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
        for _ in range(n_runs)
    ]


@st.composite
def finite_batches(draw):
    """Random runs of one finite-support problem, and a sentinel.

    A finite form's key equals only itself, so the runs share their problem,
    with random weights, intercepts and intercept scatter.  Each run has its
    own alpha, replication count and seed (see ``batch_configs``).  Atoms
    A_i = I + 1.2 G_i spread the rows' growth rates (twice the spread of
    ``finite_runs``), so that with a sentinel drawn down to 10 rows leave
    the batch at different steps.
    """
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 4))
    probs = rng.dirichlet(np.ones(k))
    p = _finite_problem(FiniteAtoms(
        probs=probs / probs.sum(),
        bs=rng.standard_normal((k, d)),
        As=np.eye(d) + 1.2 * rng.standard_normal((k, d, d)),
        b_noise=rng.standard_normal((k, d)) if draw(st.booleans()) else None,
    ), "random")
    assume(p.exact_moments.theta_star is not None)
    n_runs = draw(st.integers(1, 4))
    return [p] * n_runs, batch_configs(draw, rng, d, n_runs), 10.0 ** draw(st.integers(1, 30))


@st.composite
def gaussian_batches(draw):
    """Random runs of sigma_b = 0 Gaussian problems that share a random A_P
    and b_P, each run with its own sigma_A in [0, 3], and a sentinel.

    Their keys are equal, so rows of different laws share one state.  A_P
    = I + 0.5 G and the matrix noise, which grows with ||theta||, spread the
    rows' growth rates: under a sentinel drawn down to 10 rows diverge at
    scattered times.
    """
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A_P = np.eye(d) + 0.5 * rng.standard_normal((d, d))
    b_P = rng.standard_normal(d)
    n_runs = draw(st.integers(1, 4))
    problems = [make_gaussian_noise(A_P, b_P, draw(st.floats(0.0, 3.0)), 0.0)
                for _ in range(n_runs)]
    assume(problems[0].exact_moments.theta_star is not None)
    return problems, batch_configs(draw, rng, d, n_runs), 10.0 ** draw(st.integers(1, 30))


class TestRunMseMany:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(finite_batches(), gaussian_batches()))
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
        p = pm_identity(0.05)  # atoms +-I, A_P = 0.1 I, theta* = 0
        cfg = RunConfig(alpha=0.1, horizon=50, record_stride=5)
        gaussian = make_gaussian_noise(np.eye(2), np.zeros(2), 0.5, 0.0)
        # p's step form with the moments of intercepts (0.5, 0): theta* =
        # (5, 0), so the divergence bound moves while the key does not
        moved = [((np.array([0.5, 0.0]), A), w) for A, w in zip(p.atoms.As, p.atoms.probs)]
        far = dataclasses.replace(p, exact_moments=make_finite_support(moved).exact_moments)
        other_atoms = make_finite_support([((np.zeros(2), 2 * np.eye(2)), 1.0)])
        complex_p = make_finite_support([((np.zeros(2, complex), np.eye(2, dtype=complex)), 1.0)])
        noisy = [make_gaussian_noise(np.eye(2), np.zeros(2), 0.5, 0.5) for _ in range(2)]
        cases = [
            ([p, gaussian], [cfg, cfg], "step-form key"),
            ([p, other_atoms], [cfg, cfg], "step-form key"),
            ([p, complex_p], [cfg, cfg], "step-form key"),
            ([p, pm_identity(0.05)], [cfg, cfg], "step-form key"),
            (noisy, [cfg, cfg], "step-form key"),
            ([p, p], [cfg, dataclasses.replace(cfg, horizon=60)], "horizon"),
            ([p, p], [cfg, dataclasses.replace(cfg, record_stride=10)], "record stride"),
            ([p, p], [cfg, dataclasses.replace(cfg, theta_0=np.ones(2))], "theta_0"),
            ([p, far], [cfg, cfg], "divergence bound"),
            ([], [], "at least one run"),
        ]
        for problems, cfgs, match in cases:
            with pytest.raises(ValueError, match=match):
                run_mse_many(problems, cfgs)
        # what the runs may differ in: alpha, seed, replications, noise level
        quiet = make_gaussian_noise(np.eye(2), np.zeros(2), 0.0, 0.0)
        other = dataclasses.replace(cfg, alpha=0.2, seed=3, n_replications=4)
        assert len(run_mse_many([gaussian, quiet], [cfg, other])) == 2
        assert len(run_mse_many([p, p], [cfg, other])) == 2


def every_row_curve(p, cfg):
    """``_mse_curve`` over all R rows of ``_simulate_runs``: the curve of a
    run whose replications are each stepped."""
    rngs = [_replication_rngs(cfg.seed, cfg.n_replications)]
    _, hat, div = _simulate_runs([p], [cfg], rngs, keep_theta=False)
    return engine._mse_curve(
        cfg.record_times(), hat, div, p.exact_moments.theta_star, cfg.n_replications
    )


def assert_one_trajectory(curve, p, cfg):
    """``curve``, a run of ``p`` and ``cfg`` whose form draws nothing, is that
    of its one replication: the same mse and stderr bytes, n_diverged R
    times that run's, and stderr 0 wherever mse is finite."""
    one = run_mse(p, dataclasses.replace(cfg, n_replications=1))
    assert curve.mse.tobytes() == one.mse.tobytes()
    assert curve.stderr.tobytes() == one.stderr.tobytes()
    assert np.array_equal(curve.n_diverged, cfg.n_replications * one.n_diverged)
    assert (curve.stderr[np.isfinite(curve.mse)] == 0.0).all()


def counting_draws(p, calls):
    """p with a step form that appends the n of every ``draw`` call to calls."""
    def draw(rng, n):
        calls.append(n)
        return p.step_form.draw(rng, n)

    return dataclasses.replace(p, step_form=dataclasses.replace(p.step_form, draw=draw))


def equal_atoms():
    A = np.diag([1.0, 2.0])
    return make_finite_support([((np.ones(2), A), 0.5), ((np.ones(2), A), 0.5)])


def transformed(p):
    return transform_distribution(p, transform_problem(p))


# (factory, whether its step form draws nothing) for every constructor's form
STEP_FORMS = {
    "gaussian-0-0": (lambda: make_gaussian_noise(FIG1_MEAN, np.ones(2), 0.0, 0.0), True),
    "gaussian-0-b": (lambda: make_gaussian_noise(FIG1_MEAN, np.ones(2), 0.0, 0.5), False),
    "gaussian-A-0": (lambda: make_gaussian_noise(FIG1_MEAN, np.ones(2), 2.0, 0.0), False),
    "gaussian-A-b": (lambda: make_gaussian_noise(FIG1_MEAN, np.ones(2), 2.0, 0.5), False),
    "one-atom": (lambda: make_lower_bound_instance(1.0, 2.0, 0.0), True),
    "one-atom-scatter": (lambda: make_lower_bound_instance(1.0, 2.0, 1.0), False),
    "two-equal-atoms": (equal_atoms, False),
    "td0-file": (lambda: load_problem_file(PROBLEMS / "td0_onpolicy.json"), False),
    "gtd2-file": (lambda: load_problem_file(PROBLEMS / "gtd2_offpolicy.json"), False),
    # an eigen-route transform of one non-normal atom, and of the GTD2 atoms
    "transformed-one-atom": (lambda: transformed(make_finite_support(
        [((np.ones(2), np.array([[1.0, 3.0], [0.0, 2.0]])), 1.0)])), True),
    "transformed-gtd2": (lambda: transformed(
        load_problem_file(PROBLEMS / "gtd2_offpolicy.json")), False),
}


@st.composite
def draw_free_runs(draw):
    """A problem whose step form draws nothing, with its divergence sentinel
    and 1-3 runs that may batch: one atom without intercept scatter or a
    Gaussian problem with sigma_A = sigma_b = 0, d <= 3, random A and b.
    Step-sizes up to 2 diverge on many of them, and a start near 1e160
    overflows the squared error."""
    d = draw(st.integers(1, 3))
    entries = st.floats(-3.0, 3.0, allow_nan=False)
    A = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    b = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    if draw(st.booleans()):
        p = make_finite_support([((b, A), 1.0)])
    else:
        p = make_gaussian_noise(A, b, 0.0, 0.0)
    assume(p.exact_moments.theta_star is not None)
    theta_0 = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    theta_0 *= draw(st.sampled_from([1.0, 1e160]))
    horizon = draw(st.integers(1, 200))
    stride = draw(st.integers(1, horizon))
    cfgs = [
        RunConfig(alpha=10.0 ** draw(st.floats(-3.0, 0.3)), horizon=horizon, theta_0=theta_0,
                  record_stride=stride, n_replications=draw(st.integers(1, 12)),
                  seed=draw(st.integers(0, 2**32)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return p, cfgs, draw(st.sampled_from([1e150, 1e3, 10.0]))


class TestDrawFreeRuns:
    """A run whose step form draws nothing is stepped and reduced as one row:
    its curve is that of its one replication, with n_diverged 0 or R."""

    # one step-size per Fig. 1 level, all stable; sigma_A = 0 draws nothing
    FIG1_ALPHAS = (2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10, 2.0**-12)

    @pytest.mark.parametrize("case", ["fig1-quiet", "fig1-levels", "lower-bound", "diverging"])
    def test_curves_are_those_of_one_replication(self, case):
        def cfg(alpha, seed=0):
            return RunConfig(alpha=alpha, horizon=600, record_stride=25, n_replications=30,
                             seed=seed)

        if case == "fig1-quiet":
            problems, cfgs = [make_fig1_problem(0.0)], [cfg(self.FIG1_ALPHAS[0])]
        elif case == "fig1-levels":  # as repro_fig1 batches them
            problems = [make_fig1_problem(s) for s in FIG1_SIGMAS]
            cfgs = [cfg(a, seed) for seed, a in enumerate(self.FIG1_ALPHAS)]
        elif case == "lower-bound":
            problems, cfgs = [make_lower_bound_instance(1.0, 2.0, 0.0)], [cfg(0.1, 4)]
        else:  # rho(I - alpha A_P) is about 5.02: every replication diverges at one step
            problems, cfgs = [make_fig1_problem(0.0)], [cfg(0.5)]
        calls = []
        counted = [counting_draws(problems[0], calls)] + problems[1:]
        curves = run_mse_many(counted, cfgs)
        # the draw-free run: one trial draw, then one row per chunk of steps
        assert calls[0] == 1 and len(calls) <= 3
        for p, c, curve in zip(problems, cfgs, curves):
            want = every_row_curve(p, c)
            if engine._draws_nothing(p.step_form):
                # R stepped rows reduce to the same curve, up to the rounding
                # of a mean and a spread of R equal numbers
                assert_one_trajectory(curve, p, c)
                np.testing.assert_allclose(curve.mse, want.mse, rtol=1e-15, atol=0)
            else:  # a run that draws keeps the bits of its R rows
                assert curve.mse.tobytes() == want.mse.tobytes()
                assert curve.stderr.tobytes() == want.stderr.tobytes()
            assert np.array_equal(curve.n_diverged, want.n_diverged)
        if case == "diverging":
            n_div = curves[0].n_diverged
            assert n_div[-1] == 30 and set(n_div.tolist()) <= {0, 30}

    @given(draw_free_runs())
    @settings(max_examples=60, deadline=None)
    def test_each_run_is_its_one_replication(self, runs):
        p, cfgs, sentinel = runs
        assert engine._draws_nothing(p.step_form)
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            curves = run_mse_many([p] * len(cfgs), cfgs)
            for cfg, curve in zip(cfgs, curves, strict=True):
                assert_one_trajectory(curve, p, cfg)

    @pytest.mark.parametrize("name", list(STEP_FORMS))
    def test_a_form_consumes_its_stream_on_every_draw_or_on_none(self, name):
        factory, draws_nothing = STEP_FORMS[name]
        form = factory().step_form
        consumed = []
        for n in (1, 7, 512):
            rng = np.random.default_rng(n)
            state = rng.bit_generator.state
            form.draw(rng, n)
            consumed.append(rng.bit_generator.state != state)
        assert consumed == [not draws_nothing] * 3
        assert engine._draws_nothing(form) == draws_nothing
        if draws_nothing:  # the same arrays from any stream
            one, two = (form.draw(np.random.default_rng(seed), 7) for seed in (1, 2))
            assert all(np.array_equal(x, y) for x, y in zip(one, two, strict=True))

    @pytest.mark.parametrize(
        "name", ["gaussian-0-0", "one-atom", "gaussian-0-b", "one-atom-scatter", "two-equal-atoms"]
    )
    def test_rows_stepped(self, name):
        # 600 steps are two chunks: a run steps one row per replication in
        # each, unless its form draws nothing
        factory, draws_nothing = STEP_FORMS[name]
        cfg = RunConfig(alpha=2.0**-7, horizon=600, record_stride=25, n_replications=8, seed=1)
        calls = []
        curve = run_mse(counting_draws(factory(), calls), cfg)
        assert curve.n_diverged[-1] == 0
        rows = 1 if draws_nothing else 8
        assert calls == [1] + [_SAMPLE_CHUNK] * rows + [600 - _SAMPLE_CHUNK] * rows


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
            _, hat, div = _simulate_runs(
                [p], [cfg], [_replication_rngs(cfg.seed, R)], keep_theta=True
            )
        times, theta_star = cfg.record_times(), p.exact_moments.theta_star
        curve = engine._mse_curve(times, hat, div, theta_star, R)
        mse, stderr, n_div = reference_mse_curve(times, hat, div, theta_star)
        assert curve.mse.tobytes() == mse.tobytes()
        assert curve.stderr.tobytes() == stderr.tobytes()
        assert np.array_equal(curve.n_diverged, n_div)
