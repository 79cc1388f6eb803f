import dataclasses
import itertools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsalab import (
    DIVERGENCE_SENTINEL,
    NoStableStepSizeError,
    TunerConfig,
    TunerTrace,
    make_finite_support,
    make_gaussian_noise,
    tune,
    tune_many,
)
from lsalab import engine, tuner
from lsalab.cli import FIG1_SIGMAS, make_fig1_problem
from lsalab.engine import divergence_bound
from lsalab.problem_io import load_problem_file
from lsalab.problems import FiniteAtoms, _finite_problem
from lsalab.transform import transform_distribution, transform_problem
from lsalab.tuner import RatioCheck, _ratio_test, _run_function

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"


def _norm(x):
    """Euclidean norm of an array, as the tuner takes it: math.hypot of its entries."""
    return math.hypot(*x.tolist())


def scalar_problem(a=1.0, b=1.0):
    return make_finite_support([((np.array([b]), np.array([[a]])), 1.0)])


class TestIsUnstable:
    """The verdict of the tuner's ratio test on a window of norms."""

    def test_flat_norms(self):
        assert _ratio_test([1.0, 1.0, 1.0], 1.025) == ((1.0, 1.0), False)

    def test_doubling_norms(self):
        assert _ratio_test([1.0, 2.0, 4.0], 1.025) == ((2.0, 2.0), True)

    def test_mild_wiggle_under_threshold(self):
        # ratios 1.02 and ~0.990
        assert _ratio_test([1.0, 1.02, 1.01], 1.025) == ((1.02, 1.01 / 1.02), False)

    def test_zero_norm_is_not_growth_evidence(self):
        assert _ratio_test([0.0, 5.0, 10.0], 1.025) == ((), False)

    def test_nonfinite_norm_is_divergence(self):
        assert _ratio_test([1.0, np.inf, 2.0], 1.025) == ((), True)
        assert _ratio_test([1.0, np.nan], 1.025) == ((), True)


class TestTune:
    def test_stable_from_the_start(self):
        # contraction at alpha_max: the average settles monotonically and the
        # transient growth toward the fixed point stays under a loose threshold
        p = scalar_problem(a=1.0, b=1.0)
        cfg = TunerConfig(alpha_max=0.5, k=2, T=5, c_threshold=1.5, horizon=100, seed=0)
        trace = tune(p, cfg)
        assert trace.final_alpha == 0.5
        assert len(trace.events) == 0
        assert trace.final_theta_hat[0] == pytest.approx(1.0, abs=0.05)

    def test_halving_sequence_and_event_times(self):
        p = make_fig1_problem(0.0)
        cfg = TunerConfig(alpha_max=1.0, horizon=160, seed=0)
        trace = tune(p, cfg)
        assert len(trace.events) >= 1
        # each event halves: alpha_i = alpha_max / 2^(i+1)
        for i, (t, a) in enumerate(trace.events):
            assert a == pytest.approx(1.0 / 2 ** (i + 1))
            assert t % cfg.T == 0
            assert t >= cfg.k * cfg.T
        assert trace.final_alpha == pytest.approx(1.0 / 2 ** len(trace.events))

    def test_checks_recorded(self):
        p = make_fig1_problem(2.0)
        cfg = TunerConfig(alpha_max=1.0, horizon=160, seed=1)
        trace = tune(p, cfg)
        assert all(c.t % cfg.T == 0 for c in trace.checks)
        triggered_times = {c.t for c in trace.checks if c.triggered}
        event_times = {t for t, _ in trace.events}
        assert event_times <= triggered_times  # events come from checks
        # no trigger fires after the final halving
        last_halving = max(t for t, _ in trace.events)
        assert not any(c.triggered and c.t > last_halving for c in trace.checks)

    def test_deterministic(self):
        p = make_fig1_problem(5.0)
        cfg = TunerConfig(alpha_max=1.0, horizon=160, seed=3)
        assert tune(p, cfg).final_alpha == tune(p, cfg).final_alpha
        assert tune(p, cfg).events == tune(p, cfg).events

    def test_pathwise_growth_forces_halving(self):
        # +-identity at a step-size where trajectories grow almost surely
        # (mean log factor (ln|1-a| + ln|1+a|)/2 > 0 needs a > sqrt(2)):
        # the ratio test must fire.  Note the test cannot fire at small
        # step-sizes for this family even though the mean square explodes:
        # the per-epoch growth of E||theta||^2 sits below the threshold and
        # individual paths contract.
        eps = 1e-3
        p = make_finite_support(
            [((np.zeros(2), np.eye(2)), 0.5 + eps),
             ((np.zeros(2), -np.eye(2)), 0.5 - eps)]
        )
        for seed in range(3):
            cfg = TunerConfig(
                alpha_max=2.5, horizon=400, seed=seed,
                theta_0=np.array([1.0, 1.0]),
            )
            trace = tune(p, cfg)
            assert len(trace.events) >= 1, seed
            assert all(t % cfg.T == 0 for t, _ in trace.events)

    def test_sentinel_emergency_restart(self):
        # one step past the divergence sentinel halves immediately and
        # restarts from theta_0; halvings continue until the step alone can
        # no longer overflow
        a, b = 1e6, 1.0  # Hurwitz, but only alpha < 2/a = 2e-6 is stable
        p = scalar_problem(a=a, b=b)
        # epochs longer than any blow-up: every halving is an emergency restart
        cfg = TunerConfig(
            alpha_max=1.0, T=500, horizon=2000, seed=0, theta_0=np.array([1.0])
        )
        trace = tune(p, cfg)
        # replay: from theta_0, step until the iterate passes the sentinel,
        # halve there and start again from theta_0
        expected = []
        t, alpha = 0, cfg.alpha_max
        while True:
            x, n = 1.0, 0
            while abs(x) <= DIVERGENCE_SENTINEL and t + n < cfg.horizon:
                n += 1
                x = x + alpha * (b - a * x)
            if abs(x) <= DIVERGENCE_SENTINEL:
                break
            t, alpha = t + n, alpha / 2
            expected.append((t, alpha))
        assert len(expected) == 19
        assert trace.events == tuple(expected)
        for i, (t, alpha) in enumerate(trace.events):
            assert t % cfg.T != 0  # at the overflowing step, not an epoch boundary
            assert alpha == cfg.alpha_max / 2 ** (i + 1)
        assert not any(c.triggered for c in trace.checks)
        assert 1e-12 < trace.final_alpha < 2 / a
        assert np.isfinite(trace.final_theta_hat).all()
        assert trace.final_theta_hat[0] == pytest.approx(b / a, abs=1e-2)

        # a fixed point beyond the sentinel itself is no divergence: alpha=1
        # lands on theta* = 1e200 in one step, and at most the ratio test
        # (on the approach to theta*) halves, at an epoch boundary
        p = scalar_problem(a=1.0, b=1e200)
        cfg = TunerConfig(alpha_max=1.0, horizon=400, seed=0)
        trace = tune(p, cfg)
        triggered = {c.t for c in trace.checks if c.triggered}
        assert all(t in triggered for t, _ in trace.events)
        assert 0 < trace.final_alpha < 2
        assert trace.final_theta_hat[0] == pytest.approx(1e200, rel=1e-12)

    def test_abort_at_step_size_floor(self):
        # overflow at an alpha_max just above the floor: the forced halving
        # crosses 1e-12 and aborts
        p = scalar_problem(a=1e40, b=1.0)
        cfg = TunerConfig(alpha_max=1.5e-12, horizon=400, seed=0)
        with pytest.raises(NoStableStepSizeError) as exc:
            tune(p, cfg)
        t = int(re.search(r"at t=(\d+)", str(exc.value)).group(1))
        assert t % cfg.T != 0  # raised by the emergency restart, not a check
        assert str(exc.value) == "no stable step-size found: reached alpha=7.5e-13 at t=7"

    def test_config_validation(self):
        for alpha_max in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha_max must be finite and positive"):
                TunerConfig(alpha_max=alpha_max)
        with pytest.raises(ValueError):
            TunerConfig(alpha_max=1.0, c_threshold=1.0)
        for c in (np.nan, np.inf):
            with pytest.raises(ValueError, match="c_threshold must be finite and exceed 1"):
                TunerConfig(alpha_max=1.0, c_threshold=c)
        with pytest.raises(ValueError):
            TunerConfig(alpha_max=1.0, k=2, T=5, horizon=10)
        # k = 1.5 would run with no ratio check; T and horizon would fail mid-run
        for name, value in (("k", 1.5), ("T", 2.5), ("horizon", 100.5), ("horizon", 160.0)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                TunerConfig(alpha_max=1.0, **{name: value})
        assert TunerConfig(alpha_max=1.0, k=np.int64(2)).k == 2

    @pytest.mark.parametrize("kwargs, message", [
        ({"k": 0}, "k=0 must be at least 1"),
        ({"T": -1}, "T=-1 must be at least 1"),
        ({"horizon": -3}, "horizon=-3 must be at least 1"),
        ({"horizon": 10}, r"horizon=10 must exceed k\*T = 10 \(k=2, T=5\)"),
        ({"k": 32}, r"horizon=160 must exceed k\*T = 160 \(k=32, T=5\)"),
    ])
    def test_counts_out_of_range_name_their_value_and_bound(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TunerConfig(alpha_max=1.0, **kwargs)


class TestExperimentFamily:
    def test_final_alpha_within_factor_of_certificate(self):
        # median over ten seeds against 2/(101 + sigma^2), per noise level
        seeds = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(0).spawn(10)]
        medians = []
        for sigma in [0.0, 2.0, 5.0, 10.0, 20.0]:
            p = make_fig1_problem(sigma)
            finals = [
                tune(p, TunerConfig(alpha_max=1.0, horizon=160, seed=s)).final_alpha
                for s in seeds
            ]
            med = float(np.median(finals))
            hand = 2.0 / (101.0 + sigma**2)
            assert hand / 4 <= med <= 4 * hand, (sigma, med, hand)
            medians.append(med)
        assert all(medians[i] >= medians[i + 1] - 1e-15 for i in range(len(medians) - 1))


def reference_tune(p, cfg, seed):
    """One trajectory, one step at a time: the oracle of ``tune_many``.

    Draws (b, A) from ``default_rng(seed)`` in chunks of 1024 steps and applies
    theta + alpha*(b - A theta), with A theta summed over the columns of A in
    order by numpy, every product and sum rounded on its own (no BLAS);
    returns the trace, or the error ``tune`` raises for this seed.
    """
    rng = np.random.default_rng(seed)
    theta0 = np.zeros(p.dim) if cfg.theta_0 is None else np.asarray(cfg.theta_0, float)
    bound = divergence_bound(p, theta0)
    alpha, theta, hat, n = cfg.alpha_max, theta0, theta0, 0
    window = [_norm(theta0)]
    events, checks = [], []
    t = 0
    while t < cfg.horizon:
        bs, As = p.sample(rng, (min(1024, cfg.horizon - t),))
        for b, A in zip(bs, As):
            t += 1
            A_theta = A[:, 0] * theta[0]
            for j in range(1, len(theta)):
                A_theta = A_theta + A[:, j] * theta[j]
            nxt = theta + alpha * (b - A_theta)
            if np.abs(nxt).max() <= bound:
                theta, n = nxt, n + 1
                hat = hat + (theta - hat) / (n + 1)
                if t % cfg.T:
                    continue
                window = (window + [_norm(hat)])[-(cfg.k + 1):]
                if len(window) <= cfg.k:
                    continue
                finite = all(np.isfinite(window))
                ok = finite and all(w > 0 for w in window)
                ratios = tuple(w1 / w0 for w0, w1 in zip(window, window[1:])) if ok else ()
                triggered = max(ratios) > cfg.c_threshold if ok else not finite
                checks.append(RatioCheck(t=t, ratios=ratios, triggered=triggered))
                if not triggered:
                    continue
                hat = theta  # halving by the ratio test keeps the iterate
            else:
                theta = hat = theta0  # emergency restart
            alpha /= 2.0
            if alpha < 1e-12:
                return NoStableStepSizeError(
                    f"no stable step-size found: reached alpha={alpha:g} at t={t}"
                )
            events.append((t, alpha))
            n = 0
            window = [_norm(hat)]
    return TunerTrace(tuple(events), alpha, hat, tuple(checks))


def assert_same_result(got, want):
    assert type(got) is type(want)
    if isinstance(want, NoStableStepSizeError):
        assert str(got) == str(want)
        return
    assert got.events == want.events
    assert got.final_alpha == want.final_alpha
    assert got.checks == want.checks
    assert got.final_theta_hat.dtype == want.final_theta_hat.dtype
    assert got.final_theta_hat.tobytes() == want.final_theta_hat.tobytes()


def random_atoms(seed, d, n_atoms, scatter):
    """Finite-support problem with atoms A_i = I + 0.6 G_i and normal b_i."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n_atoms))
    atoms = FiniteAtoms(
        probs=probs / probs.sum(),
        bs=rng.standard_normal((n_atoms, d)),
        As=np.eye(d) + 0.6 * rng.standard_normal((n_atoms, d, d)),
        b_noise=rng.standard_normal((n_atoms, d)) if scatter else None,
    )
    return _finite_problem(atoms, f"random({seed})")


@st.composite
def tuning_runs(draw):
    """A random finite-support problem (d <= 3), a tuner config, seeds and a sentinel.

    alpha_max comes from a mostly stable range, an overflowing one or just
    above the step-size floor; a divergence sentinel drawn down to 10 makes
    emergency restarts frequent.
    """
    d = draw(st.integers(1, 3))
    p = random_atoms(draw(st.integers(0, 2**32 - 1)), d, draw(st.integers(1, 4)), draw(st.booleans()))
    k, T = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    log_alpha = draw(st.one_of(st.floats(-2.0, 0.5), st.floats(0.5, 3.0), st.floats(-12.0, -11.0)))
    theta_0 = draw(st.one_of(st.none(), st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    cfg = TunerConfig(
        alpha_max=10.0**log_alpha,
        k=k,
        T=T,
        c_threshold=draw(st.floats(1.001, 1.5)),
        horizon=draw(st.integers(k * T + 1, 1500)),
        theta_0=None if theta_0 is None else np.array(theta_0),
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
    return p, cfg, seeds, 10.0 ** draw(st.integers(1, 150))


#: runs the property test always includes: (problem, config, seeds, sentinel)
EXAMPLES = {
    "restart on an epoch boundary": (
        random_atoms(1, 2, 2, True), TunerConfig(alpha_max=100.0, horizon=200), list(range(8)), 1e6
    ),
    "floor aborts among survivors": (
        random_atoms(1, 2, 2, True), TunerConfig(alpha_max=1e-11, horizon=300), list(range(8)), 1e20
    ),
    "second draw chunk": (
        random_atoms(7, 2, 4, True), TunerConfig(alpha_max=10.0, horizon=1500), list(range(8)), 1e3
    ),
}


def tune_with_sentinel(run):
    p, cfg, seeds, sentinel = run
    with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
        return tune_many(p, cfg, seeds), [reference_tune(p, cfg, s) for s in seeds]


class TestTuneMany:
    def test_examples_cover_restarts_aborts_and_chunks(self):
        results = {name: tune_with_sentinel(run)[0] for name, run in EXAMPLES.items()}

        # a row restarts at an epoch boundary while another row checks there
        T = EXAMPLES["restart on an epoch boundary"][1].T
        traces = results["restart on an epoch boundary"]
        restarts = {t for r in traces for t, _ in r.events
                    if t % T == 0 and t not in {c.t for c in r.checks}}
        assert restarts & {c.t for r in traces for c in r.checks}

        aborted = [isinstance(r, NoStableStepSizeError) for r in results["floor aborts among survivors"]]
        assert any(aborted) and not all(aborted)

        assert EXAMPLES["second draw chunk"][1].horizon > 1024
        assert any(t > 1024 for r in results["second draw chunk"] for t, _ in r.events)

    @settings(max_examples=100, deadline=None)
    @given(tuning_runs())
    @example(EXAMPLES["restart on an epoch boundary"])
    @example(EXAMPLES["floor aborts among survivors"])
    @example(EXAMPLES["second draw chunk"])
    def test_matches_per_trajectory_loop(self, run):
        got, want = tune_with_sentinel(run)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_result(g, w)

    @pytest.mark.parametrize("sigma", FIG1_SIGMAS)
    def test_fig1_rows_equal_single_runs(self, sigma):
        # tune_many runs each seed on its own: the results of one call over
        # many seeds are those of one call per seed, in seed order
        p = make_fig1_problem(sigma)
        cfg = TunerConfig(alpha_max=1.0, horizon=160)
        for seed, got in zip(range(50), tune_many(p, cfg, range(50))):
            assert_same_result(got, tune(p, dataclasses.replace(cfg, seed=seed)))

    @pytest.mark.parametrize("name", ["td0_onpolicy", "gtd2_offpolicy"])
    def test_td_rows_equal_single_runs(self, name):
        # as for Fig. 1, at d = 4 and 6 (test_matches_reference_beyond_d3
        # checks these runs against the reference loop)
        p = load_problem_file(PROBLEMS / f"{name}.json")
        cfg = TunerConfig(alpha_max=1.0, horizon=160)
        rows = tune_many(p, cfg, range(8))
        assert any(r.events for r in rows)
        for seed, got in enumerate(rows):
            assert_same_result(got, tune(p, dataclasses.replace(cfg, seed=seed)))

    @pytest.mark.parametrize("name", ["td0_onpolicy", "gtd2_offpolicy", "gaussian-d8"])
    def test_matches_reference_beyond_d3(self, name):
        # the property test's problems stop at d = 3, and the step is
        # generated per d: check d = 4 and 6 (the committed TD files) and 8
        if name == "gaussian-d8":
            rng = np.random.default_rng(8)
            A = np.eye(8) + 0.3 * rng.standard_normal((8, 8)) / np.sqrt(8)
            p = make_gaussian_noise(A, rng.standard_normal(8), sigma_A=1.0, sigma_b=0.5)
        else:
            p = load_problem_file(PROBLEMS / f"{name}.json")
        cfg = TunerConfig(alpha_max=1.0, horizon=160)
        traces = [tune(p, dataclasses.replace(cfg, seed=seed)) for seed in range(8)]
        assert any(t.events for t in traces)
        for seed, got in enumerate(traces):
            assert_same_result(got, reference_tune(p, cfg, seed))

    def test_signed_zeros_match_reference(self):
        # b = 0 and theta_0 = 0 with negative entries in A: every product
        # a_ij theta_j is a signed zero, summed as the reference sums it
        p = make_finite_support([
            ((np.zeros(2), np.array([[-1.0, -2.0], [0.5, -3.0]])), 0.5),
            ((np.zeros(2), np.array([[2.0, -0.5], [-1.0, -1.0]])), 0.5),
        ])
        cfg = TunerConfig(alpha_max=0.1, horizon=200, theta_0=np.zeros(2))
        for seed in range(8):
            got, want = tune(p, dataclasses.replace(cfg, seed=seed)), reference_tune(p, cfg, seed)
            assert got.final_theta_hat.tobytes() == want.final_theta_hat.tobytes()
            assert_same_result(got, want)

    def test_step_rounds_signed_zeros_as_the_reference(self):
        # one step from every signed-zero b and theta: -0.0 + y is y, so the
        # step's sum a_i0 x_0 + a_i1 x_1 + ... has the reference's bits.  A
        # triggered check keeps the iterate as the average, so a one-step run
        # whose check always triggers ends with the step's theta as its hat
        run = _run_function(3)
        A = np.array([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0], [1.0, -2.0, 3.0]])

        def draws(*bs):  # sample() drawing the given b's, each with A
            return lambda rng, shape: (np.array(bs[:shape[0]]), np.array([A] * shape[0]))

        for b in itertools.product((0.0, -0.0), repeat=3):
            for x in itertools.product((0.0, -0.0), repeat=3):
                b_, x_ = np.array(b), np.array(x)
                A_x = A[:, 0] * x_[0] + A[:, 1] * x_[1] + A[:, 2] * x_[2]
                nxt = x_ + 0.5 * (b_ - A_x)
                hat = run(draws(b), None, 1, list(x), 0.5, 1, 1, 1.025, 1.0).final_theta_hat
                assert hat.tobytes() == (x_ + (nxt - x_) / 2).tobytes(), (b, x)
                with mock.patch.object(tuner, "_ratio_test", return_value=((), True)):
                    theta = run(draws(b), None, 1, list(x), 0.5, 1, 1, 1.025, 1.0).final_theta_hat
                assert theta.tobytes() == nxt.tobytes(), (b, x)
        # a step past the bound, and a NaN, restart from theta_0, not from
        # the current iterate (0.45, 0.45, -0.45)
        theta0 = [0.9, 0.0, 0.0]
        for bad in (10.0, np.nan):
            trace = run(draws([0.0] * 3, [bad, 0.0, 0.0]), None, 2, theta0, 0.5, 5, 1, 1.025, 1.0)
            assert trace.events == ((2, 0.25),)
            assert trace.final_theta_hat.tolist() == theta0

    def test_run_function_compiled_once_per_dimension(self):
        _run_function.cache_clear()
        cfg = TunerConfig(alpha_max=1.0, horizon=160)
        td0 = load_problem_file(PROBLEMS / "td0_onpolicy.json")
        with mock.patch("builtins.exec", side_effect=exec) as compiled:
            tune_many(make_fig1_problem(5.0), cfg, range(10))
            tune_many(make_fig1_problem(0.0), cfg, range(10))
            tune(scalar_problem(), cfg)
            tune(td0, cfg)
            tune(td0, dataclasses.replace(cfg, seed=1))
        assert compiled.call_count == 3  # d = 2, 1 and 4
        assert _run_function(2) is _run_function(2)

    def test_complex_problem_refused_before_drawing(self):
        # the transform of GTD2 is complex; the tuner tunes float64 problems only
        p = load_problem_file(PROBLEMS / "gtd2_offpolicy.json")
        p = transform_distribution(p, transform_problem(p))
        assert p.exact_moments.A_P.dtype == np.complex128
        cfg = TunerConfig(alpha_max=1.0, horizon=160)
        message = "tunes float64 problems only, not complex128: tune the untransformed problem"
        with mock.patch.object(np.random, "default_rng", side_effect=AssertionError("drawn")):
            with pytest.raises(ValueError, match=message):
                tune(p, cfg)
            with pytest.raises(ValueError, match=message):
                tune_many(p, cfg, range(8))

    def test_results_in_seed_order(self):
        p, cfg, _, sentinel = EXAMPLES["floor aborts among survivors"]
        seeds = [5, 0, 4, 4, 2]
        with mock.patch.object(engine, "DIVERGENCE_SENTINEL", sentinel):
            got = tune_many(p, cfg, seeds)
            for seed, r in zip(seeds, got):
                assert_same_result(r, tune_many(p, cfg, [seed])[0])
        assert isinstance(got[2], NoStableStepSizeError)
        assert isinstance(got[1], TunerTrace)

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError):
            tune_many(scalar_problem(), TunerConfig(alpha_max=1.0), [])

    @pytest.mark.parametrize("seed", [1.5, -1, True, [1, 2]])
    def test_seeds_must_be_non_negative_integers(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            TunerConfig(alpha_max=1.0, seed=seed)
        # checked before any row is tuned, naming the position
        with pytest.raises(ValueError, match=r"seeds\[1\] must be a non-negative integer"):
            tune_many(scalar_problem(), TunerConfig(alpha_max=1.0), [0, seed])
