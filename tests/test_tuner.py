import re

import numpy as np
import pytest

from lsalab import (
    DIVERGENCE_SENTINEL,
    NoStableStepSizeError,
    TunerConfig,
    is_unstable,
    make_finite_support,
    make_gaussian_noise,
    tune,
)
from lsalab.cli import make_fig1_problem


def scalar_problem(a=1.0, b=1.0):
    return make_finite_support([((np.array([b]), np.array([[a]])), 1.0)])


class TestIsUnstable:
    def test_flat_norms(self):
        assert is_unstable([1.0, 1.0, 1.0], 1.025) is False

    def test_doubling_norms(self):
        assert is_unstable([1.0, 2.0, 4.0], 1.025) is True

    def test_mild_wiggle_under_threshold(self):
        # ratios 1.02 and ~0.990
        assert is_unstable([1.0, 1.02, 1.01], 1.025) is False

    def test_zero_norm_is_not_growth_evidence(self):
        assert is_unstable([0.0, 5.0, 10.0], 1.025) is False

    def test_nonfinite_norm_is_divergence(self):
        assert is_unstable([1.0, np.inf, 2.0], 1.025) is True
        assert is_unstable([1.0, np.nan], 1.025) is True

    def test_needs_two_norms(self):
        with pytest.raises(ValueError):
            is_unstable([1.0], 1.025)


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
        assert event_times <= triggered_times | event_times  # events come from checks
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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TunerConfig(alpha_max=0.0)
        with pytest.raises(ValueError):
            TunerConfig(alpha_max=1.0, c_threshold=1.0)
        with pytest.raises(ValueError):
            TunerConfig(alpha_max=1.0, k=2, T=5, horizon=10)


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
