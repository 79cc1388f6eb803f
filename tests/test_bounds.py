import dataclasses
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsalab import (
    BoundInputs,
    CertifiedRegimeError,
    Moments,
    RunConfig,
    beta_coefficient,
    beta_partial_sum,
    bound_curve,
    bound_inputs_for,
    hurwitz_to_pd,
    load_problem_file,
    lower_bound,
    make_finite_support,
    make_lower_bound_instance,
    rho_d,
    rho_s,
    run_mse,
    transform_problem,
    upper_bound,
    witness_alpha,
)

THETA0 = np.array([1.0, 1.0])
PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"
# a coordinate of theta_0: zero or of magnitude at least 1e-3, so that no
# square in ``exact_mse_diag`` is subnormal
COORDINATE = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


def instance_inputs(alpha=0.1, lam=(1.0, 2.0), sigma_b=1.0, theta_0=THETA0):
    m = make_lower_bound_instance(lam[0], lam[1], sigma_b).exact_moments
    return bound_inputs_for(m, alpha, theta_0)


def exact_mse_diag(alpha, lams, sigma_b, theta_0, t):
    """Exact averaged-iterate MSE for the constant-diagonal family."""
    t = int(t)
    bias = 0.0
    for lam, th0 in zip(lams, theta_0):
        g = 1 - alpha * lam
        bias += ((1 / (t + 1)) * (1 / (alpha * lam)) * (1 - g ** (t + 1)) * th0) ** 2
    g1 = 1 - alpha * lams[0]
    noise = (
        sigma_b**2
        / lams[0] ** 2
        * sum((1 - g1**u) ** 2 for u in range(1, t + 1))
        / (t + 1) ** 2
    )
    return bias + noise


class TestUpperBound:
    def test_zero_at_fixed_point_without_noise(self):
        inputs = instance_inputs(sigma_b=0.0, theta_0=np.zeros(2))
        total, bias, var = upper_bound(inputs, 100)
        assert total == bias == var == 0.0

    def test_reference_values(self):
        # rho_s = rho_d = 1.9 at alpha = 0.1; v^2 = alpha^2 * sigma_b^2
        inputs = instance_inputs()
        assert inputs.rho_s == pytest.approx(1.9)
        assert inputs.rho_d == pytest.approx(1.9)
        assert inputs.v_sq == pytest.approx(0.01)
        # cross-term factor: 1 + 2*sqrt(g)/(1 - sqrt(g)) with g = 1 - 0.19 = 0.81
        assert inputs.nu == pytest.approx((1 + 2 * 0.9 / 0.1) / 0.19)
        assert inputs.nu == pytest.approx(100.0)

    def test_time_scaling(self):
        inputs = instance_inputs()
        _, bias_a, var_a = upper_bound(inputs, 99)
        _, bias_b, var_b = upper_bound(inputs, 199)
        assert var_b == pytest.approx(var_a / 2)
        assert bias_b == pytest.approx(bias_a / 4)

    def test_total_is_bias_plus_variance(self):
        inputs = instance_inputs()
        t = np.arange(1, 50)
        total, bias, var = upper_bound(inputs, t)
        assert np.allclose(total, bias + var)
        assert np.all(total >= 0)

    def test_regime_check(self):
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        with pytest.raises(CertifiedRegimeError, match="outside certified regime"):
            bound_inputs_for(m, 1.5, THETA0)  # rho_s(1.5) < 0

    def test_moments_without_a_fixed_point_refused(self):
        m = Moments(np.zeros((2, 2)), np.ones(2), np.eye(2), 0.0, 0.0)
        with pytest.raises(ValueError, match="^moments carry no fixed point$"):
            BoundInputs(m, 0.1, THETA0)

    def test_transform_without_transformed_moments_refused(self):
        # hurwitz_to_pd finds U alone; transform_problem adds the moments
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        tr = hurwitz_to_pd(m.A_P)
        assert tr.transformed_moments is None
        with pytest.raises(ValueError, match="^transform carries no transformed moments$"):
            BoundInputs(m, 0.1, THETA0, transform=tr)

    def test_theta0_shape_checked(self):
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        with pytest.raises(ValueError, match=r"theta_0 must have shape \(2,\)"):
            bound_inputs_for(m, 0.1, np.array([5.0]))

    @pytest.mark.parametrize("alpha", [1e-150, 1e-160, 1e-162, 1e-200, 1e-300, 5e-324])
    def test_step_size_whose_square_underflows(self, alpha):
        # the lower envelope divides by alpha^2 rho_d rho_s: where it
        # underflows to 0, a ValueError naming alpha; above, the envelopes
        # read a number or +inf, never NaN
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        if alpha**2 == 0:  # rho_d, rho_s > 1 here, so the product underflows with alpha^2
            with pytest.raises(ValueError, match=f"alpha={alpha!r} is too small"):
                bound_inputs_for(m, alpha, THETA0)
            return
        curve = bound_curve(bound_inputs_for(m, alpha, THETA0), np.array([1, 10, 1000]))
        for column in (curve.lower, curve.upper):
            assert not np.isnan(column).any() and (column > 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_theta0_must_be_finite(self, bad):
        m = make_lower_bound_instance(1.0, 2.0, 1.0).exact_moments
        with pytest.raises(ValueError, match="theta_0 must be finite"):
            bound_inputs_for(m, 0.1, np.array([bad, 0.0]))

    @pytest.mark.parametrize(
        "name, transformed, alphas",
        [("td0_onpolicy", False, (0.01, 0.02)), ("gtd2_offpolicy", True, (0.005, 0.01))],
    )
    def test_replace_rederives_the_gaps(self, name, transformed, alphas):
        # the gaps, and nu with them, are functions of alpha: a replaced
        # step-size must not keep the gaps of the old one
        p = load_problem_file(PROBLEMS / f"{name}.json")
        tr = transform_problem(p) if transformed else None
        theta_0 = np.full(p.dim, 0.5)
        old = bound_inputs_for(p.exact_moments, alphas[0], theta_0, tr)
        got = dataclasses.replace(old, alpha=alphas[1])
        want = bound_inputs_for(p.exact_moments, alphas[1], theta_0, tr)
        assert got.rho_s != old.rho_s
        for field in ("rho_s", "rho_d", "nu"):
            assert getattr(got, field) == getattr(want, field), field

    def test_dominates_exact_mse(self):
        # the envelope must sit above the exact closed-form MSE everywhere
        inputs = instance_inputs()
        for t in [1, 10, 100, 1000, 10000]:
            exact = exact_mse_diag(0.1, (1.0, 2.0), 1.0, THETA0, t)
            total, _, _ = upper_bound(inputs, t)
            assert total >= exact, t

    @settings(max_examples=200, deadline=None)
    @given(
        lam_min=st.floats(0.01, 10.0),
        ratio=st.floats(1.01, 100.0),
        sigma_b=st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        theta_0=st.tuples(COORDINATE, COORDINATE),
        fraction=st.floats(1e-3, 0.999),
    )
    @example(lam_min=1.0, ratio=2.0, sigma_b=0.0, theta_0=(1.0, 0.0), fraction=0.5)
    def test_dominates_exact_mse_on_the_constant_diagonal_family(
        self, lam_min, ratio, sigma_b, theta_0, fraction
    ):
        # below the witness the envelope sits above the exact MSE at every t.
        # With sigma_b = 0 and theta_0 on the lam_min axis (the example) the
        # two meet as t grows, so they are compared up to rounding.  The
        # lower envelope is not pinned here: it exceeds the exact MSE from
        # t >= 7 on at many inputs (ROADMAP, "Known limits")
        lams = (lam_min, lam_min * ratio)
        m = make_lower_bound_instance(*lams, sigma_b).exact_moments
        alpha = fraction * witness_alpha(m)
        t = np.array(list(range(1, 13)) + [20, 50, 100, 300, 1000, 3000])
        total, _, _ = upper_bound(bound_inputs_for(m, alpha, np.array(theta_0)), t)
        for ti, upper in zip(t, total):
            exact = exact_mse_diag(alpha, lams, sigma_b, theta_0, ti)
            assert exact <= upper * (1 + 1e-12), ti


class TestLowerBound:
    def test_noiseless_t1(self):
        inputs = instance_inputs(sigma_b=0.0)
        # beta_1 = alpha*rho_s, empty noise sum
        expect = (
            1
            / (0.1**2 * 1.9 * 1.9)
            * (0.1 * 1.9)
            * np.linalg.norm(THETA0) ** 2
            / 4
        )
        assert lower_bound(inputs, 1) == pytest.approx(expect)

    def test_bias_limit_large_t(self):
        inputs = instance_inputs(sigma_b=0.0)
        t = 10**7
        got = lower_bound(inputs, t)
        expect = np.linalg.norm(THETA0) ** 2 / (0.1**2 * 1.9 * 1.9 * (t + 1) ** 2)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_below_exact_mse(self):
        # valid from t ~ 7 on for this instance: at very small t the stated
        # coefficient beta_t exceeds the squared forgetting factor and the
        # full initial error enters where only one coordinate contributes
        inputs = instance_inputs()
        for t in [7, 10, 100, 1000, 10000]:
            exact = exact_mse_diag(0.1, (1.0, 2.0), 1.0, THETA0, t)
            assert lower_bound(inputs, t) <= exact, t

    def test_lower_below_upper_on_grid(self):
        inputs = instance_inputs()
        t = np.unique(np.geomspace(1, 10**4, 200).astype(int))
        total, _, _ = upper_bound(inputs, t)
        assert np.all(lower_bound(inputs, t) <= total)


class TestBeta:
    def test_range_and_monotonicity(self):
        # t capped where (1 - alpha*rho_s)^t still resolves in float64
        inputs = instance_inputs()
        t = np.arange(1, 120)
        beta = beta_coefficient(inputs.alpha * inputs.rho_s, t)
        assert np.all((beta > 0) & (beta < 1))
        assert np.all(np.diff(beta) > 0)

    def test_partial_sum_matches_direct(self):
        x = 0.19
        t = 1000
        direct = sum(1 - (1 - x) ** j for j in range(t))  # beta_{t-s}, s=1..t
        closed = beta_partial_sum(x, t)
        assert abs(closed - direct) / direct < 1e-10

    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-100, 1e-17, 1e-15, 1e-8, 0.19, 0.5, 1.0])
    def test_match_exact_sums_at_small_t(self, x):
        # beta_t = 1 - (1-x)^t and its partial sum, term by term in exact
        # rationals; as x -> 0 both cancel in floating point unless
        # evaluated in a stable form
        X, tol = Fraction(x), Fraction(1, 10**15)
        t = np.arange(1, 13)
        beta, partial = beta_coefficient(x, t), beta_partial_sum(x, t)
        for i, ti in enumerate(t):
            exact_beta = 1 - (1 - X) ** int(ti)
            exact_sum = sum(1 - (1 - X) ** j for j in range(int(ti)))  # beta_{t-s}, s=1..t
            assert abs(Fraction(beta[i]) - exact_beta) <= tol * exact_beta, ti
            assert abs(Fraction(partial[i]) - exact_sum) <= tol * exact_sum, ti

    @pytest.mark.parametrize("x", [1e-300, 1e-15, 1e-6, 0.01, 0.19])
    def test_partial_sum_across_the_series_switch(self, x):
        # the series serves t x <= 1 and t - beta_t/x the rest; against
        # t - (1 - exp(t log(1-x)))/x in decimals with digits to spare for
        # its cancellation
        t = np.unique(np.geomspace(2, min(1e6, 100 / x), 120).round())  # S_1 = 0
        got = beta_partial_sum(x, t)
        with localcontext() as ctx:
            ctx.prec = 60 + 2 * max(0, int(-np.log10(x)))  # ln(1 - x) needs 1 - x to x^2
            X = Decimal(x)
            log_1mx = (1 - X).ln()
            for ti, g in zip(t, got):
                T = Decimal(int(ti))
                exact = T - (1 - (T * log_1mx).exp()) / X
                assert abs(Decimal(g) - exact) <= Decimal("1e-15") * exact, ti


def alpha_range_problems():
    """The committed TD problems and random finite problems with a positive
    definite mean."""
    out = []
    for name in ("td0_onpolicy", "gtd2_offpolicy"):
        p = load_problem_file(PROBLEMS / f"{name}.json")
        out.append(pytest.param(p, id=name))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        d = 3
        atoms = [
            ((rng.standard_normal(d), 2.0 * np.eye(d) + 0.5 * rng.standard_normal((d, d))), 0.25)
            for _ in range(4)
        ]
        out.append(pytest.param(make_finite_support(atoms), id=f"finite-{seed}"))
    return out


class TestSmallStepSizes:
    @pytest.mark.parametrize("p", alpha_range_problems())
    def test_envelopes_hold_from_the_underflow_limit_to_the_witness(self, p):
        # alpha log-uniform over the whole certified range: from just above
        # where alpha^2 or alpha^2 rho_d rho_s underflows (the gaps tend to
        # lam_min(A + A^*) as alpha -> 0) up to the witness
        tr = transform_problem(p)
        m = tr.transformed_moments
        lam = np.linalg.eigvalsh(m.A_P + m.A_P.conj().T)[0]
        lo, hi = 2.0 * np.sqrt(5e-324) / min(lam, 1.0), 0.99 * witness_alpha(m)
        alphas = np.exp(np.random.default_rng(0).uniform(np.log(lo), np.log(hi), 60))
        t = np.unique(np.geomspace(1, 1e6, 40).round())
        star = p.exact_moments.theta_star
        for alpha in np.append(alphas, [lo, 1e-17, 1e-15, hi]):
            for theta_0 in (np.zeros(p.dim), star):
                curve = bound_curve(bound_inputs_for(p.exact_moments, alpha, theta_0, tr), t)
                assert np.all(curve.lower >= 0) and np.all(np.isfinite(curve.lower)), alpha
                if theta_0 is star:
                    # only the variance term: it falls as 1/(t+1)
                    assert np.all(np.isfinite(curve.upper)), alpha
                    assert np.all(np.diff(curve.upper) <= 0), alpha
                elif alpha >= 1e-100:  # the bias term stays inside the float range
                    assert np.all(np.isfinite(curve.upper)), alpha


class TestCurveShape:
    def test_u_shape_in_alpha(self):
        # at fixed t the envelope blows up both as alpha -> 0 (slow bias
        # forgetting) and as alpha approaches the witness (gap collapse);
        # use a family whose witness sits exactly at the gap root so the
        # right-hand blow-up is visible inside the certified range
        from lsalab import make_gaussian_noise

        A = np.array([[1.0, -10.0], [10.0, 1.0]])
        m = make_gaussian_noise(A, A @ np.ones(2), 0.0, 1.0).exact_moments
        wit = witness_alpha(m)
        assert rho_s(m, wit * 0.999999) == pytest.approx(0.0, abs=1e-4)
        alphas = np.linspace(0.01 * wit, 0.99 * wit, 40)
        vals = []
        for a in alphas:
            total, _, _ = upper_bound(bound_inputs_for(m, a, np.zeros(2)), 1000)
            vals.append(total)
        i_min = int(np.argmin(vals))
        assert 0 < i_min < len(vals) - 1
        assert vals[0] > vals[i_min] * 3
        assert vals[-1] > vals[i_min] * 3

    def test_bound_curve_fields(self):
        inputs = instance_inputs()
        curve = bound_curve(inputs, np.array([10, 100, 1000]))
        assert np.all(curve.upper == curve.upper_bias + curve.upper_variance)
        assert np.all(curve.lower <= curve.upper)


class TestSandwich:
    def test_monte_carlo_between_envelopes(self):
        # engine curve sits between the envelopes at several horizons
        p = make_lower_bound_instance(1.0, 2.0, 1.0)
        inputs = instance_inputs()
        cfg = RunConfig(
            alpha=0.1, horizon=1000, theta_0=THETA0, record_stride=10,
            n_replications=300, seed=21,
        )
        curve = run_mse(p, cfg)
        for t in [10, 100, 1000]:
            i = int(np.where(curve.times == t)[0][0])
            lo = lower_bound(inputs, t)
            hi, _, _ = upper_bound(inputs, t)
            assert curve.mse[i] >= lo - 3 * curve.stderr[i]
            assert curve.mse[i] <= hi + 3 * curve.stderr[i]
