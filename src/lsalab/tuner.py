"""Automatic constant step-size tuning by instability detection and halving.

The tuner runs the iteration at the current step-size while maintaining the
running average, stepping through the dense (b, A) draws of ``sample``.  Its
step is defined as separately rounded IEEE arithmetic, with no fused
multiply-add and no BLAS kernel:

    v_i = b_i - (((a_i0 theta_0) + a_i1 theta_1) + ...),
    theta <- theta + alpha v,    hat <- hat + (theta - hat) / k,

k - 1 being the number of steps averaged into hat.  A gemv would leave the
rounding of A theta to the kernel OpenBLAS picks at run time (its Haswell
kernel fuses multiply-adds), so a tuning run's bits would depend on the
host.  Only float64 problems are tuned: numpy's SIMD complex product does
not round as separately rounded arithmetic.  So a trace depends on the host
only through its draws, whose last bits do for a Gaussian problem of d >= 3
with sigma_A > 0 (its noise scale c_d, see ``cli``).

Each seed's whole halving loop is one function per dimension d
(``_run_function``), generated once per process from source text made from
d alone, as ``dataclasses`` makes ``__init__``, so no input reaches
``exec``.  It steps on Python floats, which at R = 1 and small d costs less
than the numpy calls of an array step, and keeps theta and hat in 2 d local
floats across steps.  Each draw chunk becomes one list of flat rows,
``concatenate((b, A.reshape(n, -1)), axis=1).tolist()``, and the ``for``
target unpacks a row into b_0, ..., b_(d-1), a_00, a_01, ...: copying and
listing float64 values does no arithmetic, so these are the draws' values.
Each theta_i + alpha * (b_i - (a_i0 * x0 + a_i1 * x1 + ...)) is one
expression, which Python evaluates left to right, every product and sum a
float operation of its own (CPython fuses no multiply-add), so the step has
the bits of the definition above.  The bound test, the average, the epoch
test, the ratio test, halving, the restarts and the floor abort keep the
expressions and order of the hand-written loop around a generated step that
this loop replaced, so every trace and error is that loop's, bit for bit.

The step does d^2 Python multiply-adds.  Per ``tune`` call (Gaussian
problem, sigma_A = 1, sigma_b = 0.5, seed 3, horizon 160, 7 x 20 calls
alternating in one process with the loop around a generated step, best of 3
runs, 2-vCPU x86-64 host, unscaled) it took 0.155 ms at d = 1, 0.226 at
d = 2, 0.384 at d = 4, 0.97 at d = 8, 2.9 at d = 16 and 12.7 ms at d = 32,
against 0.202, 0.289, 0.500, 1.31, 3.7 and 15.0 ms; TD(0) at d = 4 took
0.32 against 0.43 ms and GTD2 at d = 6 0.50 against 0.63 ms.  The host's
speed drifted by up to 1.8x between runs, while the ratios held.  A gemv
step took 1.24 ms at d = 2 and 5.3 ms at d = 32.  Generating the loop costs
1.0 ms and 0.1 MB of peak RSS at d = 2, 14 ms and 3.1 MB at d = 32, 47 ms
and 9 MB at d = 64, 160 ms and 33 MB at d = 128, and 2.9 s and 440 MB at
d = 512 (a generated step alone: 0.3 ms and 0.0 MB, 13 ms and 3.0 MB, 53 ms
and 11 MB, 150 ms and 42 MB, 4.0 s and 605 MB).  No caller tunes above
d = 6, so there is no size switch.

Tried and not kept, on the tune-sweep benchmark: against a loop over nested
``zip``s, a sum by ``functools.reduce(operator.add, map(operator.mul,
...))`` (263 -> 300 ms per sweep), a generated step of O(d) source (-3%),
one that leaves the bound test and the average to the loop (-25%), and a
hand-written d = 2 step (-51%, as fast as a generated one, but a second
implementation); against the loop around a generated step (-19% for this
loop), one generated call per epoch of at most T steps, with the halving
left in Python (-14%), and ``-bound <= s_i <= bound`` in place of ``abs``
(0.100 against 0.096 s per sweep).  Stepping through a Gaussian problem's
step form, d normals per step in place of the dense draws, measured -29%
against -21% for this loop; it changes every Gaussian trace, and the
benchmark's tracer counts draws through ``sample``, so it waits until that
tracer counts step-form draws.

``tune_many`` runs the halving loop once per seed, each seed drawing from
its own stream, so its result for a seed is that of ``tune``.  Every
halving is one restart: from the current iterate after the ratio test,
from theta_0 after a step past the divergence bound.  A seed whose halving
crosses the step-size floor has its NoStableStepSizeError as its result.

The norm of the average is recorded at every multiple of the epoch length T;
once k+1 such norms are available, the epoch-over-epoch growth ratios
r_i = ||hat||_i / ||hat||_{i-1} are tested, and any ratio above the threshold
c > 1 halves the step-size.

On a halving the iterate is kept, while the running average and the epoch
window restart from the current iterate: a running average contaminated by an
earlier unstable phase would otherwise keep growing toward the (large) current
iterate and re-trigger the test at step-sizes that are already stable.

The growth-ratio statistic is only informative while the instability transient
is fresh: long after the last halving, rotation of the iterate around the
fixed point makes the norm of a freshly restarted average oscillate, which
slowly bleeds the step-size downward.  Tuning horizons of a couple hundred
steps (a few times the halving cascade length) are therefore recommended and
are the default in the experiment driver; the step-size active at the horizon
is declared final.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .engine import _resolve_theta0, divergence_bound
from .problems import ProblemDistribution, _check_integer

__all__ = [
    "TunerConfig",
    "TunerTrace",
    "RatioCheck",
    "tune",
    "tune_many",
    "NoStableStepSizeError",
]

_ALPHA_FLOOR = 1e-12

_CHUNK = 1024  # steps drawn per seed at a time; fixes each seed's stream


class NoStableStepSizeError(RuntimeError):
    """Halving reached the floor without finding a stable step-size."""


@dataclass(frozen=True)
class TunerConfig:
    """Knobs of the tuning loop.

    k is the number of ratios per check (window of k+1 epoch norms), T the
    epoch length in steps, c_threshold the growth factor treated as evidence
    of instability; ``seed`` is a non-negative integer (see
    ``problems._check_integer``).
    """

    alpha_max: float
    k: int = 2
    T: int = 5
    c_threshold: float = 1.025
    horizon: int = 160
    seed: int = 0
    theta_0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("k", "T", "horizon"):
            _check_integer(getattr(self, name), name, least=1)
        _check_integer(self.seed, "seed", seed=True)
        if not 0 < self.alpha_max < math.inf:  # NaN fails too
            raise ValueError(f"alpha_max must be finite and positive, not {self.alpha_max!r}")
        if not 1 < self.c_threshold < math.inf:  # NaN fails too
            raise ValueError(f"c_threshold must be finite and exceed 1, not {self.c_threshold!r}")
        if self.k * self.T >= self.horizon:
            raise ValueError(
                f"horizon={self.horizon} must exceed k*T = {self.k * self.T} "
                f"(k={self.k}, T={self.T})"
            )


@dataclass(frozen=True)
class RatioCheck:
    """One evaluation of the instability test at an epoch boundary."""

    t: int
    ratios: tuple[float, ...]
    triggered: bool


@dataclass(frozen=True)
class TunerTrace:
    """Full record of a tuning run.

    ``events`` lists (t, alpha_after_halving) pairs; the alpha sequence halves
    at every event, so final_alpha = alpha_max / 2**len(events).

    ``final_theta_hat`` is the running average at the horizon, not an
    estimate of theta*: after a halving the average restarts from the
    iterate that was kept, which an unstable phase may have carried far out.
    On the Fig. 1 problems (alpha_max = 1, horizon 160) all 1,000 runs of
    seeds 0-199 ended with ||final_theta_hat|| > 1e20.
    """

    events: tuple[tuple[int, float], ...]
    final_alpha: float
    final_theta_hat: np.ndarray
    checks: tuple[RatioCheck, ...]


def _ratio_test(norms: list[float], c_threshold: float) -> tuple[tuple[float, ...], bool]:
    """Growth test on the k+1 epoch-boundary norms (floats) of the running
    average: (ratios, triggered).

    ``triggered`` is True iff some consecutive ratio norms[i]/norms[i-1]
    exceeds c_threshold.  Any non-finite norm is definite divergence (True);
    any zero norm means ratios are uninformative and yields False (no growth
    evidence).  The ratios are empty unless every norm is finite and nonzero.
    """
    finite = all(map(math.isfinite, norms))
    if not finite or 0.0 in norms:
        return (), not finite
    ratios = tuple(map(operator.truediv, norms[1:], norms))
    return ratios, max(ratios) > c_threshold


def tune(p: ProblemDistribution, cfg: TunerConfig) -> TunerTrace:
    """Run the halving loop for cfg.horizon steps; deterministic given cfg.seed.

    The single-seed case of ``tune_many``: returns its trace, or raises its
    NoStableStepSizeError when halving crosses the absolute floor 1e-12.  If
    the iterate itself passes the divergence bound between checks (possible
    when alpha_max is grossly large), the step-size is halved immediately and
    the state restarts from theta_0; this emergency restart is recorded as a
    regular halving event.  The bound is the engine's ``divergence_bound``:
    DIVERGENCE_SENTINEL times the problem's scale max(1, ||theta_0||_inf,
    ||theta*||_inf), so a fixed point far from the origin is not mistaken for
    divergence.
    """
    (result,) = tune_many(p, cfg, [cfg.seed])
    if isinstance(result, NoStableStepSizeError):
        raise result
    return result


def tune_many(
    p: ProblemDistribution, cfg: TunerConfig, seeds
) -> list[TunerTrace | NoStableStepSizeError]:
    """Run the halving loop once per seed.

    ``seeds`` replaces cfg.seed; each seed draws from its own
    ``default_rng(seed)`` exactly as ``tune(p, replace(cfg, seed=seed))``
    would, so its result is bit-identical to that single run.  Returns, in
    seed order, each seed's TunerTrace, or the NoStableStepSizeError that
    ``tune`` would raise for it.  Raises ValueError, before any seed is
    drawn, when ``seeds`` is empty or one of them is not a non-negative
    integer, or when the run's dtype is not float64.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    for i, seed in enumerate(seeds):
        _check_integer(seed, f"seeds[{i}]", seed=True)
    theta0 = _resolve_theta0(p, cfg)
    if theta0.dtype != np.float64:
        raise ValueError(
            f"the tuner tunes float64 problems only, not {theta0.dtype}: "
            "tune the untransformed problem"
        )
    run = _run_function(p.dim)
    args = (cfg.horizon, theta0.tolist(), float(cfg.alpha_max), cfg.T, cfg.k, cfg.c_threshold,
            divergence_bound(p, theta0))
    return [run(p.sample, np.random.default_rng(seed), *args) for seed in seeds]


@functools.cache
def _run_function(d: int):
    """``run(sample, rng, horizon, theta0, alpha, T, k, c, bound)``, one
    seed's halving loop at dimension d, stepping on Python floats: its
    TunerTrace, or the NoStableStepSizeError of a halving below the floor.
    Its source is made from d alone: theta and hat are 2 d locals, each draw
    one flat row (b, A row by row) that the ``for`` target unpacks, and A x
    one left-to-right sum per row."""
    ix = range(d)

    def names(v):  # each with a trailing comma, so that d = 1 unpacks too
        return "".join(f"{v}{i}, " for i in ix)

    def each(form):  # one statement per coordinate, on one line
        return "; ".join(form.format(i=i) for i in ix)

    row = names("b") + "".join(f"a{i}_{j}, " for i in ix for j in ix)
    steps = "; ".join(
        f"s{i} = x{i} + alpha * (b{i} - ({' + '.join(f'a{i}_{j} * x{j}' for j in ix)}))"
        for i in ix)
    in_bound = " and ".join(f"bound >= abs(s{i})" for i in ix)
    x, h = names("x"), names("h")
    source = f"""
def run(sample, rng, horizon, theta0, alpha, T, k, c, bound):
    {x}= theta0
    {h}= theta0
    since = 0  # time of the last restart: the average holds t - since steps
    window = [math.hypot({x})]  # the last k+1 epoch norms since that restart
    events, checks = [], []
    t = 0
    while t < horizon:
        n = min(_CHUNK, horizon - t)
        b, A = sample(rng, (n,))
        for {row}in np.concatenate((b, A.reshape(n, -1)), axis=1).tolist():
            t += 1
            {steps}
            if {in_bound}:
                m = t - since + 1
                {each("x{i} = s{i}")}
                {each("h{i} = h{i} + (s{i} - h{i}) / m")}
                if t % T:
                    continue
                # math.hypot takes the absolute values itself
                window = window[-k:] + [math.hypot({h})]
                if len(window) <= k:
                    continue
                ratios, triggered = _ratio_test(window, c)
                checks.append(RatioCheck(t, ratios, triggered))
                if not triggered:
                    continue
                # a triggered check keeps the iterate
            else:
                {x}= theta0  # held at the bound: restart from theta_0
            alpha /= 2.0
            if alpha < _ALPHA_FLOOR:
                return NoStableStepSizeError(
                    f"no stable step-size found: reached alpha={{alpha:g}} at t={{t}}")
            events.append((t, alpha))
            since, window = t, [math.hypot({x})]
            {h}= {x}
    return TunerTrace(events=tuple(events), final_alpha=alpha,
                      final_theta_hat=np.array(({h})), checks=tuple(checks))
"""
    namespace = {}
    # run reads _CHUNK, _ratio_test, RatioCheck, ... as this module's globals
    exec(source, globals(), namespace)
    return namespace["run"]
