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
only through its draws, whose last bits do for a Gaussian problem with
sigma_A > 0 (see ``cli``).

Each seed steps on Python floats over each draw chunk's ``tolist()``: at
R = 1 and small d that costs less than the numpy calls of an array step.
The step is one function per dimension d (``_step_function``), generated
once per process from source text made from d alone, as ``dataclasses``
makes ``__init__``, so no input reaches ``exec``.  It unpacks b, A, theta
and hat into locals and writes each theta_i + alpha * (b_i - (a_i0 * x0 +
a_i1 * x1 + ...)) as one expression.  Python evaluates it left to right,
every product and sum a float operation of its own (CPython fuses no
multiply-add), so the step has the bits of the definition above.

The step does d^2 Python multiply-adds.  Per ``tune`` call (Gaussian
problem, sigma_A = 1, sigma_b = 0.5, horizon 160, best of 7 x 20 calls,
2-vCPU x86-64 host, unscaled) it took 0.22 ms at d = 2, 0.40 at d = 4, 0.61
at d = 6, 0.93 at d = 8, 3.4 at d = 16 and 13.0 ms at d = 32; a loop over
nested ``zip``s took 0.50, 0.82, 1.17, 1.72, 5.6 and 18.9 ms, and a gemv
step 1.24 ms at d = 2 and 5.3 ms at d = 32.  Generating the step costs 0.2
ms at d = 2 and 7.6 ms at d = 32, then 30 ms and 11 MB of peak memory at
d = 64, 120 ms and 42 MB at d = 128, and 2.7 s and 605 MB at d = 512, where
drawing and listing the 160 dense draws already takes 4 s.  No caller tunes
above d = 6, so there is no size switch.  Tried and not kept, on the
tune-sweep shape against the ``zip`` loop: a sum by
``functools.reduce(operator.add, map(operator.mul, ...))`` (263 -> 300 ms
per sweep), a generated step of O(d) source (-3%), one that leaves the
bound test and the average to the loop (-25%), and a hand-written d = 2
step (-51%, as fast as the generated one, but a second implementation).

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
    bound = divergence_bound(p, theta0)
    return [_run(p, cfg, seed, theta0.tolist(), bound) for seed in seeds]


@functools.cache
def _step_function(d: int):
    """``step(b, A, x, h, alpha, k, bound)``, the tuner's step at dimension
    d: from one draw (b, A) as nested lists, the iterate x and the average h
    of k - 1 steps, the next iterate and average as tuples, or (None, None)
    when the next iterate would pass ``bound`` (a NaN does).  Its source is
    made from d alone: A x unrolled into one left-to-right sum per row."""
    ix = range(d)

    def names(v):  # each with a trailing comma, so that d = 1 unpacks too
        return "".join(f"{v}{i}, " for i in ix)

    rows = "".join(f"({''.join(f'a{i}_{j}, ' for j in ix)}), " for i in ix)
    lines = [
        "def step(b, A, x, h, alpha, k, bound):",
        f"    {names('b')}= b",
        f"    {rows}= A",
        f"    {names('x')}= x",
        *(f"    s{i} = x{i} + alpha * (b{i} - ({' + '.join(f'a{i}_{j} * x{j}' for j in ix)}))"
          for i in ix),
        f"    if not ({' and '.join(f'bound >= abs(s{i})' for i in ix)}):",
        "        return None, None",
        f"    {names('h')}= h",
        f"    return ({names('s')}), ({''.join(f'h{i} + (s{i} - h{i}) / k, ' for i in ix)})",
    ]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["step"]


def _run(p: ProblemDistribution, cfg: TunerConfig, seed: int, theta0: list[float],
         bound: float) -> TunerTrace | NoStableStepSizeError:
    """One seed's halving loop, stepping on Python floats: its trace, or the
    NoStableStepSizeError of a halving below the floor."""
    rng = np.random.default_rng(seed)
    step = _step_function(len(theta0))
    T, k, c_threshold = cfg.T, cfg.k, cfg.c_threshold
    alpha = float(cfg.alpha_max)
    since = 0  # time of the last restart: the average holds t - since steps
    window = [math.hypot(*theta0)]  # the last k+1 epoch norms since that restart
    events, checks = [], []
    theta = hat = theta0
    t = 0
    while t < cfg.horizon:
        b, A = p.sample(rng, (min(_CHUNK, cfg.horizon - t),))
        for b_s, A_s in zip(b.tolist(), A.tolist()):
            t += 1
            nxt, nxt_hat = step(b_s, A_s, theta, hat, alpha, t - since + 1, bound)
            if nxt is not None:
                theta, hat = nxt, nxt_hat
                if t % T:
                    continue
                # math.hypot takes the absolute values itself
                window = window[-k:] + [math.hypot(*hat)]
                if len(window) <= k:
                    continue
                ratios, triggered = _ratio_test(window, c_threshold)
                checks.append(RatioCheck(t, ratios, triggered))
                if not triggered:
                    continue
                start = theta  # a triggered check keeps the iterate
            else:
                start = theta0  # held at the bound: restart from theta_0
            alpha /= 2.0
            if alpha < _ALPHA_FLOOR:
                return NoStableStepSizeError(
                    f"no stable step-size found: reached alpha={alpha:g} at t={t}")
            events.append((t, alpha))
            since, window = t, [math.hypot(*start)]
            theta = hat = start
    return TunerTrace(events=tuple(events), final_alpha=alpha,
                      final_theta_hat=np.array(hat), checks=tuple(checks))
