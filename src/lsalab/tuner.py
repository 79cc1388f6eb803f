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
host.  The step is implemented twice, with equal bits:

- a run of one seed on real (float64) data is a scalar loop on Python
  floats over each draw chunk's ``tolist()`` (``_run_floats``): at R = 1 and
  small d it costs less than the numpy calls of an array step (about eleven
  at d = 2);
- every other run advances its seeds as rows of one (R, d) state on the
  engine's step kernel (``_run_rows``), whose direction
  (``_dense_direction``) accumulates A theta column by column in the order
  above.  A complex run takes this path even for one seed: CPython's
  complex product may round differently from numpy's, which would make
  ``tune`` disagree with the rows of ``tune_many``.

Both loops take their decisions through one ``_Seed`` record per seed
(stream, step-size, restart time, window of epoch norms, events, checks,
result), so every decision rule is in one place.  The scalar loop does d^2
Python multiply-adds per step, which lose to one gemv at large d: on a
Gaussian problem at horizon 160 (2-vCPU x86-64 host, unscaled) a ``tune``
call took 0.58 ms against 1.24 ms through a gemv at d = 2, as long at
d = 6, 1.95 ms against 1.41 ms at d = 8 and 18.3 ms against 5.3 ms at
d = 32.  No caller tunes above d = 6.

``tune_many`` runs one halving loop per seed.  All rows share the time t
and each draws from its own stream, so a row's trace is bit-identical to
the single run ``tune`` makes for its seed.  Every halving is one restart:
from the current iterate after the ratio test, from theta_0 for a row the
kernel holds at the divergence bound (the others take that step).  A row
whose halving crosses the step-size floor keeps its NoStableStepSizeError
as its result and leaves the batch with its state and draws, while the
others carry on.  Each epoch is one kernel call, which tests the divergence
bound once for the epoch's steps; between calls the loop rebuilds the
step-size and restart-time columns only after a restart, and takes the
norms of all rows in one call.

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

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .engine import _advance, _column, _resolve_theta0, divergence_bound
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


def _norm(x: np.ndarray) -> float:
    """Euclidean norm without the overflow of squaring large entries."""
    return math.hypot(*np.abs(x).tolist())


def _dense_direction(draws, s: int, theta):
    """b_s - A_s theta for dense draws b (S, R, d) and A (S, R, d, d), with
    A_s theta summed over its columns in order, every product and sum
    rounded on its own: the bits of ``_run_floats``.  The running sums of
    ``np.add.accumulate`` fix that order, and its last one is the sum."""
    b, A = draws
    return b[s] - np.add.accumulate(A[s] * theta[:, None, :], axis=-1)[..., -1]


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


class _Seed:
    """One seed's halving loop, with its records and result."""

    def __init__(self, cfg: TunerConfig, seed: int, norm: float):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.alpha = float(cfg.alpha_max)
        self.since = 0  # time of the last restart: the average holds t - since steps
        self.window = [norm]  # the last k+1 epoch norms since that restart
        self.events: list[tuple[int, float]] = []
        self.checks: list[RatioCheck] = []
        self.result: TunerTrace | NoStableStepSizeError | None = None

    def check(self, t: int, norm: float) -> bool:
        """Slide the window over the epoch norm at t; once it holds k+1 norms,
        record the ratio test and return whether it triggered."""
        k = self.cfg.k
        self.window = self.window[-k:] + [norm]
        if len(self.window) <= k:
            return False
        ratios, triggered = _ratio_test(self.window, self.cfg.c_threshold)
        self.checks.append(RatioCheck(t, ratios, triggered))
        return triggered

    def halve(self, t: int, norm: float) -> bool:
        """Halve alpha at t and restart there, the window at ``norm``; False,
        with the NoStableStepSizeError as the result, below the floor."""
        self.alpha /= 2.0
        if self.alpha < _ALPHA_FLOOR:
            msg = f"no stable step-size found: reached alpha={self.alpha:g} at t={t}"
            self.result = NoStableStepSizeError(msg)
            return False
        self.events.append((t, self.alpha))
        self.since = t
        self.window = [norm]
        return True

    def finish(self, hat) -> None:
        """Set the trace as the result, with a copy of the final average."""
        self.result = TunerTrace(events=tuple(self.events), final_alpha=self.alpha,
                                 final_theta_hat=np.array(hat), checks=tuple(self.checks))


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
    ``tune`` would raise for it (that row leaves the batch at its floor
    crossing; the others carry on).  Raises ValueError when ``seeds`` is
    empty or one of them is not a non-negative integer.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    for i, seed in enumerate(seeds):
        _check_integer(seed, f"seeds[{i}]", seed=True)
    theta0 = _resolve_theta0(p, cfg)
    bound = divergence_bound(p, theta0)
    records = [_Seed(cfg, seed, _norm(theta0)) for seed in seeds]
    if len(records) == 1 and theta0.dtype == np.float64:
        _run_floats(p, records[0], theta0.tolist(), bound)
    else:
        _run_rows(p, records, theta0, bound)
    return [r.result for r in records]


def _run_floats(p: ProblemDistribution, r: _Seed, theta0: list[float], bound: float) -> None:
    """Run one seed's halving loop on Python floats, one step at a time; its
    result is that of its row in ``_run_rows``, bit for bit."""
    cfg = r.cfg
    theta = hat = theta0
    alpha = r.alpha
    t = 0
    while t < cfg.horizon:
        b, A = p.sample(r.rng, (min(_CHUNK, cfg.horizon - t),))
        for b_s, A_s in zip(b.tolist(), A.tolist()):
            t += 1
            step = []
            for b_i, row, x in zip(b_s, A_s, theta):
                acc = -0.0  # -0.0 + y is y, bit for bit, so acc is a_i0 theta_0 + ...
                for a, y in zip(row, theta):
                    acc += a * y
                step.append(x + alpha * (b_i - acc))
            if all(map(bound.__ge__, map(abs, step))):  # a NaN fails too
                k = t - r.since + 1
                theta, hat = step, [h + (x - h) / k for h, x in zip(hat, step)]
                # math.hypot takes the absolute values itself
                if t % cfg.T or not r.check(t, math.hypot(*hat)):
                    continue
                start = theta  # a triggered check keeps the iterate
            else:
                start = theta0  # held at the bound: restart from theta_0
            if not r.halve(t, math.hypot(*start)):
                return
            theta = hat = start
            alpha = r.alpha
    r.finish(hat)


def _run_rows(p: ProblemDistribution, records: list[_Seed], theta0: np.ndarray, bound: float) -> None:
    """Run the seeds' halving loops as the rows of one (R, d) state on the
    engine's step kernel, setting each record's result."""
    T, horizon = records[0].cfg.T, records[0].cfg.horizon
    rows = records.copy()  # the record of each state row
    theta = np.tile(theta0, (len(rows), 1))
    hat = theta.copy()
    stale = True  # the rows, their step-sizes or restart times changed

    t = 0
    while t < horizon and rows:
        steps = min(_CHUNK, horizon - t)
        b, A = (np.stack(x, axis=1) for x in zip(*(p.sample(r.rng, (steps,)) for r in rows)))
        c = 0
        with np.errstate(over="ignore", invalid="ignore"):  # see engine._advance
            while c < steps and rows:
                if stale:
                    alpha_col = _column([r.alpha for r in rows])
                    since_col = _column([r.since for r in rows])
                    stale = False
                # advance to the next epoch boundary, or to the end of the draws
                stop = c + min(steps - c, T - t % T)
                theta, hat, n_steps, bad = _advance(
                    theta, hat, t - since_col, (b[c:stop], A[c:stop]),
                    _dense_direction, alpha_col, bound,
                )
                t += n_steps
                c += n_steps
                if bad is None and t % T:
                    continue
                held = bad.tolist() if bad is not None else [False] * len(rows)
                norms = np.abs(hat).tolist() if t % T == 0 else None
                for j, r in enumerate(rows):
                    # a row held at the bound restarts from theta_0 (emergency
                    # halving), skipping this check; a triggered check keeps the iterate
                    if held[j] or norms is not None and r.check(t, math.hypot(*norms[j])):
                        stale = True
                        start = theta0 if held[j] else theta[j]
                        if r.halve(t, _norm(start)):
                            theta[j] = hat[j] = start
                keep = [r.result is None for r in rows]  # False where a halving crossed the floor
                if not all(keep):
                    rows = list(itertools.compress(rows, keep))
                    theta, hat = theta[keep], hat[keep]
                    b, A = b[:, keep], A[:, keep]

    for r, final_hat in zip(rows, hat):
        r.finish(final_hat)
