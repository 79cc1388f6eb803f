"""Automatic constant step-size tuning by instability detection and halving.

The tuner runs the iteration at the current step-size while maintaining the
running average, on the engine's step kernel.  It steps through the dense
(b, A) draws of ``sample`` even where the problem has a matrix-free step
form: on low-dimensional trajectories the per-step calls of that form cost
more than the draws they save, and a tuning run's stream stays that of
``sample``.

``tune_many`` runs one halving loop per seed, the seeds as rows of one
(R, d) state advanced together from one epoch boundary to the next.  All
rows share the time t (an emergency restart consumes the diverging draw and
continues at t+1, and checks fall on multiples of T), while each row keeps
its own step-size and averaging count (the kernel takes them as (R, 1)
columns, or as plain numbers while all rows agree), window, events and
checks, and draws from its own stream.  So a row's trace is bit-identical
to the single run ``tune`` makes for its seed.  A row whose iterate would
pass the divergence bound restarts at once while the others take that
step; a row whose halving crosses the step-size floor leaves the batch
with its NoStableStepSizeError while the others carry on.

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

import math
from dataclasses import dataclass

import numpy as np

from .engine import _advance, _column, _dense_direction, _resolve_theta0, divergence_bound
from .problems import ProblemDistribution

__all__ = [
    "TunerConfig",
    "TunerTrace",
    "RatioCheck",
    "is_unstable",
    "tune",
    "tune_many",
    "NoStableStepSizeError",
]

_ALPHA_FLOOR = 1e-12


class NoStableStepSizeError(RuntimeError):
    """Halving reached the floor without finding a stable step-size."""


def _norm(x: np.ndarray) -> float:
    """Euclidean norm without the overflow of squaring large entries."""
    return math.hypot(*np.abs(x))


@dataclass(frozen=True)
class TunerConfig:
    """Knobs of the tuning loop.

    k is the number of ratios per check (window of k+1 epoch norms), T the
    epoch length in steps, c_threshold the growth factor treated as evidence
    of instability.
    """

    alpha_max: float
    k: int = 2
    T: int = 5
    c_threshold: float = 1.025
    horizon: int = 160
    seed: int = 0
    theta_0: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha_max <= 0:
            raise ValueError("alpha_max must be positive")
        if self.k < 1 or self.T < 1:
            raise ValueError("k and T must be positive")
        if self.c_threshold <= 1:
            raise ValueError("c_threshold must exceed 1")
        if self.k * self.T >= self.horizon:
            raise ValueError("horizon must exceed k*T")


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


def is_unstable(norms, c_threshold: float) -> bool:
    """Growth test on k+1 epoch-boundary norms of the running average.

    Returns True iff some consecutive ratio norms[i]/norms[i-1] exceeds
    c_threshold.  Any non-finite norm is definite divergence (True); any zero
    norm means ratios are uninformative and yields False (no growth evidence).
    """
    norms = [float(x) for x in norms]
    if len(norms) < 2:
        raise ValueError("need at least two norms")
    if not all(map(math.isfinite, norms)):
        return True
    if 0.0 in norms:
        return False
    return any(norms[i] / norms[i - 1] > c_threshold for i in range(1, len(norms)))


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
    """Run the halving loop once per seed, the seeds as rows of one state.

    ``seeds`` replaces cfg.seed; each row draws from its own
    ``default_rng(seed)`` exactly as ``tune(p, replace(cfg, seed=seed))``
    would, so its result is bit-identical to that single run.  Returns, in
    seed order, each row's TunerTrace, or the NoStableStepSizeError that
    ``tune`` would raise for it (that row leaves the batch at its floor
    crossing; the others carry on).
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    theta0 = _resolve_theta0(p, cfg, float)
    bound = divergence_bound(p, theta0)
    rngs = [np.random.default_rng(s) for s in seeds]
    R = len(seeds)
    # per-row state, row j tuning seeds[live[j]]
    live = list(range(R))
    alpha = [float(cfg.alpha_max)] * R
    n_avg = [0] * R  # steps averaged since the last restart
    # per-seed records
    norm0 = _norm(theta0)
    windows = [[norm0] for _ in range(R)]
    events: list[list[tuple[int, float]]] = [[] for _ in range(R)]
    checks: list[list[RatioCheck]] = [[] for _ in range(R)]
    results: list[TunerTrace | NoStableStepSizeError | None] = [None] * R

    def halve(j: int, t: int) -> bool:
        """Halve row j's step-size at t; False when that crosses the floor."""
        alpha[j] /= 2.0
        if alpha[j] < _ALPHA_FLOOR:
            results[live[j]] = NoStableStepSizeError(
                f"no stable step-size found: reached alpha={alpha[j]:g} at t={t}"
            )
            return False
        events[live[j]].append((t, alpha[j]))
        return True

    def epoch_boundary(j: int, t: int) -> bool:
        """Append row j's norm to its window and test it; False on a floor abort."""
        r = live[j]
        window = windows[r]
        window.append(_norm(hat[j]))
        if len(window) > cfg.k + 1:
            window.pop(0)
        if len(window) < cfg.k + 1:
            return True
        if all(math.isfinite(x) and x > 0 for x in window):
            ratios = tuple(window[i] / window[i - 1] for i in range(1, len(window)))
        else:
            ratios = ()
        triggered = is_unstable(window, cfg.c_threshold)
        checks[r].append(RatioCheck(t=t, ratios=ratios, triggered=triggered))
        if not triggered:
            return True
        if not halve(j, t):
            return False
        hat[j] = theta[j]
        n_avg[j] = 0
        windows[r] = [_norm(hat[j])]
        return True

    chunk = 1024
    t = 0
    while t < cfg.horizon and live:
        steps = min(chunk, cfg.horizon - t)
        drawn = [p.sample(rngs[r], (steps,)) for r in live]
        bs = np.stack([x[0] for x in drawn], axis=1)
        As = np.stack([x[1] for x in drawn], axis=1)
        if t == 0:
            theta = np.tile(theta0.astype(np.result_type(theta0, bs, As)), (R, 1))
            hat = theta.copy()
        c = 0
        while c < steps and live:
            # advance to the next epoch boundary, or to the end of the draws
            stop = c + min(steps - c, cfg.T - t % cfg.T)
            theta, hat, k, bad = _advance(
                theta, hat, _column(n_avg), (bs[c:stop], As[c:stop]),
                _dense_direction, _column(alpha), bound,
            )
            t += k
            c += k
            n_avg = [n + k for n in n_avg]
            aborted = []
            if bad is not None:
                # the bound was passed between checks: the rows that passed it
                # restart (emergency halving), the others take this step
                ok = np.flatnonzero(~bad)
                if ok.size:
                    theta[ok], hat[ok], _, _ = _advance(
                        theta[ok], hat[ok], _column([n_avg[j] for j in ok]),
                        (bs[c : c + 1, ok], As[c : c + 1, ok]),
                        _dense_direction, _column([alpha[j] for j in ok]), bound,
                    )
                    for j in ok:
                        n_avg[j] += 1
                t += 1
                c += 1
                for j in np.flatnonzero(bad):
                    if not halve(j, t):
                        aborted.append(j)
                    theta[j] = hat[j] = theta0
                    n_avg[j] = 0
                    windows[live[j]] = [norm0]
            if t % cfg.T == 0:
                for j in range(len(live)):
                    # a row restarted at t skips this boundary
                    if (bad is None or not bad[j]) and not epoch_boundary(j, t):
                        aborted.append(j)
            if aborted:
                keep = np.ones(len(live), dtype=bool)
                keep[aborted] = False
                live, alpha, n_avg = ([x for x, kept in zip(v, keep) if kept]
                                      for v in (live, alpha, n_avg))
                theta, hat, bs, As = theta[keep], hat[keep], bs[:, keep], As[:, keep]

    for j, r in enumerate(live):
        results[r] = TunerTrace(
            events=tuple(events[r]),
            final_alpha=alpha[j],
            final_theta_hat=hat[j].copy(),
            checks=tuple(checks[r]),
        )
    return results
