"""Automatic constant step-size tuning by instability detection and halving.

The tuner runs the iteration at the current step-size while maintaining the
running average, on the engine's step kernel (one replication, advanced from
one epoch boundary to the next).  The norm of the average is recorded at every
multiple of the epoch length T; once k+1 such norms are available, the
epoch-over-epoch growth ratios r_i = ||hat||_i / ||hat||_{i-1} are tested,
and any ratio above the threshold c > 1 halves the step-size.

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

from .engine import _advance, divergence_bound
from .problems import ProblemDistribution

__all__ = [
    "TunerConfig",
    "TunerTrace",
    "RatioCheck",
    "is_unstable",
    "tune",
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
    if any(not np.isfinite(x) for x in norms):
        return True
    if any(x == 0.0 for x in norms):
        return False
    return any(norms[i] / norms[i - 1] > c_threshold for i in range(1, len(norms)))


def tune(p: ProblemDistribution, cfg: TunerConfig) -> TunerTrace:
    """Run the halving loop for cfg.horizon steps; deterministic given seed.

    Raises NoStableStepSizeError if the step-size underflows the absolute
    floor 1e-12.  If the iterate itself passes the divergence bound between
    checks (possible when alpha_max is grossly large), the step-size is halved
    immediately and the state restarts from theta_0; this emergency restart is
    recorded as a regular halving event.  The bound is the engine's
    ``divergence_bound``: DIVERGENCE_SENTINEL times the problem's scale
    max(1, ||theta_0||_inf, ||theta*||_inf), so a fixed point far from the
    origin is not mistaken for divergence.
    """
    rng = np.random.default_rng(cfg.seed)
    d = p.dim
    if cfg.theta_0 is None:
        theta0 = np.zeros(d)
    else:
        theta0 = np.asarray(cfg.theta_0, dtype=float)
        if theta0.shape != (d,):
            raise ValueError(f"theta_0 must have shape ({d},)")

    bound = divergence_bound(p, theta0)
    alpha = float(cfg.alpha_max)
    theta = hat = np.array([theta0])  # one replication for the engine's kernel
    n_avg = 0  # steps averaged since the last restart
    window: list[float] = [_norm(hat[0])]
    events: list[tuple[int, float]] = []
    checks: list[RatioCheck] = []

    def halve(t: int) -> float:
        nonlocal alpha
        alpha /= 2.0
        if alpha < _ALPHA_FLOOR:
            raise NoStableStepSizeError(
                f"no stable step-size found: reached alpha={alpha:g} at t={t}"
            )
        events.append((t, alpha))
        return alpha

    chunk = 1024
    t = 0
    while t < cfg.horizon:
        steps = min(chunk, cfg.horizon - t)
        bs, As = p.sample(rng, (steps,))
        bs, As = bs[:, None], As[:, None]
        c = 0
        while c < steps:
            # advance to the next epoch boundary, or to the end of the draws
            stop = c + min(steps - c, cfg.T - t % cfg.T)
            theta, hat, k, diverged = _advance(
                theta, hat, n_avg, bs[c:stop], As[c:stop], alpha, bound
            )
            t += k
            c += k
            n_avg += k
            if diverged is not None:
                # emergency restart: the bound was passed between checks
                t += 1
                c += 1
                halve(t)
                theta = hat = np.array([theta0])
                n_avg = 0
                window = [_norm(hat[0])]
            elif t % cfg.T == 0:
                window.append(_norm(hat[0]))
                if len(window) > cfg.k + 1:
                    window.pop(0)
                if len(window) == cfg.k + 1:
                    finite = all(np.isfinite(x) for x in window)
                    positive = all(x > 0 for x in window)
                    if finite and positive:
                        ratios = tuple(
                            window[i] / window[i - 1] for i in range(1, len(window))
                        )
                    else:
                        ratios = ()
                    triggered = is_unstable(window, cfg.c_threshold)
                    checks.append(RatioCheck(t=t, ratios=ratios, triggered=triggered))
                    if triggered:
                        halve(t)
                        hat = theta
                        n_avg = 0
                        window = [_norm(hat[0])]

    return TunerTrace(
        events=tuple(events),
        final_alpha=alpha,
        final_theta_hat=hat[0],
        checks=tuple(checks),
    )
