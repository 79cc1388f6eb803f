"""Constant step-size iteration with running-average output, over replications.

One step of the recursion is theta_t = theta_{t-1} + alpha*(b_t - A_t theta_{t-1});
the reported output is the running average hat_theta_t = mean(theta_0..theta_t),
maintained incrementally as hat += (theta - hat)/(t+1).

Replications are vectorized: all replication states advance together in
(R, d) arrays through one step kernel (``_advance``, which the tuner shares),
while each replication consumes its own spawned random stream, so results are
bit-identical whether replications run singly or batched.  A replication whose
iterate would pass the divergence bound is frozen, flagged with its divergence
time and dropped from the live set rather than raising.  The bound is relative
to the problem (see ``divergence_bound``), so a fixed point or start far from
the origin does not read as divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemDistribution

__all__ = [
    "RunConfig",
    "RunResult",
    "MseCurve",
    "run_single",
    "run_mse",
    "DIVERGENCE_SENTINEL",
    "divergence_bound",
]

#: factor on the problem's scale max(1, ||theta_0||_inf, ||theta*||_inf)
#: beyond which an iterate is declared diverged (well below overflow so growth
#: stays observable before NaNs appear)
DIVERGENCE_SENTINEL = 1e150

#: ceiling of the scaled bound, kept safely below overflow (~1.8e308)
_DIVERGENCE_CAP = 1e300

_SAMPLE_CHUNK = 512  # steps pre-sampled per replication block


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulation: step-size, horizon, recording, seeding."""

    alpha: float
    horizon: int
    theta_0: np.ndarray | None = None  # zeros when omitted
    record_stride: int = 25
    n_replications: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if not (1 <= self.record_stride <= self.horizon):
            raise ValueError("need 1 <= record_stride <= horizon")
        if self.n_replications < 1:
            raise ValueError("need n_replications >= 1")

    def record_times(self) -> np.ndarray:
        return np.arange(self.record_stride, self.horizon + 1, self.record_stride)


@dataclass(frozen=True)
class RunResult:
    """Recorded trajectory of one replication.

    ``theta_hat`` holds the running average at the recorded times; ``sq_err``
    is ||hat - theta*||^2 when a fixed point was supplied (+inf from the
    divergence time onward for a diverged run).  An error too large to square
    in floating point (beyond ~1.3e154) also reads +inf: that is an overflow
    of the reported error, not divergence, and ``diverged`` stays False.
    """

    times: np.ndarray
    theta: np.ndarray
    theta_hat: np.ndarray
    sq_err: np.ndarray | None
    diverged: bool
    diverged_at: int | None


@dataclass(frozen=True)
class MseCurve:
    """Monte Carlo mean of ||hat - theta*||^2 across replications.

    Diverged replications are excluded from the mean and standard error and
    counted per time in ``n_diverged`` (they count from their divergence time
    onward).  ``mse`` is +inf where no replication survived.  Where a
    surviving replication's squared error overflows (error beyond ~1.3e154,
    e.g. a far fixed point early in the run), ``mse`` and ``stderr`` are both
    +inf while ``n_diverged`` does not count it: an overflow, not divergence.
    Finite squared errors whose sum overflows still give a finite mean.
    """

    times: np.ndarray
    mse: np.ndarray
    stderr: np.ndarray
    n_diverged: np.ndarray
    n_replications: int


def _resolve_theta0(p: ProblemDistribution, cfg: RunConfig, dtype) -> np.ndarray:
    if cfg.theta_0 is None:
        return np.zeros(p.dim, dtype=dtype)
    th0 = np.asarray(cfg.theta_0, dtype=dtype)
    if th0.shape != (p.dim,):
        raise ValueError(f"theta_0 must have shape ({p.dim},)")
    return th0


def divergence_bound(p: ProblemDistribution, theta_0: np.ndarray) -> float:
    """Iterate magnitude (max-abs entry) beyond which a run counts as diverged.

    This is DIVERGENCE_SENTINEL * max(1, ||theta_0||_inf, ||theta*||_inf),
    capped at 1e300; theta* is taken from the problem's exact moments when
    known.  Shared by the engine and the tuner.
    """
    scale = max(1.0, float(np.max(np.abs(theta_0))))
    m = p.exact_moments
    if m is not None and m.theta_star is not None:
        scale = max(scale, float(np.max(np.abs(m.theta_star))))
    return min(DIVERGENCE_SENTINEL * scale, _DIVERGENCE_CAP)


def _sq_err(hat: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    """||hat - theta*||^2 over the last axis, +inf where the square overflows."""
    with np.errstate(over="ignore"):
        return (np.abs(hat - theta_star) ** 2).sum(axis=-1).astype(float)


def _advance(theta, hat, n: int, b, A, alpha: float, bound: float):
    """Step (R, d) states through a pre-drawn block, keeping the running average.

    ``b`` is (S, R, d) and ``A`` is (S, R, d, d); ``n`` is the number of steps
    already averaged into ``hat``.  Stops just before the first step that
    would take some replication past ``bound`` (a NaN counts as past it).
    Returns (theta, hat, steps_taken, mask): ``mask`` marks the replications
    that step would take past the bound, or is None when all S steps were
    taken.  The inputs are not modified.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(len(b)):
            upd = theta + alpha * (b[s] - np.matmul(A[s], theta[..., None])[..., 0])
            if not np.abs(upd).max() <= bound:
                return theta, hat, s, ~(np.abs(upd).max(axis=1) <= bound)
            theta = upd
            hat = hat + (theta - hat) / (n + s + 2)
    return theta, hat, len(b), None


def _simulate_block(
    p: ProblemDistribution,
    cfg: RunConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance len(rngs) replications; returns snapshots and divergence times.

    Returns (theta_snaps, hat_snaps, diverged_at) with snapshot shapes
    (n_records, R, d); diverged_at is -1 for replications that never diverge.
    A diverged replication leaves the live set: its state before the
    diverging step fills its remaining snapshots and its stream is no longer
    drawn.  The dtype is that of the first chunk drawn.
    """
    R = len(rngs)
    record = cfg.record_times()
    n_rec = len(record)
    live = np.arange(R)
    diverged_at = np.full(R, -1, dtype=np.int64)
    chunk = min(_SAMPLE_CHUNK, cfg.horizon)
    rec_i = 0
    t = 0
    while t < cfg.horizon and live.size:
        steps = min(chunk, cfg.horizon - t)
        for j, r in enumerate(live):
            bs, As = p.sample(rngs[r], (steps,))
            if t == 0 and j == 0:
                dtype = np.result_type(np.float64, bs.dtype, As.dtype)
                b_buf = np.empty((chunk, R, p.dim), dtype=dtype)
                A_buf = np.empty((chunk, R, p.dim, p.dim), dtype=dtype)
            b_buf[:steps, j] = bs
            A_buf[:steps, j] = As
        b, A = b_buf[:steps, : live.size], A_buf[:steps, : live.size]
        if t == 0:
            theta0 = _resolve_theta0(p, cfg, dtype)
            bound = divergence_bound(p, theta0)
            theta = np.tile(theta0, (R, 1))
            hat = theta.copy()
            theta_snaps = np.empty((n_rec, R, p.dim), dtype=dtype)
            hat_snaps = np.empty((n_rec, R, p.dim), dtype=dtype)
        c = 0
        while c < steps and live.size:
            until = record[rec_i] if rec_i < n_rec else cfg.horizon
            stop = c + min(steps - c, until - t)
            theta, hat, k, bad = _advance(theta, hat, t, b[c:stop], A[c:stop], cfg.alpha, bound)
            t += k
            c += k
            if bad is not None:
                gone = live[bad]
                diverged_at[gone] = t + 1
                theta_snaps[rec_i:, gone] = theta[bad]
                hat_snaps[rec_i:, gone] = hat[bad]
                keep = ~bad
                live, theta, hat = live[keep], theta[keep], hat[keep]
                b, A = b[:, keep], A[:, keep]
            elif rec_i < n_rec and t == record[rec_i]:
                theta_snaps[rec_i, live] = theta
                hat_snaps[rec_i, live] = hat
                rec_i += 1
    return theta_snaps, hat_snaps, diverged_at


def _replication_rngs(seed, n: int) -> list[np.random.Generator]:
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def run_single(
    p: ProblemDistribution,
    cfg: RunConfig,
    replication_seed=None,
    theta_star: np.ndarray | None = None,
) -> RunResult:
    """Run one replication; deterministic given (problem, cfg, seed).

    ``replication_seed`` defaults to the first stream spawned from cfg.seed,
    matching replication 0 of run_mse.  Squared errors are attached when
    theta* is known (passed explicitly or present in exact moments).
    """
    if theta_star is None and p.exact_moments is not None:
        theta_star = p.exact_moments.theta_star
    if replication_seed is None:
        rngs = _replication_rngs(cfg.seed, 1)
    elif isinstance(replication_seed, np.random.Generator):
        rngs = [replication_seed]
    else:
        rngs = [np.random.default_rng(replication_seed)]
    theta_snaps, hat_snaps, div_at = _simulate_block(p, cfg, rngs)
    times = cfg.record_times()
    diverged = bool(div_at[0] >= 0)
    sq = None
    if theta_star is not None:
        sq = _sq_err(hat_snaps[:, 0, :], theta_star)
        if diverged:
            sq[times >= div_at[0]] = np.inf
    return RunResult(
        times=times,
        theta=theta_snaps[:, 0, :],
        theta_hat=hat_snaps[:, 0, :],
        sq_err=sq,
        diverged=diverged,
        diverged_at=int(div_at[0]) if diverged else None,
    )


def run_mse(
    p: ProblemDistribution,
    cfg: RunConfig,
    theta_star: np.ndarray | None = None,
) -> MseCurve:
    """Monte Carlo MSE of the averaged iterate across seeded replications.

    Each replication consumes its own spawned stream, so the curve does not
    depend on how replications are batched; aggregation is a deterministic
    reduction in replication order.  Where the mean of finite squared errors
    overflows, it and the standard error are taken on the errors scaled by
    their largest, so they read the representable mean, not inf.
    """
    if theta_star is None:
        if p.exact_moments is None or p.exact_moments.theta_star is None:
            raise ValueError(
                "theta_star unavailable: pass it explicitly or estimate moments"
            )
        theta_star = p.exact_moments.theta_star

    R = cfg.n_replications
    times = cfg.record_times()
    _, hat_all, div_all = _simulate_block(p, cfg, _replication_rngs(cfg.seed, R))

    sq = _sq_err(hat_all, theta_star)  # (m, R)
    diverged_mask = (div_all[None, :] >= 0) & (div_all[None, :] <= times[:, None])
    sq[diverged_mask] = np.inf

    valid = ~diverged_mask
    n_valid = valid.sum(axis=1)
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
                    stderr[i] = np.inf  # the spread of overflowed errors is inf - inf
                    continue
                scale = vals.max()
                vals = vals / scale
                mse[i] = scale * vals.mean()
            if len(vals) > 1:
                stderr[i] = scale * (vals.std(ddof=1) / np.sqrt(len(vals)))
    return MseCurve(
        times=times,
        mse=mse,
        stderr=stderr,
        n_diverged=(R - n_valid).astype(np.int64),
        n_replications=R,
    )
