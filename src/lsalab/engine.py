"""Constant step-size iteration with running-average output, over replications.

One step of the recursion is theta_t = theta_{t-1} + alpha*(b_t - A_t theta_{t-1});
the reported output is the running average hat_theta_t = mean(theta_0..theta_t),
maintained incrementally as hat += (theta - hat)/(t+1).

Replications are vectorized: all replication states advance together in
(R, d) arrays, while each replication consumes its own spawned random stream,
so results are bit-identical whether replications run singly, batched, or on
several worker threads.  A replication whose iterate exceeds the divergence
bound is frozen and flagged with its divergence time rather than raising.  The
bound is relative to the problem (see ``divergence_bound``), so a fixed point
or start far from the origin does not read as divergence.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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


def _sample_dtype(p: ProblemDistribution) -> np.dtype:
    b, A = p.sample(np.random.default_rng(0), ())
    return np.result_type(np.float64, b.dtype, A.dtype)


def _simulate_block(
    p: ProblemDistribution,
    cfg: RunConfig,
    rngs: list[np.random.Generator],
    dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance len(rngs) replications; returns snapshots and divergence times.

    Returns (theta_snaps, hat_snaps, diverged_at) with snapshot shapes
    (n_records, R, d); diverged_at is -1 for replications that never diverge.
    """
    R = len(rngs)
    d = p.dim
    alpha = cfg.alpha
    record = cfg.record_times()
    n_rec = len(record)

    theta0 = _resolve_theta0(p, cfg, dtype)
    bound = divergence_bound(p, theta0)
    theta = np.tile(theta0, (R, 1))
    hat = theta.copy()
    alive = np.ones(R, dtype=bool)
    diverged_at = np.full(R, -1, dtype=np.int64)

    theta_snaps = np.empty((n_rec, R, d), dtype=dtype)
    hat_snaps = np.empty((n_rec, R, d), dtype=dtype)

    rec_i = 0
    t = 0
    chunk = min(_SAMPLE_CHUNK, cfg.horizon)
    b_buf = np.empty((chunk, R, d), dtype=dtype)
    A_buf = np.empty((chunk, R, d, d), dtype=dtype)
    while t < cfg.horizon:
        steps = min(chunk, cfg.horizon - t)
        for r, rng in enumerate(rngs):
            b, A = p.sample(rng, (steps,))
            b_buf[:steps, r] = b
            A_buf[:steps, r] = A
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(steps):
                t += 1
                upd = theta + alpha * (
                    b_buf[c] - np.matmul(A_buf[c], theta[..., None])[..., 0]
                )
                if alive.all():
                    bad = ~(np.abs(upd).max(axis=1) <= bound)
                    if bad.any():
                        diverged_at[bad] = t
                        alive &= ~bad
                        theta = np.where(alive[:, None], upd, theta)
                        hat = np.where(
                            alive[:, None], hat + (theta - hat) / (t + 1), hat
                        )
                    else:
                        theta = upd
                        hat += (theta - hat) / (t + 1)
                else:
                    bad = alive & ~(np.abs(upd).max(axis=1) <= bound)
                    if bad.any():
                        diverged_at[bad] = t
                        alive &= ~bad
                    theta = np.where(alive[:, None], upd, theta)
                    hat = np.where(alive[:, None], hat + (theta - hat) / (t + 1), hat)
                if rec_i < n_rec and t == record[rec_i]:
                    theta_snaps[rec_i] = theta
                    hat_snaps[rec_i] = hat
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
    dtype = _sample_dtype(p)
    if replication_seed is None:
        rngs = _replication_rngs(cfg.seed, 1)
    elif isinstance(replication_seed, np.random.Generator):
        rngs = [replication_seed]
    else:
        rngs = [np.random.default_rng(replication_seed)]
    theta_snaps, hat_snaps, div_at = _simulate_block(p, cfg, rngs, dtype)
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
    n_workers: int | None = None,
) -> MseCurve:
    """Monte Carlo MSE of the averaged iterate across seeded replications.

    Each replication consumes its own spawned stream, so the curve does not
    depend on batching or worker count; aggregation is a deterministic
    reduction in replication order.  Worker count defaults to the
    LSA_LAB_THREADS environment variable (1 when unset).
    """
    if theta_star is None:
        if p.exact_moments is None or p.exact_moments.theta_star is None:
            raise ValueError(
                "theta_star unavailable: pass it explicitly or estimate moments"
            )
        theta_star = p.exact_moments.theta_star
    if n_workers is None:
        n_workers = int(os.environ.get("LSA_LAB_THREADS", "1"))
    n_workers = max(1, n_workers)

    dtype = _sample_dtype(p)
    R = cfg.n_replications
    rngs = _replication_rngs(cfg.seed, R)
    times = cfg.record_times()

    batch_size = R if n_workers == 1 else max(1, -(-R // n_workers))
    batches = [(i, rngs[i : i + batch_size]) for i in range(0, R, batch_size)]
    hat_all = np.empty((len(times), R, p.dim), dtype=dtype)
    div_all = np.empty(R, dtype=np.int64)

    def work(batch):
        start, batch_rngs = batch
        _, hat, div = _simulate_block(p, cfg, batch_rngs, dtype)
        return start, hat, div

    if n_workers == 1 or len(batches) == 1:
        results = map(work, batches)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(work, batches))
    for start, hat, div in results:
        hat_all[:, start : start + hat.shape[1], :] = hat
        div_all[start : start + div.shape[0]] = div

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
            if len(vals):
                mse[i] = vals.mean()
                if not np.isfinite(mse[i]):
                    stderr[i] = np.inf  # the spread of overflowed errors is inf - inf
                elif len(vals) > 1:
                    stderr[i] = vals.std(ddof=1) / np.sqrt(len(vals))
    return MseCurve(
        times=times,
        mse=mse,
        stderr=stderr,
        n_diverged=(len(rngs) - n_valid).astype(np.int64),
        n_replications=R,
    )
