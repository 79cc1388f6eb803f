"""Constant step-size iteration with running-average output, over replications.

One step of the recursion is theta_t = theta_{t-1} + alpha*(b_t - A_t theta_{t-1});
the reported output is the running average hat_theta_t = mean(theta_0..theta_t),
maintained incrementally as hat += (theta - hat)/(t+1).

Replications are vectorized: all replication states advance together in
(R, d) arrays through one step kernel (``_advance``, which the tuner shares),
while each replication consumes its own spawned random stream, so results are
bit-identical whether replications run singly or batched.  Steps are drawn
and applied through the problem's ``StepForm`` when it has one (the Gaussian
family: d normals per step instead of a d x d matrix, never an (S, R, d, d)
buffer), otherwise through the dense (b, A) of ``sample``; the tuner always
uses the dense form.

``run_mse_many`` goes one level up: the replications of several runs whose
step forms share a key (and which share horizon, record stride, theta_0 and
divergence bound) advance as rows of one state, each row with its run's
step-size and its run's own stream, so each curve is bit-identical to the
``run_mse`` of its run alone and a batch of runs costs one Python step loop
instead of one per run.  ``run_mse`` is its one-run call.  The fixed point
theta* always comes from the problem's exact moments.  The MSE runs record
the running average alone; ``_simulate_block`` also keeps the iterate
snapshots, for tests that read single trajectories.

A replication whose iterate would pass the divergence bound is frozen,
flagged with its divergence time and dropped from the live set rather than
raising; the step kernel applies this rule itself, so the others take the
crossing step in the same call.  The bound is relative to the problem (see
``divergence_bound``), so a start or fixed point far from the origin does
not read as divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemDistribution, StepForm

__all__ = [
    "RunConfig",
    "MseCurve",
    "run_mse",
    "run_mse_many",
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


def _resolve_theta0(p: ProblemDistribution, cfg, dtype) -> np.ndarray:
    """cfg.theta_0 (a RunConfig's or a TunerConfig's) checked, or zeros."""
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


def _dense_direction(draws, s: int, theta):
    """b_s - A_s theta for dense draws b (S, R, d) and A (S, R, d, d)."""
    b, A = draws
    return b[s] - np.matmul(A[s], theta[..., None])[..., 0]


def _dense_form(p: ProblemDistribution) -> StepForm:
    """The dense step form: the (b, A) of ``p.sample``, looked up at each draw."""
    return StepForm(lambda rng, n: p.sample(rng, (n,)), _dense_direction, "dense")


def _advance(theta, hat, n: int, draws, direction, alpha: float, bound: float):
    """Step (R, d) states through a pre-drawn block, keeping the running average.

    ``draws`` is a tuple of (S, R, ...) blocks and ``direction(draws, s,
    theta)`` gives b_s - A_s theta from them; ``n`` is the number of steps
    already averaged into ``hat``.  ``alpha`` and ``n`` are numbers shared by
    all replications, or (R, 1) columns with one value per replication (see
    ``_column``).  Equal values give equal bits either way: each entry is the
    same float operation on the same operands, whether its factor comes from
    a number or from a column, so a replication's bits do not depend on the
    rest of its batch.  At the first step s that would take some replication
    past ``bound`` (a NaN counts as past it), only the others take it.
    Returns (theta, hat, steps_taken, bad): steps_taken is then s + 1 and the
    mask ``bad`` marks the replications held at their state from before step
    s; otherwise it is S and ``bad`` is None.  The inputs are not modified.
    """
    steps = len(draws[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(steps):
            upd = theta + alpha * direction(draws, s, theta)
            if not np.maximum.reduce(np.abs(upd), axis=None) <= bound:
                ok = (np.maximum.reduce(np.abs(upd), axis=1) <= bound)[:, None]
                theta, hat = np.where(ok, (upd, hat + (upd - hat) / (n + s + 2)), (theta, hat))
                return theta, hat, s + 1, ~ok[:, 0]
            theta = upd
            hat = hat + (theta - hat) / (n + s + 2)
    return theta, hat, steps, None


def _column(values: list):
    """Per-replication values as ``_advance`` takes them: a plain number when
    all are equal (the kernel steps faster, with equal bits), otherwise an
    (R, 1) column."""
    return values[0] if len(set(values)) == 1 else np.array(values)[:, None]


def _simulate_block(
    p: ProblemDistribution,
    cfg: RunConfig,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance len(rngs) replications of one run; see ``_simulate_runs``."""
    return _simulate_runs([p], [cfg], [rngs], keep_theta=True)


def _simulate_runs(
    problems: list[ProblemDistribution],
    cfgs: list[RunConfig],
    run_rngs: list[list[np.random.Generator]],
    keep_theta: bool,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Advance the replications of several runs as rows of one state.

    ``run_rngs[i]`` holds run i's replication streams; the rows are run 0's
    replications, then run 1's, and so on.  Each row draws through its own
    run's step form and steps with its run's alpha (an (R, 1) column when the
    runs' step-sizes differ), through the direction of the first run's form.
    Returns (theta_snaps, hat_snaps, diverged_at) over all rows, with
    snapshot shapes (n_records, R, d); theta_snaps is None unless
    ``keep_theta``; diverged_at is -1 for rows that never diverge.  A diverged
    row leaves the live set: its state before the diverging step fills its
    remaining snapshots and its stream is no longer drawn.  The dtype is that
    of the first chunk drawn.  Each array the step forms draw gets one
    (chunk, R, ...) buffer.

    Raises ValueError when the runs do not share the step-form key, horizon,
    record stride, theta_0, divergence bound and the dtype of their draws.
    """
    forms = [p.step_form or _dense_form(p) for p in problems]
    theta0s = [_resolve_theta0(p, c, None) for p, c in zip(problems, cfgs)]
    cfg = cfgs[0]
    for name, values in (
        ("step-form key", [f.key for f in forms]),
        ("horizon", [c.horizon for c in cfgs]),
        ("record stride", [c.record_stride for c in cfgs]),
        ("theta_0", [th.tolist() for th in theta0s]),
        ("divergence bound", [divergence_bound(p, th) for p, th in zip(problems, theta0s)]),
    ):
        if any(v != values[0] for v in values[1:]):
            raise ValueError(f"runs must share the {name}")
    draw = [f.draw for f, run in zip(forms, run_rngs) for _ in run]
    alpha = _column([c.alpha for c, run in zip(cfgs, run_rngs) for _ in run])
    rngs = [g for run in run_rngs for g in run]
    bound = divergence_bound(problems[0], theta0s[0])
    direction = forms[0].direction
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
            drawn = draw[r](rngs[r], steps)
            if t == 0:
                row_dtype = np.result_type(np.float64, *(x.dtype for x in drawn))
                if j == 0:
                    dtype = row_dtype
                    bufs = [np.empty((chunk, R) + x.shape[1:], dtype=dtype) for x in drawn]
                elif row_dtype != dtype:
                    raise ValueError("runs must share the dtype of their draws")
            for buf, x in zip(bufs, drawn):
                buf[:steps, j] = x
        draws = tuple(buf[:steps, : live.size] for buf in bufs)
        if t == 0:
            theta = np.tile(theta0s[0].astype(dtype), (R, 1))
            hat = theta.copy()
            hat_snaps = np.empty((n_rec, R, theta.shape[1]), dtype=dtype)
            theta_snaps = np.empty_like(hat_snaps) if keep_theta else None
        c = 0
        while c < steps and live.size:
            until = record[rec_i] if rec_i < n_rec else cfg.horizon
            stop = c + min(steps - c, until - t)
            theta, hat, k, bad = _advance(
                theta, hat, t, tuple(x[c:stop] for x in draws), direction, alpha, bound
            )
            t += k
            c += k
            if bad is not None:
                gone = live[bad]
                diverged_at[gone] = t
                hat_snaps[rec_i:, gone] = hat[bad]
                if keep_theta:
                    theta_snaps[rec_i:, gone] = theta[bad]
                keep = ~bad
                live, theta, hat = live[keep], theta[keep], hat[keep]
                if isinstance(alpha, np.ndarray):
                    alpha = alpha[keep]
                draws = tuple(x[:, keep] for x in draws)
            if rec_i < n_rec and t == record[rec_i]:
                hat_snaps[rec_i, live] = hat
                if keep_theta:
                    theta_snaps[rec_i, live] = theta
                rec_i += 1
    return theta_snaps, hat_snaps, diverged_at


def _replication_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n)]


def run_mse(p: ProblemDistribution, cfg: RunConfig) -> MseCurve:
    """Monte Carlo MSE of the averaged iterate across seeded replications.

    The one-run call of ``run_mse_many``; theta* is that of the problem's
    exact moments.  Each replication consumes its own spawned stream, so the
    curve does not depend on how replications are batched; aggregation is a
    deterministic reduction in replication order.  At n_replications=1 the
    curve is the squared error of the one trajectory (stderr 0).  Where the
    mean of finite squared errors overflows, it and the standard error are
    taken on the errors scaled by their largest, so they read the
    representable mean, not inf.
    """
    return run_mse_many([p], [cfg])[0]


def run_mse_many(problems: list[ProblemDistribution], cfgs: list[RunConfig]) -> list[MseCurve]:
    """``run_mse`` of each (problem, cfg) pair, all replications as rows of one state.

    Every replication of every run advances through one step loop; curve i
    is bit-identical to ``run_mse(problems[i], cfgs[i])``, since each row
    draws from its run's own spawned stream and steps with its run's alpha.
    The runs may differ in alpha, seed and n_replications, and in anything
    their step forms' key leaves out (for Gaussian problems of one mean: the
    noise levels); they must share the step-form key, horizon, record
    stride, theta_0 and divergence bound.  Each run's theta* is that of its
    problem's exact moments.

    Raises ValueError for an empty list, for runs that do not share what they
    must, or when some problem has no theta* in its exact moments.
    """
    problems, cfgs = list(problems), list(cfgs)
    if not problems or len(problems) != len(cfgs):
        raise ValueError("need at least one run, with one config per problem")
    if any(p.exact_moments is None or p.exact_moments.theta_star is None for p in problems):
        raise ValueError("theta_star unavailable: no exact moments with a fixed point")
    rngs = [_replication_rngs(c.seed, c.n_replications) for c in cfgs]
    _, hat_all, div_all = _simulate_runs(problems, cfgs, rngs, keep_theta=False)
    curves = []
    lo = 0
    for p, cfg in zip(problems, cfgs):
        hi = lo + cfg.n_replications
        curves.append(_mse_curve(
            cfg.record_times(), hat_all[:, lo:hi], div_all[lo:hi], p.exact_moments.theta_star
        ))
        lo = hi
    return curves


def _mse_curve(
    times: np.ndarray, hat: np.ndarray, div: np.ndarray, theta_star: np.ndarray
) -> MseCurve:
    """Aggregate one run's (n_records, R, d) averages and divergence times."""
    R = len(div)
    sq = _sq_err(hat, theta_star)  # (m, R)
    diverged_mask = (div[None, :] >= 0) & (div[None, :] <= times[:, None])
    sq[diverged_mask] = np.inf

    valid = ~diverged_mask
    n_valid = valid.sum(axis=1)
    mse = np.full(len(times), np.inf)
    stderr = np.zeros(len(times))
    with np.errstate(over="ignore"):
        # records whose every row is live and finite reduce in one call, with
        # the bits of the per-record reduction below (each row of the last
        # axis is summed alone); a mean that overflows falls through to it
        full = np.isfinite(sq).all(axis=1)
        mse[full] = sq[full].mean(axis=1)
        full &= mse < np.inf
        if R > 1:
            stderr[full] = sq[full].std(axis=1, ddof=1) / np.sqrt(R)
        for i in np.flatnonzero(~full):
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
