"""Constant step-size iteration with running-average output, over replications.

One step of the recursion is theta_t = theta_{t-1} + alpha*(b_t - A_t theta_{t-1});
the reported output is the running average hat_theta_t = mean(theta_0..theta_t),
maintained incrementally as hat += (theta - hat)/(t+1).

Replications are vectorized: all replication states advance together in
(R, d) arrays through one step kernel (``_advance``), while each replication
consumes its own spawned random stream, so results are bit-identical whether
replications run singly or batched.  Steps are drawn
and applied through the problem's ``StepForm``; the engine never calls
``sample``.  Neither the Gaussian family's form (d normals per step for the
whole noise when sigma_b > 0, instead of a d x d matrix and a d-vector) nor
a finite problem's (an atom index per step, with A_i gathered one step at a
time) fills an (S, R, d, d) buffer: a finite problem's blocks are its
(S, R, d) intercepts and (S, R) int64 indices.

``run_mse_many`` goes one level up: the replications of several runs whose
step forms share a key (and which share horizon, record stride, theta_0 and
divergence bound) advance as rows of one state, each row with its run's
step-size and its run's own stream, so each curve is bit-identical to the
``run_mse`` of its run alone and a batch of runs costs one Python step loop
instead of one per run (Fig. 1's levels, which differ in sigma_A alone).
A run whose step form draws nothing from its stream (a noise-free Gaussian
problem, one atom without intercept scatter) has R equal replications, one
trajectory: it is stepped and reduced once.
``run_mse`` is its one-run call.  The fixed point theta* always comes from
the problem's exact moments.  The MSE runs record the running average
alone; ``_simulate_runs`` can also keep the iterate snapshots
(``keep_theta``), for tests that read single trajectories.

A replication whose iterate would pass the divergence bound is frozen,
flagged with its divergence time and dropped from the live set rather than
raising; the step kernel applies this rule itself, so the others take the
crossing step in the same call.  The kernel writes its iterates into a
buffer of at most ``_CHECK_EVERY`` steps and tests the bound once per
buffer; only a buffer that fails the test is searched for its first
crossing step, so the result is that of a test after every step, and the
buffer's memory does not grow with the record stride.  The bound is
relative to the problem (see ``divergence_bound``), so a start or fixed
point far from the origin does not read as divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemDistribution, StepForm, _check_integer, _check_theta0

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

#: most steps ``_advance`` takes between divergence checks; it caps the
#: kernel's iterate buffer at (32, R, d) whatever the record stride
_CHECK_EVERY = 32


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulation: step-size, horizon, recording, seeding
    (``seed`` a non-negative integer; see ``problems._check_integer``)."""

    alpha: float
    horizon: int
    theta_0: np.ndarray | None = None  # zeros when omitted
    record_stride: int = 25
    n_replications: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "record_stride", "n_replications"):
            _check_integer(getattr(self, name), name, least=1)
        _check_integer(self.seed, "seed", seed=True)
        if not 0 < self.alpha < np.inf:  # NaN fails too
            raise ValueError(f"alpha must be finite and positive, not {self.alpha!r}")
        if self.record_stride > self.horizon:
            raise ValueError(
                f"record_stride={self.record_stride} must not exceed horizon={self.horizon}"
            )

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
    ``stderr`` is 0 where the replications are one trajectory (a single
    one, or a run that draws nothing).
    """

    times: np.ndarray
    mse: np.ndarray
    stderr: np.ndarray
    n_diverged: np.ndarray
    n_replications: int


def _resolve_theta0(p: ProblemDistribution, cfg) -> np.ndarray:
    """cfg.theta_0 (a RunConfig's or a TunerConfig's) checked to be a finite
    d-vector, or zeros.

    Its dtype is the run's: that of the problem's A_P and b_P, at least
    float64, which the problem's draws share.
    """
    m = p.exact_moments
    dtype = np.result_type(np.float64, m.A_P, m.b_P)
    if cfg.theta_0 is None:
        return np.zeros(p.dim, dtype=dtype)
    return _check_theta0(cfg.theta_0, p.dim, dtype)


def divergence_bound(p: ProblemDistribution, theta_0: np.ndarray) -> float:
    """Iterate magnitude (max-abs entry) beyond which a run counts as diverged.

    This is DIVERGENCE_SENTINEL * max(1, ||theta_0||_inf, ||theta*||_inf),
    capped at 1e300; theta* is taken from the problem's exact moments (the
    scale omits it when the mean is singular).  Shared by the engine and the
    tuner.
    """
    scale = max(1.0, float(np.max(np.abs(theta_0))))
    theta_star = p.exact_moments.theta_star
    if theta_star is not None:
        scale = max(scale, float(np.max(np.abs(theta_star))))
    return min(DIVERGENCE_SENTINEL * scale, _DIVERGENCE_CAP)


def _sq_err(hat: np.ndarray, theta_star: np.ndarray) -> np.ndarray:
    """||hat - theta*||^2 over the last axis, +inf where the square overflows."""
    with np.errstate(over="ignore"):
        return (np.abs(hat - theta_star) ** 2).sum(axis=-1).astype(float)


def _advance(theta, hat, n: int, draws, direction, alpha: float, bound: float):
    """Step (R, d) states through a pre-drawn block, keeping the running average.

    ``draws`` is a tuple of (S, R, ...) blocks and ``direction(draws, s,
    theta)`` gives b_s - A_s theta from them; ``n`` is the number of steps
    already averaged into ``hat``.  ``alpha`` is a number shared by all
    replications, or an (R, 1) column with one value per replication (see
    ``_column``).  Equal values give equal bits either way: each entry is the
    same float operation on the same operands, whether its factor comes from
    a number or from a column, so a replication's bits do not depend on the
    rest of its batch.

    The iterates are written into an (S', R, d) buffer, S' at most
    ``_CHECK_EVERY`` steps, and the divergence bound is tested once per
    buffer, on the largest magnitude it holds.  Only when that test fails
    (a NaN fails it too) is the first step s that takes some replication
    past ``bound`` looked up, and the averages up to it are taken again from
    the buffer; only the replications within the bound take step s.
    Returns (theta, hat, steps_taken, bad): steps_taken is then s + 1 and
    the mask ``bad`` marks the replications held at their state from before
    step s; otherwise it is S and ``bad`` is None.  The steps after s are
    dropped.  The inputs are not modified, and the outputs share no memory
    with the buffer.

    A diverging replication overflows by design: callers run the kernel
    under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    steps = len(draws[0])
    for done in range(0, steps, _CHECK_EVERY):
        width = min(steps - done, _CHECK_EVERY)
        thetas = np.empty((width,) + theta.shape, dtype=theta.dtype)
        start = theta, hat
        for s, th in zip(range(done, done + width), thetas):
            np.add(theta, alpha * direction(draws, s, theta), out=th)
            hat = hat + (th - hat) / (n + s + 2)
            theta = th
        if not np.maximum.reduce(np.abs(thetas), axis=None) <= bound:
            peaks = np.maximum.reduce(np.abs(thetas).reshape(width, -1), axis=1)
            i = int(np.argmin(peaks <= bound))
            theta, hat = start
            for s, th in zip(range(done, done + i + 1), thetas):  # the averages up to step i, again
                before = theta, hat
                theta, hat = th, hat + (th - hat) / (n + s + 2)
            ok = (np.maximum.reduce(np.abs(theta), axis=1) <= bound)[:, None]
            theta, hat = np.where(ok, (theta, hat), before)
            return theta, hat, done + i + 1, ~ok[:, 0]
    return theta.copy(), hat, steps, None


def _column(values: list):
    """Per-replication values as ``_advance`` takes them: a plain number when
    all are equal (the kernel steps faster, with equal bits), otherwise an
    (R, 1) column."""
    return values[0] if len(set(values)) == 1 else np.array(values)[:, None]


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
    remaining snapshots and its stream is no longer drawn.  The dtype is the
    run's (see ``_resolve_theta0``).  Each array the step forms draw gets one
    (chunk, R, ...) buffer of that array's dtype, allocated at the first
    draw: an atom index buffer is int64.

    Raises ValueError when the runs do not share the step-form key, horizon,
    record stride, theta_0 and divergence bound.  Any key but a sigma_b = 0
    Gaussian form's equals only itself, and a Gaussian problem is always
    float64, so a shared key implies one dtype.
    """
    forms = [p.step_form for p in problems]
    theta0s = [_resolve_theta0(p, c) for p, c in zip(problems, cfgs)]
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
    theta = np.tile(theta0s[0], (R, 1))
    hat = theta.copy()
    hat_snaps = np.empty((n_rec,) + theta.shape, dtype=theta.dtype)
    theta_snaps = np.empty_like(hat_snaps) if keep_theta else None
    chunk = min(_SAMPLE_CHUNK, cfg.horizon)
    bufs = None
    rec_i = 0
    t = 0
    # most steps per kernel call: the kernel drops the steps it took past a
    # crossing, so after one the span restarts at 1 and doubles while no
    # other crossing follows; runs that never cross step whole segments
    span = cfg.horizon
    while t < cfg.horizon and live.size:
        steps = min(chunk, cfg.horizon - t)
        for j, r in enumerate(live):
            drawn = draw[r](rngs[r], steps)
            if bufs is None:
                bufs = [np.empty((chunk, R) + x.shape[1:], dtype=x.dtype) for x in drawn]
            for buf, x in zip(bufs, drawn):
                buf[:steps, j] = x
        draws = tuple(buf[:steps, : live.size] for buf in bufs)
        c = 0
        with np.errstate(over="ignore", invalid="ignore"):  # see _advance
            while c < steps and live.size:
                until = record[rec_i] if rec_i < n_rec else cfg.horizon
                stop = c + min(steps - c, until - t, span)
                theta, hat, k, bad = _advance(
                    theta, hat, t, tuple(x[c:stop] for x in draws), direction, alpha, bound
                )
                t += k
                c += k
                span = 1 if bad is not None else 2 * span
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
    deterministic reduction in replication order.  Where the mean of finite
    squared errors overflows, it and the standard error are taken on the
    errors scaled by their largest, so they read the representable mean,
    not inf.
    """
    return run_mse_many([p], [cfg])[0]


def run_mse_many(problems: list[ProblemDistribution], cfgs: list[RunConfig]) -> list[MseCurve]:
    """``run_mse`` of each (problem, cfg) pair, all replications as rows of one state.

    Every replication of every run advances through one step loop; curve i
    is bit-identical to ``run_mse(problems[i], cfgs[i])``, since each row
    draws from its run's own spawned stream and steps with its run's alpha.
    The runs may differ in alpha, seed and n_replications; they must share the
    step-form key, horizon, record stride, theta_0 and divergence bound.
    Only Gaussian problems with sigma_b = 0 are keyed by content (A_P and
    b_P), so those that differ in sigma_A alone batch, as Fig. 1's levels
    do; any other problem batches only with itself.  Each run's theta* is
    that of its problem's exact moments.

    A run whose step form draws nothing (``_draws_nothing``: the noise-free
    level of Fig. 1, a one-atom problem without intercept scatter) gets one
    row and one spawned stream; its curve is that of n_replications=1 but
    for ``n_diverged``, which counts that row R times.

    Raises ValueError for an empty list, for runs that do not share what they
    must, or when some problem has no fixed point (a singular mean matrix).
    """
    problems, cfgs = list(problems), list(cfgs)
    if not problems or len(problems) != len(cfgs):
        raise ValueError("need at least one run, with one config per problem")
    if any(p.exact_moments.theta_star is None for p in problems):
        raise ValueError("problem has no fixed point (singular mean matrix)")
    rows = [
        1 if _draws_nothing(p.step_form) else c.n_replications for p, c in zip(problems, cfgs)
    ]
    rngs = [_replication_rngs(c.seed, n) for c, n in zip(cfgs, rows)]
    _, hat_all, div_all = _simulate_runs(problems, cfgs, rngs, keep_theta=False)
    curves = []
    lo = 0
    for p, cfg, n in zip(problems, cfgs, rows):
        hi = lo + n
        curves.append(_mse_curve(cfg.record_times(), hat_all[:, lo:hi], div_all[lo:hi],
                                 p.exact_moments.theta_star, cfg.n_replications))
        lo = hi
    return curves


def _draws_nothing(form: StepForm) -> bool:
    """Whether ``form`` draws nothing from its stream, by one trial draw.

    A form's ``draw`` consumes its generator on every call or on none (see
    ``StepForm``), so one step drawn from a fresh generator that leaves the
    generator's state unchanged shows that every replication draws the same
    arrays: the run's replications are one trajectory.
    """
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    form.draw(rng, 1)
    return rng.bit_generator.state == state


def _mse_curve(
    times: np.ndarray, hat: np.ndarray, div: np.ndarray, theta_star: np.ndarray, R: int
) -> MseCurve:
    """Aggregate one run's (n_records, rows, d) averages and divergence times.

    ``rows`` is R, one per replication, or 1 for a run whose R replications
    are one trajectory: that row is reduced alone, so the curve is its squared
    error with stderr 0, and a diverged row counts as R / rows replications.
    A replication never returns once it diverges, so records with the same
    live count share one live set; each run of such records reduces in one
    ``mean``/``std`` call, row by row, with the bits of a reduction per
    record.  A record whose mean is not finite is redone alone on its
    errors scaled by their largest.
    """
    sq = _sq_err(hat, theta_star)  # (m, rows)
    valid = (div[None, :] < 0) | (div[None, :] > times[:, None])
    n_valid = valid.sum(axis=1)
    mse = np.full(len(times), np.inf)
    stderr = np.zeros(len(times))
    starts = np.flatnonzero(np.diff(n_valid, prepend=-1)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(starts, starts[1:] + [len(times)]):
            n = n_valid[lo]
            if not n:
                break
            # compress keeps the block C-ordered, so each row reduces alone
            block = sq[lo:hi].compress(valid[lo], axis=1)
            mse[lo:hi] = block.mean(axis=1)
            if n > 1:
                stderr[lo:hi] = block.std(axis=1, ddof=1) / np.sqrt(n)
            for i in np.flatnonzero(~np.isfinite(mse[lo:hi])):
                vals = block[i]
                if not np.isfinite(vals).all():
                    stderr[lo + i] = np.inf  # the spread of overflowed errors is inf - inf
                    continue
                scale = vals.max()
                vals = vals / scale
                mse[lo + i] = scale * vals.mean()
                if n > 1:
                    stderr[lo + i] = scale * (vals.std(ddof=1) / np.sqrt(n))
    return MseCurve(
        times=times,
        mse=mse,
        stderr=stderr,
        n_diverged=((len(div) - n_valid) * (R // len(div))).astype(np.int64),
        n_replications=R,
    )
