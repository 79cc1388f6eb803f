"""Command-line front end.

Subcommands mirror the library modules: ``rho`` (spectral gaps of the
PD-certifying transform on a step-size grid), ``transform`` (that
similarity's report), ``simulate`` (Monte Carlo MSE curves), ``bound``
(closed-form envelopes), ``tune`` (automatic step-size halving), ``td``
(materialize a TD instance as a problem file), and ``repro-fig1`` (the full
tuning experiment: tuned step-sizes vs the hand-computed certificate across
noise levels, plus MSE curves at the tuned step-sizes).

Every CSV gets a provenance comment (the exact invocation) and a header row,
and every subcommand is deterministic given --seed, so reruns are
byte-identical on one host, with one BLAS kernel and one SIMD dispatch.
Across hosts the last bits may differ wherever a Gaussian problem of d >= 3
has sigma_A > 0 (its noise scale takes BLAS, LAPACK and numpy's SIMD
``exp``; d <= 2 takes a closed form, so ``repro-fig1`` is the same on every
host), and in ``simulate`` on a finite problem or a Gaussian one of d >= 3
(a gemv per row); ``tune`` calls no BLAS.  ``rho``, ``transform`` and ``bound`` draw
nothing: they read the exact moments of the problem and of its transform,
so their output does not depend on --seed, which they accept like every
subcommand.  A negative --seed exits 2 before any subcommand runs.

``bound``'s ``upper`` column bounds the MSE of the problem given.  Its
``lower`` column is the paper's worst-case envelope: it is sharp only on the
constant-diagonal family and is no lower bound for the problem given; on
GTD2, TD(0) and the Fig. 1 problems the exact MSE falls far below it.

Exit codes: 0 success, 2 validation/regime errors (among them ``simulate``
on a problem with a singular mean matrix: "problem has no fixed point
(singular mean matrix)", a path that cannot be read or written, such as a
directory given as --problem or an --out under a file, and an array the host
cannot allocate), 3 no usable result: the tuner found no stable step-size,
or ``simulate``'s MSE at the horizon is +inf, because every replication
diverged or because a surviving one's squared error overflows (a far
--theta0; the message names which).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_curve, bound_inputs_for
from .engine import RunConfig, run_mse, run_mse_many
from .problem_io import _array, _parse_json, load_problem_file, td_instance_from_dict
from .problems import ProblemDistribution, _check_integer, make_gaussian_noise
from .spectral import (
    NotPositiveDefiniteError,
    rho_d,
    spectral_report,
    witness_alpha,
)
from .transform import TransformFailedError, transform_problem
from .tuner import NoStableStepSizeError, TunerConfig, tune

__all__ = ["main", "repro_fig1"]

EXIT_VALIDATION = 2
EXIT_DIVERGED = 3

FIG1_SIGMAS = (0.0, 2.0, 5.0, 10.0, 20.0)
FIG1_MEAN = np.array([[1.0, -10.0], [10.0, 1.0]])
FIG1_TARGET = np.array([1.0, 1.0])
FIG1_ALPHA_MAX = 1.0  # the tuner's starting step-size
FIG1_STRIDE = 25  # record stride of the MSE curves


class DivergedError(RuntimeError):
    """No usable result: every replication (or the tuner) diverged."""


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, making its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_csv(path, header: list[str], rows, invocation: str) -> None:
    """The header and rows as CSV lines: written to ``path`` after a
    provenance comment naming ``invocation``, or printed when ``path`` is None."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    if path is None:
        print("\n".join(lines))
    else:
        _write_text(path, "\n".join([f"# {invocation}", *lines]) + "\n")


def _invocation(args: argparse.Namespace) -> str:
    return "lsalab " + " ".join(args._raw_argv)


def _parse_grid(spec: str, integer: bool = False) -> np.ndarray:
    """Parse 'a0:a1:n' (linear) or 'a0:a1:n:log' grids (positive ends); an
    integer grid keeps its distinct rounded points >= 1, and must keep one."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid {spec!r} is not 'start:stop:count[:log]'")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ValueError(f"grid {spec!r} has a non-finite end")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown grid scale {parts[3]!r}")
        if not (start > 0 and stop > 0):  # geomspace warns on ends of both signs
            raise ValueError(f"log grid {spec!r} needs positive ends")
        vals = np.geomspace(start, stop, count)
    else:
        vals = np.linspace(start, stop, count)
    if integer:
        if not (np.abs(vals) < 2.0**63).all():
            raise ValueError(f"grid {spec!r} has a point past the int64 range")
        # sorted distinct integers; np.unique would import numpy.ma (~10 ms) here
        vals = np.array(sorted(set(np.round(vals).astype(np.int64).tolist())), dtype=np.int64)
        vals = vals[vals >= 1]
        if not vals.size:
            raise ValueError(f"grid {spec!r} has no point >= 1")
    return vals


def _theta0_of(args, default=None) -> np.ndarray | None:
    """--theta0 read as problem files read an array (ValueError naming
    ``theta0``), or ``default`` when omitted."""
    return _array(_parse_json(args.theta0, "theta0"), "theta0") if args.theta0 else default


def _seed_of(args, p: ProblemDistribution) -> int:
    if args.seed is not None:
        return args.seed
    if p.seed is not None:
        return p.seed
    return 0


# --- subcommand handlers ------------------------------------------------------


def _cmd_rho(args) -> int:
    tr = transform_problem(load_problem_file(args.problem))
    m = tr.transformed_moments
    grid = _parse_grid(args.alpha_grid)
    rows = []
    for a in grid:
        rep = spectral_report(m, float(a))
        rows.append(
            (rep.alpha, rep.rho_d, rep.rho_s, rep.contraction_factor_s, rep.contraction_factor_d)
        )
    header = ["alpha", "rho_d", "rho_s", "contraction_s", "contraction_d"]
    _write_csv(args.out or None, header, rows, _invocation(args))
    return 0


def _cmd_transform(args) -> int:
    tr = transform_problem(load_problem_file(args.problem))
    try:
        wit = witness_alpha(tr.transformed_moments)
    except NotPositiveDefiniteError:
        wit = None
    out = {
        "kappa_U": tr.kappa_U,
        "lambda_min_sym": tr.min_eig_sym,
        "witness_alpha_transformed": wit,
        "identity": tr.identity,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    p = load_problem_file(args.problem)
    seed = _seed_of(args, p)
    theta0 = _theta0_of(args)
    cfg = RunConfig(
        alpha=args.alpha,
        horizon=args.horizon,
        theta_0=theta0,
        record_stride=args.stride,
        n_replications=args.reps,
        seed=seed,
    )
    curve = run_mse(p, cfg)
    rows = list(zip(curve.times, curve.mse, curve.stderr, curve.n_diverged))
    _write_csv(args.out, ["t", "mse", "stderr", "n_diverged"], rows, _invocation(args))
    if not np.isfinite(curve.mse[-1]):
        n_diverged = int(curve.n_diverged[-1])
        if n_diverged == curve.n_replications:
            raise DivergedError("all replications diverged before the horizon")
        raise DivergedError(
            "the MSE overflowed at the horizon: a surviving replication's squared "
            f"error exceeds the float range ({n_diverged} of {curve.n_replications} diverged)"
        )
    return 0


def _cmd_bound(args) -> int:
    p = load_problem_file(args.problem)
    tr = transform_problem(p)
    theta0 = _theta0_of(args, np.zeros(p.dim))
    inputs = bound_inputs_for(p.exact_moments, args.alpha, theta0, transform=tr)
    times = _parse_grid(args.t_grid, integer=True)
    curve = bound_curve(inputs, times)
    rows = list(
        zip(curve.times, curve.lower, curve.upper, curve.upper_bias, curve.upper_variance)
    )
    _write_csv(
        args.out,
        ["t", "lower", "upper", "upper_bias", "upper_variance"],
        rows,
        _invocation(args),
    )
    return 0


def _cmd_tune(args) -> int:
    """Tune the problem's step-size and write the trace.

    ``final_theta_hat`` is the running average at the horizon, and it is
    not an estimate of theta*: after a halving the average restarts from the
    iterate that was kept, which may be far out after an unstable phase.  On
    the Fig. 1 problems (alpha_max = 1, horizon 160) all 1,000 runs of seeds
    0-199 ended with ||final_theta_hat|| > 1e20.
    """
    p = load_problem_file(args.problem)
    seed = _seed_of(args, p)
    theta0 = _theta0_of(args)
    cfg = TunerConfig(
        alpha_max=args.alpha_max,
        k=args.k,
        T=args.T,
        c_threshold=args.c,
        horizon=args.horizon,
        seed=seed,
        theta_0=theta0,
    )
    trace = tune(p, cfg)
    payload = {
        "final_alpha": trace.final_alpha,
        "n_halvings": len(trace.events),
        "events": [{"t": t, "alpha": a} for t, a in trace.events],
        "final_theta_hat": trace.final_theta_hat.tolist(),
        "checks": [
            {"t": c.t, "ratios": list(c.ratios), "triggered": c.triggered}
            for c in trace.checks
        ],
    }
    if args.out_json:
        _write_text(args.out_json, json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps({k: payload[k] for k in ("final_alpha", "n_halvings")}, indent=2))
    if args.out_csv:
        rows = [(i, t, a) for i, (t, a) in enumerate(trace.events)]
        _write_csv(args.out_csv, ["event_index", "t", "alpha"], rows, _invocation(args))
    return 0


def _cmd_td(args) -> int:
    spec = {
        "type": "td_mdp",
        "algo": args.algo,
        "eta": args.eta,
        "mdp": _parse_json(Path(args.mdp).read_bytes(), args.mdp),
    }
    if args.seed is not None:
        spec["seed"] = args.seed
    instance = td_instance_from_dict(spec)
    m = instance.moments
    summary = {
        "algo": instance.algo,
        "dim": instance.problem.dim,
        "hurwitz": instance.hurwitz,
        "mean_spectrum_real": [float(x) for x in np.sort(instance.mean_spectrum.real)],
        "theta_star": None if m.theta_star is None else m.theta_star.tolist(),
        "sigma_A_sq": m.sigma_A_sq,
        "sigma_b_sq": m.sigma_b_sq,
    }
    if args.out:
        _write_text(args.out, json.dumps(spec, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    if not instance.hurwitz:
        print("warning: mean update matrix is not Hurwitz", file=sys.stderr)
    return 0


# --- the tuning experiment ----------------------------------------------------


def make_fig1_problem(sigma_A: float) -> ProblemDistribution:
    """The rotation-heavy two-dimensional family used by the experiment."""
    b = FIG1_MEAN @ FIG1_TARGET  # fixed point at (1, 1)
    return make_gaussian_noise(FIG1_MEAN, b, sigma_A, 0.0, label=f"fig1(sigma_A={sigma_A:g})")


def repro_fig1(
    out_dir,
    n_seeds: int = 10,
    seed: int = 0,
    tune_horizon: int = 160,
    sim_horizon: int = 50_000,
    n_replications: int = 100,
    invocation: str = "lsalab repro-fig1",
) -> dict:
    """Tuned vs hand-computed step-sizes across noise levels, plus MSE curves.

    For each noise level, the tuner (alpha_max=1, k=2, T=5, c=1.025) runs
    once per seed, one ``tune`` call each; a seed whose call raises
    NoStableStepSizeError is counted as aborted.  The per-level median
    step-size is compared against the certificate 2/(||A||^2 + sigma_A^2) =
    2/(101 + sigma_A^2), and the averaged-iterate MSE is simulated at the
    median tuned step-size.  The levels share the mean, so one
    ``run_mse_many`` call simulates every level with a finite median, the
    replications of all levels as rows of one state (each curve equals that
    of one ``run_mse`` call on its level).  Writes ``fig1_left.csv``
    (per-level tuned/hand step-sizes), ``fig1_right.csv`` (MSE curves) and
    ``fig1_summary.json``; per level the summary counts the aborted runs
    (``n_aborted``) and the tuned step-sizes at which the mean iteration is
    not certified stable, rho_d <= 0 (``n_tuned_mean_unstable``).  Raises
    ValueError naming the argument, before ``out_dir`` is made, unless
    ``seed`` is a non-negative integer, ``n_seeds`` a positive one,
    ``tune_horizon`` exceeds the tuner's k*T and ``sim_horizon`` is at
    least the record stride FIG1_STRIDE, and the run configuration is valid.
    """
    import statistics  # only here: ~2 ms, which the other subcommands need not pay

    _check_integer(seed, "seed", seed=True)
    _check_integer(n_seeds, "n_seeds", least=1)
    _check_integer(tune_horizon, "tune_horizon")
    k_T = TunerConfig.k * TunerConfig.T
    if tune_horizon <= k_T:
        raise ValueError(f"tune_horizon={tune_horizon} must exceed the tuner's k*T = {k_T}")
    tune_cfg = TunerConfig(alpha_max=FIG1_ALPHA_MAX, horizon=tune_horizon)
    _check_integer(sim_horizon, "horizon")
    if sim_horizon < FIG1_STRIDE:
        raise ValueError(
            f"horizon={sim_horizon} is below the record stride {FIG1_STRIDE} of the MSE curves"
        )
    # alpha is each level's median tuned step-size, replaced per level
    run_cfg = RunConfig(alpha=FIG1_ALPHA_MAX, horizon=sim_horizon, record_stride=FIG1_STRIDE,
                        n_replications=n_replications, seed=seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = np.random.SeedSequence(seed)
    tuner_seeds = [int(child.generate_state(1)[0]) for child in master.spawn(n_seeds)]

    left_rows = []
    runs = {}
    summary = {"sigma_A": {}, "n_seeds": n_seeds, "seed": seed}
    for sigma_A in FIG1_SIGMAS:
        p = make_fig1_problem(sigma_A)
        finals = []
        for s in tuner_seeds:
            try:
                finals.append(tune(p, dataclasses.replace(tune_cfg, seed=s)).final_alpha)
            except NoStableStepSizeError:
                pass
        unstable = {a for a in set(finals) if rho_d(p.exact_moments, a) <= 0}
        hand = 2.0 / (101.0 + sigma_A**2)
        if finals:
            # the tuned step-sizes are powers of two, on which this median and
            # these quartiles equal np.median and np.percentile bit for bit; on
            # arbitrary floats the quartiles may differ in the last bits
            med = statistics.median(finals)
            iqr = 0.0  # quantiles needs two points
            if len(finals) > 1:
                q1, _, q3 = statistics.quantiles(finals, n=4, method="inclusive")
                iqr = q3 - q1
        else:
            med, iqr = np.nan, np.nan
        left_rows.append((sigma_A, med, iqr, hand))
        summary["sigma_A"][str(sigma_A)] = {
            "tuned_alpha_median": med,
            "tuned_alpha_iqr": iqr,
            "hand_alpha": hand,
            "n_aborted": n_seeds - len(finals),
            "n_tuned_mean_unstable": sum(a in unstable for a in finals),
            "tuned_alphas": finals,
        }
        if np.isfinite(med):
            runs[sigma_A] = p, dataclasses.replace(run_cfg, alpha=med)

    curves = {}
    if runs:
        problems, cfgs = zip(*runs.values())
        curves = dict(zip(runs, run_mse_many(problems, cfgs)))
    for sigma_A, curve in curves.items():
        summary["sigma_A"][str(sigma_A)]["n_diverged_final"] = int(curve.n_diverged[-1])

    _write_csv(
        out_dir / "fig1_left.csv",
        ["sigma_A", "tuned_alpha_median", "tuned_alpha_iqr", "hand_alpha"],
        left_rows,
        invocation,
    )

    times = next(iter(curves.values())).times
    header = ["t"] + [f"mse_sigma_{s:g}" for s in FIG1_SIGMAS if s in curves]
    rows = []
    for i, t in enumerate(times):
        rows.append([int(t)] + [curves[s].mse[i] for s in FIG1_SIGMAS if s in curves])
    _write_csv(out_dir / "fig1_right.csv", header, rows, invocation)

    _write_text(out_dir / "fig1_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")

    return summary


def _cmd_repro_fig1(args) -> int:
    summary = repro_fig1(
        args.out_dir,
        n_seeds=args.seeds,
        seed=args.seed if args.seed is not None else 0,
        tune_horizon=args.tune_horizon,
        sim_horizon=args.horizon,
        n_replications=args.reps,
        invocation=_invocation(args),
    )
    print(json.dumps({k: v for k, v in summary.items() if k != "sigma_A"}, indent=2))
    return 0


# --- argument parsing ---------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``lsalab`` parser of every subcommand, built once per process, on
    the first ``main`` call rather than at import."""
    ap = argparse.ArgumentParser(
        prog="lsalab",
        description="constant step-size stochastic approximation lab",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--problem", required=True, help="problem JSON file")
        sp.add_argument("--seed", type=int, default=None)

    sp = sub.add_parser("rho", help="spectral gaps of the transformed problem on a step-size grid")
    add_common(sp)
    sp.add_argument("--alpha-grid", required=True, help="a0:a1:n[:log]")
    sp.add_argument("--out", help="CSV output path (stdout when omitted)")
    sp.set_defaults(func=_cmd_rho)

    sp = sub.add_parser("transform", help="PD-certifying similarity report")
    add_common(sp)
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("simulate", help="Monte Carlo MSE of the averaged iterate")
    add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--horizon", type=int, required=True)
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--stride", type=int, default=25)
    sp.add_argument("--theta0", help="initial iterate as a JSON array")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser(
        "bound",
        help="closed-form MSE envelopes",
        description="Closed-form MSE envelopes of the averaged iterate.  'upper' "
        "bounds the MSE of this problem; 'lower' is the paper's worst-case "
        "envelope, sharp only on the constant-diagonal family and no lower "
        "bound for this problem (on GTD2, TD(0) and Fig. 1 problems the exact "
        "MSE falls far below it).",
    )
    add_common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--t-grid", required=True, help="t0:t1:n[:log]")
    sp.add_argument("--theta0", help="initial iterate as a JSON array")
    sp.add_argument("--out", required=True, help="CSV output path")
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("tune", help="automatic step-size halving")
    add_common(sp)
    sp.add_argument("--alpha-max", type=float, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--T", type=int, default=5)
    sp.add_argument("--c", type=float, default=1.025)
    sp.add_argument("--horizon", type=int, default=160)
    sp.add_argument("--theta0", help="initial iterate as a JSON array")
    sp.add_argument("--out-json", help="trace JSON output path")
    sp.add_argument("--out-csv", help="halving-events CSV output path")
    sp.set_defaults(func=_cmd_tune)

    sp = sub.add_parser("td", help="materialize a TD instance as a problem file")
    sp.add_argument("--mdp", required=True, help="MDP JSON file")
    sp.add_argument("--algo", choices=["td0", "gtd", "gtd2"], default="td0")
    sp.add_argument("--eta", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", help="problem JSON output path")
    sp.set_defaults(func=_cmd_td)

    sp = sub.add_parser("repro-fig1", help="tuning experiment across noise levels")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--tune-horizon", type=int, default=160)
    sp.add_argument("--horizon", type=int, default=50_000)
    sp.add_argument("--reps", type=int, default=100)
    sp.set_defaults(func=_cmd_repro_fig1)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    args._raw_argv = list(argv)
    try:
        if args.seed is not None:  # every subcommand takes --seed
            _check_integer(args.seed, "seed", seed=True)
        return args.func(args)
    # ValueError covers NotHurwitzError, NotPositiveDefiniteError and
    # CertifiedRegimeError; OSError a bad path; MemoryError a huge array
    except (ValueError, TransformFailedError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DivergedError, NoStableStepSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
