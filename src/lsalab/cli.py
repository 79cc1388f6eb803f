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
byte-identical.  ``rho``, ``transform`` and ``bound`` draw nothing: they
read the exact moments of the problem and of its transform, so their output
does not depend on --seed, which they accept like every subcommand.

``bound``'s ``upper`` column bounds the MSE of the problem given.  Its
``lower`` column is the paper's worst-case envelope: it is sharp only on the
constant-diagonal family and is no lower bound for the problem given; on
GTD2, TD(0) and the Fig. 1 problems the exact MSE falls far below it.

Exit codes: 0 success, 2 validation/regime errors (among them ``simulate``
on a problem with a singular mean matrix: "problem has no fixed point
(singular mean matrix)"), 3 divergence without a usable result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import CertifiedRegimeError, bound_curve, bound_inputs_for
from .engine import RunConfig, run_mse, run_mse_many
from .problem_io import load_problem_file, td_instance_from_dict
from .problems import ProblemDistribution, make_gaussian_noise
from .spectral import (
    NotPositiveDefiniteError,
    rho_d,
    spectral_report,
    witness_alpha,
)
from .transform import NotHurwitzError, TransformFailedError, transform_problem
from .tuner import NoStableStepSizeError, TunerConfig, TunerTrace, tune, tune_many

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


def _write_csv(path, header: list[str], rows, invocation: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {invocation}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _invocation(args: argparse.Namespace) -> str:
    return "lsalab " + " ".join(args._raw_argv)


def _parse_grid(spec: str, integer: bool = False) -> np.ndarray:
    """Parse 'a0:a1:n' (linear) or 'a0:a1:n:log' grids."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid {spec!r} is not 'start:stop:count[:log]'")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown grid scale {parts[3]!r}")
        vals = np.geomspace(start, stop, count)
    else:
        vals = np.linspace(start, stop, count)
    if integer:
        vals = np.unique(np.round(vals).astype(np.int64))
        vals = vals[vals >= 1]
    return vals


def _theta0_of(args, default=None) -> np.ndarray | None:
    """--theta0 parsed from its JSON array, or ``default`` when omitted."""
    return np.asarray(json.loads(args.theta0), dtype=float) if args.theta0 else default


def _seed_of(args, p: ProblemDistribution) -> int:
    if args.seed is not None:
        return args.seed
    if p.seed is not None:
        return p.seed
    return 0


# --- subcommand handlers ------------------------------------------------------


def _cmd_rho(args) -> int:
    _, tr = transform_problem(load_problem_file(args.problem))
    m = tr.transformed_moments
    grid = _parse_grid(args.alpha_grid)
    rows = []
    for a in grid:
        rep = spectral_report(m, float(a))
        rows.append(
            (rep.alpha, rep.rho_d, rep.rho_s, rep.contraction_factor_s, rep.contraction_factor_d)
        )
    header = ["alpha", "rho_d", "rho_s", "contraction_s", "contraction_d"]
    if args.out:
        _write_csv(args.out, header, rows, _invocation(args))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(x) for x in row))
    return 0


def _cmd_transform(args) -> int:
    p = load_problem_file(args.problem)
    _, tr = transform_problem(p)
    try:
        wit = witness_alpha(tr.transformed_moments)
    except NotPositiveDefiniteError:
        wit = None
    out = {
        "kappa_U": tr.kappa_U,
        "lambda_min_sym": tr.min_eig_sym,
        "witness_alpha_transformed": wit,
        "identity": bool(np.allclose(tr.U, np.eye(p.dim))),
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
    if p.exact_moments.theta_star is None:
        raise ValueError("problem has no fixed point (singular mean matrix)")
    curve = run_mse(p, cfg)
    rows = list(zip(curve.times, curve.mse, curve.stderr, curve.n_diverged))
    _write_csv(args.out, ["t", "mse", "stderr", "n_diverged"], rows, _invocation(args))
    if not np.isfinite(curve.mse[-1]):
        raise DivergedError("all replications diverged before the horizon")
    return 0


def _cmd_bound(args) -> int:
    p = load_problem_file(args.problem)
    _, tr = transform_problem(p)
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
        "final_theta_hat": [float(x) for x in np.asarray(trace.final_theta_hat).real],
        "checks": [
            {"t": c.t, "ratios": list(c.ratios), "triggered": c.triggered}
            for c in trace.checks
        ],
    }
    if args.out_json:
        Path(args.out_json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out_json).write_text(json.dumps(payload, indent=2) + "\n")
    else:
        print(json.dumps({k: payload[k] for k in ("final_alpha", "n_halvings")}, indent=2))
    if args.out_csv:
        rows = [(i, t, a) for i, (t, a) in enumerate(trace.events)]
        _write_csv(args.out_csv, ["event_index", "t", "alpha"], rows, _invocation(args))
    return 0


def _cmd_td(args) -> int:
    with open(args.mdp) as fh:
        mdp_spec = json.load(fh)
    spec = {
        "type": "td_mdp",
        "algo": args.algo,
        "eta": args.eta,
        "mdp": mdp_spec,
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
        "theta_star": None
        if m.theta_star is None
        else [float(x) for x in np.asarray(m.theta_star).real],
        "sigma_A_sq": m.sigma_A_sq,
        "sigma_b_sq": m.sigma_b_sq,
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(spec, indent=2) + "\n")
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
    once per seed, all seeds of the level in one ``tune_many`` call (the
    traces equal those of one ``tune`` call per seed); the per-level median
    step-size is compared against the certificate 2/(||A||^2 + sigma_A^2) =
    2/(101 + sigma_A^2), and the averaged-iterate MSE is simulated at the
    median tuned step-size.  The levels share the mean, so one
    ``run_mse_many`` call simulates every level with a finite median, the
    replications of all levels as rows of one state (each curve equals that
    of one ``run_mse`` call on its level).  Writes ``fig1_left.csv``
    (per-level tuned/hand step-sizes), ``fig1_right.csv`` (MSE curves) and
    ``fig1_summary.json``; per level the summary counts the aborted runs
    (``n_aborted``) and the tuned step-sizes at which the mean iteration is
    not certified stable, rho_d <= 0 (``n_tuned_mean_unstable``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    master = np.random.SeedSequence(seed)
    tuner_seeds = [int(child.generate_state(1)[0]) for child in master.spawn(n_seeds)]

    left_rows = []
    runs = {}
    summary = {"sigma_A": {}, "n_seeds": n_seeds, "seed": seed}
    for sigma_A in FIG1_SIGMAS:
        p = make_fig1_problem(sigma_A)
        cfg = TunerConfig(alpha_max=FIG1_ALPHA_MAX, horizon=tune_horizon)
        results = tune_many(p, cfg, tuner_seeds)
        finals = [r.final_alpha for r in results if isinstance(r, TunerTrace)]
        unstable = {a for a in set(finals) if rho_d(p.exact_moments, a) <= 0}
        hand = 2.0 / (101.0 + sigma_A**2)
        if finals:
            med = float(np.median(finals))
            q1, q3 = np.percentile(finals, [25, 75])
            iqr = float(q3 - q1)
        else:
            med, iqr = np.nan, np.nan
        left_rows.append((sigma_A, med, iqr, hand))
        summary["sigma_A"][str(sigma_A)] = {
            "tuned_alpha_median": med,
            "tuned_alpha_iqr": iqr,
            "hand_alpha": hand,
            "n_aborted": len(results) - len(finals),
            "n_tuned_mean_unstable": sum(a in unstable for a in finals),
            "tuned_alphas": finals,
        }
        if np.isfinite(med):
            runs[sigma_A] = p, RunConfig(
                alpha=med,
                horizon=sim_horizon,
                record_stride=FIG1_STRIDE,
                n_replications=n_replications,
                seed=seed,
            )

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

    with open(out_dir / "fig1_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

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


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lsalab",
        description="constant step-size stochastic approximation lab",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, problem=True):
        if problem:
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
    ap = _build_parser()
    args = ap.parse_args(argv)
    args._raw_argv = list(argv)
    try:
        return args.func(args)
    except (
        ValueError,
        NotHurwitzError,
        NotPositiveDefiniteError,
        CertifiedRegimeError,
        TransformFailedError,
        FileNotFoundError,
        KeyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DivergedError, NoStableStepSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
