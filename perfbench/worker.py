"""One pass of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --work-dir DIR
                                [--trace] [--setup-only]

``perfbench/run.py`` starts this once per pass and reads the JSON object it
prints as its last line.  The pass imports ``lsalab`` from ``src/`` of the
checkout, builds every problem the workload uses (timed together as
``setup_s``), runs the workload's operations (``wall_s`` is their summed wall
time and ``cpu_s`` their summed CPU time, all threads; checks run outside that
time), and checks every result.  After set-up, between operations and at the
end it times the host-speed kernel of ``hostspeed``.  An operation is one
``run_mse``, ``tune`` or CLI call; it fails when it raises, exits non-zero or
fails a check, and a failure never stops the pass.

The workloads, and why each is here:

- ``fig1``: ``repro_fig1``, the paper's headline experiment, at its defaults
  except a 4k-step simulation horizon instead of 50k, so that a run holds
  many passes; its time is the engine's per-step Python loop and
  per-replication ``sample``.
- ``gauss-wide``: ``run_mse`` on a d = 32 Gaussian-noise problem for one
  512-step sample chunk, where drawing R*d^2 normals per step and the 512-step
  A buffer dominate time and memory.
- ``td-cli``: the CLI on two committed TD problem files; mostly problem
  loading and analysis, above all the Monte Carlo ``transform_moments``.
- ``tune-sweep``: ``tune`` alone, 100 seeds on each Fig. 1 level, the only
  workload where the tuner's own per-step loop is the cost.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# sibling modules: perfbench/ is on sys.path as the running script's directory
import checks
import hostspeed
from tracing import Span, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBLEMS_DIR = HERE / "problems"

#: full-size shape of each workload; the tests pass smaller ones.  R is the
#: number of replications, horizon the steps of each; d is added per pass
#: from the problems built.  A tune run is one trajectory (R = 1).
SHAPES = {
    "fig1": {"R": 100, "horizon": 4000, "n_seeds": 10, "tune_horizon": 160},
    "gauss-wide": {
        "d": 32, "R": 100, "horizon": 512, "stride": 16, "alpha": 0.05,
        "sigma_A": 1.0, "sigma_b": 0.5, "skew_norm": 1.3,
    },
    "td-cli": {
        "files": ["td0_onpolicy", "gtd2_offpolicy"], "R": 100, "horizon": 2000,
        "stride": 25, "tune_horizon": 160,
    },
    "tune-sweep": {"R": 1, "horizon": 160, "n_seeds": 100},
}

TUNE_ALPHA_MAX = 1.0
#: fraction of the certified witness step-size at which td-cli simulates
CERTIFIED_SHARE = 0.5


@dataclass
class Pass:
    """State of one pass: its inputs, the operation outcomes and the op times."""

    seed: int
    shape: dict
    work_dir: Path
    clock: hostspeed.Clock
    tracer: Tracer | None = None
    outcomes: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def op(self, fn):
        """Run one operation, adding its wall and CPU time to the pass."""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn()
        finally:
            self.clock.add(time.perf_counter() - t0, time.process_time() - c0)

    def calibrate(self) -> None:
        """Time the host-speed kernel, between operations."""
        self.clock.calibrate()

    def record(self, op: str, reason: str | None, count: int = 1) -> None:
        self.outcomes.extend([(op, reason)] * count)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext(Span(name, 0.0))
        return self.tracer.span(name)

    @property
    def failures(self) -> list[str]:
        return [f"{op}: {reason}" for op, reason in self.outcomes if reason is not None]


def _raised(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def mse_check(ps: Pass, moments, alpha: float, theta0, t: int, mse: float) -> str | None:
    """Final MSE finite, and at most the upper bound at time t where one exists.

    Outside the certified regime (a spectral gap <= 0 at alpha) there is no
    bound to compare with; that is noted, not failed.
    """
    import lsalab

    try:
        inputs = lsalab.bounds.bound_inputs_for(moments, alpha, theta0)
    except lsalab.CertifiedRegimeError as exc:
        ps.notes.append(f"no upper bound at alpha {alpha:.6g}: {exc}")
        return checks.mse_within_bound(float(mse), math.inf)
    return checks.mse_within_bound(float(mse), float(lsalab.bounds.upper_bound(inputs, t)[0]))


def median_check(ps: Pass, moments, alpha: float) -> str | None:
    """A level's median tuned step-size must be mean-stable.

    A median above the witness is noted, not failed: the witness is a
    sufficient certificate, and the tuner may correctly land above it.
    """
    import lsalab

    if not alpha > 0:
        return f"no usable median tuned alpha ({alpha!r})"
    above = checks.within_witness(alpha, lsalab.witness_alpha(moments))
    if above:
        ps.notes.append(f"median tuned {above}")
    return checks.mean_stable(alpha, lsalab.rho_d(moments, alpha))


# --- fig1 ---------------------------------------------------------------------


def setup_fig1(seed, shape):
    import lsalab.cli

    return {s: lsalab.cli.make_fig1_problem(s) for s in lsalab.cli.FIG1_SIGMAS}


def run_fig1(ps: Pass, problems) -> None:
    import lsalab
    import numpy as np

    sh = ps.shape
    out_dir = ps.work_dir / "fig1"
    try:
        summary = ps.op(lambda: lsalab.cli.repro_fig1(
            out_dir, n_seeds=sh["n_seeds"], seed=ps.seed, tune_horizon=sh["tune_horizon"],
            sim_horizon=sh["horizon"], n_replications=sh["R"],
        ))
        header, rows = checks.read_csv(out_dir / "fig1_right.csv")
    except Exception as exc:  # one failed op stands for the whole call
        ps.record("repro_fig1", _raised(exc))
        return
    final = dict(zip(header, rows[-1]))
    for sigma, p in problems.items():
        level = summary["sigma_A"][str(sigma)]
        aborted = level["n_aborted"]
        ps.record("tune", None, sh["n_seeds"] - aborted)
        ps.record("tune", checks.no_aborts(1), aborted)
        alpha = level["tuned_alpha_median"]
        reason = median_check(ps, p.exact_moments, alpha)
        if reason is None and "n_diverged_final" not in level:
            reason = "not simulated"
        reason = reason or checks.no_divergence(level["n_diverged_final"]) or mse_check(
            ps, p.exact_moments, alpha, np.zeros(p.dim), sh["horizon"], final[f"mse_sigma_{sigma:g}"]
        )
        ps.record("run_mse", reason)


# --- gauss-wide -----------------------------------------------------------------


def setup_gauss_wide(seed, shape):
    """A_P = I + K with K skew of norm skew_norm, so A_P + A_P^T = 2I is PD."""
    import lsalab
    import numpy as np

    d = shape["d"]
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    K = G - G.T
    K *= shape["skew_norm"] / np.linalg.norm(K, 2)
    A_P = np.eye(d) + K
    b_P = A_P @ rng.standard_normal(d)
    return lsalab.problems.make_gaussian_noise(A_P, b_P, shape["sigma_A"], shape["sigma_b"])


def run_gauss_wide(ps: Pass, p) -> None:
    import lsalab
    import numpy as np

    sh = ps.shape
    cfg = lsalab.RunConfig(
        alpha=sh["alpha"], horizon=sh["horizon"], record_stride=sh["stride"],
        n_replications=sh["R"], seed=ps.seed,
    )
    try:
        curve = ps.op(lambda: lsalab.engine.run_mse(p, cfg))
    except Exception as exc:
        ps.record("run_mse", _raised(exc))
        return
    reason = (
        checks.within_witness(cfg.alpha, lsalab.witness_alpha(p.exact_moments))
        or checks.no_divergence(int(curve.n_diverged[-1]))
        or mse_check(ps, p.exact_moments, cfg.alpha, np.zeros(p.dim), cfg.horizon, curve.mse[-1])
    )
    ps.record("run_mse", reason)


# --- td-cli ---------------------------------------------------------------------


def setup_td_cli(seed, shape):
    import lsalab

    return {name: lsalab.problem_io.load_problem_file(PROBLEMS_DIR / f"{name}.json") for name in shape["files"]}


def call_cli(ps: Pass, argv: list[str]) -> tuple[int | None, str, str | None]:
    """One in-process ``lsalab`` invocation: (exit code, stdout, failure reason)."""
    import lsalab.cli

    out, err = io.StringIO(), io.StringIO()
    code, reason = None, None
    with ps.span(f"cli.{argv[0]}") as rec:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ps.op(lambda: lsalab.cli.main(argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
            except Exception as exc:
                reason = _raised(exc)
                traceback.print_exc(file=err)
        rec.attrs["exit"] = code
    ps.calibrate()
    if reason is None:
        reason = checks.exit_code(code)
        if reason and err.getvalue().strip():
            reason += f" ({err.getvalue().strip().splitlines()[-1]})"
    return code, out.getvalue(), reason


def run_td_cli(ps: Pass, problems) -> None:
    sh = ps.shape
    seed = str(ps.seed)
    for name in sh["files"]:
        src = PROBLEMS_DIR / f"{name}.json"
        spec = json.loads(src.read_text())
        wd = ps.work_dir / name
        wd.mkdir(parents=True, exist_ok=True)
        mdp = wd / "mdp.json"
        mdp.write_text(json.dumps(spec["mdp"]))
        common = ["--problem", str(src), "--seed", seed]

        _, out, reason = call_cli(ps, [
            "td", "--mdp", str(mdp), "--algo", spec["algo"], "--eta", repr(spec["eta"]),
            "--seed", seed, "--out", str(wd / "problem.json"),
        ])
        if reason is None and not json.loads(out)["hurwitz"]:
            reason = "td reports a non-Hurwitz mean matrix"
        ps.record("td", reason)

        _, _, reason = call_cli(ps, ["rho", *common, "--alpha-grid", "1e-4:1:20:log", "--out", str(wd / "rho.csv")])
        ps.record("rho", reason)

        _, out, reason = call_cli(ps, ["transform", *common])
        alpha = None
        if reason is None:
            report = json.loads(out)
            reason = checks.lambda_min_sym_positive(report["lambda_min_sym"])
            if report["witness_alpha_transformed"] is not None:
                alpha = CERTIFIED_SHARE * report["witness_alpha_transformed"]
        ps.record("transform", reason)

        horizon = sh["horizon"]
        upper = None
        if alpha is None:
            ps.record("bound", "no certified alpha from transform")
        else:
            bound_csv = wd / "bound.csv"
            _, _, reason = call_cli(ps, [
                "bound", *common, "--alpha", repr(alpha), "--t-grid", f"1:{horizon}:20:log",
                "--out", str(bound_csv),
            ])
            if reason is None:
                _, rows = checks.read_csv(bound_csv)
                reason = checks.bound_rows_ordered(rows)
                if reason is None and rows[-1][0] == horizon:
                    upper = rows[-1][2]
            ps.record("bound", reason)

        _, _, reason = call_cli(ps, [
            "tune", *common, "--alpha-max", repr(TUNE_ALPHA_MAX), "--horizon", str(sh["tune_horizon"]),
            "--out-json", str(wd / "tune.json"),
        ])
        ps.record("tune", reason)

        if alpha is None or upper is None:
            ps.record("simulate", "no certified alpha or upper bound at the horizon")
            continue
        sim_csv = wd / "simulate.csv"
        _, _, reason = call_cli(ps, [
            "simulate", *common, "--alpha", repr(alpha), "--horizon", str(horizon),
            "--reps", str(sh["R"]), "--stride", str(sh["stride"]), "--out", str(sim_csv),
        ])
        if reason is None:
            header, rows = checks.read_csv(sim_csv)
            last = dict(zip(header, rows[-1]))
            reason = checks.no_divergence(int(last["n_diverged"])) or checks.mse_within_bound(last["mse"], upper)
        ps.record("simulate", reason)


# --- tune-sweep -----------------------------------------------------------------


def run_tune_sweep(ps: Pass, problems) -> None:
    import lsalab
    import numpy as np

    sh = ps.shape
    master = np.random.SeedSequence(ps.seed)
    seeds = [int(c.generate_state(1)[0]) for c in master.spawn(sh["n_seeds"])]
    for p in problems.values():
        finals, reasons = [], []
        for s in seeds:
            cfg = lsalab.TunerConfig(alpha_max=TUNE_ALPHA_MAX, horizon=sh["horizon"], seed=s)
            try:
                finals.append(ps.op(lambda: lsalab.tuner.tune(p, cfg)).final_alpha)
                reasons.append(None)
            except lsalab.NoStableStepSizeError:
                reasons.append(checks.no_aborts(1))
            except Exception as exc:
                reasons.append(_raised(exc))
        # the median vouches for the level's runs together
        median = statistics.median(finals) if finals else math.nan
        level = median_check(ps, p.exact_moments, median)
        ps.calibrate()
        for reason in reasons:
            ps.record("tune", reason or level)


WORKLOADS = {
    "fig1": (setup_fig1, run_fig1),
    "gauss-wide": (setup_gauss_wide, run_gauss_wide),
    "td-cli": (setup_td_cli, run_td_cli),
    "tune-sweep": (setup_fig1, run_tune_sweep),
}


def run_pass(workload: str, seed: int, work_dir, shape=None, trace=False, setup_only=False) -> dict:
    """Set up and run one pass in this process; returns its measurements.

    ``lsalab`` must already be importable.  With ``trace`` the per-layer
    metrics are included and the spans are written to ``work_dir``.
    """
    t0 = time.perf_counter()
    import lsalab  # noqa: F401  (timed: part of set-up)
    import lsalab.cli  # noqa: F401

    shape = dict(SHAPES[workload] if shape is None else shape)
    Path(work_dir).mkdir(parents=True, exist_ok=True)
    setup, run = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    with tracer.patch() if tracer else contextlib.nullcontext():
        ctx = setup(seed, shape)
        setup_s = time.perf_counter() - t0
        problems = ctx.values() if isinstance(ctx, dict) else [ctx]
        shape["d"] = sorted({p.dim for p in problems})
        ps = Pass(seed, shape, Path(work_dir), hostspeed.Clock(setup_s), tracer)
        ps.calibrate()
        if not setup_only:
            try:
                run(ps, ctx)
            except Exception as exc:  # a broken program fails the pass's remaining ops
                ps.record(workload, _raised(exc))
            ps.calibrate()
    result = {
        "workload": workload,
        "seed": seed,
        "shape": shape,
        **ps.clock.raw,
        "ref": ps.clock.ref,
        "kernel_s": ps.clock.kernel_s,
        "attempted": len(ps.outcomes),
        "failed": len(ps.failures),
        "failures": ps.failures,
        "notes": ps.notes,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans)
        tracer.write(Path(work_dir) / "spans.jsonl")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one pass of a perfbench workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    result = run_pass(args.workload, args.seed, args.work_dir, trace=args.trace, setup_only=args.setup_only)

    import lsalab
    import numpy
    import scipy

    if not Path(lsalab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: lsalab imported from {lsalab.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
