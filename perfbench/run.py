"""Benchmark of ``lsalab``: run one workload and print its metrics.

    python3 perfbench/run.py --workload {fig1,gauss-wide,td-cli,tune-sweep}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of the workload runs in a fresh
process (``perfbench/worker.py``) with ``LSA_LAB_THREADS`` unset and one
driving thread, importing ``lsalab`` from ``src/``.  Passes repeat while the
next one is expected to end within ``--seconds``, and at least ``MIN_PASSES``
run; then set-up-only processes run until ``SETUP_SAMPLES`` set-ups have been
timed.  Each metric is the median over the passes (over the set-ups for
``setup_s``).  The times ``wall_s``, ``cpu_s`` and ``setup_s`` are taken at
the host's reference speed: a shared host's speed drifts by up to 1.6x, so
each pass runs a fixed kernel between its operations and scales the time
between two kernel runs by how fast the kernel ran (``perfbench/hostspeed.py``);
the record keeps the raw medians too.  ``src/`` and ``perfbench/`` are
compiled to bytecode before the first pass, so no pass pays for compilation.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics:

- ``wall_s``: summed wall time of the workload's operations, after set-up;
- ``setup_s``: importing ``lsalab`` and building every problem the workload
  uses (Gaussian calibration and TD pair enumeration included);
- ``cpu_s``: summed CPU time of the workload's operations, all threads of
  the pass process (so work moved onto BLAS or other threads shows);
- ``peak_rss_mb``: peak resident memory of the pass process;
- ``ok_frac``: operations that succeeded and passed their checks, over the
  operations attempted (one minus the failed fraction; never 0 while
  anything works, so a relative bound applies to it).

With ``--trace 1`` passes alternate untraced and traced, and the metrics are
the per-layer ones of ``perfbench/tracing.py``, medians over the traced
passes, plus ``trace.overhead_s``: the median over pairs of adjacent passes of
traced minus untraced ``wall_s``.
The line before the result holds the environment, the workload's shape and
every pass; the same record, and the spans of traced passes, are written
under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# sibling modules: perfbench/ is on sys.path as the running script's directory
from tracing import LAYER_METRICS
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
SETUP_SAMPLES = 9
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
ENV_VARS = ("LSA_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LSA_LAB_THREADS", None)
    return env


def compile_sources() -> None:
    """Write the bytecode that the passes import, so that none of them compiles it."""
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(tree, quiet=1):
            raise BenchError(f"cannot compile {tree}")


def run_worker(workload: str, seed: int, work_dir: Path, trace=False, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(work_dir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """Run the passes; returns the record with the metrics and every pass."""
    plain, traced = [], []
    compile_sources()
    start = time.perf_counter()
    i = 0
    while True:
        plain.append(run_worker(workload, seed, run_dir / f"pass{i}"))
        shutil.rmtree(run_dir / f"pass{i}", ignore_errors=True)
        i += 1
        if trace:
            traced.append(run_worker(workload, seed, run_dir / f"pass{i}", trace=True))
            i += 1
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_PASSES and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    passes = plain + traced
    setups = list(passes)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, run_dir / "setup", setup_only=True))
    shutil.rmtree(run_dir / "setup", ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        values = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        values["trace.overhead_s"] = statistics.median(
            t["ref"]["wall_s"] - p["ref"]["wall_s"] for p, t in zip(plain, traced))
        units = LAYER_METRICS
    else:
        values = {
            "wall_s": statistics.median(p["ref"]["wall_s"] for p in plain),
            "setup_s": statistics.median(p["ref"]["setup_s"] for p in setups),
            "cpu_s": statistics.median(p["ref"]["cpu_s"] for p in plain),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = END_TO_END
    return {
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
        "shape": passes[0]["shape"],
        "raw_medians": {
            "wall_s": median_of(plain, "wall_s"),
            "setup_s": median_of(setups, "setup_s"),
            "cpu_s": median_of(plain, "cpu_s"),
            "kernel_s": statistics.median(k for p in setups for k in p["kernel_s"]),
        },
        "setup_samples": [p["setup_s"] for p in setups],
        "passes": passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lsalab benchmark: one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lsalab" / "__init__.py").is_file():
        print(f"error: no lsalab source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["env"] = {
        "python": platform.python_version(),
        **record["passes"][0]["versions"],
        "nproc": os.cpu_count(),
        **{var: os.environ.get(var) for var in ENV_VARS},
        "git_commit": git_commit(),
    }
    record["workload"], record["seed"], record["seconds"] = args.workload, args.seed, args.seconds
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: record[k] for k in ("workload", "seed", "shape", "env", "raw_medians", "setup_samples")}
    for key in ("failures", "notes"):
        summary[key] = sorted({x for p in record["passes"] for x in p[key]})[:20]
    print(json.dumps(summary))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
