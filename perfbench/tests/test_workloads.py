import json
import re
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import tracing
import worker

from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "fig1": {"R": 4, "horizon": 500, "n_seeds": 3, "tune_horizon": 160},
    "gauss-wide": {
        "d": 4, "R": 4, "horizon": 200, "stride": 25, "alpha": 0.05,
        "sigma_A": 1.0, "sigma_b": 0.5, "skew_norm": 1.3,
    },
    "td-cli": {"files": ["td0_onpolicy"], "R": 4, "horizon": 200, "stride": 25, "tune_horizon": 160},
    "tune-sweep": {"R": 1, "horizon": 160, "n_seeds": 5},
}


def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_pattern():
    spec = bench_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_name_pattern_rejects_bad_names():
    for bad in ["", "a b", "wall/s", "_lead", "x" * 65, "ms:p50"]:
        assert not NAME.fullmatch(bad)


def test_benchmark_json_matches_the_code():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(worker.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_workload_runs_tiny_and_correct(workload, tmp_path):
    plain = worker.run_pass(workload, 3, tmp_path / "plain", shape=TINY[workload])
    assert plain["attempted"] > 0
    assert plain["failures"] == []
    assert plain["wall_s"] > 0 and plain["setup_s"] > 0
    # after set-up, after each CLI call or tune level, and at the end
    calibrations = {"td-cli": 6, "tune-sweep": 5}.get(workload, 0) + 2
    assert len(plain["kernel_s"]) == calibrations * hostspeed.REPEATS
    assert plain["shape"]["d"] == {"fig1": [2], "gauss-wide": [4], "td-cli": [4], "tune-sweep": [2]}[workload]

    traced = worker.run_pass(workload, 3, tmp_path / "traced", shape=TINY[workload], trace=True)
    assert traced["failures"] == []
    assert set(traced["layers"]) == set(tracing.LAYER_METRICS) - {"trace.overhead_s"}
    assert (tmp_path / "traced" / "spans.jsonl").stat().st_size > 0


def test_same_seed_same_inputs(tmp_path):
    a = worker.setup_gauss_wide(5, TINY["gauss-wide"])
    b = worker.setup_gauss_wide(5, TINY["gauss-wide"])
    assert (a.exact_moments.A_P == b.exact_moments.A_P).all()
    assert (a.exact_moments.b_P == b.exact_moments.b_P).all()


def test_corrupted_result_is_counted_and_pass_continues(tmp_path, monkeypatch):
    import dataclasses

    import lsalab.engine

    real = lsalab.engine.run_mse

    def inflated(p, cfg, **kw):
        curve = real(p, cfg, **kw)
        return dataclasses.replace(curve, mse=curve.mse * 1e12)

    monkeypatch.setattr(lsalab.engine, "run_mse", inflated)
    out = worker.run_pass("gauss-wide", 3, tmp_path, shape=TINY["gauss-wide"])
    assert out["attempted"] == 1 and out["failed"] == 1
    assert "exceeds the upper bound" in out["failures"][0]


def test_nonzero_cli_exit_is_counted(tmp_path, monkeypatch):
    import lsalab.cli

    real = lsalab.cli.main

    def failing_tune(argv):
        return 3 if argv[0] == "tune" else real(argv)

    monkeypatch.setattr(lsalab.cli, "main", failing_tune)
    out = worker.run_pass("td-cli", 3, tmp_path, shape=TINY["td-cli"])
    assert out["attempted"] == 6
    assert out["failures"] == ["tune: exit code 3"]


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_measure_runs_min_passes_and_pairs_overhead(tmp_path, monkeypatch):
    calls = []

    def fake_worker(workload, seed, work_dir, trace=False, setup_only=False):
        calls.append((trace, setup_only))
        n = len(calls)
        wall = 1.0 + n + (0.25 if trace else 0.0)
        out = {"setup_s": 0.5, "wall_s": wall, "cpu_s": 1.0, "peak_rss_mb": 10.0,
               "attempted": 0 if setup_only else 2, "failed": 0, "shape": {},
               "ref": {"setup_s": 0.5, "wall_s": wall}, "kernel_s": [hostspeed.REF_S]}
        if trace:
            out["layers"] = {name: n for name in tracing.LAYER_METRICS if name != "trace.overhead_s"}
        return out

    monkeypatch.setattr(run, "run_worker", fake_worker)
    record = run.measure("tune-sweep", 1, 0.0, True, tmp_path)
    setup_only = [(False, True)] * (run.SETUP_SAMPLES - 2 * run.MIN_PASSES)
    assert calls == [(False, False), (True, False)] * run.MIN_PASSES + setup_only
    metrics = record["result"]["metrics"]
    # adjacent passes differ by 1 s of drift plus 0.25 s of tracing
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(1.25)
    assert metrics["tuner.calls"]["value"] == 4
    assert record["result"]["attempted"] == 4 * run.MIN_PASSES
