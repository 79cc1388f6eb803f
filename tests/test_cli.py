import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsalab
from lsalab import (
    NoStableStepSizeError,
    RunConfig,
    TunerConfig,
    gtd_instance,
    load_problem_file,
    rho_d,
    run_mse,
    spectral_report,
    td0_instance,
    tune,
)
from lsalab.cli import (
    EXIT_DIVERGED,
    EXIT_VALIDATION,
    FIG1_SIGMAS,
    _build_parser,
    _parse_grid,
    main,
    make_fig1_problem,
    repro_fig1,
)
from lsalab.problem_io import mdp_from_dict

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"

#: the subcommands, in the order the parser lists them
SUBCOMMANDS = ("rho", "transform", "simulate", "bound", "tune", "td", "repro-fig1")


def write_mdp(path, off_policy):
    """Four-state MDP with two features as the JSON ``lsalab td`` reads."""
    rng = np.random.default_rng(21)
    P = rng.uniform(0.1, 1.0, (4, 4))
    spec = {
        "features": rng.standard_normal((4, 2)).tolist(),
        "transitions": (P / P.sum(axis=1, keepdims=True)).tolist(),
        "rewards": rng.standard_normal(4).tolist(),
        "discount": 0.9,
        "reward_noise_std": 0.5,
    }
    if off_policy:
        Pb = rng.uniform(0.1, 1.0, (4, 4))
        spec["behavior_transitions"] = (Pb / Pb.sum(axis=1, keepdims=True)).tolist()
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture(params=[("td0", False), ("gtd2", True)], ids=["td0", "gtd2-offpolicy"])
def td_problem(request, tmp_path, capsys):
    """A problem file written by ``lsalab td``, with the summary it printed."""
    algo, off_policy = request.param
    mdp = write_mdp(tmp_path / "mdp.json", off_policy)
    out = tmp_path / "problem.json"
    code = main(["td", "--mdp", str(mdp), "--algo", algo, "--seed", "3", "--out", str(out)])
    assert code == 0
    direct = td0_instance if algo == "td0" else lambda mdp: gtd_instance(mdp, 1.0, "gtd2")
    instance = direct(mdp_from_dict(json.loads(mdp.read_text())))
    return out, json.loads(capsys.readouterr().out), instance.moments


def test_td_file_round_trip(td_problem):
    path, summary, exact = td_problem
    m = load_problem_file(path).exact_moments
    for name in ("A_P", "b_P", "C_P", "sigma_A_sq", "sigma_b_sq"):
        assert np.array_equal(getattr(m, name), getattr(exact, name))
    assert summary["hurwitz"] is True
    assert np.array_equal(m.theta_star, summary["theta_star"])
    assert m.sigma_A_sq == summary["sigma_A_sq"]
    assert m.sigma_b_sq == summary["sigma_b_sq"]


def test_subcommands_exit_zero_and_rerun_identically(td_problem, tmp_path, capsys):
    path = td_problem[0]
    common = ["--problem", str(path), "--seed", "4"]
    assert main(["transform", *common]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lambda_min_sym"] > 0
    alpha = 0.5 * report["witness_alpha_transformed"]
    bound = tmp_path / "bound.csv"
    assert main(["bound", *common, "--alpha", repr(alpha), "--t-grid", "1:500:5:log",
                 "--out", str(bound)]) == 0
    out = tmp_path / "simulate.csv"
    sim = ["simulate", *common, "--alpha", repr(alpha), "--horizon", "500", "--reps", "8",
           "--stride", "100", "--out", str(out)]
    assert main(sim) == 0
    first = out.read_bytes()
    assert main(sim) == 0
    assert out.read_bytes() == first


def test_td_on_a_non_hurwitz_mdp_warns_and_exits_0(tmp_path, capsys):
    # TD(0) replaying 0 -> 1 only, with phi = (1, 2): A = 1 - 0.9 * 2 = -0.8
    mdp = tmp_path / "mdp.json"
    mdp.write_text(json.dumps({"features": [[1], [2]], "transitions": [[0, 1], [1, 0]],
                               "rewards": [1, 0], "discount": 0.9, "sampling": [1, 0]}))
    assert main(["td", "--mdp", str(mdp)]) == 0
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert summary["hurwitz"] is False
    assert summary["mean_spectrum_real"] == [pytest.approx(-0.8)]
    assert err == "warning: mean update matrix is not Hurwitz\n"


def test_unknown_algo_exits_2(tmp_path, capsys):
    mdp = write_mdp(tmp_path / "mdp.json", off_policy=False)
    with pytest.raises(SystemExit) as exc:
        main(["td", "--mdp", str(mdp), "--algo", "sarsa"])
    assert exc.value.code == EXIT_VALIDATION
    assert "invalid choice" in capsys.readouterr().err


GAUSSIAN = {"type": "gaussian", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0]}
ATOM = {"b": [1.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]], "p": 1.0}
MDP = {
    "features": [[1.0, 0.0], [0.0, 1.0]],
    "transitions": [[0.5, 0.5], [0.5, 0.5]],
    "rewards": [1.0, 0.0],
    "discount": 0.9,
}
NOT_NUMBERS = "must be a JSON array of numbers"


@pytest.mark.parametrize(
    "command, spec, message",
    [
        pytest.param("transform", [1, 2], "problem must be a JSON object", id="array"),
        pytest.param("transform", {**GAUSSIAN, "sigma_A": [1, 2]},
                     "sigma_A must be a number, not [1, 2]", id="sigma_A-array"),
        pytest.param("transform", {"type": "finite", "atoms": 5}, "atoms must be a JSON array",
                     id="atoms-number"),
        pytest.param("transform", {"type": "finite", "atoms": [5]},
                     "atoms[0] must be a JSON object", id="atom-number"),
        pytest.param("transform", {"type": "td_mdp", "mdp": [1]}, "mdp must be a JSON object",
                     id="mdp-array"),
        pytest.param("td", [1], "mdp must be a JSON object", id="td-mdp-array"),
        # matrices and vectors: JSON arrays of numbers (not booleans), regular in shape
        pytest.param("transform", {**GAUSSIAN, "A": {"a": 1}}, f"A {NOT_NUMBERS}", id="A-object"),
        pytest.param("transform", {**GAUSSIAN, "A": [[1.0, 0.0], [0.0, True]]}, f"A {NOT_NUMBERS}",
                     id="A-boolean"),
        pytest.param("transform", {**GAUSSIAN, "A": 1.0}, f"A {NOT_NUMBERS}", id="A-number"),
        pytest.param("transform", {**GAUSSIAN, "b": [1.0, "1"]}, f"b {NOT_NUMBERS}", id="b-string"),
        pytest.param("transform", {**GAUSSIAN, "b": [[1.0], 1.0]}, f"b {NOT_NUMBERS}",
                     id="b-mixed-depth"),
        pytest.param("transform", {"type": "finite", "atoms": [{**ATOM, "b": {"x": 1}}]},
                     f"atoms[0].b {NOT_NUMBERS}", id="atom-b-object"),
        pytest.param("transform", {"type": "finite", "atoms": [{**ATOM, "A": [[1.0, None], [0.0, 1.0]]}]},
                     f"atoms[0].A {NOT_NUMBERS}", id="atom-A-null"),
        pytest.param("transform", {"type": "td_mdp", "mdp": {**MDP, "features": {"a": 1}}},
                     f"features {NOT_NUMBERS}", id="features-object"),
        pytest.param("td", {**MDP, "features": {"a": 1}}, f"features {NOT_NUMBERS}",
                     id="td-features-object"),
        pytest.param("transform", {"type": "td_mdp", "mdp": {**MDP, "transitions": [[True, False], [0.5, 0.5]]}},
                     f"transitions {NOT_NUMBERS}", id="transitions-boolean"),
        pytest.param("transform", {"type": "td_mdp", "mdp": {**MDP, "rewards": ["1", 0.0]}},
                     f"rewards {NOT_NUMBERS}", id="rewards-string"),
        pytest.param("transform", {"type": "td_mdp", "mdp": {**MDP, "sampling": {"s": 1}}},
                     f"sampling {NOT_NUMBERS}", id="sampling-object"),
        pytest.param("transform",
                     {"type": "td_mdp", "mdp": {**MDP, "behavior_transitions": [[0.5, 0.5], [1.0]]}},
                     f"behavior_transitions {NOT_NUMBERS} of a regular shape", id="behavior-ragged"),
        # a missing required field names the object and the field, not a bare key
        pytest.param("transform", {"type": "gaussian", "b": [1.0, 1.0]}, "problem has no field 'A'",
                     id="gaussian-without-A"),
        pytest.param("transform", {"type": "gaussian", "A": [[1.0]]}, "problem has no field 'b'",
                     id="gaussian-without-b"),
        pytest.param("transform", {"type": "finite"}, "problem has no field 'atoms'",
                     id="finite-without-atoms"),
        pytest.param("transform", {"type": "finite", "atoms": [{"b": [1.0], "A": [[1.0]]}]},
                     "atoms[0] has no field 'p'", id="atom-without-p"),
        pytest.param("transform", {"type": "lower_bound", "lambda_max": 2.0},
                     "problem has no field 'lambda_min'", id="lower-bound-without-lambda_min"),
        pytest.param("transform", {"type": "td_mdp"}, "problem has no field 'mdp'", id="td-without-mdp"),
        pytest.param("transform", {"type": "td_mdp", "mdp": {k: v for k, v in MDP.items() if k != "discount"}},
                     "mdp has no field 'discount'", id="mdp-without-discount"),
        pytest.param("td", GAUSSIAN, "mdp has no field 'features'", id="td-of-a-gaussian-file"),
        # a label is a string, and a shape is named as the file gives it
        pytest.param("transform", {**GAUSSIAN, "label": {"a": 1}}, "label must be a string, not {'a': 1}",
                     id="label-object"),
        pytest.param("transform", {**GAUSSIAN, "A": []}, "A_P must be a square matrix, not of shape (0,)",
                     id="A-empty"),
        pytest.param("transform", {"type": "finite", "atoms": [{**ATOM, "A": []}]},
                     "atom shapes (2,), (0,) do not match dimension 2", id="atom-A-empty"),
        # the sum is printed as a plain float, not np.float64(0.9)
        pytest.param("transform", {"type": "finite", "atoms": [{**ATOM, "p": 0.9}]},
                     "error: atom probabilities sum to 0.9, not 1\n", id="probabilities-sum"),
        pytest.param("transform", {"type": "finite", "atoms": []}, "need at least one atom",
                     id="atoms-empty"),
        # the MDP's values: distributions, coverage and feature rank
        pytest.param("transform", {"type": "td_mdp", "mdp": {**MDP, "transitions": [[0.5, 0.6], [0.5, 0.5]]}},
                     "transitions rows must be nonnegative and sum to 1", id="transitions-row-sum"),
        pytest.param("transform",
                     {"type": "td_mdp", "mdp": {**MDP, "behavior_transitions": [[1.0, 0.0], [0.5, 0.5]]}},
                     "behavior must cover every target transition", id="behavior-not-covering"),
        pytest.param("td", {**MDP, "features": [[1.0, 2.0], [2.0, 4.0]]},
                     "features do not have full column rank", id="features-rank-deficient"),
    ],
)
def test_malformed_file_exits_2(command, spec, message, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    flag = "--mdp" if command == "td" else "--problem"
    assert main([command, flag, str(path)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param({"type": "gaussian", "A": [[[1.0]]], "b": [1.0]},
                     "A_P must be a square matrix, not of shape (1, 1, 1)", id="gaussian-A"),
        pytest.param({"type": "td_mdp", "mdp": {**MDP, "features": [[[1.0]], [[0.5]]]}},
                     "features must be a matrix, not of shape (2, 1, 1)", id="td-features"),
    ],
)
@pytest.mark.parametrize("command", ["transform", "simulate", "tune"])
def test_one_extra_level_of_nesting_exits_2(command, spec, message, tmp_path, capsys):
    # a 3-D mean was read as 1 x 1 (simulate and tune exited 0, transform
    # raised a TypeError), and 3-D features failed inside matrix_rank
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    args = {
        "transform": [],
        "simulate": ["--alpha", "0.01", "--horizon", "30", "--stride", "10",
                     "--out", str(tmp_path / "out.csv")],
        "tune": ["--alpha-max", "1", "--out-json", str(tmp_path / "out.json")],
    }[command]
    assert main([command, "--problem", str(path), *args]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


@pytest.mark.parametrize("source", ["theta0", "problem", "mdp", "problem-not-utf-8"])
def test_json_that_does_not_parse_names_its_source(source, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(b"\xff{}" if source == "problem-not-utf-8" else b"nope")
    argv = {
        "theta0": ["simulate", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--theta0", "nope",
                   "--alpha", "0.01", "--horizon", "30", "--out", str(tmp_path / "out.csv")],
        "problem": ["transform", "--problem", str(path)],
        "mdp": ["td", "--mdp", str(path)],
        "problem-not-utf-8": ["transform", "--problem", str(path)],
    }[source]
    assert main(argv) == EXIT_VALIDATION
    name = "theta0" if source == "theta0" else str(path)
    reason = ("'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
              if source == "problem-not-utf-8" else "Expecting value: line 1 column 1 (char 0)")
    assert capsys.readouterr().err == f"error: {name} is not valid JSON: {reason}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


def test_all_diverged_simulate_exits_3(td_problem, tmp_path, capsys):
    code = main(["simulate", "--problem", str(td_problem[0]), "--alpha", "50", "--horizon", "200",
                 "--reps", "4", "--stride", "50", "--out", str(tmp_path / "sim.csv")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


def test_overflowed_simulate_exits_3_naming_the_overflow(tmp_path, capsys):
    # no replication diverges: the squared error of a start at 1e200
    # overflows, which the message must not call divergence
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha", "0.01",
                 "--horizon", "100", "--reps", "5", "--theta0", "[1e200, 0, 0, 0]",
                 "--out", str(out)])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "the MSE overflowed at the horizon" in err and "(0 of 5 diverged)" in err
    last = out.read_text().splitlines()[-1].split(",")
    assert last[1] == "inf" and last[3] == "0"


def test_simulate_singular_mean_exits_2(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[1.0, 1.0], [1.0, 1.0]], "b": [1.0, 0.0],
                                "sigma_A": 0.5}))
    code = main(["simulate", "--problem", str(path), "--alpha", "0.1", "--horizon", "50",
                 "--reps", "2", "--stride", "10", "--out", str(tmp_path / "sim.csv")])
    assert code == EXIT_VALIDATION
    assert "problem has no fixed point (singular mean matrix)" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


def test_noise_free_simulate_is_one_trajectory(tmp_path):
    # the noise-free Fig. 1 mean draws nothing: its replications are one
    # trajectory, so the spread is 0 and the rows do not depend on --reps
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[1, -10], [10, 1]], "b": [-9, 11]}))
    rows = {}
    for reps in ("1", "50"):
        out = tmp_path / f"quiet_{reps}.csv"
        assert main(["simulate", "--problem", str(path), "--seed", "1", "--alpha", "0.0078125",
                     "--horizon", "400", "--reps", reps, "--out", str(out)]) == 0
        rows[reps] = out.read_text().splitlines()[1:]  # past the provenance line
    assert rows["1"] == rows["50"]
    stderr = [line.split(",")[2] for line in rows["50"][1:]]
    assert len(stderr) == 16 and set(stderr) == {"0.0"}


@pytest.mark.parametrize("command", ["bound", "simulate", "tune"])
def test_theta0_of_wrong_shape_exits_2(command, tmp_path, capsys):
    args = {
        "bound": ["--alpha", "0.01", "--t-grid", "1:100:5", "--out", str(tmp_path / "out.csv")],
        "simulate": ["--alpha", "0.01", "--horizon", "100", "--reps", "2",
                     "--out", str(tmp_path / "out.csv")],
        "tune": ["--alpha-max", "1.0"],
    }[command]
    code = main([command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--theta0", "[5]", *args])
    assert code == EXIT_VALIDATION
    assert "theta_0 must have shape (4,)" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
    # JSON reads NaN, and reads 1e400 as inf
    for theta0 in ("[NaN,0,0,0]", "[1e400,0,0,0]"):
        code = main([command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--theta0", theta0, *args])
        assert code == EXIT_VALIDATION
        assert "theta_0 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command", ["bound", "simulate", "tune"])
@pytest.mark.parametrize("theta0", ['{"a": 1}', "[true, false, true, false]", '["1", 0, 0, 0]'])
def test_theta0_must_be_a_json_array_of_numbers(command, theta0, tmp_path, capsys):
    # the rule of problem files: an object raised TypeError (exit 1), and
    # booleans and numeric strings were read as numbers
    args = {
        "bound": ["--alpha", "0.01", "--t-grid", "1:100:5", "--out", str(tmp_path / "out.csv")],
        "simulate": ["--alpha", "0.01", "--horizon", "100", "--reps", "2",
                     "--out", str(tmp_path / "out.csv")],
        "tune": ["--alpha-max", "1.0", "--out-json", str(tmp_path / "out.json")],
    }[command]
    code = main([command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--theta0", theta0, *args])
    assert code == EXIT_VALIDATION
    assert "theta0 must be a JSON array of numbers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def rho_rows(path, capsys, grid="1e-3:1e-1:3:log"):
    assert main(["rho", "--problem", str(path), "--alpha-grid", grid]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "alpha,rho_d,rho_s,contraction_s,contraction_d"
    return [[float(x) for x in row.split(",")] for row in rows]


def test_rho_reports_the_transformed_problem(capsys):
    # off-policy GTD2 is Hurwitz but its A_P + A_P^T is not PD: the gaps of
    # the untransformed problem are negative, those of the transform that
    # ``bound`` and ``transform`` use are positive
    rows = rho_rows(PROBLEMS / "gtd2_offpolicy.json", capsys)
    assert rows[0][0] == 1e-3
    assert rows[0][1] == pytest.approx(0.412, abs=5e-4)
    m = load_problem_file(PROBLEMS / "gtd2_offpolicy.json").exact_moments
    assert spectral_report(m, 1e-3).rho_d < 0


def test_rho_identity_transform_keeps_the_gaps(capsys):
    # TD(0) on-policy: the transform is the identity, so the rows are the
    # gaps of the problem itself
    rows = rho_rows(PROBLEMS / "td0_onpolicy.json", capsys)
    m = load_problem_file(PROBLEMS / "td0_onpolicy.json").exact_moments
    for alpha, rd, rs, cs, cd in rows:
        rep = spectral_report(m, alpha)
        assert (rd, rs, cs, cd) == (rep.rho_d, rep.rho_s, rep.contraction_factor_s,
                                    rep.contraction_factor_d)


def test_rho_not_hurwitz_exits_2(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "finite", "atoms": [{"b": [1.0], "A": [[-1.0]], "p": 1.0}]}))
    assert main(["rho", "--problem", str(path), "--alpha-grid", "0.1:1:2"]) == EXIT_VALIDATION
    assert "not Hurwitz" in capsys.readouterr().err


def test_transform_budget_exhausted_exits_2(tmp_path, capsys):
    # Hurwitz and defective, but its Schur rescaling needs about 79 halvings
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "type": "gaussian", "A": [[1e-12, 1e12], [0.0, 1e-12]], "b": [1.0, 1.0], "sigma_A": 0.5,
    }))
    common = ["--problem", str(path)]
    for argv in (
        ["rho", *common, "--alpha-grid", "1e-4:1:5:log"],
        ["transform", *common],
        ["bound", *common, "--alpha", "0.01", "--t-grid", "1:100:5", "--out", str(tmp_path / "b.csv")],
    ):
        assert main(argv) == EXIT_VALIDATION
        assert "transform failed: no PD rescaling after 60 halvings" in capsys.readouterr().err


def test_repro_fig1_files_and_rerun(tmp_path):
    def run(out_dir):
        return repro_fig1(out_dir, n_seeds=2, seed=3, sim_horizon=200, n_replications=5)

    summary = run(tmp_path / "a")
    assert set(summary) == {"sigma_A", "n_seeds", "seed"}
    assert set(summary["sigma_A"]) == {str(s) for s in FIG1_SIGMAS}
    left = (tmp_path / "a" / "fig1_left.csv").read_text().splitlines()
    right = (tmp_path / "a" / "fig1_right.csv").read_text().splitlines()
    assert left[0] == right[0] == "# lsalab repro-fig1"
    assert left[1] == "sigma_A,tuned_alpha_median,tuned_alpha_iqr,hand_alpha"
    assert len(left) == 2 + len(FIG1_SIGMAS)
    assert right[1] == "t," + ",".join(f"mse_sigma_{s:g}" for s in FIG1_SIGMAS)
    assert len(right) == 2 + 200 // 25
    stored = json.loads((tmp_path / "a" / "fig1_summary.json").read_text())
    assert stored == json.loads(json.dumps(summary))
    # the levels are simulated as one batch; each column is the curve of one
    # run_mse call on its level at the tuned median
    columns = np.array([[float(x) for x in row.split(",")] for row in right[2:]]).T
    for sigma, column in zip(FIG1_SIGMAS, columns[1:]):
        cfg = RunConfig(alpha=summary["sigma_A"][str(sigma)]["tuned_alpha_median"], horizon=200,
                        n_replications=5, seed=3)
        assert np.array_equal(column, run_mse(make_fig1_problem(sigma), cfg).mse)
    # the count of mean-unstable tuned step-sizes; ten seeds give a nonzero one
    wide = repro_fig1(tmp_path / "c", n_seeds=10, seed=0, sim_horizon=200, n_replications=5)
    for s in (summary, wide):
        for sigma in FIG1_SIGMAS:
            level = s["sigma_A"][str(sigma)]
            m = make_fig1_problem(sigma).exact_moments
            assert level["n_tuned_mean_unstable"] == sum(
                rho_d(m, a) <= 0 for a in level["tuned_alphas"]
            )
    assert sum(level["n_tuned_mean_unstable"] for level in wide["sigma_A"].values()) > 0

    run(tmp_path / "b")
    for name in ("fig1_left.csv", "fig1_right.csv"):
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_transformed_gaussian_output_is_seed_free(tmp_path, capsys):
    # a Jordan mean needs a non-identity transform; its moments are exact,
    # so rho, transform and bound read the same numbers under any --seed
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[0.1, 1.0], [0.0, 0.1]], "b": [1.0, 1.0],
                                "sigma_A": 0.2, "sigma_b": 0.3}))
    outputs = []
    for seed in ("1", "2"):
        common = ["--problem", str(path), "--seed", seed]
        assert main(["rho", *common, "--alpha-grid", "1e-3:1e-1:5:log"]) == 0
        rho = capsys.readouterr().out
        assert main(["transform", *common]) == 0
        report = capsys.readouterr().out
        bound = tmp_path / f"bound{seed}.csv"
        assert main(["bound", *common, "--alpha", "0.01", "--t-grid", "1:1000:5:log",
                     "--out", str(bound)]) == 0
        # past the provenance line, which names the invocation and so the seed
        outputs.append((rho, report, bound.read_text().split("\n", 1)[1]))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["kappa_U"] > 1


@pytest.mark.parametrize("command", ["rho", "transform", "bound"])
def test_non_finite_problem_exits_2(command, tmp_path, capsys):
    path = tmp_path / "problem.json"
    # json writes NaN, which Python's json reader accepts
    path.write_text(json.dumps({"type": "gaussian", "A": [[1.0, 0.0], [0.0, 1.0]],
                                "b": [float("nan"), 1.0], "sigma_A": 1.0}))
    args = {
        "rho": ["--alpha-grid", "0.1:1:2"],
        "transform": [],
        "bound": ["--alpha", "0.01", "--t-grid", "1:100:5", "--out", str(tmp_path / "out.csv")],
    }[command]
    assert main([command, "--problem", str(path), *args]) == EXIT_VALIDATION
    assert "b_P has a non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


EYE = [[1.0, 0.0], [0.0, 1.0]]
HUGE_MEAN = [[1e200, 0.0], [0.0, 1e200]]


@pytest.mark.parametrize(
    "spec, field",
    [
        pytest.param({"type": "gaussian", "A": EYE, "b": [1, 1], "sigma_A": 1e200}, "sigma_A_sq",
                     id="gaussian-sigma_A"),
        pytest.param({"type": "gaussian", "A": EYE, "b": [1, 1], "sigma_b": 1e200}, "sigma_b_sq",
                     id="gaussian-sigma_b"),
        pytest.param({"type": "finite", "atoms": [{"b": [1e200, 0], "A": EYE, "p": 0.5},
                                                  {"b": [-1e200, 0], "A": EYE, "p": 0.5}]},
                     "sigma_b_sq", id="finite-intercepts"),
        pytest.param({"type": "lower_bound", "lambda_min": 1, "lambda_max": 2, "sigma_b": 1e200},
                     "sigma_b_sq", id="lower_bound-sigma_b"),
        pytest.param({"type": "gaussian", "A": HUGE_MEAN, "b": [1, 1]}, "C_P", id="gaussian-mean"),
        pytest.param({"type": "finite", "atoms": [{"b": [1, 1], "A": HUGE_MEAN, "p": 1}]}, "C_P",
                     id="finite-mean"),
    ],
)
@pytest.mark.parametrize("command", ["transform", "rho", "simulate", "tune"])
def test_second_moments_past_the_float_range_exit_2(command, spec, field, tmp_path, capsys):
    # sigma_A**2 raised an OverflowError (exit 1); the finite squares warned
    # and carried inf; a 1e200 mean wrote NaN rows from rho and exited 0
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    args = {
        "transform": [],
        "rho": ["--alpha-grid", "1e-4:1:3:log", "--out", str(tmp_path / "out.csv")],
        "simulate": ["--alpha", "0.01", "--horizon", "30", "--stride", "10",
                     "--out", str(tmp_path / "out.csv")],
        "tune": ["--alpha-max", "1", "--out-json", str(tmp_path / "out.json")],
    }[command]
    assert main([command, "--problem", str(path), *args]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"error: {field} = .+ exceeds the float range \(largest double 1\.798e\+308\)\n", err)
    assert sorted(os.listdir(tmp_path)) == ["in.json"]


#: A_P near 1.3e154 * I: C_P is within the float range, the far atom's
#: squared deviation norm and H + H^* of the gap at alpha = 1 are not
NEAR_RANGE = {"type": "finite", "atoms": [
    {"b": [1, 1], "A": [[1.3e154, 0], [0, 1.3e154]], "p": 0.999},
    {"b": [1, 1], "A": [[-1.3e154, 0], [0, -1.3e154]], "p": 0.001},
]}


def test_moments_near_the_float_range_transform_and_rho(tmp_path, capsys):
    # transform warned "overflow encountered in square" (exit 1 under
    # error::RuntimeWarning) and rho wrote a row of NaN at alpha = 1
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_RANGE))
    assert main(["transform", "--problem", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["witness_alpha_transformed"] < math.inf
    assert main(["rho", "--problem", str(path), "--alpha-grid", "1e-4:1:3:log",
                 "--out", str(tmp_path / "rho.csv")]) == 0
    rows = [line.split(",") for line in (tmp_path / "rho.csv").read_text().splitlines()
            if not line.startswith(("#", "alpha"))]
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row)


def test_sigma_A_past_the_float_range_exits_2(tmp_path, capsys):
    # reflections around a mean of a/2 * I: E||A - A_P||^2 = 1.25 a^2 exceeds
    # the largest double, C_P = a^2 I does not; it is read by the witness
    a = 1.3e154
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"type": "finite", "atoms": [
        {"b": [1, 1], "A": [[a, 0], [0, a]], "p": 0.5},
        {"b": [1, 1], "A": [[a, 0], [0, -a]], "p": 0.25},
        {"b": [1, 1], "A": [[-a, 0], [0, a]], "p": 0.25},
    ]}))
    assert main(["transform", "--problem", str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: sigma_A_sq = E\|\|A - A_P\|\|\^2 exceeds the float range "
                        r"\(largest double 1\.798e\+308\)\n", err)


@pytest.mark.parametrize("command", ["simulate", "tune", "rho"])
def test_non_integer_problem_seed_exits_2(command, tmp_path, capsys):
    path = tmp_path / "problem.json"
    spec = json.loads((PROBLEMS / "td0_onpolicy.json").read_text())
    path.write_text(json.dumps({**spec, "seed": 1.5}))
    out = str(tmp_path / "out.csv")
    args = {
        "simulate": ["--alpha", "0.01", "--horizon", "50", "--reps", "2", "--out", out],
        "tune": ["--alpha-max", "1", "--out-json", str(tmp_path / "t.json"), "--out-csv", out],
        "rho": ["--alpha-grid", "0.1:1:2"],
    }[command]
    assert main([command, "--problem", str(path), *args]) == EXIT_VALIDATION
    assert "seed must be a non-negative integer, not 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_transform_of_a_tiny_mean_has_its_witness(tmp_path, capsys):
    # ||A_P||^2 = 1e-400 underflows to 0; the witness is 2e-200 / 1e-400
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[1e-200, 0], [0, 1e-200]], "b": [1, 1]}))
    assert main(["transform", "--problem", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["witness_alpha_transformed"] == 2e200
    assert err == ""


@pytest.mark.parametrize("kwargs, message", [
    ({"sim_horizon": 20}, "horizon=20 is below the record stride 25"),
    ({"n_replications": 0}, "n_replications=0 must be at least 1"),
    ({"tune_horizon": 5, "sim_horizon": 100}, r"tune_horizon=5 must exceed the tuner's k\*T = 10"),
    ({"n_seeds": 0}, "n_seeds=0 must be at least 1"),
    ({"n_seeds": -1}, "n_seeds=-1 must be at least 1"),
])
def test_repro_fig1_checks_its_configurations_before_tuning(kwargs, message, tmp_path):
    with mock.patch("lsalab.cli.tune", side_effect=AssertionError("tuned")) as tuned:
        with pytest.raises(ValueError, match=message):
            repro_fig1(tmp_path / "out", **kwargs)
    tuned.assert_not_called()
    assert not (tmp_path / "out").exists()


def aborting_tune(aborted):
    """``tune`` for ``repro_fig1`` that raises NoStableStepSizeError for the
    seeds ``aborted`` names: a noise level mapped to the positions of its
    aborted seeds, in the order the level tunes them."""
    levels = {make_fig1_problem(s).label: s for s in FIG1_SIGMAS}
    calls = dict.fromkeys(FIG1_SIGMAS, 0)

    def fake(p, cfg):
        sigma = levels[p.label]
        i, calls[sigma] = calls[sigma], calls[sigma] + 1
        if i in aborted.get(sigma, ()):
            raise NoStableStepSizeError(f"seed {cfg.seed} aborted")
        return tune(p, cfg)

    return fake


def test_repro_fig1_counts_an_aborted_seed(tmp_path):
    kwargs = {"n_seeds": 5, "seed": 2, "sim_horizon": 100, "n_replications": 3}
    full = repro_fig1(tmp_path / "full", **kwargs)
    with mock.patch("lsalab.cli.tune", side_effect=aborting_tune({20.0: {0}})) as tuned:
        summary = repro_fig1(tmp_path / "one", **kwargs)
    assert tuned.call_count == 5 * len(FIG1_SIGMAS)
    for sigma in FIG1_SIGMAS[:-1]:
        assert summary["sigma_A"][str(sigma)] == full["sigma_A"][str(sigma)]
    got, want = summary["sigma_A"]["20.0"], full["sigma_A"]["20.0"]
    assert want["n_aborted"] == 0
    assert got["n_aborted"] == 1
    assert got["tuned_alphas"] == want["tuned_alphas"][1:]
    # the four others have another median than the five: 2^-9 and 2^-8 in the middle
    assert got["tuned_alpha_median"] == float(np.median(want["tuned_alphas"][1:])) == 0.0029296875
    assert want["tuned_alpha_median"] == 2.0**-9
    left = (tmp_path / "one" / "fig1_left.csv").read_text().splitlines()
    assert left[-1].startswith("20.0,0.0029296875,")


def test_repro_fig1_level_whose_every_seed_aborts(tmp_path):
    # the other levels still tune and simulate; the aborted one has no
    # median, so no MSE curve
    with mock.patch("lsalab.cli.tune", side_effect=aborting_tune({20.0: range(3)})):
        summary = repro_fig1(tmp_path, n_seeds=3, seed=2, sim_horizon=100, n_replications=3)
    level = summary["sigma_A"]["20.0"]
    assert level["n_aborted"] == 3
    assert level["tuned_alphas"] == []
    assert math.isnan(level["tuned_alpha_median"]) and math.isnan(level["tuned_alpha_iqr"])
    assert "n_diverged_final" not in level
    assert all("n_diverged_final" in summary["sigma_A"][str(s)] for s in FIG1_SIGMAS[:-1])
    left = (tmp_path / "fig1_left.csv").read_text().splitlines()
    assert left[-1] == f"20.0,nan,nan,{2.0 / (101.0 + 20.0**2)!r}"
    right = (tmp_path / "fig1_right.csv").read_text().splitlines()
    assert right[1] == "t," + ",".join(f"mse_sigma_{s:g}" for s in FIG1_SIGMAS[:-1])
    assert all(len(line.split(",")) == len(FIG1_SIGMAS) for line in right[2:])
    assert math.isnan(json.loads((tmp_path / "fig1_summary.json").read_text())
                      ["sigma_A"]["20.0"]["tuned_alpha_median"])


@pytest.mark.parametrize("seed", [1.5, -1])
def test_repro_fig1_seed_must_be_a_non_negative_integer(seed, tmp_path):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        repro_fig1(tmp_path / "out", seed=seed)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "tune", "td", "rho", "transform", "bound"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    # checked once, before any handler runs: no subcommand writes a file
    # (``td`` would write "seed": -1 into its problem file)
    out = str(tmp_path / "out")
    problem = ["--problem", str(PROBLEMS / "td0_onpolicy.json")]
    args = {
        "simulate": [*problem, "--alpha", "0.01", "--horizon", "50", "--reps", "2", "--out", out],
        "tune": [*problem, "--alpha-max", "1", "--out-json", out, "--out-csv", f"{out}.csv"],
        "td": ["--mdp", str(write_mdp(tmp_path / "mdp.json", False)), "--out", out],
        "rho": [*problem, "--alpha-grid", "1e-4:1:5:log", "--out", out],
        "transform": problem,
        "bound": [*problem, "--alpha", "0.01", "--t-grid", "1:10:2", "--out", out],
    }[command]
    assert main([command, "--seed", "-1", *args]) == EXIT_VALIDATION
    stdout, err = capsys.readouterr()
    assert "seed must be a non-negative integer, not -1" in err
    assert stdout == ""
    assert os.listdir(tmp_path) == ["mdp.json"]


#: theta* = (1e300, 1e300), sigma_A = 1
HUGE_THETA_STAR = {"type": "gaussian", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1e300, 1e300],
                   "sigma_A": 1.0}
#: the Fig. 1 mean and intercept without noise
QUIET_FIG1 = {"type": "gaussian", "A": [[1, -10], [10, 1]], "b": [-9, 11]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("problem, theta0", [
    pytest.param(HUGE_THETA_STAR, None, id="None"),
    pytest.param(HUGE_THETA_STAR, "[1e300, 1e300]", id="[1e300, 1e300]"),
    pytest.param({**HUGE_THETA_STAR, "b": [1e308, 0.0], "sigma_A": 0.5}, "[-1e308, 0]",
                 id="[-1e308, 0]"),
    pytest.param(QUIET_FIG1, "[1.7e308, 1.7e308]", id="sigma_A=0-sigma_b=0"),
    pytest.param({**QUIET_FIG1, "sigma_b": 1}, "[1.7e308, 1.7e308]", id="sigma_A=0-sigma_b=1"),
    pytest.param({"type": "lower_bound", "lambda_min": 1, "lambda_max": 2, "sigma_b": 1},
                 "[1.7e308, 1.7e308]", id="lower_bound"),
])
def test_bound_on_a_huge_fixed_point_reads_inf_not_nan(problem, theta0, tmp_path):
    # theta* = (1e300, 1e300): ||theta_0 - theta*||^2 and sigma_1^2 overflow;
    # theta* = (1e308, 0) from theta_0 = (-1e308, 0): theta_0 - theta* itself
    # does; and without matrix noise ||theta_0 - theta*|| overflows alone
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "bound.csv"
    argv = ["bound", "--problem", str(path), "--alpha", "0.01", "--t-grid", "1:100:5:log",
            "--out", str(out)]
    assert main(argv + (["--theta0", theta0] if theta0 else [])) == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[2:]])
    assert rows.shape == (5, 5) and not np.isnan(rows).any()
    t, lower, upper, bias, variance = rows.T
    if not problem.get("sigma_A"):
        # sigma_2^2 = 0: the noise term sigma_2^2 ||theta_0 - theta*|| is 0,
        # not 0 * inf, so the variance term is that of sigma_b alone
        assert (lower == np.inf).all() and (upper == np.inf).all() and (bias == np.inf).all()
        assert np.isfinite(variance).all()
        assert ((variance > 0) == bool(problem.get("sigma_b"))).all()
        return
    assert (upper == np.inf).all() and (variance == np.inf).all()
    if theta0 == "[1e300, 1e300]":
        # theta_0 = theta*: no bias, and at t = 1 no noise term either
        assert (bias == 0).all() and lower[0] == 0 and (lower[1:] == np.inf).all()
    else:
        assert (lower == np.inf).all() and (bias == np.inf).all()


@pytest.mark.parametrize("command", ["td", "rho"])
def test_mdp_without_feature_columns_exits_2(command, tmp_path):
    # d = 0 passed the rank check, as 0 < 0 is false, and Moments then
    # raised numpy's "cond is not defined on empty arrays"
    mdp = {"features": [[]], "transitions": [[1]], "rewards": [1], "discount": 0.5}
    out = tmp_path / "out"
    if command == "td":
        (tmp_path / "mdp.json").write_text(json.dumps(mdp))
        argv = ["td", "--mdp", str(tmp_path / "mdp.json"), "--out", str(out)]
    else:
        (tmp_path / "p.json").write_text(json.dumps({"type": "td_mdp", "algo": "td0", "mdp": mdp}))
        argv = ["rho", "--problem", str(tmp_path / "p.json"), "--alpha-grid", "1e-4:1:3:log",
                "--out", str(out)]
    code, err = main_quietly(argv)
    assert (code, err) == (EXIT_VALIDATION, "error: features must have at least one column\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["rho", "bound"])
def test_non_finite_mdp_exits_2(command, tmp_path, capsys):
    spec = json.loads((PROBLEMS / "td0_onpolicy.json").read_text())
    spec["mdp"]["rewards"][0] = float("nan")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    args = {
        "rho": ["--alpha-grid", "0.1:1:2"],
        "bound": ["--alpha", "0.01", "--t-grid", "1:10:2", "--out", str(tmp_path / "out.csv")],
    }[command]
    assert main([command, "--problem", str(path), *args]) == EXIT_VALIDATION
    assert "rewards has a non-finite entry" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("command", ["simulate", "tune", "bound"])
def test_non_finite_step_size_exits_2(command, bad, tmp_path, capsys):
    args, name = {
        "simulate": (["--alpha", bad, "--horizon", "50", "--reps", "2", "--stride", "10",
                      "--out", str(tmp_path / "out.csv")], "alpha"),
        "tune": (["--alpha-max", bad, "--horizon", "40"], "alpha_max"),
        "bound": (["--alpha", bad, "--t-grid", "1:10:2", "--out", str(tmp_path / "out.csv")], "alpha"),
    }[command]
    assert main([command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), *args]) == EXIT_VALIDATION
    assert f"{name} must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_ratio_threshold_exits_2(bad, tmp_path, capsys):
    # a NaN threshold never triggers: alpha_max 1e3 would come back unhalved
    argv = ["tune", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha-max", "1e3",
            "--c", bad, "--horizon", "40", "--out-json", str(tmp_path / "tune.json")]
    assert main(argv) == EXIT_VALIDATION
    assert "c_threshold must be finite and exceed 1" in capsys.readouterr().err
    assert not (tmp_path / "tune.json").exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_grid_end_exits_2(bad, capsys):
    argv = ["rho", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha-grid", f"0.1:{bad}:2"]
    assert main(argv) == EXIT_VALIDATION
    assert f"grid '0.1:{bad}:2' has a non-finite end" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("0.1:1", "grid '0.1:1' is not 'start:stop:count[:log]'"),
    ("0.1:1:0", "grid count must be positive"),
    ("0.1:1:3:ln", "unknown grid scale 'ln'"),
])
def test_malformed_grid_exits_2(spec, message, capsys):
    argv = ["rho", "--problem", str(PROBLEMS / "td0_onpolicy.json"), f"--alpha-grid={spec}"]
    assert main(argv) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec", ["1:2000:20:log", "1:1e6:200:log", "100:1:7", "0:5:30", "0.2:3.7:11"])
def test_integer_grid_is_sorted_distinct_and_positive(spec):
    start, stop, count, *log = spec.split(":")
    space = np.geomspace if log else np.linspace
    want = np.unique(np.round(space(float(start), float(stop), int(count))).astype(np.int64))
    got = _parse_grid(spec, integer=True)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want[want >= 1])


@pytest.mark.parametrize("spec", ["1:1e30:5:log", "-1e19:10:3"])
def test_integer_grid_past_int64_exits_2(spec, tmp_path, capsys):
    # casting 1e22 to int64 read INT64_MIN, and the row was dropped as < 1
    argv = ["bound", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha", "0.01",
            f"--t-grid={spec}", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert f"grid {spec!r} has a point past the int64 range" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("spec", ["0:0.4:3", "-5:0:4"])
def test_integer_grid_without_a_point_from_1_exits_2(spec, tmp_path, capsys):
    # every point rounds below 1: the CSV had a header and no row
    argv = ["bound", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha", "0.01",
            f"--t-grid={spec}", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_VALIDATION
    assert f"grid {spec!r} has no point >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("n_seeds", [1, 2, 5, 10])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_fig1_left_order_statistics_equal_numpy(tmp_path, seed, n_seeds):
    # statistics' median and inclusive quartiles of the tuned step-sizes,
    # powers of two, are numpy's bit for bit; one step-size has IQR 0.0
    summary = repro_fig1(tmp_path, n_seeds=n_seeds, seed=seed, sim_horizon=25, n_replications=1)
    lines = (tmp_path / "fig1_left.csv").read_text().splitlines()[2:]
    assert len(lines) == len(FIG1_SIGMAS)
    for sigma, line in zip(FIG1_SIGMAS, lines):
        _, med, iqr, _ = map(float, line.split(","))
        alphas = summary["sigma_A"][str(sigma)]["tuned_alphas"]
        assert len(alphas) == n_seeds
        assert med.hex() == float(np.median(alphas)).hex()
        q1, q3 = np.percentile(alphas, [25, 75])
        assert iqr.hex() == float(q3 - q1).hex()


def test_repro_fig1_loads_no_numpy_ma(tmp_path):
    # a fresh interpreter: numpy.ma stays loaded once any test imports it
    script = textwrap.dedent(f"""
        import sys
        from lsalab.cli import repro_fig1
        repro_fig1({str(tmp_path)!r}, n_seeds=3, sim_horizon=100, n_replications=3)
        assert "numpy.ma" not in sys.modules
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(lsalab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_non_finite_eta_exits_2(tmp_path, capsys):
    spec = json.loads((PROBLEMS / "gtd2_offpolicy.json").read_text())
    spec["eta"] = float("nan")
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    assert main(["rho", "--problem", str(path), "--alpha-grid", "0.1:1:2"]) == EXIT_VALIDATION
    assert "eta must be finite and positive" in capsys.readouterr().err


def test_tune_reports_its_trace(tmp_path, capsys):
    problem = PROBLEMS / "td0_onpolicy.json"
    common = ["tune", "--problem", str(problem), "--seed", "5", "--alpha-max", "1", "--horizon", "200"]
    trace = tune(load_problem_file(problem), TunerConfig(alpha_max=1.0, horizon=200, seed=5))
    assert trace.events
    assert main(common) == 0
    assert json.loads(capsys.readouterr().out) == {
        "final_alpha": trace.final_alpha, "n_halvings": len(trace.events)
    }
    out_json, out_csv = tmp_path / "trace.json", tmp_path / "events.csv"
    argv = [*common, "--out-json", str(out_json), "--out-csv", str(out_csv)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out_json.read_text()) == {
        "final_alpha": trace.final_alpha,
        "n_halvings": len(trace.events),
        "events": [{"t": t, "alpha": a} for t, a in trace.events],
        "final_theta_hat": trace.final_theta_hat.real.tolist(),
        "checks": [{"t": c.t, "ratios": list(c.ratios), "triggered": c.triggered}
                   for c in trace.checks],
    }
    assert out_csv.read_text().splitlines() == [
        "# lsalab " + " ".join(argv),
        "event_index,t,alpha",
        *(f"{i},{t},{a!r}" for i, (t, a) in enumerate(trace.events)),
    ]
    first = out_json.read_bytes(), out_csv.read_bytes()
    assert main(argv) == 0
    assert (out_json.read_bytes(), out_csv.read_bytes()) == first


def test_tune_does_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its gemv kernel at run time, and Haswell's fuses
    # multiply-adds where Prescott's does not; the tuner's step calls no BLAS,
    # so its trace is the same under both
    problem = PROBLEMS / "td0_onpolicy.json"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(lsalab.__file__).resolve().parents[1])
    outs = []
    for coretype in (None, "Prescott"):
        out = tmp_path / f"tune_{coretype}.json"
        argv = [sys.executable, "-m", "lsalab.cli", "tune", "--problem", str(problem),
                "--alpha-max", "1", "--seed", "3", "--out-json", str(out)]
        kernel = {"OPENBLAS_CORETYPE": coretype} if coretype else {}
        done = subprocess.run(argv, env={**env, **kernel}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_rho_out_writes_the_stdout_rows(tmp_path, capsys):
    problem = PROBLEMS / "gtd2_offpolicy.json"
    out = tmp_path / "rho.csv"
    argv = ["rho", "--problem", str(problem), "--alpha-grid", "1e-3:1e-1:3:log", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    provenance, *rows = out.read_text().splitlines()
    assert provenance == "# lsalab " + " ".join(argv)
    assert main(argv[:-2]) == 0
    assert rows == capsys.readouterr().out.splitlines()


def test_repro_fig1_through_main(tmp_path, capsys):
    argv = ["repro-fig1", "--out-dir", str(tmp_path / "cli"), "--seeds", "2", "--seed", "3",
            "--horizon", "200", "--reps", "5"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == {"n_seeds": 2, "seed": 3}
    repro_fig1(tmp_path / "lib", n_seeds=2, seed=3, sim_horizon=200, n_replications=5)
    for name in ("fig1_left.csv", "fig1_right.csv"):
        provenance, rest = (tmp_path / "cli" / name).read_text().split("\n", 1)
        assert provenance == "# lsalab " + " ".join(argv)
        assert rest == (tmp_path / "lib" / name).read_text().split("\n", 1)[1]
    summary = "fig1_summary.json"
    assert (tmp_path / "cli" / summary).read_bytes() == (tmp_path / "lib" / summary).read_bytes()


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    out = tmp_path / "rho.csv"
    argv = ["rho", "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--alpha-grid", "0.01:0.1:2",
            "--out", str(out)]
    monkeypatch.setattr(sys, "argv", ["lsalab", *argv])
    assert main() == 0
    assert out.read_text().splitlines()[0] == "# lsalab " + " ".join(argv)


@pytest.mark.parametrize("name", ["td0_onpolicy", "gtd2_offpolicy"])
@pytest.mark.parametrize(
    "command, svds", [("rho", 0), ("tune", 0), ("simulate", 0), ("td", 1), ("transform", 1), ("bound", 1)]
)
def test_only_the_commands_that_print_sigma_A_compute_it(name, command, svds, tmp_path, capsys):
    # sigma_A^2 of a finite problem is one batched SVD, taken on its first
    # read: by td (which prints it), transform (the witness step-size) and
    # bound (sigma1^2 and sigma2^2 of the original problem)
    path = PROBLEMS / f"{name}.json"
    spec = json.loads(path.read_text())
    mdp = tmp_path / "mdp.json"
    mdp.write_text(json.dumps(spec["mdp"]))
    args = {
        "rho": ["--problem", str(path), "--alpha-grid", "1e-4:1:5:log"],
        "tune": ["--problem", str(path), "--alpha-max", "1", "--horizon", "40"],
        "simulate": ["--problem", str(path), "--alpha", "0.005", "--horizon", "50", "--reps", "2",
                     "--out", str(tmp_path / "s.csv")],
        "td": ["--mdp", str(mdp), "--algo", spec["algo"], "--eta", repr(spec["eta"])],
        "transform": ["--problem", str(path)],
        "bound": ["--problem", str(path), "--alpha", "0.005", "--t-grid", "1:100:3",
                  "--out", str(tmp_path / "b.csv")],
    }[command]
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        assert main([command, *args]) == 0
    assert svd.call_count == svds


def full_parser_output(argv, capsys) -> tuple:
    """(stdout, stderr, exit code) of the parser with every subcommand's
    arguments on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


MISSING_ARGUMENT = {
    "rho": ["--problem", "p.json"],
    "transform": [],
    "simulate": ["--problem", "p.json", "--alpha", "0.1", "--out", "x.csv"],
    "bound": ["--problem", "p.json", "--alpha", "0.1", "--out", "x.csv"],
    "tune": ["--problem", "p.json"],
    "td": [],
    "repro-fig1": ["--seeds", "2"],
}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["--version"], ["--vers"], [], ["bogus"], ["--", "bogus"], ["--bogus"]]
    + [[c, "--help"] for c in SUBCOMMANDS]
    + [[c, *MISSING_ARGUMENT[c]] for c in SUBCOMMANDS]
    # an unknown option and a missing value: the top-level parser and the
    # subparser report them, each with its own usage line
    + [["rho", "--problem", "p.json", "--alpha-grid", "1:2:2", "--bogus"], ["rho", "--problem"],
       ["td", "--mdp", "m.json", "--algo", "sarsa"], ["tune", "--problem", "p.json", "--alpha-max", "x"]],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_help_and_usage_errors_equal_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = full_parser_output(argv, capsys)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (out, err, exc.value.code) == want
    assert want[2] == (0 if {"--help", "-h", "--version", "--vers"} & set(argv) else 2)


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["td0_onpolicy", "gtd2_offpolicy"])
def test_bound_at_an_underflowing_step_size_exits_2(name, tmp_path, capsys):
    # alpha^2 rho_d rho_s underflows to 0: a validation error naming alpha,
    # not a ZeroDivisionError
    out = tmp_path / "x.csv"
    argv = ["bound", "--problem", str(PROBLEMS / f"{name}.json"), "--alpha", "1e-300",
            "--t-grid", "1:10:2", "--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: alpha=1e-300 is too small: alpha^2 rho_d rho_s underflows to 0\n"
    assert not out.exists()


#: repro-fig1's integer flags: the least value each accepts, and the names
#: (the flag's or ``repro_fig1``'s argument's) a message about it may use
REPRO_FIG1_FLAGS = {
    "--seeds": (1, ("seeds", "n_seeds")),
    "--seed": (0, ("seed",)),
    "--tune-horizon": (TunerConfig.k * TunerConfig.T + 1, ("tune_horizon",)),
    "--horizon": (25, ("horizon",)),
    "--reps": (1, ("reps", "n_replications")),
}

#: small valid values of the flags not under test, so that a run exits 0 quickly
REPRO_FIG1_SMALL = {"--seeds": 1, "--tune-horizon": 20, "--horizon": 25, "--reps": 2}


def repro_fig1_flag_values(flag):
    """(flag, value) pairs: 0, a negative value, just past the flag's least
    value, and just within it."""
    least = REPRO_FIG1_FLAGS[flag][0]
    values = st.one_of(
        st.just(0), st.integers(max_value=-1), st.just(least - 1), st.integers(least, least + 3)
    )
    return st.tuples(st.just(flag), values)


def main_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, with stdout discarded; it
    leaves no traceback on stderr and issues no RuntimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(REPRO_FIG1_FLAGS)).flatmap(repro_fig1_flag_values))
@example(("--tune-horizon", 5))
@example(("--seeds", 0))
@example(("--seeds", -1))
def test_repro_fig1_flags_exit_0_or_2_and_write_nothing_on_2(flag_value):
    # each flag varied alone, the others small: exit 0, or exit 2 naming the
    # flag and leaving no file or directory behind; never a traceback or a
    # RuntimeWarning
    flag, value = flag_value
    least, names = REPRO_FIG1_FLAGS[flag]
    flags = {**REPRO_FIG1_SMALL, flag: value}
    with tempfile.TemporaryDirectory() as root:
        out_dir = Path(root) / "x"
        argv = ["repro-fig1", "--out-dir", str(out_dir)]
        argv += [str(x) for item in flags.items() for x in item]
        code, err = main_quietly(argv)
        if value >= least:
            assert code == 0
            assert sorted(os.listdir(out_dir)) == [
                "fig1_left.csv", "fig1_right.csv", "fig1_summary.json"
            ]
        else:
            assert code == EXIT_VALIDATION
            assert re.search(r"\b(%s)\b" % "|".join(names), err), err
            assert os.listdir(root) == []


#: the integer flags of ``simulate`` and ``tune``: the range each accepts
#: while the others keep their values in COMMAND_SMALL (None: no upper
#: end), and the names (the flag's or its config field's) a message about
#: it may use.  A stride must not pass the horizon, and the tuner's horizon
#: must exceed k*T.
COMMAND_FLAGS = {
    "simulate": {
        "--horizon": (5, None, ("horizon",)),
        "--reps": (1, None, ("reps", "n_replications")),
        "--stride": (1, 20, ("stride", "record_stride")),
    },
    "tune": {
        "--k": (1, 7, ("k",)),
        "--T": (1, 19, ("T",)),
        "--horizon": (11, None, ("horizon",)),
    },
}

#: small valid values, so that a run exits 0 quickly, and the files it writes
COMMAND_SMALL = {
    "simulate": ({"--alpha": 0.01, "--horizon": 20, "--reps": 2, "--stride": 5}, ["out.csv"]),
    "tune": ({"--alpha-max": 0.01, "--k": 2, "--T": 5, "--horizon": 40}, ["t.csv", "t.json"]),
}


def command_flag_values(command_flag):
    """(command, flag, value) triples: 0, a negative value, just past each
    end of the flag's range, and within it."""
    command, flag = command_flag
    lo, hi, _ = COMMAND_FLAGS[command][flag]
    past = [0, lo - 1] + ([hi + 1] if hi else [])
    values = st.one_of(
        st.sampled_from(past), st.integers(max_value=-1), st.integers(lo, hi or lo + 3)
    )
    return st.tuples(st.just(command), st.just(flag), values)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(c, f) for c in COMMAND_FLAGS for f in COMMAND_FLAGS[c]])
       .flatmap(command_flag_values))
@example(("simulate", "--stride", 0))
@example(("simulate", "--stride", 21))
@example(("simulate", "--reps", 0))
@example(("tune", "--horizon", -3))
@example(("tune", "--k", 8))
def test_simulate_and_tune_flags_exit_0_or_2_and_write_nothing_on_2(case):
    # each flag varied alone: exit 0 writing the outputs, or exit 2 naming
    # the flag or its field and writing nothing; never a traceback or a
    # RuntimeWarning
    command, flag, value = case
    lo, hi, names = COMMAND_FLAGS[command][flag]
    small, files = COMMAND_SMALL[command]
    flags = {**small, flag: value}
    with tempfile.TemporaryDirectory() as root:
        outputs = {
            "simulate": ["--out", f"{root}/out.csv"],
            "tune": ["--out-json", f"{root}/t.json", "--out-csv", f"{root}/t.csv"],
        }[command]
        argv = [command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), *outputs]
        argv += [str(x) for item in flags.items() for x in item]
        code, err = main_quietly(argv)
        if lo <= value <= (hi or value):
            assert code == 0
            assert sorted(os.listdir(root)) == files
        else:
            assert code == EXIT_VALIDATION
            assert re.search(r"\b(%s)=" % "|".join(names), err), err
            assert os.listdir(root) == []


def test_one_parser_per_process():
    # every call parses with the one parser of every subcommand
    assert not inspect.signature(_build_parser).parameters
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("case", ["tune-problem-dir", "td-mdp-dir", "simulate-out-under-file",
                                  "repro-fig1-out-dir-file"])
def test_unreadable_or_unwritable_path_exits_2(case, tmp_path):
    # a directory read as a file, or a file's path used as a directory: exit
    # 2 with one error line, leaving the path as it was
    tmp_path.joinpath("dir").mkdir()
    file = tmp_path / "file"
    file.write_text("kept\n")
    argv = {
        "tune-problem-dir": ["tune", "--problem", str(tmp_path / "dir"), "--alpha-max", "1"],
        "td-mdp-dir": ["td", "--mdp", str(tmp_path / "dir")],
        "simulate-out-under-file": ["simulate", "--problem", str(PROBLEMS / "td0_onpolicy.json"),
                                    "--alpha", "0.01", "--horizon", "30", "--reps", "2",
                                    "--stride", "10", "--out", str(file / "x.csv")],
        "repro-fig1-out-dir-file": ["repro-fig1", "--out-dir", str(file), "--seeds", "1",
                                    "--horizon", "25", "--reps", "2"],
    }[case]
    code, err = main_quietly(argv)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["dir", "file"]
    assert os.listdir(tmp_path / "dir") == []
    assert file.read_text() == "kept\n"


#: one valid file of each problem type, of small size
VALID_FILES = {
    "gaussian": {"type": "gaussian", "A": [[1.0, -2.0], [2.0, 1.0]], "b": [1.0, 0.5],
                 "sigma_A": 0.5, "sigma_b": 0.5, "seed": 1},
    "finite": {"type": "finite", "atoms": [{**ATOM, "p": 0.5}, {"b": [0.0, 1.0], "A": [[2.0, 0.0], [0.0, 1.0]],
                                                                 "p": 0.5}],
               "label": "two atoms", "seed": 1},
    "lower_bound": {"type": "lower_bound", "lambda_min": 1.0, "lambda_max": 2.0, "sigma_b": 1.0, "seed": 1},
    "td_mdp": {"type": "td_mdp", "algo": "gtd2", "eta": 1.0, "seed": 1,
               "mdp": {**MDP, "sampling": [0.5, 0.5], "behavior_transitions": [[0.5, 0.5], [0.5, 0.5]],
                       "reward_noise_std": 0.1}},
}


def nest(value):
    """value with one more level of nesting at the bottom: each number (or
    other non-array) x becomes [x], so a regular array of shape s gets
    shape s + (1,)."""
    return [nest(v) for v in value] if isinstance(value, list) else [value]


#: a field's replacements: a value of each other JSON kind, and more nesting
REPLACEMENTS = {
    "string": lambda v: "x", "bool": lambda v: True, "null": lambda v: None,
    "object": lambda v: {"a": 1}, "number": lambda v: 0.5, "empty-list": lambda v: [],
    "nested": nest, "wrapped": lambda v: [v],
}


def mutations(node, path=()):
    """(path, mutation) pairs of a JSON tree: a field is dropped or replaced,
    an array entry replaced, and a number also replaced by NaN or Infinity."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), "drop"
            yield from mutations(value, path + (key,))
        return
    if path:
        yield from ((path, name) for name in REPLACEMENTS)
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from mutations(value, path + (i,))
    elif isinstance(node, float):
        yield from ((path, name) for name in ("nan", "inf"))


def mutated(spec, path, mutation):
    """A deep copy of spec with ``mutation`` applied at ``path``."""
    spec = json.loads(json.dumps(spec))
    *parents, last = path
    node = spec
    for key in parents:
        node = node[key]
    if mutation == "drop":
        del node[last]
    elif mutation in REPLACEMENTS:
        node[last] = REPLACEMENTS[mutation](node[last])
    else:
        node[last] = float(mutation)  # NaN or Infinity
    return spec


MUTATIONS = [(kind, path, m) for kind, spec in VALID_FILES.items() for path, m in mutations(spec)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MUTATIONS))
@example(("gaussian", ("A",), "drop"))
@example(("gaussian", ("A",), "nested"))
@example(("finite", ("atoms", 0, "p"), "drop"))
@example(("finite", ("atoms", 0, "p"), "number"))
@example(("td_mdp", ("mdp", "discount"), "drop"))
@example(("td_mdp", ("mdp", "features"), "nested"))
def test_mutated_problem_files_exit_0_or_2_and_write_nothing_on_2(case):
    # one valid file per type, one field dropped or replaced or one entry made
    # NaN or Infinity: transform and a 30-step simulate exit 0, or 2 with a
    # message that names what is wrong (not a bare key) and no CSV written;
    # never a traceback or a RuntimeWarning.  Structure only: magnitudes
    # such as 1e300 are not generated.
    kind, path, mutation = case
    with tempfile.TemporaryDirectory() as root:
        problem = Path(root) / "p.json"
        problem.write_text(json.dumps(mutated(VALID_FILES[kind], path, mutation)))
        out = Path(root) / "out.csv"
        for argv in (["transform"], ["simulate", "--alpha", "0.01", "--horizon", "30", "--reps", "2",
                                     "--stride", "10", "--out", str(out)]):
            code, err = main_quietly([argv[0], "--problem", str(problem), *argv[1:]])
            assert code in (0, EXIT_VALIDATION), err
            if code == EXIT_VALIDATION:
                assert re.fullmatch(r"error: .+\n", err) and not re.fullmatch(r"error: '\w*'\n", err), err
                assert not out.exists()


#: a Fig. 1-style problem file: the Fig. 1 mean, intercept (-9, 11), sigma_A = 2
FIG1_STYLE = {"type": "gaussian", "A": [[1, -10], [10, 1]], "b": [-9, 11], "sigma_A": 2}


@pytest.mark.parametrize("name", ["fig1-style", "gtd2"])
def test_rho_past_the_float_range_reads_minus_inf(name, tmp_path):
    # alpha*M leaves the float range at 1e308: the gaps read -inf, not NaN
    if name == "gtd2":
        problem = PROBLEMS / "gtd2_offpolicy.json"
    else:
        problem = tmp_path / "f.json"
        problem.write_text(json.dumps(FIG1_STYLE))
    out = tmp_path / "rho.csv"
    code, err = main_quietly(["rho", "--problem", str(problem), "--alpha-grid", "1e300:1e308:3:log",
                              "--out", str(out)])
    assert (code, err) == (0, "")
    assert out.read_text().splitlines()[-1] == "1e+308,-inf,-inf,inf,inf"
    assert "nan" not in out.read_text()


def test_bound_past_the_float_range_exits_2(tmp_path):
    # NaN gaps passed the regime check and bound_curve raised OverflowError
    problem = tmp_path / "f.json"
    problem.write_text(json.dumps(FIG1_STYLE))
    out = tmp_path / "b.csv"
    code, err = main_quietly(["bound", "--problem", str(problem), "--alpha", "1e307",
                              "--t-grid", "1:10:3", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert re.fullmatch(r"error: outside certified regime: rho_d=-inf, rho_s=-inf\n", err), err
    assert not out.exists()


def scaled_mdp(features=1.0):
    """The MDP object of the committed GTD2 file, its features scaled."""
    mdp = json.loads((PROBLEMS / "gtd2_offpolicy.json").read_text())["mdp"]
    mdp["features"] = (features * np.array(mdp["features"])).tolist()
    return mdp


@pytest.mark.parametrize("algo, eta, features", [("gtd2", 1e308, 1.0), ("td0", 1.0, 1e200)],
                         ids=["gtd2-huge-eta", "td0-huge-features"])
@pytest.mark.parametrize("command", ["td", "rho"])
def test_td_instance_past_the_float_range_exits_2(command, algo, eta, features, tmp_path):
    # the atoms overflow as they are formed; Moments refuses them, with no
    # RuntimeWarning on the way
    mdp = scaled_mdp(features)
    out = tmp_path / "out"
    if command == "td":
        (tmp_path / "mdp.json").write_text(json.dumps(mdp))
        argv = ["td", "--mdp", str(tmp_path / "mdp.json"), "--algo", algo, f"--eta={eta!r}",
                "--out", str(out)]
    else:
        spec = {"type": "td_mdp", "algo": algo, "eta": eta, "mdp": mdp}
        (tmp_path / "p.json").write_text(json.dumps(spec))
        argv = ["rho", "--problem", str(tmp_path / "p.json"), "--alpha-grid", "1e-4:1:3:log",
                "--out", str(out)]
    code, err = main_quietly(argv)
    assert code == EXIT_VALIDATION
    assert re.fullmatch(r"error: \w+ = .* exceeds the float range .*\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rho", "bound", "simulate"])
def test_allocation_the_host_cannot_make_exits_2(command, tmp_path):
    # each command's first array of 1e11 entries asked for 745 GiB; the
    # patch raises numpy's error for it, so the test allocates nothing
    from numpy._core._exceptions import _ArrayMemoryError

    out = tmp_path / "out.csv"
    problem = ["--problem", str(PROBLEMS / "td0_onpolicy.json")]
    argv, target = {
        "rho": (["rho", *problem, "--alpha-grid", "1e-4:1:100000000000:log"], (np, "geomspace")),
        "bound": (["bound", *problem, "--alpha", "0.01", "--t-grid", "1:10:100000000000"],
                  (np, "linspace")),
        "simulate": (["simulate", *problem, "--alpha", "0.01", "--horizon", "100000000000",
                      "--stride", "1", "--reps", "1"], (RunConfig, "record_times")),
    }[command]
    error = _ArrayMemoryError((10**11,), np.dtype(float))
    with mock.patch.object(*target, side_effect=error) as allocate:
        code, err = main_quietly([*argv, "--out", str(out)])
    assert allocate.called
    assert code == EXIT_VALIDATION
    assert err == f"error: {error}\n" and "745. GiB" in err
    assert os.listdir(tmp_path) == []


#: the float flags and grid ends, each as a function of the value under test
FLOAT_FLAGS = {
    "simulate --alpha": lambda v: ["simulate", f"--alpha={v}", "--horizon", "20", "--reps", "2",
                                   "--stride", "5", "--out", "{root}/out.csv"],
    "bound --alpha": lambda v: ["bound", f"--alpha={v}", "--t-grid", "1:10:3",
                                "--out", "{root}/out.csv"],
    "bound --t-grid start": lambda v: ["bound", "--alpha", "0.001", f"--t-grid={v}:10:3",
                                       "--out", "{root}/out.csv"],
    "bound --t-grid stop": lambda v: ["bound", "--alpha", "0.001", f"--t-grid=1:{v}:3:log",
                                      "--out", "{root}/out.csv"],
    "tune --alpha-max": lambda v: ["tune", f"--alpha-max={v}", "--horizon", "40",
                                   "--out-json", "{root}/t.json"],
    "tune --c": lambda v: ["tune", "--alpha-max", "0.01", f"--c={v}", "--horizon", "40",
                           "--out-json", "{root}/t.json"],
    "rho --alpha-grid start": lambda v: ["rho", f"--alpha-grid={v}:1:3:log", "--out", "{root}/out.csv"],
    "rho --alpha-grid stop": lambda v: ["rho", f"--alpha-grid=1e-4:{v}:3", "--out", "{root}/out.csv"],
}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e300", "1e308"])
@pytest.mark.parametrize("flag", sorted(FLOAT_FLAGS))
def test_float_flags_exit_0_2_or_3_and_write_nothing_on_2(flag, value):
    # each float flag at a hostile value, on a TD file and a Fig. 1-style
    # one: exit 0, 2 or 3, never a traceback or a RuntimeWarning, and no
    # file written on exit 2
    with tempfile.TemporaryDirectory() as root:
        f = Path(root) / "f.json"
        f.write_text(json.dumps(FIG1_STYLE))
        for problem in (PROBLEMS / "td0_onpolicy.json", f):
            argv = [arg.format(root=root) for arg in FLOAT_FLAGS[flag](value)]
            code, err = main_quietly([argv[0], "--problem", str(problem), *argv[1:]])
            assert code in (0, EXIT_VALIDATION, EXIT_DIVERGED), err
            written = sorted(set(os.listdir(root)) - {"f.json"})
            if code == EXIT_VALIDATION:
                assert re.fullmatch(r"error: .+\n", err) and written == [], (err, written)
            for name in written:
                assert "nan" not in Path(root, name).read_text().lower()
                os.remove(Path(root, name))


#: Gaussian files with the Fig. 1 mean, sigma_A and sigma_b each 0 or 1 and
#: the intercept (-9, 11) scaled by 1, 1e-300 and 1e300, and a lower_bound file
MAGNITUDE_FILES = [
    pytest.param({**QUIET_FIG1, "b": [-9 * scale, 11 * scale], "sigma_A": s_A, "sigma_b": s_b},
                 id=f"gaussian-{s_A}-{s_b}-{scale:g}")
    for s_A in (0, 1) for s_b in (0, 1) for scale in (1.0, 1e-300, 1e300)
] + [pytest.param({"type": "lower_bound", "lambda_min": 1, "lambda_max": 2, "sigma_b": 1},
                  id="lower_bound")]


@pytest.mark.parametrize("spec", MAGNITUDE_FILES)
def test_magnitudes_exit_0_2_or_3_and_write_no_nan(spec):
    # bound, simulate and tune from no theta_0, one past the float range from
    # theta* and a subnormal one, rho and transform once: exit 0, 2 or 3,
    # never a traceback or a RuntimeWarning, nothing written on exit 2 and
    # no nan in a CSV written on exit 0
    with tempfile.TemporaryDirectory() as root:
        problem = Path(root) / "p.json"
        problem.write_text(json.dumps(spec))
        runs = [["rho", "--alpha-grid", "1e-4:1:3:log", "--out", f"{root}/rho.csv"], ["transform"]]
        for theta0 in ([], ["--theta0", "[1.7e308, 1.7e308]"], ["--theta0", "[1e-320, 0]"]):
            runs += [argv + theta0 for argv in (
                ["bound", "--alpha", "0.001", "--t-grid", "1:100:3", "--out", f"{root}/b.csv"],
                ["simulate", "--alpha", "0.001", "--horizon", "20", "--stride", "5", "--reps", "2",
                 "--out", f"{root}/s.csv"],
                ["tune", "--alpha-max", "1", "--horizon", "40", "--out-json", f"{root}/t.json",
                 "--out-csv", f"{root}/t.csv"],
            )]
        for argv in runs:
            code, err = main_quietly([argv[0], "--problem", str(problem), *argv[1:]])
            assert code in (0, EXIT_VALIDATION, EXIT_DIVERGED), (argv, err)
            written = sorted(set(os.listdir(root)) - {"p.json"})
            if code == EXIT_VALIDATION:
                assert written == [], (argv, err)
            for name in written:
                if code == 0 and name.endswith(".csv"):
                    assert "nan" not in Path(root, name).read_text().lower(), (argv, name)
                os.remove(Path(root, name))
