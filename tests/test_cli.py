import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsalab
from lsalab import (
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
    _SUBCOMMANDS,
    _build_parser,
    _median,
    _parse_grid,
    _percentile,
    main,
    make_fig1_problem,
    repro_fig1,
)
from lsalab.problem_io import mdp_from_dict

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"


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
    ],
)
def test_malformed_file_exits_2(command, spec, message, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    flag = "--mdp" if command == "td" else "--problem"
    assert main([command, flag, str(path)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("seed", [1.5, -1])
def test_repro_fig1_seed_must_be_a_non_negative_integer(seed, tmp_path):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        repro_fig1(tmp_path / "out", seed=seed)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "tune"])
def test_negative_seed_exits_2(command, tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    args = {
        "simulate": ["--alpha", "0.01", "--horizon", "50", "--reps", "2", "--out", out],
        "tune": ["--alpha-max", "1", "--out-json", str(tmp_path / "t.json"), "--out-csv", out],
    }[command]
    argv = [command, "--problem", str(PROBLEMS / "td0_onpolicy.json"), "--seed", "-1", *args]
    assert main(argv) == EXIT_VALIDATION
    assert "seed must be a non-negative integer, not -1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta0", [None, "[1e300, 1e300]", "[-1e308, 0]"])
def test_bound_on_a_huge_fixed_point_reads_inf_not_nan(theta0, tmp_path):
    # theta* = (1e300, 1e300): ||theta_0 - theta*||^2 and sigma_1^2 overflow;
    # theta* = (1e308, 0) from theta_0 = (-1e308, 0): theta_0 - theta* itself does
    problem = {"type": "gaussian", "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1e300, 1e300], "sigma_A": 1.0}
    if theta0 == "[-1e308, 0]":
        problem.update(b=[1e308, 0.0], sigma_A=0.5)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "bound.csv"
    argv = ["bound", "--problem", str(path), "--alpha", "0.01", "--t-grid", "1:100:5:log",
            "--out", str(out)]
    assert main(argv + (["--theta0", theta0] if theta0 else [])) == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[2:]])
    assert rows.shape == (5, 5) and not np.isnan(rows).any()
    t, lower, upper, bias, variance = rows.T
    assert (upper == np.inf).all() and (variance == np.inf).all()
    if theta0 == "[1e300, 1e300]":
        # theta_0 = theta*: no bias, and at t = 1 no noise term either
        assert (bias == 0).all() and lower[0] == 0 and (lower[1:] == np.inf).all()
    else:
        assert (lower == np.inf).all() and (bias == np.inf).all()


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


# finite values without -0.0, whose order numpy's partition picks its own way
order_stat_values = st.lists(
    st.floats(-1e300, 1e300, allow_nan=False).map(lambda x: x + 0.0), min_size=1, max_size=40
)


@settings(max_examples=300, deadline=None)
@given(order_stat_values)
def test_order_statistics_equal_numpy(values):
    xs = sorted(values)
    assert _median(xs).hex() == float(np.median(values)).hex()
    for q in (25, 75):
        assert _percentile(xs, q / 100).hex() == float(np.percentile(values, q)).hex()


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
    + [[c, "--help"] for c in _SUBCOMMANDS]
    + [[c, *MISSING_ARGUMENT[c]] for c in _SUBCOMMANDS]
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
    assert "{" + ",".join(_SUBCOMMANDS) + "}" in capsys.readouterr().out


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
