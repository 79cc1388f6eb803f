import json
from pathlib import Path

import numpy as np
import pytest

from lsalab import (
    RunConfig,
    gtd_instance,
    load_problem_file,
    rho_d,
    run_mse,
    spectral_report,
    td0_instance,
)
from lsalab.cli import (
    EXIT_DIVERGED,
    EXIT_VALIDATION,
    FIG1_SIGMAS,
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


def test_all_diverged_simulate_exits_3(td_problem, tmp_path, capsys):
    code = main(["simulate", "--problem", str(td_problem[0]), "--alpha", "50", "--horizon", "200",
                 "--reps", "4", "--stride", "50", "--out", str(tmp_path / "sim.csv")])
    assert code == EXIT_DIVERGED
    assert "diverged" in capsys.readouterr().err


def test_simulate_singular_mean_exits_2(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[1.0, 1.0], [1.0, 1.0]], "b": [1.0, 0.0],
                                "sigma_A": 0.5}))
    code = main(["simulate", "--problem", str(path), "--alpha", "0.1", "--horizon", "50",
                 "--reps", "2", "--stride", "10", "--out", str(tmp_path / "sim.csv")])
    assert code == EXIT_VALIDATION
    assert "problem has no fixed point (singular mean matrix)" in capsys.readouterr().err
    assert not (tmp_path / "sim.csv").exists()


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("theta0", [None, "[1e300, 1e300]"])
def test_bound_on_a_huge_fixed_point_reads_inf_not_nan(theta0, tmp_path):
    # theta* = (1e300, 1e300): ||theta_0 - theta*||^2 and sigma_1^2 overflow
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "gaussian", "A": [[1.0, 0.0], [0.0, 1.0]],
                                "b": [1e300, 1e300], "sigma_A": 1.0}))
    out = tmp_path / "bound.csv"
    argv = ["bound", "--problem", str(path), "--alpha", "0.01", "--t-grid", "1:100:5:log",
            "--out", str(out)]
    assert main(argv + (["--theta0", theta0] if theta0 else [])) == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in out.read_text().splitlines()[2:]])
    assert rows.shape == (5, 5) and not np.isnan(rows).any()
    t, lower, upper, bias, variance = rows.T
    assert (upper == np.inf).all() and (variance == np.inf).all()
    if theta0 is None:
        assert (lower == np.inf).all() and (bias == np.inf).all()
    else:
        # theta_0 = theta*: no bias, and at t = 1 no noise term either
        assert (bias == 0).all() and lower[0] == 0 and (lower[1:] == np.inf).all()
