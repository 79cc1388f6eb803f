import json

import numpy as np
import pytest

from lsalab import (
    gtd_instance,
    make_finite_support,
    make_gaussian_noise,
    make_lower_bound_instance,
    td0_instance,
)
from lsalab.problem_io import load_problem, load_problem_file, mdp_from_dict

MDP = {
    "features": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
    "transitions": [[0.2, 0.5, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]],
    "rewards": [1.0, -0.5, 0.25],
    "discount": 0.9,
    "behavior_transitions": [[0.3, 0.4, 0.3], [0.3, 0.4, 0.3], [0.2, 0.5, 0.3]],
    "reward_noise_std": 0.1,
}

SPECS = {
    "finite": (
        {"type": "finite", "atoms": [{"b": [1.0, 0.0], "A": [[2.0, 0.5], [0.0, 1.0]], "p": 0.3},
                                     {"b": [0.0, 2.0], "A": [[1.0, 0.0], [0.3, 3.0]], "p": 0.7}]},
        lambda: make_finite_support([
            ((np.array([1.0, 0.0]), np.array([[2.0, 0.5], [0.0, 1.0]])), 0.3),
            ((np.array([0.0, 2.0]), np.array([[1.0, 0.0], [0.3, 3.0]])), 0.7),
        ]),
    ),
    "gaussian": (
        {"type": "gaussian", "A": [[1.0, -10.0], [10.0, 1.0]], "b": [-9.0, 11.0],
         "sigma_A": 5.0, "sigma_b": 0.5},
        lambda: make_gaussian_noise(np.array([[1.0, -10.0], [10.0, 1.0]]),
                                    np.array([-9.0, 11.0]), 5.0, 0.5),
    ),
    "lower_bound": (
        {"type": "lower_bound", "lambda_min": 0.5, "lambda_max": 4.0, "sigma_b": 1.0},
        lambda: make_lower_bound_instance(0.5, 4.0, 1.0),
    ),
    "td0": (
        {"type": "td_mdp", "algo": "td0", "mdp": MDP},
        lambda: td0_instance(mdp_from_dict(MDP)).problem,
    ),
    "gtd": (
        {"type": "td_mdp", "algo": "gtd", "eta": 0.5, "mdp": MDP},
        lambda: gtd_instance(mdp_from_dict(MDP), 0.5, "gtd").problem,
    ),
    "gtd2": (
        {"type": "td_mdp", "algo": "gtd2", "mdp": MDP},
        lambda: gtd_instance(mdp_from_dict(MDP), 1.0, "gtd2").problem,
    ),
}


@pytest.mark.parametrize("kind", SPECS)
def test_every_type_builds_its_constructor(kind, tmp_path):
    spec, direct = SPECS[kind]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    want = direct()
    for p in (load_problem(spec), load_problem_file(path)):
        assert p.dim == want.dim and p.label == want.label and p.seed is None
        for name in ("A_P", "b_P", "C_P", "theta_star"):
            assert np.array_equal(getattr(p.exact_moments, name), getattr(want.exact_moments, name))
        for name in ("sigma_A_sq", "sigma_b_sq"):
            assert getattr(p.exact_moments, name) == getattr(want.exact_moments, name)
        b, A = p.sample(np.random.default_rng(1), (4,))
        b_want, A_want = want.sample(np.random.default_rng(1), (4,))
        assert np.array_equal(b, b_want) and np.array_equal(A, A_want)


@pytest.mark.parametrize("kind", SPECS)
def test_seed_and_label_override_the_defaults(kind):
    spec, _ = SPECS[kind]
    p = load_problem({**spec, "seed": 123, "label": "mine"})
    assert p.seed == 123 and p.label == "mine"


def test_unknown_type_raises():
    with pytest.raises(ValueError, match="unknown problem type 'jordan'"):
        load_problem({"type": "jordan"})
    with pytest.raises(ValueError, match="unknown problem type None"):
        load_problem({"A": [[1.0]], "b": [1.0]})


def test_unknown_algo_raises():
    with pytest.raises(ValueError, match="unknown algo 'sarsa'"):
        load_problem({"type": "td_mdp", "algo": "sarsa", "mdp": MDP})


@pytest.mark.parametrize("d, c_d", [(1, 1.0), (2, 2 + np.pi / 2)])
def test_gaussian_second_moment_uses_the_exact_constant(d, c_d):
    # C_P = A_P^T A_P + sigma_A^2 d / c_d I, c_d = E||G||^2 for d x d standard normal G
    A = np.eye(d) + np.triu(np.ones((d, d)), 1)
    p = load_problem({"type": "gaussian", "A": A.tolist(), "b": [1.0] * d, "sigma_A": 3.0})
    np.testing.assert_allclose(p.exact_moments.C_P, A.T @ A + 9.0 * d / c_d * np.eye(d),
                               rtol=1e-14)
    assert p.exact_moments.sigma_A_sq == 9.0
