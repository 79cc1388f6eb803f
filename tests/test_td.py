import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from lsalab import SyntheticMdp, gtd_instance, td0_instance
from lsalab.problem_io import td_instance_from_dict
from lsalab.problems import spectral_norm
from oracles import estimate_moments

PROBLEMS = Path(__file__).resolve().parents[1] / "perfbench" / "problems"


def random_mdp(seed, n=5, d=2, off_policy=False, reward_noise_std=0.0):
    """Small MDP with generic features and transition-dependent rewards.

    Off-policy, the behavior chain has a zero entry wherever the target's is
    zero (coverage) plus one extra zero, so some (s, s') pairs carry no weight.
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.1, 1.0, (n, n))
    P[0, 1] = 0.0
    P /= P.sum(axis=1, keepdims=True)
    behavior = None
    if off_policy:
        behavior = rng.uniform(0.1, 1.0, (n, n))
        behavior[0, 1] = 0.0
        behavior /= behavior.sum(axis=1, keepdims=True)
    return SyntheticMdp(
        features=rng.standard_normal((n, d)),
        transitions=P,
        rewards=rng.standard_normal((n, n)),
        discount=0.8,
        behavior_transitions=behavior,
        reward_noise_std=reward_noise_std,
    )


def pair_updates(mdp, algo, eta=1.0):
    """(weight, A, b, reward-noise direction) of each (s, s') in row-major
    order, by hand.

    Each float operation is the instance builders' own, in their order:
    delta = phi_s phi_s^T - gamma (phi_s phi_{s'}^T), b = ((eta mu) phi_s) r
    and the blocks eta Q, (eta mu) delta and -mu delta^T, with the importance
    ratio mu = P / P_behavior (0 where behavior never moves).
    """
    phi, gamma = mdp.features, mdp.discount
    Pb = mdp.effective_behavior
    n, d = phi.shape
    out = []
    for s in range(n):
        for sp in range(n):
            w = mdp.sampling[s] * Pb[s, sp]
            delta = np.outer(phi[s], phi[s]) - gamma * np.outer(phi[s], phi[sp])
            r = mdp.rewards[s, sp]
            if algo == "td0":
                out.append((w, delta, phi[s] * r, phi[s]))
                continue
            mu = mdp.transitions[s, sp] / Pb[s, sp] if Pb[s, sp] > 0 else 0.0
            Q = np.eye(d) if algo == "gtd" else np.outer(phi[s], phi[s])
            A = np.block([[eta * Q, eta * mu * delta], [-mu * delta.T, np.zeros((d, d))]])
            noise_dir = np.concatenate([eta * mu * phi[s], np.zeros(d)])
            out.append((w, A, noise_dir * r, noise_dir))
    return out


def instance(mdp, algo, eta=1.0):
    return td0_instance(mdp) if algo == "td0" else gtd_instance(mdp, eta, variant=algo)


def lstd_solution(mdp):
    """theta solving Phi^T D (Phi - gamma P Phi) theta = Phi^T D r_bar."""
    phi, P, D = mdp.features, mdp.transitions, np.diag(mdp.sampling)
    r_bar = (P * mdp.rewards).sum(axis=1)
    return np.linalg.solve(
        phi.T @ D @ (phi - mdp.discount * P @ phi), phi.T @ D @ r_bar
    )


CASES = [
    pytest.param("td0", dict(seed=0), id="td0"),
    pytest.param("td0", dict(seed=1, reward_noise_std=0.7), id="td0-noise"),
    pytest.param("gtd", dict(seed=2, off_policy=True, reward_noise_std=0.5), id="gtd-offpolicy"),
    pytest.param("gtd2", dict(seed=3, off_policy=True, reward_noise_std=0.5), id="gtd2-offpolicy"),
    pytest.param("gtd2", dict(seed=4), id="gtd2"),
]


@pytest.mark.parametrize("algo,kw", CASES)
def test_exact_moments_match_bruteforce(algo, kw):
    mdp = random_mdp(**kw)
    m = instance(mdp, algo, eta=0.5).moments
    pairs = pair_updates(mdp, algo, eta=0.5)
    A_P = sum(w * A for w, A, _, _ in pairs)
    b_P = sum(w * b for w, _, b, _ in pairs)
    C_P = sum(w * A.T @ A for w, A, _, _ in pairs)
    sigma_A_sq = sum(w * spectral_norm(A - A_P) ** 2 for w, A, _, _ in pairs)
    sigma_b_sq = sum(
        w * (np.sum((b - b_P) ** 2) + mdp.reward_noise_std**2 * np.sum(u**2))
        for w, _, b, u in pairs
    )
    assert np.allclose(m.A_P, A_P, rtol=0, atol=1e-12)
    assert np.allclose(m.b_P, b_P, rtol=0, atol=1e-12)
    assert np.allclose(m.C_P, C_P, rtol=0, atol=1e-12)
    assert m.sigma_A_sq == pytest.approx(sigma_A_sq, rel=1e-12)
    assert m.sigma_b_sq == pytest.approx(sigma_b_sq, rel=1e-12)


@pytest.mark.parametrize("algo,kw", [CASES[1], CASES[3]])
def test_exact_moments_match_estimate(algo, kw):
    p = instance(random_mdp(**kw), algo).problem
    exact = p.exact_moments
    n = 400_000
    est = estimate_moments(p, n, 11)
    # per-draw spreads bound the standard errors of the sample means
    b, A = p.sample(np.random.default_rng(12), (20_000,))
    se_A = A.std(axis=0, ddof=1) / np.sqrt(n)
    se_b = b.std(axis=0, ddof=1) / np.sqrt(n)
    se_C = np.einsum("kji,kjl->kil", A, A).std(axis=0, ddof=1) / np.sqrt(n)
    dev_b = ((b - exact.b_P) ** 2).sum(axis=1)
    assert np.all(np.abs(est.A_P - exact.A_P) <= 5 * se_A + 1e-12)
    assert np.all(np.abs(est.b_P - exact.b_P) <= 5 * se_b + 1e-12)
    assert np.all(np.abs(est.C_P - exact.C_P) <= 5 * se_C + 1e-12)
    # the reward-noise term is part of sigma_b^2: draws must show it
    assert est.sigma_b_sq == pytest.approx(
        exact.sigma_b_sq, abs=5 * dev_b.std(ddof=1) / np.sqrt(n)
    )
    dev_A = np.linalg.svd(A - exact.A_P, compute_uv=False)[:, 0] ** 2
    assert est.sigma_A_sq == pytest.approx(
        exact.sigma_A_sq, abs=5 * dev_A.std(ddof=1) / np.sqrt(n)
    )


@pytest.mark.parametrize("algo", ["td0", "gtd", "gtd2"])
def test_atoms_are_the_replayed_pairs(algo):
    # a state the buffer never samples and behavior entries that are zero
    # leave pairs of weight 0, which are not atoms
    mdp = dataclasses.replace(
        random_mdp(8, off_policy=True, reward_noise_std=0.6),
        sampling=[0.1, 0.2, 0.0, 0.3, 0.4],
    )
    pairs = [pair for pair in pair_updates(mdp, algo, eta=0.7) if pair[0] > 0]
    assert len(pairs) == 5 * 5 - 5 - 1
    atoms = instance(mdp, algo, eta=0.7).problem.atoms
    assert len(atoms.probs) == len(pairs)
    for i, (w, A, b, noise_dir) in enumerate(pairs):
        assert atoms.probs[i] == w
        assert np.array_equal(atoms.As[i], A)
        assert np.array_equal(atoms.bs[i], b)
        assert np.array_equal(atoms.b_noise[i], mdp.reward_noise_std * noise_dir)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_td0_fixed_point_is_lstd(seed):
    mdp = random_mdp(seed)
    assert np.allclose(td0_instance(mdp).moments.theta_star, lstd_solution(mdp), atol=1e-10)


@pytest.mark.parametrize("variant", ["gtd", "gtd2"])
@pytest.mark.parametrize("eta", [0.25, 1.0, 4.0])
def test_gtd_on_policy_matches_td0(variant, eta):
    mdp = random_mdp(6, reward_noise_std=0.3)
    d = mdp.features.shape[1]
    x_star = gtd_instance(mdp, eta, variant=variant).moments.theta_star
    assert np.allclose(x_star[:d], 0.0, atol=1e-10)
    assert np.allclose(x_star[d:], td0_instance(mdp).moments.theta_star, atol=1e-10)


@pytest.mark.parametrize("eta", [0.0, np.nan, np.inf])
def test_gtd_eta_must_be_finite_and_positive(eta):
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        gtd_instance(random_mdp(6), eta, variant="gtd2")


def test_gtd_unknown_variant_raises():
    with pytest.raises(ValueError, match="variant must be 'gtd' or 'gtd2'"):
        gtd_instance(random_mdp(6), 1.0, variant="td0")


@pytest.mark.parametrize("algo", ["td0", "gtd2"])
def test_sampled_pair_frequencies_match_atoms(algo):
    mdp = random_mdp(7, off_policy=True, reward_noise_std=0.4)
    p = instance(mdp, algo).problem
    atoms = p.atoms
    # one atom per (s, s') of positive weight, with that weight
    w = mdp.sampling[:, None] * mdp.effective_behavior
    assert np.array_equal(atoms.probs, w[w > 0])
    n = 50_000
    _, A = p.sample(np.random.default_rng(3), (n,))
    dist = np.abs(A[:, None] - atoms.As[None]).max(axis=(2, 3))
    assert np.all(dist.min(axis=1) == 0.0)  # every draw is an atom's matrix
    counts = np.bincount(dist.argmin(axis=1), minlength=len(atoms.probs))
    se = np.sqrt(atoms.probs * (1 - atoms.probs) / n)
    assert np.all(np.abs(counts / n - atoms.probs) <= 5 * se)


def not_hurwitz_mdp():
    """Off-policy MDP on which TD(0)'s mean matrix is not Hurwitz.

    Features 1 and 2; the replay over-samples state 0 and its jump into the
    larger feature, whose one-step term 1*(1 - 2*gamma) is negative.
    """
    return SyntheticMdp(
        features=np.array([[1.0], [2.0]]),
        transitions=np.array([[0.0, 1.0], [0.0, 1.0]]),
        rewards=np.zeros(2),
        discount=0.9,
        sampling=np.array([0.9, 0.1]),
        behavior_transitions=np.array([[0.2, 0.8], [0.5, 0.5]]),
    )


def test_off_policy_td0_not_hurwitz_is_flagged():
    mdp = not_hurwitz_mdp()
    inst = td0_instance(mdp)
    A_P = sum(w * A for w, A, _, _ in pair_updates(mdp, "td0"))
    assert inst.hurwitz is False
    assert inst.mean_spectrum.real.min() == pytest.approx(A_P[0, 0])
    assert A_P[0, 0] < 0
    # the importance-corrected variant stays Hurwitz on the same data
    assert gtd_instance(mdp, 1.0, variant="gtd2").hurwitz is True


def test_replaced_problem_reports_its_own_spectrum():
    # the spectrum is derived from the problem, so replace(inst, problem=...)
    # cannot keep GTD2's six eigenvalues on TD(0)'s four-dimensional problem
    gtd2, td0 = (
        td_instance_from_dict(json.loads((PROBLEMS / f"{name}.json").read_text()))
        for name in ("gtd2_offpolicy", "td0_onpolicy")
    )
    assert len(gtd2.mean_spectrum) == 6
    inst = dataclasses.replace(gtd2, problem=td0.problem)
    assert inst.algo == "gtd2" and len(inst.mean_spectrum) == 4
    assert inst.mean_spectrum.tobytes() == td0.mean_spectrum.tobytes()
    # and the Hurwitz flag follows the problem
    mdp = not_hurwitz_mdp()
    gtd2 = gtd_instance(mdp, 1.0, variant="gtd2")
    assert dataclasses.replace(gtd2, problem=td0_instance(mdp).problem).hurwitz is False
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(td0, hurwitz=True)


def mdp_fields():
    """Valid SyntheticMdp keywords, every optional field set, as plain lists."""
    rng = np.random.default_rng(4)
    P = rng.uniform(0.1, 1.0, (4, 4))
    Pb = rng.uniform(0.1, 1.0, (4, 4))
    return dict(
        features=rng.standard_normal((4, 2)).tolist(),
        transitions=(P / P.sum(axis=1, keepdims=True)).tolist(),
        rewards=rng.standard_normal(4).tolist(),
        discount=0.9,
        sampling=[0.25] * 4,
        behavior_transitions=(Pb / Pb.sum(axis=1, keepdims=True)).tolist(),
        reward_noise_std=0.5,
    )


def test_inputs_are_converted_to_float():
    mdp = SyntheticMdp(**{**mdp_fields(), "discount": np.float32(0.5), "reward_noise_std": 1})
    for name in ("features", "transitions", "rewards", "sampling", "behavior_transitions"):
        assert getattr(mdp, name).dtype == np.float64
    assert type(mdp.discount) is float and type(mdp.reward_noise_std) is float


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field, message",
    [
        pytest.param(field, message, id=field)
        for field, message in [
            ("features", "features has a non-finite entry"),
            ("transitions", "transitions has a non-finite entry"),
            ("rewards", "rewards has a non-finite entry"),
            ("discount", r"discount must lie in \[0, 1\)"),
            ("sampling", "sampling has a non-finite entry"),
            ("behavior_transitions", "behavior_transitions has a non-finite entry"),
            ("reward_noise_std", "reward_noise_std must be finite and nonnegative"),
        ]
    ],
)
def test_non_finite_input_raises(field, message, bad):
    fields = mdp_fields()
    value = np.array(fields[field], dtype=float)
    value.flat[0] = bad
    fields[field] = value
    with pytest.raises(ValueError, match=message):
        SyntheticMdp(**fields)
