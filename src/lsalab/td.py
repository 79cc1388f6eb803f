"""Temporal-difference policy evaluation cast as (b, A) distributions.

Data comes from a finite synthetic MDP replayed i.i.d. from experience: a
transition (s, s') is drawn with probability sampling[s] * P_behavior[s, s'],
and the algorithms consume the feature pair (phi_s, phi_{s'}) plus the reward.

With delta = phi_s (phi_s - gamma*phi_{s'})^T and b = phi_s * r:

- the one-step algorithm iterates theta <- theta + alpha*(b - delta theta),
  i.e. A_t = delta, b_t = phi_s r;
- the gradient-corrected pair (y, theta) with secondary step beta = eta*alpha
  stacks into a single 2d-dimensional iteration on x = (y, theta):

      y     <- y + eta*alpha*(mu b - mu delta theta - Q y)
      theta <- theta + alpha*(mu delta^T y)

  giving the block system A_t = [[eta*Q, eta*mu*delta], [-mu*delta^T, 0]],
  b_t = (eta*mu*b, 0), where Q = I for the first variant and Q = phi phi^T
  for the second.  mu is the importance ratio correcting behavior-to-target
  mismatch when successors are sampled from a behavior transition matrix.

Every instance is therefore a finite-support distribution whose atoms
(``ProblemDistribution.atoms``) are the replayed pairs: the (s, s') of
positive weight, in row-major order, each built from phi_s, phi_{s'}, the
pair's reward and its own mu; Gaussian reward noise is the atoms' intercept
scatter.  Its exact moments, and those of its similarity transforms, are
weighted sums over the atoms.  Mean matrices are checked for the
positive-real-part spectrum the stability theory needs; failures are flagged
on the instance (the known off-policy fragility of the uncorrected one-step
method), not raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import FiniteAtoms, Moments, ProblemDistribution, _check_finite, _finite_problem

__all__ = [
    "SyntheticMdp",
    "TdInstance",
    "td0_instance",
    "gtd_instance",
    "stationary_distribution",
]


def _stochastic(name: str, P, n: int) -> np.ndarray:
    """P as a float (n, n) row-stochastic matrix; ValueError naming it otherwise."""
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise ValueError(f"{name} must be ({n},{n})")
    _check_finite(**{name: P})
    if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError(f"{name} rows must be nonnegative and sum to 1")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix (left eigenvector)."""
    P = np.asarray(P, dtype=float)
    w, V = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(w - 1.0)))
    pi = np.real(V[:, i])
    pi = np.abs(pi)
    return pi / pi.sum()


@dataclass(frozen=True)
class SyntheticMdp:
    """Finite MDP with linear features, replayed i.i.d. for policy evaluation.

    ``transitions`` is the target policy's state-to-state matrix.  When
    ``behavior_transitions`` is given, successors are sampled from it and the
    importance ratio mu(s, s') = P_target / P_behavior, computed for each
    replayed pair, corrects the gradient variants.  ``sampling`` is the
    state distribution of the replay buffer (defaults to the stationary
    distribution of the behavior chain).  The replayed pairs are the
    (s, s') of positive sampling x behavior weight, in row-major order; they
    are the atoms of every instance built from the MDP.
    Rewards may depend on the state (shape (n,)) or the transition (n, n);
    ``reward_noise_std`` adds zero-mean Gaussian noise per draw.

    Construction converts every input to float (arrays, discount and noise
    level) and raises ValueError on a non-finite entry, a wrong shape (features
    that are not a matrix among them), rows
    that are not distributions, a discount outside [0, 1), a negative noise
    level or features without full column rank.
    """

    features: np.ndarray  # (n, d)
    transitions: np.ndarray  # (n, n) target policy
    rewards: np.ndarray  # (n,) or (n, n)
    discount: float
    sampling: np.ndarray | None = None
    behavior_transitions: np.ndarray | None = None
    reward_noise_std: float = 0.0

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        if feats.ndim != 2:
            raise ValueError(f"features must be a matrix, not of shape {feats.shape}")
        _check_finite(features=feats)
        n = feats.shape[0]
        P = _stochastic("transitions", self.transitions, n)
        r = np.asarray(self.rewards, dtype=float)
        _check_finite(rewards=r)
        if r.shape == (n,):
            r = np.repeat(r[:, None], n, axis=1)
        if r.shape != (n, n):
            raise ValueError(f"rewards must have shape ({n},) or ({n},{n})")
        discount = float(self.discount)
        if not (0.0 <= discount < 1.0):
            raise ValueError("discount must lie in [0, 1)")
        Pb = self.behavior_transitions
        if Pb is not None:
            Pb = _stochastic("behavior_transitions", Pb, n)
            if np.any((P > 0) & (Pb == 0)):
                raise ValueError("behavior must cover every target transition")
        if self.sampling is None:
            mu = stationary_distribution(P if Pb is None else Pb)
        else:
            mu = np.asarray(self.sampling, dtype=float)
            _check_finite(sampling=mu)
            if mu.shape != (n,) or np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-10:
                raise ValueError("sampling must be a distribution over states")
            mu = mu / mu.sum()
        noise = float(self.reward_noise_std)
        if not 0.0 <= noise < np.inf:
            raise ValueError("reward_noise_std must be finite and nonnegative")
        if np.linalg.matrix_rank(feats) < feats.shape[1]:
            raise ValueError("features do not have full column rank")
        for name, value in (
            ("features", feats), ("transitions", P), ("rewards", r), ("discount", discount),
            ("sampling", mu), ("behavior_transitions", Pb), ("reward_noise_std", noise),
        ):
            object.__setattr__(self, name, value)

    @property
    def effective_behavior(self) -> np.ndarray:
        return (
            self.behavior_transitions
            if self.behavior_transitions is not None
            else self.transitions
        )


@dataclass(frozen=True)
class TdInstance:
    """A TD algorithm on an MDP, packaged as a (b, A) distribution.

    Built from ``problem`` and ``algo``; the rest is derived from the
    problem's mean update matrix A_P.  ``mean_spectrum`` holds its
    eigenvalues and ``hurwitz`` (a bool) records whether every one has
    positive real part, so ``replace(inst, problem=...)`` reports the new
    problem's spectrum.
    """

    problem: ProblemDistribution
    algo: str
    hurwitz: bool = field(init=False)
    mean_spectrum: np.ndarray = field(init=False)

    def __post_init__(self):
        spectrum = np.linalg.eigvals(self.problem.exact_moments.A_P)
        object.__setattr__(self, "mean_spectrum", spectrum)
        object.__setattr__(self, "hurwitz", bool(np.min(spectrum.real) > 0))

    @property
    def moments(self) -> Moments:
        return self.problem.exact_moments


def _pairs(mdp: SyntheticMdp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, s', weight) of the replayed pairs: those of positive sampling x
    behavior weight, in row-major order."""
    w = mdp.sampling[:, None] * mdp.effective_behavior
    s, sp = np.nonzero(w > 0)
    return s, sp, w[s, sp]


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(k, d, d) stack of the outer products u_k v_k^T."""
    return u[:, :, None] * v[:, None, :]


def td0_instance(mdp: SyntheticMdp) -> TdInstance:
    """One-step TD as a d-dimensional (b, A) distribution.

    A_t = phi_s (phi_s - gamma*phi_{s'})^T and b_t = phi_s * r, with (s, s')
    drawn from sampling x behavior.  No importance correction is applied;
    when behavior differs from target, the mean matrix may fail the
    positive-spectrum check and the instance is flagged accordingly.
    """
    phi, gamma = mdp.features, mdp.discount
    n, d = phi.shape
    s, sp, w = _pairs(mdp)
    phi_s = phi[s]
    noise = mdp.reward_noise_std
    with np.errstate(over="ignore", invalid="ignore"):  # Moments refuses an overflow
        delta = _outer(phi_s, phi_s) - gamma * _outer(phi_s, phi[sp])
        b = phi_s * mdp.rewards[s, sp][:, None]
        atoms = FiniteAtoms(w, b, delta, noise * phi_s if noise > 0 else None)
    return TdInstance(_finite_problem(atoms, f"td0(n={n}, d={d}, gamma={gamma:g})"), "td0")


def gtd_instance(mdp: SyntheticMdp, eta: float, variant: str = "gtd") -> TdInstance:
    """Gradient-corrected TD as a stacked 2d-dimensional distribution.

    The two-step-size scheme beta = eta*alpha is folded into the stacked
    system so a single constant step-size drives both blocks.  ``variant``
    selects the correction operator Q: "gtd" uses the identity, "gtd2" uses
    the feature second moment phi phi^T per sample.  Importance ratios are
    applied to the reward and correction terms so the fixed point matches the
    target policy even under off-policy sampling.
    """
    if not 0 < eta < np.inf:  # NaN fails too
        raise ValueError("eta must be finite and positive")
    if variant not in ("gtd", "gtd2"):
        raise ValueError("variant must be 'gtd' or 'gtd2'")
    phi, gamma = mdp.features, mdp.discount
    n, d = phi.shape
    s, sp, w = _pairs(mdp)
    mu = mdp.transitions[s, sp] / mdp.effective_behavior[s, sp]
    phi_s = phi[s]
    noise = mdp.reward_noise_std
    A = np.zeros((len(w), 2 * d, 2 * d))
    noise_dir = np.zeros((len(w), 2 * d))  # the intercept per unit reward
    b = np.zeros_like(noise_dir)
    with np.errstate(over="ignore", invalid="ignore"):  # Moments refuses an overflow
        outer = _outer(phi_s, phi_s)
        delta = outer - gamma * _outer(phi_s, phi[sp])
        A[:, :d, :d] = eta * (np.eye(d) if variant == "gtd" else outer)
        A[:, :d, d:] = (eta * mu)[:, None, None] * delta
        A[:, d:, :d] = -mu[:, None, None] * np.swapaxes(delta, -1, -2)
        noise_dir[:, :d] = (eta * mu)[:, None] * phi_s
        b[:, :d] = noise_dir[:, :d] * mdp.rewards[s, sp][:, None]
        atoms = FiniteAtoms(w, b, A, noise * noise_dir if noise > 0 else None)
    label = f"{variant}(n={n}, d={d}, gamma={gamma:g}, eta={eta:g})"
    return TdInstance(_finite_problem(atoms, label), variant)
