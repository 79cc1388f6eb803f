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

Every instance is therefore a finite-support distribution with one atom per
(s, s') pair of positive weight (``ProblemDistribution.atoms``); Gaussian
reward noise is the atoms' intercept scatter.  Its exact moments, and those of
its similarity transforms, are weighted sums over the atoms.  Mean matrices
are checked for the positive-real-part spectrum the stability theory needs;
failures are flagged on the instance (the known off-policy fragility of the
uncorrected one-step method), not raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import FiniteAtoms, Moments, ProblemDistribution, _finite_problem

__all__ = [
    "SyntheticMdp",
    "TdInstance",
    "td0_instance",
    "gtd_instance",
    "stationary_distribution",
]


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
    importance ratio mu(s, s') = P_target / P_behavior corrects the gradient
    variants.  ``sampling`` is the state distribution of the replay buffer
    (defaults to the stationary distribution of the behavior chain).
    Rewards may depend on the state (shape (n,)) or the transition (n, n);
    ``reward_noise_std`` adds zero-mean Gaussian noise per draw.
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
        object.__setattr__(self, "features", feats)
        n = feats.shape[0]
        P = np.asarray(self.transitions, dtype=float)
        if P.shape != (n, n):
            raise ValueError(f"transitions must be ({n},{n})")
        if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must be nonnegative and sum to 1")
        object.__setattr__(self, "transitions", P)
        r = np.asarray(self.rewards, dtype=float)
        if r.shape == (n,):
            r = np.repeat(r[:, None], n, axis=1)
        if r.shape != (n, n):
            raise ValueError(f"rewards must have shape ({n},) or ({n},{n})")
        object.__setattr__(self, "rewards", r)
        if not (0.0 <= self.discount < 1.0):
            raise ValueError("discount must lie in [0, 1)")
        if self.behavior_transitions is not None:
            Pb = np.asarray(self.behavior_transitions, dtype=float)
            if Pb.shape != (n, n):
                raise ValueError(f"behavior_transitions must be ({n},{n})")
            if np.any(Pb < 0) or np.any(np.abs(Pb.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError("behavior rows must be nonnegative and sum to 1")
            if np.any((P > 0) & (Pb == 0)):
                raise ValueError("behavior must cover every target transition")
            object.__setattr__(self, "behavior_transitions", Pb)
        if self.sampling is None:
            object.__setattr__(
                self,
                "sampling",
                stationary_distribution(
                    self.behavior_transitions if self.behavior_transitions is not None else P
                ),
            )
        else:
            mu = np.asarray(self.sampling, dtype=float)
            if mu.shape != (n,) or np.any(mu < 0) or abs(mu.sum() - 1.0) > 1e-10:
                raise ValueError("sampling must be a distribution over states")
            object.__setattr__(self, "sampling", mu / mu.sum())
        if np.linalg.matrix_rank(feats) < feats.shape[1]:
            raise ValueError("features do not have full column rank")
        if self.reward_noise_std < 0:
            raise ValueError("reward_noise_std must be nonnegative")

    @property
    def n_states(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def effective_behavior(self) -> np.ndarray:
        return (
            self.behavior_transitions
            if self.behavior_transitions is not None
            else self.transitions
        )

    @property
    def importance_ratios(self) -> np.ndarray:
        """mu(s, s') = P_target / P_behavior on supported transitions, else 0."""
        Pb = self.effective_behavior
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = np.where(Pb > 0, self.transitions / Pb, 0.0)
        return mu

    def true_values(self) -> np.ndarray:
        """Tabular value function of the target policy: (I - gamma P) v = r_bar."""
        r_bar = (self.transitions * self.rewards).sum(axis=1)
        return np.linalg.solve(
            np.eye(self.n_states) - self.discount * self.transitions, r_bar
        )


@dataclass(frozen=True)
class TdInstance:
    """A TD algorithm on an MDP, packaged as a (b, A) distribution.

    ``hurwitz`` records whether every eigenvalue of the mean update matrix has
    positive real part; ``mean_spectrum`` carries the eigenvalues for
    inspection when it does not.
    """

    problem: ProblemDistribution
    mdp: SyntheticMdp
    algo: str
    hurwitz: bool
    mean_spectrum: np.ndarray
    eta: float | None = None

    @property
    def moments(self) -> Moments:
        return self.problem.exact_moments

    @property
    def theta_star(self) -> np.ndarray | None:
        return self.problem.exact_moments.theta_star


def _pair_instance(
    mdp: SyntheticMdp,
    algo: str,
    A_of: np.ndarray,  # (n, n, D, D) update matrix per (s, s')
    b_of: np.ndarray,  # (n, n, D) intercept per (s, s')
    noise_dir: np.ndarray,  # (n, n, D) intercept direction of the reward noise
    label: str,
    eta: float | None = None,
) -> TdInstance:
    """Package per-pair update arrays as a finite-support instance.

    Only pairs with positive sampling x behavior weight become atoms.
    """
    w = (mdp.sampling[:, None] * mdp.effective_behavior).reshape(-1)
    keep = w > 0
    D = A_of.shape[-1]
    b_noise = None
    if mdp.reward_noise_std > 0:
        b_noise = mdp.reward_noise_std * noise_dir.reshape(-1, D)[keep]
    atoms = FiniteAtoms(
        probs=w[keep],
        bs=b_of.reshape(-1, D)[keep],
        As=A_of.reshape(-1, D, D)[keep],
        b_noise=b_noise,
    )
    problem = _finite_problem(atoms, label)
    spectrum = np.linalg.eigvals(problem.exact_moments.A_P)
    return TdInstance(
        problem=problem,
        mdp=mdp,
        algo=algo,
        hurwitz=bool(np.min(spectrum.real) > 0),
        mean_spectrum=spectrum,
        eta=eta,
    )


def td0_instance(mdp: SyntheticMdp) -> TdInstance:
    """One-step TD as a d-dimensional (b, A) distribution.

    A_t = phi_s (phi_s - gamma*phi_{s'})^T and b_t = phi_s * r, with (s, s')
    drawn from sampling x behavior.  No importance correction is applied;
    when behavior differs from target, the mean matrix may fail the
    positive-spectrum check and the instance is flagged accordingly.
    """
    phi = mdp.features
    gamma = mdp.discount
    n, d = phi.shape
    # delta(s, s') = phi_s phi_s^T - gamma phi_s phi_{s'}^T
    delta = np.einsum("si,sj->sij", phi, phi)[:, None, :, :] - gamma * np.einsum(
        "si,tj->stij", phi, phi
    )
    b_of = phi[:, None, :] * mdp.rewards[:, :, None]
    noise_dir = np.broadcast_to(phi[:, None, :], b_of.shape)
    return _pair_instance(
        mdp, "td0", delta, b_of, noise_dir, label=f"td0(n={n}, d={d}, gamma={gamma:g})"
    )


def gtd_instance(mdp: SyntheticMdp, eta: float, variant: str = "gtd") -> TdInstance:
    """Gradient-corrected TD as a stacked 2d-dimensional distribution.

    The two-step-size scheme beta = eta*alpha is folded into the stacked
    system so a single constant step-size drives both blocks.  ``variant``
    selects the correction operator Q: "gtd" uses the identity, "gtd2" uses
    the feature second moment phi phi^T per sample.  Importance ratios are
    applied to the reward and correction terms so the fixed point matches the
    target policy even under off-policy sampling.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if variant not in ("gtd", "gtd2"):
        raise ValueError("variant must be 'gtd' or 'gtd2'")
    phi = mdp.features
    gamma = mdp.discount
    n, d = phi.shape
    D = 2 * d
    mu = mdp.importance_ratios

    delta = np.einsum("si,sj->sij", phi, phi)[:, None, :, :] - gamma * np.einsum(
        "si,tj->stij", phi, phi
    )
    if variant == "gtd":
        Q = np.broadcast_to(np.eye(d), (n, n, d, d))
    else:
        Q = np.broadcast_to(np.einsum("si,sj->sij", phi, phi)[:, None, :, :], (n, n, d, d))

    A_of = np.zeros((n, n, D, D))
    A_of[:, :, :d, :d] = eta * Q
    A_of[:, :, :d, d:] = eta * mu[:, :, None, None] * delta
    A_of[:, :, d:, :d] = -mu[:, :, None, None] * np.swapaxes(delta, -1, -2)

    b_of = np.zeros((n, n, D))
    b_of[:, :, :d] = eta * mu[:, :, None] * phi[:, None, :] * mdp.rewards[:, :, None]
    noise_dir = np.zeros((n, n, D))
    noise_dir[:, :, :d] = eta * mu[:, :, None] * phi[:, None, :]

    return _pair_instance(
        mdp,
        variant,
        A_of,
        b_of,
        noise_dir,
        label=f"{variant}(n={n}, d={d}, gamma={gamma:g}, eta={eta:g})",
        eta=eta,
    )
