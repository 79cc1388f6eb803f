"""References the tests compare the library against.

``estimate_moments`` samples a problem through ``p.sample`` and is what the
tests compare ``exact_moments`` (and transformed moments) against.
``exact_mse_gaussian`` is the exact MSE curve of the averaged iterate on a
Gaussian problem, what Monte Carlo curves are gated against.
"""

import numpy as np

from lsalab import Moments, ProblemDistribution
from lsalab.problems import _mean_specnorm_sq_standard, spectral_norms

#: draws per chunk of ``estimate_moments``
ESTIMATE_CHUNK = 100_000


def estimate_moments(p: ProblemDistribution, n_samples: int, seed: int) -> Moments:
    """Empirical moments from n_samples draws of p, deterministic given seed.

    Means and raw second moments are sample averages; the centered noise
    magnitudes use the unbiased 1/(n-1) convention.  If the estimated mean
    matrix is numerically singular (condition number above 1e12), no fixed
    point is reported.  Draws come in chunks of 100,000.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    rng = np.random.default_rng(seed)
    start_state = rng.bit_generator.state  # replayed for the centered pass

    # pass 1: means and the raw second moment
    sum_b = None
    sum_A = None
    sum_C = None
    left = n_samples
    while left > 0:
        take = min(ESTIMATE_CHUNK, left)
        b, A = p.sample(rng, (take,))
        C = np.einsum("kji,kjl->il", A.conj(), A)
        if sum_b is None:
            sum_b, sum_A, sum_C = b.sum(axis=0), A.sum(axis=0), C
        else:
            sum_b = sum_b + b.sum(axis=0)
            sum_A = sum_A + A.sum(axis=0)
            sum_C = sum_C + C
        left -= take
    b_P = sum_b / n_samples
    A_P = sum_A / n_samples
    C_P = sum_C / n_samples

    # pass 2: deviations from the final means, replaying the same stream
    rng.bit_generator.state = start_state
    dev_b = 0.0
    dev_A = 0.0
    left = n_samples
    while left > 0:
        take = min(ESTIMATE_CHUNK, left)
        b, A = p.sample(rng, (take,))
        dev_b += float((np.abs(b - b_P) ** 2).sum())
        dev_A += float((spectral_norms(A - A_P) ** 2).sum())
        left -= take
    sigma_b_sq = dev_b / (n_samples - 1)
    sigma_A_sq = dev_A / (n_samples - 1)

    return Moments(A_P, b_P, C_P, sigma_A_sq, sigma_b_sq)


def exact_mse_gaussian(p: ProblemDistribution, alpha: float, times, theta_0=None) -> np.ndarray:
    """E||hat_t - theta*||^2 of the averaged iterate at each of ``times``, exactly.

    p is a ``make_gaussian_noise`` problem, with entry scales s (matrix) and
    s_b (intercept), s^2 = sigma_A^2 / c_d and s_b^2 = sigma_b^2 / d.  With
    e_t = theta_t - theta*, M = I - alpha A_P, w_t = alpha (b_t - A_t theta*)
    and S_t = e_0 + ... + e_t, the moments (m, P, Q, V) = (E e, E ee^T,
    E Se^T, E SS^T) follow
        m_t = M m_{t-1}
        P_t = M P_{t-1} M^T + alpha^2 s^2 tr(P_{t-1}) I
              + 2 alpha^2 s^2 (theta* . m_{t-1}) I + W
        G_t = Q_{t-1} M^T,  Q_t = G_t + P_t,  V_t = V_{t-1} + G_t + G_t^T + P_t
    with W = alpha^2 (s^2 ||theta*||^2 + s_b^2) I, from e_0 = theta_0 - theta*
    (theta_0 = 0 when None); the MSE at t is tr V_t / (t+1)^2 (Defossez &
    Bach, AISTATS 2015; Costa, Fragoso & Marques 2005).  ``times`` are
    increasing positive step counts.
    """
    m = p.exact_moments
    d = p.dim
    sA_sq = m.sigma_A_sq / _mean_specnorm_sq_standard(d)
    sb_sq = m.sigma_b_sq / d
    ts = m.theta_star
    eye = np.eye(d)
    M = eye - alpha * m.A_P
    w = alpha**2 * (sA_sq * (ts @ ts) + sb_sq)
    e = (np.zeros(d) if theta_0 is None else np.asarray(theta_0, float)) - ts
    P = np.outer(e, e)
    Q, V = P.copy(), P.copy()
    times = np.asarray(times)
    out = np.empty(len(times))
    t = 0
    for i, stop in enumerate(times.tolist()):
        for t in range(t + 1, stop + 1):
            P = M @ P @ M.T + (alpha**2 * sA_sq * (np.trace(P) + 2 * (ts @ e)) + w) * eye
            e = M @ e
            G = Q @ M.T
            Q = G + P
            V = V + G + G.T + P
        out[i] = np.trace(V) / (t + 1) ** 2
    return out
