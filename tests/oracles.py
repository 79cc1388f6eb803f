"""Monte Carlo reference for the exact moments that every problem carries.

``estimate_moments`` samples a problem through ``p.sample`` and is what the
tests compare ``exact_moments`` (and transformed moments) against.
"""

import numpy as np

from lsalab import Moments, ProblemDistribution
from lsalab.problems import spectral_norms

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
