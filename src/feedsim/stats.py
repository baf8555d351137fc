"""Small statistics helpers shared by workload validation and analytics."""

from __future__ import annotations

import numpy as np
from scipy import optimize, stats

RANK_FIT_FRACTION = 0.2
RANK_FIT_MIN = 10


def rank_correlation(x, y) -> float | None:
    """Spearman rank correlation with average ranks for ties.

    Returns None when the coefficient is undefined (fewer than two
    points, or either input constant).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    rho = stats.spearmanr(x, y).statistic
    if np.isnan(rho):
        return None
    return float(rho)


def zipf_rank_mle(ranks, rank_count: int) -> float:
    """Maximum-likelihood exponent for iid draws from P(r) ~ r**-s, r in 1..rank_count."""
    ranks = np.asarray(ranks, dtype=float)
    if ranks.size == 0:
        raise ValueError("need at least one rank draw")
    if rank_count < 2:
        return 0.0
    mean_log = float(np.mean(np.log(ranks)))
    table = np.arange(1, rank_count + 1, dtype=float)
    log_table = np.log(table)

    def neg_loglik(s: float) -> float:
        norm = np.sum(np.exp(-s * log_table))
        return s * mean_log + np.log(norm)

    result = optimize.minimize_scalar(neg_loglik, bounds=(0.0, 5.0), method="bounded")
    return float(result.x)


def rank_size_slope(values) -> float | None:
    """Log-log slope of sorted values against their rank (a power-law fit).

    Fits over the top RANK_FIT_FRACTION of ranks (at least RANK_FIT_MIN) where
    the expected values are large enough to be stable. Returns the slope
    magnitude, or None if there is too little data.
    """
    values = np.sort(np.asarray(values, dtype=float))[::-1]
    values = values[values > 0]
    if values.size < 3:
        return None
    cutoff = max(RANK_FIT_MIN, int(values.size * RANK_FIT_FRACTION))
    cutoff = min(cutoff, values.size)
    ranks = np.arange(1, cutoff + 1, dtype=float)
    top = values[:cutoff]
    slope, _ = np.polyfit(np.log(ranks), np.log(top), 1)
    return float(-slope)
