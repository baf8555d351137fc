"""Small statistics helpers shared by workload validation and analytics."""

from __future__ import annotations

import math

import numpy as np

RANK_FIT_FRACTION = 0.2
RANK_FIT_MIN = 10
# Bounded-minimiser settings: scipy's minimize_scalar(method="bounded") defaults.
MLE_XATOL = 1e-5
MLE_MAX_EVALS = 500


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of values, each run of tied values given its mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2, ends - starts)
    return ranks


def rank_correlation(x, y) -> float | None:
    """Spearman rank correlation with average ranks for ties.

    Returns None when the coefficient is undefined (fewer than two
    points, either input constant, or a NaN in either input). The ranks
    go through np.corrcoef laid out as scipy.stats.spearmanr lays them
    out, so the result equals spearmanr's bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y must have the same length")
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return None
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


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

    return _minimize_bounded(neg_loglik, 0.0, 5.0)


def _minimize_bounded(func, lower: float, upper: float) -> float:
    """The x in [lower, upper] minimising func, by Brent's method: parabolic
    steps with golden-section fallback.

    A port of scipy.optimize.minimize_scalar(method="bounded") at its
    default settings. Every step does the same float arithmetic in the same
    order, so it returns the same x bit for bit.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    # xf is the best point so far, nfc the second best, fulc the previous nfc.
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    evals = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + MLE_XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = func(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + MLE_XATOL / 3.0
        tol2 = 2.0 * tol1
        if evals >= MLE_MAX_EVALS:
            break
    return float(xf)


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
