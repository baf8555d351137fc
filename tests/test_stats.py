"""Differential tests: feedsim's statistics helpers against scipy.

scipy is a test-only dependency; feedsim itself must not import it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, stats

from feedsim.stats import _minimize_bounded, rank_correlation, zipf_rank_mle

SRC = Path(__file__).resolve().parent.parent / "src"


def scipy_spearman(x, y):
    """rank_correlation's contract, computed by scipy.stats.spearmanr."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size < 2 or np.all(x == x[0]) or np.all(y == y[0]):
        return None
    rho = stats.spearmanr(x, y).statistic
    return None if np.isnan(rho) else float(rho)


def random_pair(rng):
    n = int(rng.integers(2, 60))
    shape = rng.integers(4)
    if shape == 0:  # continuous values, almost surely no ties
        return rng.normal(size=n), rng.normal(size=n)
    if shape == 1:  # heavy ties: a handful of distinct values
        k = int(rng.integers(1, 4))
        return rng.integers(k + 1, size=n), rng.integers(k + 1, size=n)
    if shape == 2:  # one input tied, the other continuous
        return rng.integers(3, size=n), rng.exponential(size=n)
    x = rng.normal(size=n)
    return x, 2 * x + rng.integers(2, size=n)  # strongly related, with ties


def test_rank_correlation_matches_spearmanr_bitwise():
    rng = np.random.default_rng(20260418)
    mismatches = []
    for case in range(3000):
        x, y = random_pair(rng)
        ours, theirs = rank_correlation(x, y), scipy_spearman(x, y)
        if ours != theirs:
            mismatches.append((case, ours, theirs))
    assert mismatches == []


@pytest.mark.parametrize("x,y", [
    ([1.0, 2.0], [3.0, 4.0]),
    ([1.0, 2.0], [4.0, 3.0]),
    ([1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 5.0, 6.0]),
    ([3, 3, 3, 3], [1, 2, 3, 4]),
    ([1, 2, 3, 4], [7, 7, 7, 7]),
    ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [np.nan, 2.0, 1.0]),
    ([np.nan, np.nan], [1.0, 2.0]),
    ([-np.inf, 0.0, np.inf], [1.0, 2.0, 3.0]),
], ids=["n2_up", "n2_down", "ties_both", "const_x", "const_y",
        "nan_x", "nan_y", "all_nan", "infinities"])
def test_rank_correlation_edge_cases_match_spearmanr(x, y):
    assert rank_correlation(x, y) == scipy_spearman(x, y)


def scipy_zipf_mle(ranks, rank_count):
    mean_log = float(np.mean(np.log(np.asarray(ranks, dtype=float))))
    log_table = np.log(np.arange(1, rank_count + 1, dtype=float))

    def neg_loglik(s):
        return s * mean_log + np.log(np.sum(np.exp(-s * log_table)))

    return float(optimize.minimize_scalar(neg_loglik, bounds=(0.0, 5.0), method="bounded").x)


def test_zipf_rank_mle_matches_minimize_scalar_bitwise():
    rng = np.random.default_rng(7)
    mismatches = []
    for case in range(300):
        rank_count = int(rng.integers(2, 400))
        s = rng.uniform(0.0, 3.0)
        p = np.arange(1, rank_count + 1, dtype=float) ** -s
        ranks = rng.choice(np.arange(1, rank_count + 1), size=int(rng.integers(1, 500)),
                           p=p / p.sum())
        ours, theirs = zipf_rank_mle(ranks, rank_count), scipy_zipf_mle(ranks, rank_count)
        if ours != theirs:
            mismatches.append((case, ours, theirs))
    assert mismatches == []


@pytest.mark.parametrize("ranks,rank_count", [([1], 2), ([1] * 50, 10), ([10] * 50, 10),
                                              ([1, 2], 2), ([2], 1000)],
                         ids=["one_draw", "all_top", "all_bottom", "two_ranks", "far_tail"])
def test_zipf_rank_mle_edge_cases_match_minimize_scalar(ranks, rank_count):
    assert zipf_rank_mle(ranks, rank_count) == scipy_zipf_mle(ranks, rank_count)


def test_minimize_bounded_matches_minimize_scalar_near_the_bounds():
    # The MLE's objective rarely puts its minimum within a tolerance of a
    # bound, where the port's parabolic steps are pushed back inside.
    rng = np.random.default_rng(11)
    centres = [0.0, 5.0, 1e-6, 5.0 - 1e-6, 4.99999, 1e-5, *rng.uniform(0.0, 5.0, size=40)]
    mismatches = []
    for centre in centres:
        for f in (lambda x: (x - centre) ** 2, lambda x: abs(x - centre) ** 1.5,
                  lambda x: np.cosh(x - centre)):
            ours = _minimize_bounded(f, 0.0, 5.0)
            theirs = float(optimize.minimize_scalar(f, bounds=(0.0, 5.0), method="bounded").x)
            if ours != theirs:
                mismatches.append((centre, ours, theirs))
    assert mismatches == []


def test_importing_the_cli_loads_no_scipy():
    code = ("import feedsim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counting threads needs /proc/self/task")
@pytest.mark.parametrize("caller", [None, "2"], ids=["unset", "caller_set_2"])
def test_importing_the_cli_starts_one_blas_thread_unless_told(caller):
    # A fresh interpreter: this process imported numpy before feedsim could set the variable.
    code = ("import os, feedsim.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads, setting = proc.stdout.split()
    if caller is None:
        assert (threads, setting) == ("1", "1")
    else:
        assert setting == caller
