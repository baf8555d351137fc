"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import shutil
import time

import numpy as np
import pytest

from feedsim import analytics, detect, netgen
from feedsim.app import run_experiment
from feedsim.checks import (
    check_correlations,
    check_gap_bound,
    check_histogram_shape,
    check_rate_positive,
)
from feedsim.cli import main
from feedsim.config import ExperimentConfig, zero_delay_config
from feedsim.sim import RngStreams
from feedsim.stats import rank_correlation
from oracles import (brute_force_conflicts, detector_conflict_set, lag_probe_config,
                     random_instance, rows)


def report_criterion(number, name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def generate(cfg):
    rng = RngStreams(cfg.seed)
    network = netgen.build_network(cfg.n_producers, cfg.n_consumers, cfg.zipf, rng)
    profile = netgen.build_profile(network, cfg.zipf, rng)
    return network, profile


def execute(cfg, window=None):
    network, profile = generate(cfg)
    artifacts = run_experiment(network, profile, cfg)
    result = detect.detect_all(
        artifacts.responses, detect.TweetIndex(artifacts.tweet_log, network),
        n_timeline=cfg.n_timeline,
        analysis_window_fraction=window or cfg.analysis_window_fraction)
    return network, artifacts, result


@pytest.fixture(scope="module")
def anomaly_run():
    cfg = ExperimentConfig()
    network, artifacts, result = execute(cfg)
    report = analytics.build_report(result, network)
    return cfg, network, artifacts, result, report


def test_criterion_1_zero_delay_soundness():
    cfg = zero_delay_config(seed=1, duration_hours=9.0)
    network, profile = generate(cfg)
    started = time.monotonic()
    artifacts = run_experiment(network, profile, cfg)
    result = detect.detect_all(artifacts.responses,
                               detect.TweetIndex(artifacts.tweet_log, network),
                               n_timeline=cfg.n_timeline, analysis_window_fraction=1.0)
    elapsed = time.monotonic() - started
    passed = (len(artifacts.responses) >= 100_000 and len(result.records) == 0
              and elapsed < 60.0)
    report_criterion(
        1, "zero-delay soundness", passed,
        f"{len(result.records)} conflicts over {len(artifacts.responses)} responses "
        f"in {elapsed:.1f}s")


def test_criterion_2_bruteforce_equivalence():
    rng = np.random.default_rng(2026)
    instances = 0
    conflicts_seen = 0
    mismatches = 0
    while instances < 200:
        responses, tweets, network, n_timeline = random_instance(rng)
        fraction = 1.0 if rng.random() < 0.7 else 0.6
        result = detect.detect_all(responses, detect.TweetIndex(tweets, network),
                                   n_timeline=n_timeline,
                                   analysis_window_fraction=fraction)
        expected = brute_force_conflicts(rows(responses), tweets, network, n_timeline,
                                         fraction)
        if detector_conflict_set(result) != expected:
            mismatches += 1
        conflicts_seen += len(expected)
        instances += 1
    passed = mismatches == 0 and conflicts_seen > 0
    report_criterion(
        2, "brute-force detector equivalence", passed,
        f"{instances} instances, {conflicts_seen} oracle conflicts, "
        f"{mismatches} mismatching instances")


def test_criterion_3_gap_bounded_by_pipeline(anomaly_run):
    cfg, network, artifacts, result, _ = anomaly_run
    outcome = check_gap_bound(result, artifacts)
    # a second, differently shaped lagged run must satisfy the bound too
    probe_cfg = lag_probe_config(seed=2, lag_mean_ms=30_000.0)
    _, probe_artifacts, probe_result = execute(probe_cfg)
    probe_outcome = check_gap_bound(probe_result, probe_artifacts)
    passed = outcome.passed and probe_outcome.passed and \
        (result.records or probe_result.records)
    report_criterion(
        3, "G bounded by fan-out + propagation", passed,
        f"anomaly run: {outcome.detail}; lag-probe run: {probe_outcome.detail}")


def test_criterion_4_nonzero_anomaly_regime(anomaly_run):
    cfg, network, artifacts, result, report = anomaly_run
    rate = check_rate_positive(report)
    histogram = check_histogram_shape(report.histogram)
    buckets = list(report.histogram.items())
    passed = rate.passed and histogram.passed
    report_criterion(
        4, "nonzero anomaly regime", passed,
        f"{rate.detail}; buckets {buckets}")


def test_criterion_5_correlation_shapes(anomaly_run):
    cfg, network, artifacts, result, report = anomaly_run
    outcomes = check_correlations(report.studies)
    passed = all(o.passed for o in outcomes)
    detail = "; ".join(f"{o.name.removeprefix('correlation_')}: {o.detail}"
                       for o in outcomes)
    report_criterion(5, "correlation shape reproduction", passed, detail)


def test_criterion_6_workload_fidelity(anomaly_run):
    cfg, network, *_ = anomaly_run
    _, profile = generate(cfg)
    out_mean = network.out_degrees().mean()
    in_mean = network.in_degrees().mean()
    producer_mean = profile.producer_rate.mean()
    consumer_mean = profile.consumer_rate.mean()
    rho = rank_correlation(network.in_degrees(), profile.producer_rate)
    passed = (abs(out_mean - 4.63) <= 0.463 and abs(in_mean - 13.38) <= 1.338
              and abs(producer_mean - 1.0) <= 0.1 and abs(consumer_mean - 5.8) <= 0.58
              and abs(rho) < 0.1)
    report_criterion(
        6, "workload fidelity", passed,
        f"means out {out_mean:.2f}/4.63, in {in_mean:.2f}/13.38, "
        f"tweet {producer_mean:.3f}/1.0, query {consumer_mean:.3f}/5.8, "
        f"degree-rate spearman {rho:+.3f}")


def test_criterion_7_lag_monotonicity():
    outcomes = []
    for seed in range(1, 6):
        rates = []
        for lag_ms in (30_000.0, 60_000.0):
            cfg = lag_probe_config(seed=seed, lag_mean_ms=lag_ms)
            _, _, result = execute(cfg)
            rates.append(result.conflicting_count / result.analyzed_count)
        outcomes.append(rates[1] >= rates[0])
    passed = sum(outcomes) >= 4
    report_criterion(
        7, "rate non-decreasing in replication lag", passed,
        f"non-decreasing in {sum(outcomes)} of 5 seeds")


def test_criterion_8_repro_determinism(tmp_path):
    out_dir = tmp_path / "out"
    cfg = ExperimentConfig(out_dir=str(out_dir))
    cfg_path = tmp_path / "config.json"
    cfg.save(cfg_path)
    first_exit = main(["repro", "--config", str(cfg_path)])
    snapshot = tmp_path / "snapshot"
    shutil.copytree(out_dir, snapshot)
    second_exit = main(["repro", "--config", str(cfg_path)])
    names = sorted(p.name for p in out_dir.iterdir())
    differing = [name for name in names
                 if (out_dir / name).read_bytes() != (snapshot / name).read_bytes()]
    passed = first_exit == 0 and second_exit == 0 and not differing
    report_criterion(
        8, "repro determinism", passed,
        f"exit codes {first_exit}/{second_exit}, {len(names)} files, "
        f"differing: {differing or 'none'}")
