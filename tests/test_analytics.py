import numpy as np
import pytest

from feedsim.analytics import (
    attribute_to_producers,
    build_report,
    conflict_incidents,
    correlation_studies,
    emit_report,
    gap_histogram,
    inconsistency_rate,
    summarize_gaps,
)
from feedsim.detect import ConflictRecord, ConflictType, DetectionResult
from feedsim.stats import rank_correlation
from oracles import make_network

SEC = 1_000_000


def make_result(records, analyzed=10, tweet_counts=None, query_counts=None):
    """A result whose analyzed responses are all consumer 0's unless query_counts says."""
    if query_counts is None:
        query_counts = {0: analyzed} if analyzed else {}
    return DetectionResult(
        records=records,
        total_count=sum(query_counts.values()),
        tweet_counts=tweet_counts or {},
        query_counts=query_counts,
        n_timeline=20,
        analysis_window_fraction=0.5,
    )


def record(rid, consumer, producer, t, gap_us, kind=ConflictType.GAP):
    return ConflictRecord(rid, consumer, producer, t, kind, witness_response_id=0,
                          gap_us=gap_us)


def gap_records(per_response_G):
    """One record per response, carrying that response's G."""
    return [record(rid, 0, 0, 10, gap_us) for rid, gap_us in per_response_G.items()]


def test_rate_zero_and_exact_fraction():
    assert inconsistency_rate(make_result([])) == 0.0
    result = make_result([record(i, 0, 0, 10, SEC) for i in range(3)], analyzed=10)
    assert inconsistency_rate(result) == pytest.approx(0.3)


def test_rate_errors_on_empty_window():
    assert inconsistency_rate(make_result([], analyzed=0)) is None


def test_histogram_single_bucket():
    result = make_result(gap_records({i: (i + 1) * SEC for i in range(5)}))
    assert gap_histogram(result) == {0: 5}


def test_histogram_bucket_boundaries():
    gaps = {0: 99_999_999, 1: 100_000_000, 2: 50 * SEC, 3: 150 * SEC, 4: 150 * SEC}
    assert gap_histogram(make_result(gap_records(gaps))) == {0: 2, 1: 3}


def test_histogram_conservation():
    gaps = {i: int(g) for i, g in
            enumerate(np.random.default_rng(0).integers(1, 7000 * SEC, size=500))}
    result = make_result(gap_records(gaps), analyzed=1000)
    hist = gap_histogram(result)
    assert sum(hist.values()) == len(gaps)
    assert list(hist) == sorted(hist)


def test_summarize_single_and_empty():
    summary = summarize_gaps(make_result(gap_records({0: 823 * SEC})))
    assert summary.mean_s == pytest.approx(823.0)
    assert summary.max_s == pytest.approx(823.0)
    assert summary.count_above_1s == 1
    empty = summarize_gaps(make_result([]))
    assert empty.mean_s is None and empty.max_s is None and empty.count_above_1s == 0


def test_summarize_counts_strictly_above_one_second():
    summary = summarize_gaps(make_result(gap_records({0: SEC, 1: SEC + 1, 2: 2 * SEC})))
    assert summary.count_above_1s == 2


def test_attribution_conservation():
    records = [record(i, 0, i % 3, 10 + i, SEC) for i in range(7)]
    counts = attribute_to_producers(make_result(records))
    assert sum(counts.values()) == 7
    assert counts == {0: 3, 1: 2, 2: 2}
    assert attribute_to_producers(make_result([])) == {}


def test_spearman_matches_rank_then_pearson():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        x = rng.integers(0, 10, size=n).astype(float)  # ties on purpose
        y = rng.normal(size=n)
        rho = rank_correlation(x, y)
        if rho is None:
            continue

        def average_ranks(values):
            order = np.argsort(values, kind="stable")
            ranks = np.empty(n, dtype=float)
            sorted_values = values[order]
            i = 0
            while i < n:
                j = i
                while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2 + 1
                i = j + 1
            return ranks

        rx, ry = average_ranks(x), average_ranks(y)
        pearson = np.corrcoef(rx, ry)[0, 1]
        assert abs(rho - pearson) < 1e-9


def test_rank_correlation_degenerate_inputs():
    assert rank_correlation([1.0], [2.0]) is None
    assert rank_correlation([1, 1, 1], [1, 2, 3]) is None
    assert rank_correlation([1, 2, 3], [5, 5, 5]) is None


def test_studies_monotone_and_degenerate():
    network = make_network({c: tuple(range(c + 1)) for c in range(5)}, 5)
    # producer p has 5-p followers; incidents grow with follower count
    records = []
    rid = 0
    for producer in range(5):
        for k in range(5 - producer):
            records.append(record(rid, producer, producer, 10 + k, SEC))
            rid += 1
    result = make_result(records, tweet_counts={p: 1 for p in range(5)},
                         query_counts={c: 1 for c in range(5)})
    studies = {s.spec.x_label: s for s in correlation_studies(result, network)}
    followers_study = studies["producer_follower_count"]
    assert not followers_study.degenerate
    assert followers_study.spearman == pytest.approx(1.0)
    # tweet counts are constant across producers -> degenerate
    assert studies["producer_tweet_count"].degenerate


def test_studies_count_distinct_incidents():
    network = make_network({0: (0,), 1: (0,)}, 1)
    # consumer 0 re-observes the same hole three times; consumer 1 once
    records = [record(i, 0, 0, 10, (i + 1) * SEC) for i in range(3)]
    records.append(record(3, 1, 0, 10, SEC))
    result = make_result(records, tweet_counts={0: 1},
                         query_counts={0: 9, 1: 1})
    assert conflict_incidents(result) == {(0, 0, 10), (1, 0, 10)}
    studies = {s.spec.x_label: s for s in correlation_studies(result, network)}
    points = dict(studies["consumer_query_count"].points)
    assert points == {9.0: 1.0, 1.0: 1.0}


def test_emit_report_empty_result(tmp_path):
    network = make_network({0: (0,)}, 1)
    report = build_report(make_result([], analyzed=4), network)
    paths = emit_report(report, tmp_path)
    histogram = (tmp_path / "gap_histogram.csv").read_text()
    assert histogram == "bucket_start_s,count\n"
    for name in ("study_producer_followers.csv", "study_consumer_queries.csv"):
        assert (tmp_path / name).read_text() == "x,y\n"
    assert (tmp_path / "totals.json").exists()
    assert (tmp_path / "summary.txt").exists()
    assert len(paths) == 7


def test_emit_report_zero_analyzed_has_null_rate(tmp_path):
    import json

    network = make_network({0: (0,)}, 1)
    report = build_report(make_result([], analyzed=0), network)
    emit_report(report, tmp_path)
    totals = json.loads((tmp_path / "totals.json").read_text())
    assert totals["inconsistency_rate"] is None


def test_emit_report_deterministic_and_conserving(tmp_path):
    network = make_network({0: (0, 1), 1: (0,)}, 2)
    records = [record(0, 0, 0, 10, 50 * SEC), record(1, 1, 0, 20, 150 * SEC),
               record(2, 0, 1, 30, 150 * SEC)]
    result = make_result(records, tweet_counts={0: 2, 1: 1},
                         query_counts={0: 3, 1: 2})
    report = build_report(result, network)
    first = {p.name: p.read_bytes() for p in emit_report(report, tmp_path / "a")}
    second = {p.name: p.read_bytes() for p in emit_report(report, tmp_path / "b")}
    assert first == second
    histogram_rows = (tmp_path / "a" / "gap_histogram.csv").read_text().strip().splitlines()[1:]
    assert sum(int(row.split(",")[1]) for row in histogram_rows) == len(records)
    assert histogram_rows == ["0,1", "100,2"]
