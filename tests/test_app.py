import gc
import json
import sys
import tracemalloc
from array import array
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feedsim.app as app_module
from feedsim.app import (
    FanoutSettings,
    FeedApp,
    ResponseLog,
    insert_entry,
    load_response_log,
    load_tweet_log,
    run_experiment,
    save_response_log,
    save_tweet_log,
)
from feedsim.cli import main
from feedsim.config import ExperimentConfig
from feedsim.detect import (
    ConflictRecord,
    ConflictType,
    DetectionResult,
    TweetIndex,
    consistent_timeline,
    save_conflict_records,
)
from feedsim.netgen import WorkloadProfile, save_network_profile
from feedsim.sim import (
    MICROS_PER_HOUR,
    DistributionSpec,
    EventLoop,
    IntegrityError,
    RngStreams,
    from_iso,
)
from feedsim.store import ReplicatedStore, StoreConfig
from oracles import datetime_iso, make_network, response_log, rows
from test_cli import tiny_config, write_config


def make_app(follows, n_producers, *, n_replicas=3, lag=("constant", 0.0),
             fanout=None, seed=0, n_timeline=20):
    network = make_network(follows, n_producers)
    loop = EventLoop()
    rng = RngStreams(seed)
    store = ReplicatedStore(StoreConfig(n_replicas=n_replicas, lag=DistributionSpec(*lag)),
                            loop, rng)
    app = FeedApp(network, loop, store, rng, n_timeline=n_timeline,
                  fanout=fanout or FanoutSettings(mode="synchronous"))
    return app, loop, store, network


def test_post_unknown_producer_raises():
    app, *_ = make_app({0: (0,)}, 1)
    with pytest.raises(ValueError):
        app.post_tweet(99)


def test_producer_without_followers_schedules_nothing():
    app, loop, _, _ = make_app({0: (0,)}, 2,
                               fanout=FanoutSettings(service=DistributionSpec("constant", 5.0)))
    before = loop.scheduled_count
    tweet = app.post_tweet(1)
    assert loop.scheduled_count == before
    assert app.tweet_log == [tweet]
    assert app.fanout_completion_us[(1, 0)] == 0


def test_fanout_creates_one_update_task_per_follower():
    follows = {c: (0,) for c in range(234)}
    app, loop, _, _ = make_app(follows, 1,
                               fanout=FanoutSettings(service=DistributionSpec("constant", 5.0)))
    app.post_tweet(0)
    assert loop.scheduled_count == 234
    loop.run_until(10_000_000)
    assert all(store_value is not None for store_value in
               (app.store.authoritative_read(c) for c in range(234)))


def test_same_instant_posts_get_distinct_seq():
    app, loop, _, _ = make_app({0: (0, 1)}, 2)
    a = app.post_tweet(0)
    b = app.post_tweet(1)
    assert a[1] == b[1]  # the same instant
    assert app.tweet_log == [a, b]  # seq 0 and seq 1


def test_duplicate_producer_timestamp_rejected():
    app, loop, _, _ = make_app({0: (0,)}, 1)
    app.post_tweet(0)
    with pytest.raises(ValueError):
        app.post_tweet(0)


def test_insert_entry_basics():
    seqs = {(0, 100): 0, (1, 200): 1}
    value = insert_entry(None, (0, 100), seqs, 3)
    assert value == ((0, 100),)
    value = insert_entry(value, (1, 200), seqs, 3)
    assert value == ((1, 200), (0, 100))


def test_insert_entry_truncates_older_than_window():
    seqs = {(1, 10): 0, (0, 1000): 1, (0, 1001): 2, (0, 1002): 3}
    entries = None
    for t in (1000, 1001, 1002):
        entries = insert_entry(entries, (0, t), seqs, 3)
    result = insert_entry(entries, (1, 10), seqs, 3)
    assert result == ((0, 1002), (0, 1001), (0, 1000))


def test_insert_entry_equals_sorted_brute_force():
    # Tweets posted as FeedApp posts them: t never decreases and seq counts
    # up. Runs of same-t tweets come from producers in falling id order, so
    # (t, producer_id) order disagrees with (t, seq) order on them.
    rng = np.random.default_rng(5)
    for trial in range(200):
        tweets, t = [], 0
        while len(tweets) < int(rng.integers(1, 40)):
            t += int(rng.integers(1, 3))
            for producer_id in sorted(rng.choice(30, size=int(rng.integers(1, 4)),
                                                 replace=False).tolist(), reverse=True):
                tweets.append((producer_id, t))
        seqs = {pair: seq for seq, pair in enumerate(tweets)}
        n_timeline = int(rng.choice([1, 2, 3, 5, 20]))
        value, inserted = None, []
        for i in rng.permutation(len(tweets)).tolist():
            pair = tweets[i]
            inserted.append(pair)
            value = insert_entry(value, pair, seqs, n_timeline)
            expected = sorted(inserted, key=lambda pair: (pair[1], seqs[pair]),
                              reverse=True)[:n_timeline]
            assert value == tuple(expected), (trial, n_timeline)


def test_timeline_fills_then_keeps_the_newest_n():
    app, loop, store, _ = make_app({0: (0, 1)}, 2, n_timeline=2)
    t1 = app.post_tweet(0)
    assert store.authoritative_read(0) == (t1,)
    loop.run_until(1)
    loop.run_until(2)
    t2 = app.post_tweet(1)
    loop.run_until(3)
    t3 = app.post_tweet(0)  # same producer later
    assert store.authoritative_read(0) == (t3, t2)  # t1 truncated away


def test_concurrent_updates_end_as_sorted_truncated_window():
    # 50 producers all followed by one consumer; scheduled fan-out with
    # random service times and retries must still converge to the newest n.
    follows = {0: tuple(range(50))}
    app, loop, store, net = make_app(
        follows, 50, n_replicas=3, lag=("exponential", 30.0),
        fanout=FanoutSettings(service=DistributionSpec("exponential", 40.0)),
        n_timeline=20, seed=9)
    tweets = []
    t = 0
    rng = np.random.default_rng(0)
    for p in range(50):
        t += int(rng.integers(1, 2000))
        loop.run_until(t)
        tweets.append(app.post_tweet(p))
    loop.run_until(t + 600_000_000)
    assert tweets == app.tweet_log
    expected = sorted(tweets, key=lambda pair: (pair[1], tweets.index(pair)), reverse=True)[:20]
    assert store.authoritative_read(0) == tuple(expected)
    assert store.is_converged()


def test_retry_after_conditional_write_conflict():
    # Two posts to a shared follower; the second update's expectation goes
    # stale while it waits in service, forcing one retry.
    follows = {0: (0, 1)}
    app, loop, store, _ = make_app(
        follows, 2, fanout=FanoutSettings(service=DistributionSpec("constant", 10.0)),
        lag=("constant", 0.0))
    app.post_tweet(0)            # update lands at t=10ms
    loop.run_until(5_000)
    app.post_tweet(1)            # expectation fetched now, CAS at 15ms fails
    loop.run_until(60_000)
    assert store.cas_failure_count == 1
    value = store.authoritative_read(0)
    assert len(value) == 2


def test_query_unknown_consumer_raises():
    app, *_ = make_app({0: (0,)}, 1)
    with pytest.raises(ValueError):
        app.query_timeline(5)


def test_query_before_any_tweet_is_empty():
    app, *_ = make_app({0: (0,)}, 1)
    assert app.query_timeline(0) is None
    assert rows(app.responses) == [(0, 0, ())]


def tiny_run(fanout, lag, seed=1, hours=1.0, n_replicas=3):
    rng = RngStreams(100)
    network = make_network(
        {c: tuple(sorted(np.random.default_rng(c).choice(10, size=3, replace=False).tolist()))
         for c in range(30)}, 10)
    profile = WorkloadProfile(producer_rate=np.full(10, 6.0),
                              consumer_rate=np.full(30, 30.0))
    return network, run_experiment(network, profile, ExperimentConfig(
        seed=seed, store=StoreConfig(n_replicas=n_replicas, lag=DistributionSpec(*lag)),
        fanout=fanout, n_timeline=5, duration_hours=hours))


def test_zero_delay_synchronous_responses_equal_oracle():
    network, artifacts = tiny_run(FanoutSettings(mode="synchronous"), ("constant", 0.0))
    feeds = TweetIndex(artifacts.tweet_log, network).feeds
    for consumer_id, T, entries in rows(artifacts.responses):
        assert entries == consistent_timeline(feeds, consumer_id, T, 5)


def test_lagged_run_responses_never_contain_future_or_phantom_tweets():
    network, artifacts = tiny_run(
        FanoutSettings(service=DistributionSpec("exponential", 50.0)),
        ("exponential", 2000.0))
    known = set(artifacts.tweet_log)
    for _, T, entries in rows(artifacts.responses):
        assert all(t <= T for _, t in entries)
        assert all(pair in known for pair in entries)
        times = [t for _, t in entries]
        assert times == sorted(times, reverse=True)
        assert len(set(entries)) == len(entries)


def test_tweet_log_is_strictly_ordered_with_unique_identity(tmp_path):
    _, artifacts = tiny_run(FanoutSettings(mode="synchronous"), ("constant", 0.0))
    keys = [(t, seq) for seq, (_, t) in enumerate(artifacts.tweet_log)]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    identities = set(artifacts.tweet_log)
    assert len(identities) == len(artifacts.tweet_log)
    # The written seq of each tweet is its position in the log.
    save_tweet_log(tmp_path / "tweets.jsonl", artifacts.tweet_log)
    lines = (tmp_path / "tweets.jsonl").read_text().splitlines()
    assert [json.loads(line)["seq"] for line in lines] == list(range(len(artifacts.tweet_log)))


def test_run_duration_zero_produces_empty_logs():
    network, artifacts = tiny_run(FanoutSettings(mode="synchronous"), ("constant", 0.0),
                                  hours=0.0)
    assert artifacts.tweet_log == []
    assert len(artifacts.responses) == 0


def test_poisson_tweet_count_within_three_sigma():
    network = make_network({0: (0,)}, 1)
    profile = WorkloadProfile(producer_rate=np.array([60.0]),
                              consumer_rate=np.array([0.001]))
    artifacts = run_experiment(network, profile, ExperimentConfig(
        seed=4, store=StoreConfig(), fanout=FanoutSettings(mode="synchronous"),
        duration_hours=1.0))
    sigma = 60 ** 0.5
    assert 60 - 3 * sigma <= len(artifacts.tweet_log) <= 60 + 3 * sigma


# The per-rate draw, the reference the bulk draw must equal.
POISSON_TIMES_US = app_module._poisson_times_us


def short_chunks(expected):
    """A chunk-size rule whose first chunk falls short of the horizon about
    half the time, so the bulk draw must replay those rates."""
    return np.maximum(1, np.asarray(expected).astype(np.int64))


def assert_bulk_poisson_equals_per_rate(rates, duration_us, seed):
    bulk, reference = RngStreams(seed).stream("t"), RngStreams(seed).stream("t")
    counts, times = app_module._poisson_arrivals_us(np.array(rates, dtype=float), duration_us,
                                                    bulk)
    expected = [POISSON_TIMES_US(float(rate), duration_us, reference) for rate in rates]
    assert times.dtype == np.int64
    assert counts.tolist() == [len(want) for want in expected]
    assert len(times) == sum(counts)
    # Each rate's slice of the flat times is its own draw.
    for rate_times, want in zip(np.split(times, np.cumsum(counts)[:-1]), expected):
        assert rate_times.tolist() == want.tolist()
    # Both streams end in the same state, so the next draw is equal too.
    assert bulk.random() == reference.random()
    return expected


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, -1.0]) | st.floats(0.01, 400.0), max_size=10),
       st.sampled_from([0, 1, 90_000_000, MICROS_PER_HOUR // 2]), st.integers(0, 2**32 - 1),
       st.booleans(), st.integers(1, 12))
def test_bulk_poisson_draws_equal_per_rate_draws(rates, duration_us, seed, short,
                                                 rates_per_draw):
    rule = short_chunks if short else app_module._chunk_size
    with patch.object(app_module, "_chunk_size", rule), \
            patch.object(app_module, "_RATES_PER_DRAW", rates_per_draw):
        assert_bulk_poisson_equals_per_rate(rates, duration_us, seed)


def test_bulk_poisson_replays_each_rate_whose_first_chunk_falls_short():
    rates = [30.0, 0.0, 12.0, 60.0, 5.0] * 4
    replayed = []

    def replay(rate, duration_us, stream):
        replayed.append(rate)
        return POISSON_TIMES_US(rate, duration_us, stream)

    with patch.object(app_module, "_chunk_size", short_chunks), \
            patch.object(app_module, "_poisson_times_us", replay):
        expected = assert_bulk_poisson_equals_per_rate(rates, MICROS_PER_HOUR, 3)
    # Some rates were replayed alone and the others drawn in bulk. Over one
    # hour, a rate's first chunk falls short when its times fill it.
    assert 0 < len(replayed) < 16
    assert replayed == [rate for rate, want in zip(rates, expected)
                        if rate > 0 and len(want) >= short_chunks(rate)]


def test_bulk_poisson_memory_follows_the_draws_not_the_longest_rate():
    # One rate 10^4 times the others. Padding every rate's draws to the
    # longest would hold 201 x 15,008 gaps, 24 MB.
    rates = np.array([1.0] * 200 + [10_000.0])
    draws = sum(app_module._chunk_size(rate) for rate in rates.tolist())
    assert draws == 200 * 16 + 15_008
    stream = RngStreams(1).stream("t")
    # A first call makes numpy's one-time allocations outside the trace.
    app_module._poisson_arrivals_us(np.array([1.0]), MICROS_PER_HOUR, RngStreams(1).stream("t"))
    tracemalloc.start()
    try:
        app_module._poisson_arrivals_us(rates, MICROS_PER_HOUR, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About three times the draws' 8 bytes each: the scales, the gaps and
    # each rate's running sums and times.
    assert peak < 5 * 8 * draws


@given(st.lists(st.integers(0, 40), max_size=30))
def test_strictly_increasing_nudges_each_time_past_the_one_before(times):
    expected = list(times)
    for i in range(1, len(expected)):
        if expected[i] <= expected[i - 1]:
            expected[i] = expected[i - 1] + 1
    assert app_module._strictly_increasing(np.array(times, dtype=np.int64)).tolist() == expected


# One producer's times: drawn from a narrow range, so repeats are common,
# and ascending, as a Poisson draw gives them, or in any order.
PRODUCER_TIMES = st.lists(st.integers(0, 12), max_size=8)


@given(st.lists(PRODUCER_TIMES.map(sorted) | PRODUCER_TIMES, max_size=8))
def test_nudging_the_colliding_producers_equals_nudging_each(per_producer):
    counts = np.array([len(times) for times in per_producer], dtype=np.int64)
    times = np.array([t for producer in per_producer for t in producer], dtype=np.int64)
    nudge = app_module._strictly_increasing
    expected = [nudge(np.array(producer, dtype=np.int64)).tolist() for producer in per_producer]
    nudged = []

    def recorded(producer_times):
        nudged.append(producer_times.tolist())
        return nudge(producer_times)

    with patch.object(app_module, "_strictly_increasing", recorded):
        app_module._nudge_collisions(counts, times)
    assert times.tolist() == [t for producer in expected for t in producer]
    # Only the producers whose own times fail to strictly increase are nudged.
    assert nudged == [producer for producer in per_producer
                      if any(b <= a for a, b in zip(producer, producer[1:]))]


def test_run_is_seed_deterministic():
    _, a = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                    ("exponential", 500.0), seed=5)
    _, b = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                    ("exponential", 500.0), seed=5)
    assert a.tweet_log == b.tweet_log
    assert rows(a.responses) == rows(b.responses)
    assert a.to_dict() == b.to_dict()


def test_fanout_and_store_settings_keep_the_workload():
    """Common random numbers: at one seed, configs that differ only in fan-out
    mode, concurrency cap or store lag post the same tweets and make the same
    queries, consumer for consumer and instant for instant, so a paired
    difference between two such runs measures the setting alone."""
    service = DistributionSpec("exponential", 30.0)
    runs = [tiny_run(fanout, lag, seed=5)[1] for fanout, lag in (
        (FanoutSettings(service=service), ("exponential", 500.0)),
        (FanoutSettings(service=service, concurrency_cap=1), ("exponential", 500.0)),
        (FanoutSettings(service=service, concurrency_cap=2), ("exponential", 500.0)),
        (FanoutSettings(mode="synchronous"), ("exponential", 500.0)),
        (FanoutSettings(service=service), ("constant", 0.0)),
        (FanoutSettings(service=service), ("exponential", 20_000.0)),
    )]
    first = runs[0]
    for run in runs[1:]:
        assert run.tweet_log == first.tweet_log
        assert run.responses.consumer_ids == first.responses.consumer_ids
        assert run.responses.times == first.responses.times
    # The settings do change what the queries see.
    assert len({tuple(run.responses.entries) for run in runs}) > 1


def test_response_log_holds_24_bytes_per_response_beyond_its_timelines():
    """A response costs the log an int64 consumer id, an int64 T and a pointer
    to its timeline tuple, which responses share: 24 B, and under 28 B with the
    log object and its columns' headers. A row object per response would add
    56 B, and a T kept as an int object another 32 B."""
    tiny_run(FanoutSettings(mode="synchronous"), ("constant", 0.0), hours=0.1)
    gc.collect()
    tracemalloc.start()
    try:
        _, artifacts = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                                ("exponential", 500.0))
        n = len(artifacts.responses)
        timelines = list({id(entries): entries
                          for _, _, entries in rows(artifacts.responses)}.values())
        held = tracemalloc.get_traced_memory()[0]
        artifacts.responses = None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n > 500 and len(timelines) < n
    assert freed / n < 28, (freed, n)


def test_run_allocates_each_response_log_column_at_its_length():
    """A run sizes its response log once, from its query arrivals, so the
    columns never regrow and hold no growth headroom at the end."""
    _, artifacts = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                            ("exponential", 500.0))
    log = artifacts.responses
    assert len(log) > 500
    assert sys.getsizeof(log.consumer_ids) == sys.getsizeof(array("q")) + 8 * len(log)
    assert sys.getsizeof(log.times) == sys.getsizeof(array("q")) + 8 * len(log)
    assert sys.getsizeof(log.entries) == sys.getsizeof([]) + 8 * len(log)


def test_run_leaves_no_loop_for_the_garbage_collector(tmp_path):
    """A run's loop, store and app are freed by reference counts alone, even
    while its artifacts are held, and a whole in-process `repro` leaves no
    cyclic garbage of feedsim's types, so the rare collections cli.entry()
    sets up have nothing of ours to free.

    DEBUG_SAVEALL keeps whatever a collection finds unreachable in gc.garbage
    instead of freeing it.
    """
    gc.collect()
    gc.disable()
    try:
        _, artifacts = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                                ("exponential", 500.0))
        alive = [obj for obj in gc.get_objects()
                 if isinstance(obj, (EventLoop, ReplicatedStore, FeedApp))]
    finally:
        gc.enable()
    assert artifacts.responses and alive == []

    cfg_path = write_config(tmp_path, tiny_config(tmp_path / "out"))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(["repro", "--config", str(cfg_path)])
        gc.collect()
        ours = [type(obj) for obj in gc.garbage
                if type(obj).__module__.partition(".")[0] == "feedsim"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    # The check summary is repro's last file: every stage ran.
    assert (tmp_path / "out" / "repro_summary.txt").exists()
    assert ours == []


def test_incomplete_fanouts_reported_as_horizon_delay(monkeypatch):
    # Each tweet's delay is checked against the commits that inserted it:
    # its last commit for a finished fan-out, the horizon for an unfinished
    # one, and 0 for producer 2, which has no followers.
    commit_times: dict[tuple[int, int], list[int]] = {}

    class CommitRecordingStore(ReplicatedStore):
        def conditional_write(self, key, expected, new_value):
            result = super().conditional_write(key, expected, new_value)
            if result.ok:
                for pair in set(new_value) - set(expected or ()):
                    commit_times.setdefault(pair, []).append(self._loop.now())
            return result

    monkeypatch.setattr(app_module, "ReplicatedStore", CommitRecordingStore)
    # Arrival times are floored to whole minutes, so producers post at the
    # same microsecond.
    minute = 60_000_000
    poisson = app_module._poisson_arrivals_us

    def floored(*args):
        counts, times = poisson(*args)
        return counts, times // minute * minute

    monkeypatch.setattr(app_module, "_poisson_arrivals_us", floored)
    network = make_network({0: (0, 1), 1: (0,), 2: (0,)}, 3)
    profile = WorkloadProfile(producer_rate=np.array([30.0, 30.0, 30.0]),
                              consumer_rate=np.array([0.001, 0.001, 0.001]))
    # Five-minute mean service on one lane: producer 0's three updates
    # overlap its later tweets and producer 1's, so some writes retry.
    artifacts = run_experiment(network, profile, ExperimentConfig(
        seed=2, store=StoreConfig(), duration_hours=0.5, n_timeline=10_000,
        fanout=FanoutSettings(service=DistributionSpec("exponential", 5 * 60 * 1000.0),
                              concurrency_cap=1)))
    duration = round(0.5 * MICROS_PER_HOUR)
    kinds = []
    for pair in artifacts.tweet_log:
        producer_id, t = pair
        commits = commit_times.get(pair, [])
        followers = network.followers[producer_id]
        if not followers:
            kind, expected = "no followers", 0
        elif len(commits) == len(followers):
            kind, expected = "finished", max(commits) - t
        else:
            kind, expected = "unfinished", duration - t
        assert artifacts.fanout_completion_us[pair] == expected, (kind, pair)
        kinds.append(kind)
    assert {"no followers", "finished", "unfinished"} <= set(kinds)
    assert len(artifacts.fanout_completion_us) == len(artifacts.tweet_log)
    assert artifacts.to_dict()["retries"] == artifacts.cas_failures > 0
    # trace_stats.json lists the fan-outs in tweet-log order, which is the
    # (t, producer_id) order, same-instant posts included.
    posted = artifacts.tweet_log
    assert len({t for _, t in posted}) < len(posted)
    listed = [(int(entry["producer_id"]), from_iso(entry["t"]))
              for entry in artifacts.to_dict()["fanout_completions"]]
    assert listed == posted == sorted(posted, key=lambda pair: (pair[1], pair[0]))


def test_log_files_roundtrip(tmp_path):
    network, artifacts = tiny_run(
        FanoutSettings(service=DistributionSpec("exponential", 50.0)),
        ("exponential", 800.0))
    tweet_path = tmp_path / "tweets.jsonl"
    resp_path = tmp_path / "responses.jsonl"
    save_tweet_log(tweet_path, artifacts.tweet_log)
    save_response_log(resp_path, artifacts.responses)
    assert load_tweet_log(tweet_path) == artifacts.tweet_log
    assert rows(load_response_log(resp_path)) == rows(artifacts.responses)


def test_loaded_log_holds_one_tuple_per_distinct_timeline(tmp_path):
    """Records that serve equal timelines share one tuple once loaded, as the
    run's responses shared the store's values."""
    _, artifacts = tiny_run(FanoutSettings(service=DistributionSpec("exponential", 30.0)),
                            ("exponential", 500.0))
    path = tmp_path / "responses.jsonl"
    save_response_log(path, artifacts.responses)
    log = load_response_log(path)
    assert rows(log) == rows(artifacts.responses)
    served = [entries for entries in log.entries if entries]
    assert len(set(served)) < len(served)  # equal non-empty timelines recur
    assert len({id(entries) for entries in served}) == len(set(served))


def test_log_wire_format_is_pinned(tmp_path):
    record = ConflictRecord(response_id=7, consumer_id=9, producer_id=1353955, t=32_256_647,
                            type=ConflictType.GAP, witness_response_id=3, gap_us=7_743_353)
    detection = DetectionResult(records=[record], total_count=1,
                                tweet_counts={}, query_counts={9: 1}, n_timeline=20,
                                analysis_window_fraction=0.5)
    cases = [
        (save_tweet_log, ([(4, 32_256_645), (1353955, 32_256_646), (1353955, 32_256_647)],),
         '{"producer_id": "4", "t": "2020-01-01T00:00:32.256645", "seq": 0}\n'
         '{"producer_id": "1353955", "t": "2020-01-01T00:00:32.256646", "seq": 1}\n'
         '{"producer_id": "1353955", "t": "2020-01-01T00:00:32.256647", "seq": 2}\n'),
        (save_response_log, (response_log([(9, 40_000_000, ((1353955, 32_256_647),)),
                                           (4, 40_000_001, ())]),),
         '{"response_id": 0, "consumer_id": "9", "T": "2020-01-01T00:00:40.000000", '
         '"entries": [{"producer_id": "1353955", "t": "2020-01-01T00:00:32.256647"}]}\n'
         '{"response_id": 1, "consumer_id": "4", "T": "2020-01-01T00:00:40.000001", '
         '"entries": []}\n'),
        (save_network_profile, (make_network({0: (0, 1)}, 2),
                                WorkloadProfile(producer_rate=np.array([0.75, 2.0]),
                                                consumer_rate=np.array([5.8]))),
         '{"c": 0, "p": [0, 1]}\n'
         '{"producer": 0, "rate_per_hour": 0.75}\n'
         '{"producer": 1, "rate_per_hour": 2.0}\n'
         '{"consumer": 0, "rate_per_hour": 5.8}\n'),
        (save_conflict_records, (detection,),
         '{"response_id": 7, "consumer_id": "9", "producer_id": "1353955", '
         '"t": "2020-01-01T00:00:32.256647", "type": "gap", "witness_response_id": 3, '
         '"G_seconds": 7.743353}\n'),
    ]
    for save, args, expected in cases:
        path = tmp_path / f"{save.__name__}.jsonl"
        save(path, *args)
        assert path.read_text() == expected, save.__name__


def json_line(response_id, consumer_id, T, entries):
    """The log line of the response at this position as json.dumps renders its record."""
    return json.dumps({
        "response_id": response_id, "consumer_id": str(consumer_id),
        "T": datetime_iso(T),
        "entries": [{"producer_id": str(pid), "t": datetime_iso(t)} for pid, t in entries],
    }) + "\n"


def json_lines(log):
    """The log lines of each response in log, as json_line renders them."""
    return [json_line(i, *response) for i, response in enumerate(rows(log))]


def test_response_log_equals_json_dumps_of_each_record(tmp_path):
    rng = np.random.default_rng(11)
    for seed in range(3):
        _, artifacts = tiny_run(
            FanoutSettings(service=DistributionSpec("exponential", float(rng.integers(1, 90_000)))),
            ("exponential", float(rng.integers(0, 5000))), seed=seed, hours=0.5)
        # Ids and times far from the run's: wide integers, days into the year.
        extra = [(int(rng.integers(0, 2**40)), int(rng.integers(0, 400 * 86_400_000_000)),
                  tuple((int(rng.integers(0, 2**40)), int(rng.integers(0, 400 * 86_400_000_000)))
                        for _ in range(int(rng.integers(0, 4)))))
                 for _ in range(50)]
        # One entries tuple served twice, an equal copy of it, and empty ones.
        shared = ((7, 86_400_000_001), (3, 5))
        copy = tuple(list(shared))
        assert copy == shared and copy is not shared
        reused = [(i, i, entries) for i, entries in enumerate((shared, (), shared, copy, ()))]
        responses = response_log([*rows(artifacts.responses), *extra, *reused])
        assert not all(responses.entries) and any(responses.entries)
        path = tmp_path / f"responses{seed}.jsonl"
        save_response_log(path, responses)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        expected = json_lines(responses)
        assert len(lines) == len(expected)
        assert [i for i, (got, want) in enumerate(zip(lines, expected)) if got != want] == []


def test_response_log_across_chunks_equals_json_dumps(tmp_path):
    """A log of more than one chunk, whose entries tuples recur across chunk boundaries."""
    rng = np.random.default_rng(12)
    day = 86_400_000_000
    timelines = [tuple((int(rng.integers(0, 2**40)), int(rng.integers(-day, 400 * day)))
                       for _ in range(int(rng.integers(0, 6))))
                 for _ in range(40)]
    n = 2 * app_module.RESPONSE_LOG_CHUNK + 77
    Ts = np.sort(rng.integers(-day, 400 * day, size=n)).tolist()
    responses = response_log(
        (int(rng.integers(0, 2**40)), T, timelines[int(rng.integers(0, len(timelines)))])
        for T in Ts)
    path = tmp_path / "responses.jsonl"
    save_response_log(path, responses)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    expected = json_lines(responses)
    assert len(lines) == len(expected) == n
    assert [i for i, (got, want) in enumerate(zip(lines, expected)) if got != want] == []
    assert rows(load_response_log(path)) == rows(responses)


@pytest.mark.parametrize("chunk", [1024, 2])
def test_response_log_writes_only_the_responses_appended(tmp_path, chunk):
    """A log allocated for more responses than it received: its unfilled
    slots are not responses, in one chunk or across several."""
    log = ResponseLog(5)
    for i in range(3):
        log.append(7 + i, 20 + i, ((1, 10),))
    path = tmp_path / "responses.jsonl"
    with patch.object(app_module, "RESPONSE_LOG_CHUNK", chunk):
        save_response_log(path, log)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == 3 and lines == json_lines(log)


DAY_US = 86_400_000_000
LOGGED_RESPONSES = st.tuples(
    st.integers(0, 2**40),
    st.integers(-DAY_US, 400 * DAY_US),
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(-DAY_US, 400 * DAY_US)),
             max_size=3).map(tuple))


@settings(max_examples=60, deadline=None)
@given(st.lists(LOGGED_RESPONSES, min_size=1, max_size=12), st.integers(1, 5), st.data())
def test_response_log_ids_are_positions(tmp_path_factory, responses, chunk, data):
    """A response log round-trips, chunk boundaries included, and a record whose
    response_id is not its position is rejected naming its line."""
    path = tmp_path_factory.mktemp("responses") / "responses.jsonl"
    responses = response_log(responses)
    with patch.object(app_module, "RESPONSE_LOG_CHUNK", chunk):
        save_response_log(path, responses)
    assert rows(load_response_log(path)) == rows(responses)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    position = data.draw(st.integers(0, len(lines) - 1))
    wrong = data.draw(st.integers(-2**40, 2**40).filter(lambda id_: id_ != position))
    prefix = f'{{"response_id": {position}, '
    assert lines[position].startswith(prefix)
    lines[position] = f'{{"response_id": {wrong}, ' + lines[position][len(prefix):]
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(IntegrityError) as raised:
        load_response_log(path)
    assert str(raised.value) == (f"{path}:{position + 1}: corrupt record: ValueError: "
                                 f"response_id {wrong} is not the record's position {position}")



# A few timelines, so that responses drawn from them reuse one across chunk
# boundaries and often serve one for the last time on a chunk's first or last line.
TIMELINE_POOLS = st.lists(
    st.lists(st.tuples(st.integers(0, 2**40), st.integers(-DAY_US, 400 * DAY_US)),
             max_size=3).map(tuple),
    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(TIMELINE_POOLS, st.integers(1, 5), st.data())
def test_response_log_of_shared_timelines_equals_json_dumps(tmp_path_factory, pool, chunk, data):
    """Responses that share entries tuples, the same object or an equal copy,
    write what json.dumps writes at any chunk size."""
    drawn = data.draw(st.lists(st.tuples(st.integers(0, 2**40),
                                         st.integers(-DAY_US, 400 * DAY_US),
                                         st.sampled_from(pool), st.booleans()),
                               max_size=16))
    responses = response_log(
        (consumer_id, T, tuple(list(entries)) if copy else entries)
        for consumer_id, T, entries, copy in drawn)
    path = tmp_path_factory.mktemp("responses") / "responses.jsonl"
    with patch.object(app_module, "RESPONSE_LOG_CHUNK", chunk):
        save_response_log(path, responses)
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == json_lines(responses)


def test_response_log_writer_holds_about_one_chunk_of_timelines(tmp_path):
    # Six chunks of 256 lines; each chunk serves its own 64 timelines four
    # times each, and every timeline is 100 entries long. Rendering every
    # timeline before the first line holds all six chunks' tails.
    chunk, n_chunks, per_chunk = 256, 6, 64
    rng = np.random.default_rng(14)
    pool = list(zip(rng.integers(0, 2**40, 300).tolist(),
                    rng.integers(0, 400 * DAY_US, 300).tolist()))
    timelines = [tuple(pool[i] for i in rng.choice(len(pool), 100, replace=False).tolist())
                 for _ in range(n_chunks * per_chunk)]
    responses = response_log((i, i, timelines[i // chunk * per_chunk + i % per_chunk])
                             for i in range(n_chunks * chunk))
    # A tail is what a line writes after its header.
    tails = [len(json_line(0, 0, 0, entries).split('"entries": [')[1])
             for entries in timelines]
    chunk_tails = max(sum(tails[c * per_chunk:(c + 1) * per_chunk]) for c in range(n_chunks))
    path = tmp_path / "responses.jsonl"
    with patch.object(app_module, "RESPONSE_LOG_CHUNK", chunk):
        # A first call makes numpy's one-time allocations outside the trace.
        save_response_log(path, response_log(rows(responses)[:1]))
        tracemalloc.start()
        try:
            save_response_log(path, responses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == json_lines(responses)
    # Under the bound: one chunk's tails, the 64 KiB write buffer, one
    # chunk's timestamps and the slot arrays.
    assert peak < 2 * chunk_tails, (peak, chunk_tails)

def test_load_tweet_log_rejects_corrupt(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text('{"producer_id": "0", "t": "2020-01-01T00:00:00.000000", "seq": 0}\n'
                    "garbage\n")
    with pytest.raises(ValueError):
        load_tweet_log(path)


def test_fanout_settings_validation():
    with pytest.raises(ValueError):
        FanoutSettings(mode="detached")
    with pytest.raises(ValueError):
        FanoutSettings(concurrency_cap=0)
