import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedsim.app import FanoutSettings, ResponseLog, load_response_log, save_response_log
from feedsim.detect import (
    ConflictRecord,
    ConflictType,
    DetectionResult,
    IntegrityError,
    TweetIndex,
    build_witness_index,
    classify,
    consistent_timeline,
    detect_all,
    find_missing,
    load_conflict_records,
    load_detection,
    save_conflict_records,
)
from feedsim.netgen import WorkloadProfile
from feedsim.sim import DistributionSpec, write_json
from feedsim.store import StoreConfig
from oracles import (
    brute_force_conflicts,
    brute_timeline,
    detector_conflict_set,
    make_network,
    random_instance,
    response_log,
    rows,
    witness_triples,
)

SEC = 1_000_000


def two_user_scenario():
    """One producer, five tweets A..E; two followers with diverging views."""
    tweets = [(0, (i + 1) * 10 * SEC) for i in range(5)]  # A..E
    A, B, C, D, E = tweets
    network = make_network({0: (0,), 1: (0,)}, 1)
    r_gap = (0, 45 * SEC, (D, C, A))   # missing B mid-stream
    r_head = (1, 47 * SEC, (C, B, A))  # missing newest D
    return tweets, network, response_log([r_gap, r_head]), (A, B, C, D, E)


def test_consistent_timeline_five_tweet_window():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    oracle = consistent_timeline(TweetIndex(tweets, network).feeds, 0, 45 * SEC, 4)
    assert oracle == (D, C, B, A)


def test_consistent_timeline_before_any_tweet_is_empty():
    tweets, network, _, _ = two_user_scenario()
    feeds = TweetIndex(tweets, network).feeds
    assert consistent_timeline(feeds, 0, 5 * SEC, 4) == ()


def test_consistent_timeline_unknown_consumer():
    tweets, network, _, _ = two_user_scenario()
    with pytest.raises(ValueError):
        consistent_timeline(TweetIndex(tweets, network).feeds, 7, 45 * SEC, 4)


def test_consistent_timeline_matches_bruteforce_merge():
    rng = np.random.default_rng(0)
    for _ in range(50):
        responses, tweets, network, n = random_instance(rng)
        feeds = TweetIndex(tweets, network).feeds
        for consumer in network.follows:
            T = int(rng.integers(0, 100))
            ours = consistent_timeline(feeds, consumer, T, n)
            brute = brute_timeline(consumer, T, tweets, network, n)
            assert ours == tuple(brute)


def test_find_missing_positions():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    (_, gap_T, gap_entries), (_, head_T, head_entries) = rows(responses)
    index = TweetIndex(tweets, network)
    oracle_gap = consistent_timeline(index.feeds, 0, gap_T, 4)
    index.check(0, 0, gap_T, gap_entries)
    assert find_missing(index, gap_entries, oracle_gap) == [(B, ConflictType.GAP)]
    oracle_head = consistent_timeline(index.feeds, 1, head_T, 4)
    index.check(1, 1, head_T, head_entries)
    assert find_missing(index, head_entries, oracle_head) == \
           [(D, ConflictType.NEWER_EARLIER)]


def test_find_missing_exact_match_is_empty():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets, network)
    entries = (D, C, B, A)
    oracle = consistent_timeline(index.feeds, 0, 45 * SEC, 4)
    index.check(9, 0, 45 * SEC, entries)
    assert find_missing(index, entries, oracle) == []


def test_phantom_entry_raises_integrity_error():
    tweets, network, _, _ = two_user_scenario()
    index = TweetIndex(tweets, network)
    with pytest.raises(IntegrityError, match="phantom"):
        index.check(0, 0, 45 * SEC, ((0, 123456),))


def test_future_entry_raises_integrity_error():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets, network)
    with pytest.raises(IntegrityError, match="future"):
        index.check(0, 0, 15 * SEC, (C,))


def test_unfollowed_producer_entry_raises_integrity_error():
    network = make_network({0: (0,), 1: (1,)}, 2)
    index = TweetIndex([(0, 10), (1, 20)], network)
    index.check(1, 1, 30, ((1, 20),))
    with pytest.raises(IntegrityError, match=r"response 4 contains an unfollowed producer's "
                                             r"tweet \(1, 20\)"):
        index.check(4, 0, 30, ((1, 20), (0, 10)))


def test_tweet_index_rejects_duplicate_identity_and_disorder():
    network = make_network({0: (0, 1)}, 2)
    with pytest.raises(IntegrityError, match="seq 1 repeats the identity"):
        TweetIndex([(0, 10), (0, 10)], network)
    with pytest.raises(IntegrityError, match="not strictly ordered at seq 1"):
        TweetIndex([(0, 20), (1, 10)], network)
    with pytest.raises(IntegrityError, match="seq 1 names unknown producer 2"):
        TweetIndex([(0, 10), (2, 20)], network)


def test_witness_index_shapes():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    triples = rows(responses)
    (_, T0, _), (_, T1, _) = triples
    assert build_witness_index([]).containments == {}
    index = build_witness_index(witness_triples([(0, triples[0])]))
    assert len(index.containments) == 3
    assert index.containments[D] == (T0, 0)
    assert B not in index.containments
    # each key keeps its first sighting: C and A stay with response 0
    first = (T0, 0)
    assert build_witness_index(witness_triples(enumerate(triples))).containments == \
        {D: first, C: first, A: first, B: (T1, 1)}


def test_witness_index_matches_linear_scan():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(20):
        responses, tweets, network, n = random_instance(rng)
        triples = rows(responses)
        index = build_witness_index(witness_triples(enumerate(triples)))
        served = {pair for _, _, entries in triples for pair in entries}
        assert index.containments.keys() == served
        for pair in served:
            scan = [(T, i) for i, (_, T, entries) in enumerate(triples) if pair in entries]
            assert index.containments[pair] == min(scan)
            checked += 1
    assert checked > 0


def test_tweet_index_views_equal_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        responses, tweets, network, n = random_instance(rng)
        index = TweetIndex(tweets, network)
        assert index.rank == {key: seq for seq, key in enumerate(tweets)}
        assert index.feeds.keys() == network.follows.keys()
        for consumer, producers in network.follows.items():
            followed = [(pid, t) for pid, t in tweets if pid in producers]
            assert index.feeds[consumer] == tuple(followed)
        assert index.tweet_counts == dict(Counter(pid for pid, _ in tweets))


def test_detection_totals_roundtrip_on_random_instances(tmp_path):
    rng = np.random.default_rng(3)
    records_path, totals_path = tmp_path / "conflicts.jsonl", tmp_path / "totals.json"
    records = 0
    for _ in range(50):
        responses, tweets, network, n = random_instance(rng)
        fraction = float(rng.choice([1.0, 0.6, 0.3]))
        result = detect_all(responses, TweetIndex(tweets, network), n_timeline=n,
                            analysis_window_fraction=fraction)
        save_conflict_records(records_path, result)
        write_json(totals_path, result.to_dict(), sort_keys=True)
        loaded = load_detection(records_path, totals_path, network, tmp_path / "network.jsonl")
        assert loaded == result
        assert loaded.to_dict() == result.to_dict()
        records += len(result.records)
    assert records > 0


def test_two_user_scenario_classification():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    result = detect_all(responses, TweetIndex(tweets, network), n_timeline=4,
                        analysis_window_fraction=1.0)
    assert len(result.records) == 2
    by_response = {r.response_id: r for r in result.records}
    gap = by_response[0]
    assert gap.type is ConflictType.GAP
    assert (gap.producer_id, gap.t) == B
    assert gap.witness_response_id == 1
    assert gap.gap_us == 45 * SEC - B[1]
    head = by_response[1]
    assert head.type is ConflictType.NEWER_EARLIER
    assert (head.producer_id, head.t) == D
    assert head.witness_response_id == 0
    assert result.per_response_G == {0: 25 * SEC, 1: 7 * SEC}


def test_head_missing_needs_strictly_earlier_witness():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets, network)
    flagged = (1, 45 * SEC, (C, B, A))
    consumer_id, T, entries = flagged
    same_time_witness = (0, 45 * SEC, (D, C, B, A))
    witness_index = build_witness_index(witness_triples(enumerate([same_time_witness, flagged])))
    oracle = consistent_timeline(index.feeds, 1, T, 4)
    index.check(1, *flagged)
    [(key, position)] = find_missing(index, entries, oracle)
    assert position is ConflictType.NEWER_EARLIER
    assert classify(1, consumer_id, T, key, position, witness_index) is None


def test_tail_missing_is_never_observable():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets, network)
    T, entries = 45 * SEC, (D, C, B)
    oracle = consistent_timeline(index.feeds, 1, T, 4)
    index.check(1, 1, T, entries)
    assert find_missing(index, entries, oracle) == []


def test_unwitnessed_interior_gap_is_not_observable():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets, network)
    flagged = (0, 45 * SEC, (D, C, A))
    consumer_id, T, entries = flagged
    oracle = consistent_timeline(index.feeds, 0, T, 4)
    index.check(0, *flagged)
    [(key, position)] = find_missing(index, entries, oracle)
    witness_index = build_witness_index(witness_triples([(0, flagged)]))
    assert classify(0, consumer_id, T, key, position, witness_index) is None


def test_classify_rejects_non_positive_gap():
    tweets = [(0, 5), (0, 10), (1, 10)]
    network = make_network({0: (0, 1), 1: (0, 1)}, 2)
    index = TweetIndex(tweets, network)
    missing = (0, 10)
    assert missing in index.rank
    flagged = (0, 10, ((1, 10), (0, 5)))
    witness = (1, 10, ((0, 10),))
    witness_index = build_witness_index(witness_triples(enumerate([witness, flagged])))
    with pytest.raises(IntegrityError, match="non-positive gap for response 1"):
        classify(1, 0, 10, missing, ConflictType.GAP, witness_index)


def result_of(records):
    return DetectionResult(records, total_count=1,
                           tweet_counts={}, query_counts={0: 1}, n_timeline=4,
                           analysis_window_fraction=1.0)


def test_inconsistency_time_gap_values():
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, TweetIndex(tweets, network), n_timeline=4,
                        analysis_window_fraction=1.0)
    own = [r for r in result.records if r.response_id == 0]
    assert result_of(own).per_response_G == {0: 25 * SEC}
    assert result_of([]).per_response_G == {}


def test_sixteen_minute_gap():
    t = 16 * 60 * SEC
    record = ConflictRecord(0, 0, 0, 100, ConflictType.NEWER_EARLIER, 1, t)
    assert result_of([record]).per_response_G == {0: 960 * SEC}


def test_gap_is_max_over_missing():
    T = 1000 * SEC
    records = [ConflictRecord(r, 0, 0, T - d, ConflictType.GAP, 1, d)
               for r, d in ((4, 10 * SEC), (2, 30 * SEC), (4, 200 * SEC), (4, 50 * SEC))]
    result = result_of(records)
    assert list(result.per_response_G.items()) == [(4, 200 * SEC), (2, 30 * SEC)]
    assert result.conflicting_count == 2


def test_detect_all_reads_only_the_responses_a_log_holds():
    """A log allocated for more responses than it received: its unfilled
    slots are not responses."""
    network = make_network({0: (0,)}, 1)
    served = [(0, 20, ((0, 10),)), (0, 30, ())]
    log = ResponseLog(4)
    for response in served:
        log.append(*response)

    def detected(responses):
        return detect_all(responses, TweetIndex([(0, 10)], network), n_timeline=4,
                          analysis_window_fraction=0.5).to_dict()

    assert detected(log) == detected(response_log(served))
    assert detected(log)["analyzed_responses"] == 1


def test_detect_all_window_selects_latter_fraction():
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, TweetIndex(tweets, network), n_timeline=4,
                        analysis_window_fraction=0.5)
    assert result.analyzed_count == 1
    assert result.analyzed_start_id == 1
    # the witness corpus shrank with the window: nothing left to witness
    assert result.records == []


def test_detect_all_empty_window_still_validates_warm_up():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    result = detect_all(responses, TweetIndex(tweets, network), n_timeline=4,
                        analysis_window_fraction=0.1)
    assert result.total_count == 2
    assert result.analyzed_count == 0
    assert result.analyzed_start_id == -1
    assert result.records == []
    assert result.per_response_G == {}
    assert result.query_counts == {}
    phantom = (0, 45 * SEC, (D, (0, 35 * SEC), A))
    with pytest.raises(IntegrityError, match="phantom"):
        detect_all(response_log([phantom, rows(responses)[1]]), TweetIndex(tweets, network),
                   n_timeline=4, analysis_window_fraction=0.1)


def test_detect_all_rejects_disordered_or_duplicate_responses(tmp_path):
    tweets, network, responses, _ = two_user_scenario()
    first, second = rows(responses)
    swapped = response_log([second, first])
    with pytest.raises(IntegrityError, match="response 1 is timestamped before"):
        detect_all(swapped, TweetIndex(tweets, network), n_timeline=4,
                   analysis_window_fraction=0.5)
    # A response's id is its position, so the log loader rejects a repeated
    # or a decreasing id, naming its line.
    path = tmp_path / "responses.jsonl"
    save_response_log(path, responses)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for ids, message in (((0, 0), ":2: corrupt record: ValueError: response_id 0 is not the "
                                  "record's position 1"),
                         ((1, 0), ":1: corrupt record: ValueError: response_id 1 is not the "
                                  "record's position 0")):
        for record, response_id in zip(records, ids):
            record["response_id"] = response_id
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        with pytest.raises(IntegrityError) as raised:
            load_response_log(path)
        assert str(raised.value) == f"{path}{message}"


def test_detect_zero_lag_synchronous_run_finds_nothing():
    from feedsim.app import run_experiment
    from feedsim.config import ExperimentConfig

    network = make_network(
        {c: tuple(sorted(np.random.default_rng(c).choice(8, 3, replace=False).tolist()))
         for c in range(20)}, 8)
    profile = WorkloadProfile(producer_rate=np.full(8, 8.0),
                              consumer_rate=np.full(20, 40.0))
    artifacts = run_experiment(network, profile, ExperimentConfig(
        seed=3, store=StoreConfig(lag=DistributionSpec("constant", 0.0)),
        fanout=FanoutSettings(mode="synchronous"), duration_hours=1.0, n_timeline=5))
    result = detect_all(artifacts.responses, TweetIndex(artifacts.tweet_log, network),
                        n_timeline=5, analysis_window_fraction=1.0)
    assert result.records == []


def oracle_heavy_instance(rng: np.random.Generator):
    """A corpus whose responses mostly serve exactly their oracle.

    Tweets fall on a few even instants, so same-t tweets of different
    producers are common; their seqs are drawn in random order, so the
    global order at a tie is not the producer order. Responses sit on odd
    instants and are one of: the oracle; the oracle with one entry dropped
    and the next older tweet moved up, as a store view missing one write
    shows it; or a stale view, the oracle at an earlier instant.
    """
    n_producers = int(rng.integers(1, 7))
    n_consumers = int(rng.integers(1, 9))
    n_timeline = int(rng.integers(2, 6))
    follows = {c: tuple(rng.choice(n_producers, size=int(rng.integers(1, n_producers + 1)),
                                   replace=False).tolist())
               for c in range(n_consumers)}
    network = make_network(follows, n_producers)
    raw = sorted((2 * int(t), rng.random(), p) for p in range(n_producers)
                 for t in rng.choice(10, size=int(rng.integers(0, 8)), replace=False))
    tweets = [(p, t) for t, _, p in raw]

    def view(consumer, T, n):
        return brute_timeline(consumer, T, tweets, network, n)

    responses = ResponseLog()
    for T in sorted(2 * rng.integers(0, 11, size=int(rng.integers(0, 40))) + 1):
        consumer, style = int(rng.integers(0, n_consumers)), rng.random()
        if style < 0.6:
            entries = view(consumer, T, n_timeline)
        elif style < 0.85:
            entries = view(consumer, T, n_timeline + 1)
            if entries:
                del entries[int(rng.integers(0, len(entries)))]
            entries = entries[:n_timeline]
        else:
            entries = view(consumer, int(rng.integers(0, T + 1)), n_timeline)
        responses.append(consumer, int(T), tuple(entries))
    return responses, tweets, network, n_timeline


def test_detector_fast_paths_equal_bruteforce():
    """Exact-match skips, the feed index and lazy witnesses against the references."""
    rng = np.random.default_rng(11)
    exact = 0
    seen_types = set()
    for _ in range(150):
        responses, tweets, network, n = oracle_heavy_instance(rng)
        fraction = float(rng.choice([1.0, 0.6, 0.3]))
        result = detect_all(responses, TweetIndex(tweets, network), n_timeline=n,
                            analysis_window_fraction=fraction)
        triples = rows(responses)
        assert detector_conflict_set(result) == \
            brute_force_conflicts(triples, tweets, network, n, fraction)
        analyzed = list(enumerate(triples))[result.total_count - result.analyzed_count:]
        for record in result.records:
            pair = (record.producer_id, record.t)
            earliest = min((T, i) for i, (_, T, entries) in analyzed if pair in entries)
            assert record.witness_response_id == earliest[1]
            seen_types.add(record.type)
        for _, (consumer_id, T, entries) in analyzed:
            oracle = brute_timeline(consumer_id, T, tweets, network, n)
            exact += list(entries) == oracle
    assert exact > 1000
    assert seen_types == set(ConflictType)


def test_detector_equals_bruteforce_on_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        responses, tweets, network, n = random_instance(rng)
        fraction = 1.0 if rng.random() < 0.7 else 0.6
        result = detect_all(responses, TweetIndex(tweets, network), n_timeline=n,
                            analysis_window_fraction=fraction)
        brute = brute_force_conflicts(rows(responses), tweets, network, n, fraction)
        assert detector_conflict_set(result) == brute
        checked += len(brute)
    assert checked > 0


def test_records_are_sound_by_direct_scan():
    rng = np.random.default_rng(8)
    total = 0
    for _ in range(30):
        responses, tweets, network, n = random_instance(rng)
        result = detect_all(responses, TweetIndex(tweets, network), n_timeline=n,
                            analysis_window_fraction=1.0)
        triples = rows(responses)
        for record in result.records:
            consumer_id, T, entries = triples[record.response_id]
            witness_entries = triples[record.witness_response_id][2]
            pair = (record.producer_id, record.t)
            assert pair in set(witness_entries)
            assert pair not in set(entries)
            assert record.gap_us == T - record.t > 0
            assert record.producer_id in network.follows[consumer_id]
            total += 1
    assert total > 0


def test_observable_subset_of_missing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        responses, tweets, network, n = random_instance(rng)
        result = detect_all(responses, TweetIndex(tweets, network), n_timeline=n,
                            analysis_window_fraction=1.0)
        index = TweetIndex(tweets, network)
        feeds = index.feeds
        per_response_records = {}
        for record in result.records:
            per_response_records[record.response_id] = \
                per_response_records.get(record.response_id, 0) + 1
        for response_id, (consumer_id, T, entries) in enumerate(rows(responses)):
            oracle = consistent_timeline(feeds, consumer_id, T, n)
            index.check(response_id, consumer_id, T, entries)
            missing = find_missing(index, entries, oracle)
            assert per_response_records.get(response_id, 0) <= len(missing)


def test_enlarging_witness_corpus_never_removes_conflicts():
    rng = np.random.default_rng(10)
    for _ in range(20):
        responses, tweets, network, n = random_instance(rng)
        if len(responses) < 4:
            continue
        index = TweetIndex(tweets, network)
        feeds = index.feeds
        triples = rows(responses)
        later = list(enumerate(triples))[len(triples) // 2:]
        half = build_witness_index(witness_triples(later))
        full = build_witness_index(witness_triples(enumerate(triples)))

        def records_with(witness_index):
            found = set()
            for response_id, (consumer_id, T, entries) in later:
                oracle = consistent_timeline(feeds, consumer_id, T, n)
                index.check(response_id, consumer_id, T, entries)
                for key, position in find_missing(index, entries, oracle):
                    record = classify(response_id, consumer_id, T, key, position, witness_index)
                    if record is not None:
                        found.add((record.response_id, record.producer_id,
                                   record.t, record.type.value))
            return found

        assert records_with(half) <= records_with(full)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_wider_window_keeps_every_conflict(seed, f, g):
    """Over the same logs, the conflicts found at a window fraction are a subset
    of those found at a larger one: a wider window analyzes every response the
    narrower one does and only adds witnesses, all of them earlier."""
    narrow, wide = sorted((f, g))
    responses, tweets, network, n = random_instance(np.random.default_rng(seed))
    found = [detector_conflict_set(detect_all(responses, TweetIndex(tweets, network),
                                              n_timeline=n, analysis_window_fraction=fraction))
             for fraction in (narrow, wide)]
    assert found[0] <= found[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_relabelling_consumers_relabels_only_the_consumers(seed, data):
    """Renaming the consumers through a permutation, in the network and in the
    log's consumer column, renames them in the records and the query counts and
    changes nothing else: not the records' order, the tweet counts or any count."""
    responses, tweets, network, n = random_instance(np.random.default_rng(seed))
    relabel = data.draw(st.permutations(range(network.n_consumers)))
    renamed_network = make_network({relabel[c]: producers
                                    for c, producers in network.follows.items()},
                                   network.n_producers)
    renamed = response_log((relabel[consumer_id], T, entries)
                           for consumer_id, T, entries in rows(responses))
    for fraction in (0.25, 0.5, 1.0):
        found, found_renamed = (
            detect_all(log, TweetIndex(tweets, net), n_timeline=n,
                       analysis_window_fraction=fraction)
            for log, net in ((responses, network), (renamed, renamed_network)))
        assert found_renamed == replace(
            found, records=[replace(record, consumer_id=relabel[record.consumer_id])
                            for record in found.records],
            query_counts={relabel[c]: count for c, count in found.query_counts.items()})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dropping_one_of_several_served_tweets_adds_at_most_that_tweet(seed):
    """Dropping one entry from a response that serves two or more adds at most
    that tweet to find_missing's keys. An entry stays, so the oldest served rank
    can only rise, and a tweet older than everything served before stays older
    than everything served after."""
    responses, tweets, network, n = random_instance(np.random.default_rng(seed))
    index = TweetIndex(tweets, network)
    for consumer_id, T, entries in rows(responses):
        if len(entries) < 2:
            continue
        oracle = consistent_timeline(index.feeds, consumer_id, T, n)
        before = {key for key, _ in find_missing(index, entries, oracle)}
        for i, dropped in enumerate(entries):
            after = find_missing(index, entries[:i] + entries[i + 1:], oracle)
            assert {key for key, _ in after} <= before | {dropped}


def test_dropping_the_only_served_tweet_can_add_an_older_one():
    """The drop relation needs two served entries. Serving (0, 10) alone misses
    nothing, since (0, 5) is older than everything served; serving nothing
    makes both tweets newer_earlier."""
    index = TweetIndex([(0, 5), (0, 10)], make_network({0: (0,)}, 1))
    oracle = consistent_timeline(index.feeds, 0, 20, 4)
    assert find_missing(index, ((0, 10),), oracle) == []
    assert find_missing(index, (), oracle) == [((0, 10), ConflictType.NEWER_EARLIER),
                                               ((0, 5), ConflictType.NEWER_EARLIER)]


def test_detection_result_files_roundtrip(tmp_path):
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, TweetIndex(tweets, network), n_timeline=4,
                        analysis_window_fraction=1.0)
    records_path = tmp_path / "conflicts.jsonl"
    totals_path = tmp_path / "totals.json"
    save_conflict_records(records_path, result)
    write_json(totals_path, result.to_dict(), sort_keys=True)
    assert load_conflict_records(records_path) == result.records
    loaded = load_detection(records_path, totals_path, network, tmp_path / "network.jsonl")
    assert loaded == result
    assert loaded.per_response_G == result.per_response_G == {0: 25 * SEC, 1: 7 * SEC}


def test_load_conflict_records_rejects_corrupt(tmp_path):
    path = tmp_path / "conflicts.jsonl"
    path.write_text("{}\n")
    with pytest.raises(IntegrityError):
        load_conflict_records(path)
