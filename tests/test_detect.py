import numpy as np
import pytest

from feedsim.app import FanoutSettings, TimelineResponse, TweetEvent
from feedsim.detect import (
    ConflictType,
    IntegrityError,
    Position,
    TweetIndex,
    build_witness_index,
    classify,
    consistent_timeline,
    detect_all,
    find_missing,
    inconsistency_time_gap,
    load_conflict_records,
    load_detection,
    save_conflict_records,
    save_detection_totals,
)
from feedsim.netgen import WorkloadProfile
from feedsim.sim import DistributionSpec
from feedsim.store import StoreConfig
from oracles import (
    brute_force_conflicts,
    brute_timeline,
    detector_conflict_set,
    make_network,
    random_instance,
)

SEC = 1_000_000


def two_user_scenario():
    """One producer, five tweets A..E; two followers with diverging views."""
    tweets = [TweetEvent(0, (i + 1) * 10 * SEC, i) for i in range(5)]  # A..E
    A, B, C, D, E = [(0, tw.t) for tw in tweets]
    network = make_network({0: (0,), 1: (0,)}, 1)
    r_gap = TimelineResponse(response_id=0, consumer_id=0, T=45 * SEC,
                             entries=(D, C, A))          # missing B mid-stream
    r_head = TimelineResponse(response_id=1, consumer_id=1, T=47 * SEC,
                              entries=(C, B, A))         # missing newest D
    return tweets, network, [r_gap, r_head], (A, B, C, D, E)


def test_consistent_timeline_five_tweet_window():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    oracle = consistent_timeline(0, 45 * SEC, TweetIndex(tweets), network, 4)
    assert [(pid, t) for t, _, pid in oracle] == [D, C, B, A]


def test_consistent_timeline_before_any_tweet_is_empty():
    tweets, network, _, _ = two_user_scenario()
    assert consistent_timeline(0, 5 * SEC, TweetIndex(tweets), network, 4) == []


def test_consistent_timeline_unknown_consumer():
    tweets, network, _, _ = two_user_scenario()
    with pytest.raises(ValueError):
        consistent_timeline(7, 45 * SEC, TweetIndex(tweets), network, 4)


def test_consistent_timeline_matches_bruteforce_merge():
    rng = np.random.default_rng(0)
    for _ in range(50):
        responses, tweets, network, n = random_instance(rng)
        index = TweetIndex(tweets)
        for consumer in network.follows:
            T = int(rng.integers(0, 100))
            ours = consistent_timeline(consumer, T, index, network, n)
            brute = brute_timeline(consumer, T, tweets, network, n)
            assert ours == [(tw.t, tw.seq, tw.producer_id) for tw in brute]


def test_find_missing_positions():
    tweets, network, (r_gap, r_head), (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets)
    oracle_gap = consistent_timeline(0, r_gap.T, index, network, 4)
    missing = find_missing(index.served(r_gap), oracle_gap)
    assert [(pid, t, pos) for (t, _, pid), pos in missing] == \
           [(B[0], B[1], Position.INTERIOR)]
    oracle_head = consistent_timeline(1, r_head.T, index, network, 4)
    missing = find_missing(index.served(r_head), oracle_head)
    assert [(pid, t, pos) for (t, _, pid), pos in missing] == \
           [(D[0], D[1], Position.HEAD)]


def test_find_missing_exact_match_is_empty():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets)
    response = TimelineResponse(response_id=9, consumer_id=0, T=45 * SEC,
                                entries=(D, C, B, A))
    oracle = consistent_timeline(0, 45 * SEC, index, network, 4)
    assert find_missing(index.served(response), oracle) == []


def test_phantom_entry_raises_integrity_error():
    tweets, _, _, _ = two_user_scenario()
    index = TweetIndex(tweets)
    response = TimelineResponse(response_id=0, consumer_id=0, T=45 * SEC,
                                entries=((0, 123456),))
    with pytest.raises(IntegrityError, match="phantom"):
        index.served(response)


def test_future_entry_raises_integrity_error():
    tweets, _, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets)
    response = TimelineResponse(response_id=0, consumer_id=0, T=15 * SEC, entries=(C,))
    with pytest.raises(IntegrityError, match="future"):
        index.served(response)


def test_tweet_index_rejects_duplicate_identity_and_disorder():
    with pytest.raises(IntegrityError):
        TweetIndex([TweetEvent(0, 10, 0), TweetEvent(0, 10, 1)])
    with pytest.raises(IntegrityError):
        TweetIndex([TweetEvent(0, 20, 0), TweetEvent(1, 10, 1)])


def test_witness_index_shapes():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    assert build_witness_index([]).containments == {}
    index = build_witness_index(responses[:1])
    assert len(index.containments) == 3
    assert index.containments[D] == (responses[0].T, 0)
    assert B not in index.containments


def test_witness_index_matches_linear_scan():
    rng = np.random.default_rng(1)
    responses, tweets, network, n = random_instance(rng)
    index = build_witness_index(responses)
    sample = tweets if len(tweets) <= 100 else \
        [tweets[i] for i in rng.choice(len(tweets), 100, replace=False)]
    for tw in sample:
        scan = sorted((r.T, r.response_id) for r in responses
                      if (tw.producer_id, tw.t) in set(r.entries))
        pair = (tw.producer_id, tw.t)
        if scan:
            assert index.containments[pair] == min(scan)
        else:
            assert pair not in index.containments


def test_two_user_scenario_classification():
    tweets, network, responses, (A, B, C, D, E) = two_user_scenario()
    result = detect_all(responses, tweets, network, n_timeline=4,
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
    index = TweetIndex(tweets)
    flagged = TimelineResponse(response_id=1, consumer_id=1, T=45 * SEC,
                               entries=(C, B, A))
    same_time_witness = TimelineResponse(response_id=0, consumer_id=0, T=45 * SEC,
                                         entries=(D, C, B, A))
    witness_index = build_witness_index([flagged, same_time_witness])
    oracle = consistent_timeline(1, flagged.T, index, network, 4)
    [(triple, position)] = find_missing(index.served(flagged), oracle)
    assert position is Position.HEAD
    assert classify(flagged, triple, position, witness_index) is None


def test_tail_missing_is_never_observable():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets)
    flagged = TimelineResponse(response_id=1, consumer_id=1, T=45 * SEC,
                               entries=(D, C, B))
    witness = TimelineResponse(response_id=0, consumer_id=0, T=41 * SEC,
                               entries=(D, C, B, A))
    oracle = consistent_timeline(1, flagged.T, index, network, 4)
    [(triple, position)] = find_missing(index.served(flagged), oracle)
    assert position is Position.TAIL
    witness_index = build_witness_index([witness, flagged])
    assert classify(flagged, triple, position, witness_index) is None


def test_unwitnessed_interior_gap_is_not_observable():
    tweets, network, _, (A, B, C, D, E) = two_user_scenario()
    index = TweetIndex(tweets)
    flagged = TimelineResponse(response_id=0, consumer_id=0, T=45 * SEC,
                               entries=(D, C, A))
    oracle = consistent_timeline(0, flagged.T, index, network, 4)
    [(triple, position)] = find_missing(index.served(flagged), oracle)
    witness_index = build_witness_index([flagged])
    assert classify(flagged, triple, position, witness_index) is None


def test_classify_rejects_non_positive_gap():
    tweets = [TweetEvent(0, 10, 0), TweetEvent(1, 10, 1), TweetEvent(0, 5, -1)]
    tweets.sort(key=lambda tw: (tw.t, tw.seq))
    tweets = [TweetEvent(tw.producer_id, tw.t, i) for i, tw in enumerate(tweets)]
    index = TweetIndex(tweets)
    network = make_network({0: (0, 1), 1: (0, 1)}, 2)
    missing = index.triple_by_key[(0, 10)]
    flagged = TimelineResponse(response_id=1, consumer_id=0, T=10,
                               entries=((1, 10), (0, 5)))
    witness = TimelineResponse(response_id=0, consumer_id=1, T=10, entries=((0, 10),))
    witness_index = build_witness_index([witness, flagged])
    with pytest.raises(IntegrityError):
        classify(flagged, missing, Position.INTERIOR, witness_index)


def test_inconsistency_time_gap_values():
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, tweets, network, n_timeline=4,
                        analysis_window_fraction=1.0)
    own = [r for r in result.records if r.response_id == 0]
    assert inconsistency_time_gap(responses[0], own) == 25 * SEC
    assert inconsistency_time_gap(responses[0], []) is None


def test_sixteen_minute_gap():
    t = 16 * 60 * SEC
    tweets = [TweetEvent(0, 100, 0)]
    response = TimelineResponse(response_id=0, consumer_id=0, T=100 + t, entries=())
    from feedsim.detect import ConflictRecord
    record = ConflictRecord(0, 0, 0, 100, ConflictType.NEWER_EARLIER, 1, t)
    assert inconsistency_time_gap(response, [record]) == 960 * SEC


def test_gap_is_max_over_missing():
    from feedsim.detect import ConflictRecord
    T = 1000 * SEC
    response = TimelineResponse(response_id=0, consumer_id=0, T=T, entries=())
    records = [ConflictRecord(0, 0, 0, T - d, ConflictType.GAP, 1, d)
               for d in (10 * SEC, 200 * SEC, 50 * SEC)]
    assert inconsistency_time_gap(response, records) == 200 * SEC


def test_detect_all_window_selects_latter_fraction():
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, tweets, network, n_timeline=4,
                        analysis_window_fraction=0.5)
    assert result.analyzed_count == 1
    assert result.analyzed_start_id == 1
    # the witness corpus shrank with the window: nothing left to witness
    assert result.records == []


def test_detect_all_rejects_disordered_or_duplicate_responses():
    tweets, network, responses, _ = two_user_scenario()
    swapped = [responses[1], responses[0]]
    with pytest.raises(IntegrityError):
        detect_all(swapped, tweets, network, n_timeline=4)
    dup = [responses[0],
           TimelineResponse(response_id=0, consumer_id=1, T=responses[1].T,
                            entries=responses[1].entries)]
    with pytest.raises(IntegrityError):
        detect_all(dup, tweets, network, n_timeline=4)


def test_detect_zero_lag_synchronous_run_finds_nothing():
    from feedsim.app import run_experiment

    network = make_network(
        {c: tuple(sorted(np.random.default_rng(c).choice(8, 3, replace=False).tolist()))
         for c in range(20)}, 8)
    profile = WorkloadProfile(producer_rate=np.full(8, 8.0),
                              consumer_rate=np.full(20, 40.0))
    artifacts = run_experiment(network, profile,
                               StoreConfig(lag=DistributionSpec("constant", 0.0)),
                               1.0, seed=3, fanout=FanoutSettings(mode="synchronous"),
                               n_timeline=5)
    result = detect_all(artifacts.responses, artifacts.tweet_log, network,
                        n_timeline=5, analysis_window_fraction=1.0)
    assert result.records == []


def test_detector_equals_bruteforce_on_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        responses, tweets, network, n = random_instance(rng)
        fraction = 1.0 if rng.random() < 0.7 else 0.6
        result = detect_all(responses, tweets, network, n_timeline=n,
                            analysis_window_fraction=fraction)
        brute = brute_force_conflicts(responses, tweets, network, n, fraction)
        assert detector_conflict_set(result) == brute
        checked += len(brute)
    assert checked > 0


def test_records_are_sound_by_direct_scan():
    rng = np.random.default_rng(8)
    total = 0
    for _ in range(30):
        responses, tweets, network, n = random_instance(rng)
        result = detect_all(responses, tweets, network, n_timeline=n,
                            analysis_window_fraction=1.0)
        by_id = {r.response_id: r for r in responses}
        for record in result.records:
            flagged = by_id[record.response_id]
            witness = by_id[record.witness_response_id]
            pair = (record.producer_id, record.t)
            assert pair in set(witness.entries)
            assert pair not in set(flagged.entries)
            assert record.gap_us == flagged.T - record.t > 0
            assert record.producer_id in network.follows[flagged.consumer_id]
            total += 1
    assert total > 0


def test_observable_subset_of_missing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        responses, tweets, network, n = random_instance(rng)
        result = detect_all(responses, tweets, network, n_timeline=n,
                            analysis_window_fraction=1.0)
        index = TweetIndex(tweets)
        per_response_records = {}
        for record in result.records:
            per_response_records[record.response_id] = \
                per_response_records.get(record.response_id, 0) + 1
        for response in responses:
            oracle = consistent_timeline(response.consumer_id, response.T, index,
                                         network, n)
            missing = find_missing(index.served(response), oracle)
            assert per_response_records.get(response.response_id, 0) <= len(missing)


def test_enlarging_witness_corpus_never_removes_conflicts():
    rng = np.random.default_rng(10)
    for _ in range(20):
        responses, tweets, network, n = random_instance(rng)
        if len(responses) < 4:
            continue
        index = TweetIndex(tweets)
        half = build_witness_index(responses[len(responses) // 2:])
        full = build_witness_index(responses)

        def records_with(witness_index):
            found = set()
            for response in responses[len(responses) // 2:]:
                oracle = consistent_timeline(response.consumer_id, response.T, index,
                                             network, n)
                for triple, position in find_missing(index.served(response), oracle):
                    record = classify(response, triple, position, witness_index)
                    if record is not None:
                        found.add((record.response_id, record.producer_id,
                                   record.t, record.type.value))
            return found

        assert records_with(half) <= records_with(full)


def test_detection_result_files_roundtrip(tmp_path):
    tweets, network, responses, _ = two_user_scenario()
    result = detect_all(responses, tweets, network, n_timeline=4,
                        analysis_window_fraction=1.0)
    records_path = tmp_path / "conflicts.jsonl"
    totals_path = tmp_path / "totals.json"
    save_conflict_records(records_path, result)
    save_detection_totals(totals_path, result)
    assert load_conflict_records(records_path) == result.records
    loaded = load_detection(records_path, totals_path)
    assert loaded.per_response_G == result.per_response_G
    assert loaded.analyzed_count == result.analyzed_count
    assert loaded.tweet_counts == result.tweet_counts
    assert loaded.query_counts == result.query_counts


def test_load_conflict_records_rejects_corrupt(tmp_path):
    path = tmp_path / "conflicts.jsonl"
    path.write_text("{}\n")
    with pytest.raises(IntegrityError):
        load_conflict_records(path)
