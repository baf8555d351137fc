import gc
import tracemalloc
from datetime import datetime, timedelta

import numpy as np
import pytest

from feedsim.sim import (
    EPOCH,
    MICROS_PER_MS,
    SAMPLE_BLOCK,
    DistributionSpec,
    EventKind,
    EventLoop,
    RngStreams,
    choice_sampler,
    from_iso,
    make_sampler,
    to_iso,
)
from oracles import ReferenceLoop, datetime_iso


def collecting_loop():
    loop = EventLoop()
    fired = []
    for kind in EventKind:
        loop.set_handler(kind, lambda payload: fired.append((loop.now(), payload)))
    return loop, fired


def at(loop, fire_at, kind=EventKind.TWEET_ARRIVAL, payload=None):
    return loop.schedule((fire_at, kind, payload))


def test_schedule_in_past_raises():
    loop, _ = collecting_loop()
    at(loop, 5)
    loop.run_until(5)
    with pytest.raises(ValueError):
        at(loop, 4)


def test_zero_delay_event_fires_before_later_events():
    loop, fired = collecting_loop()
    at(loop, 10, payload="late")
    at(loop, 0, payload="now")
    loop.run_until(10)
    assert [payload for _, payload in fired] == ["now", "late"]


def test_equal_fire_at_processed_in_seq_order():
    loop, fired = collecting_loop()
    a = at(loop, 7, EventKind.FANOUT_STEP, "first")
    b = at(loop, 7, EventKind.FANOUT_STEP, "second")
    assert a < b
    loop.run_until(7)
    assert [payload for _, payload in fired] == ["first", "second"]


def test_run_until_processes_due_events_and_advances_clock():
    loop, fired = collecting_loop()
    for t in (1, 2, 3):
        at(loop, t, EventKind.TIMELINE_QUERY, t)
    assert loop.run_until(2) == 2
    assert loop.now() == 2
    assert len(fired) == 2
    assert loop.run_until(10) == 1
    assert loop.now() == 10


def test_run_until_empty_queue():
    loop, _ = collecting_loop()
    assert loop.run_until(123) == 0
    assert loop.now() == 123
    with pytest.raises(ValueError):
        loop.run_until(100)


def test_events_scheduled_during_run_fire_in_same_run():
    loop = EventLoop()
    fired = []

    def chain(payload):
        fired.append((loop.now(), payload))
        if payload < 3:
            at(loop, loop.now(), EventKind.RETRY_WRITE, payload + 1)

    loop.set_handler(EventKind.RETRY_WRITE, chain)
    at(loop, 5, EventKind.RETRY_WRITE, 1)
    loop.run_until(5)
    assert fired == [(5, 1), (5, 2), (5, 3)]


def test_scheduled_events_are_processed_or_pending():
    loop, fired = collecting_loop()
    at(loop, 1, payload="first")
    at(loop, 2, payload="second")
    at(loop, 9, payload="pending")
    loop.run_until(5)
    assert [payload for _, payload in fired] == ["first", "second"]
    assert loop.scheduled_count == loop.processed_count + loop.pending_count
    assert loop.pending_count == 1
    loop.run_until(9)
    assert loop.scheduled_count == loop.processed_count == 3
    assert loop.pending_count == 0


def test_clock_is_monotonic_across_callbacks():
    loop = EventLoop()
    seen = []
    loop.set_handler(EventKind.TWEET_ARRIVAL, lambda _: seen.append(loop.now()))
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 1000, size=200):
        at(loop, int(t))
    loop.run_until(1000)
    assert seen == sorted(seen)


def test_trace_identical_across_reruns():
    def run():
        loop = EventLoop()
        rng = RngStreams(42)
        stream = rng.stream("trace-test")
        trace = []
        seqs = []

        def handler(kind):
            def handle(payload):
                trace.append((loop.now(), payload, kind.value))
                if kind is EventKind.TWEET_ARRIVAL:
                    for _ in range(int(stream.integers(0, 3))):
                        seqs.append(at(loop, loop.now() + int(stream.integers(1, 50)),
                                       EventKind.FANOUT_STEP, len(seqs)))
            return handle

        loop.set_handler(EventKind.FANOUT_STEP, handler(EventKind.FANOUT_STEP))
        loop.set_handler(EventKind.TWEET_ARRIVAL, handler(EventKind.TWEET_ARRIVAL))
        loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("arrival", range(0, 200, 7))])])
        loop.run_until(500)
        return trace, seqs

    first = run()
    assert len(first[0]) > 29  # every arrival plus at least one fan-out step
    assert first[1] == list(range(29, 29 + len(first[1])))  # arrivals hold seqs 0..28
    assert first == run()


def test_add_arrivals_fire_in_time_then_seq_order():
    loop, fired = collecting_loop()
    loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("a", [5, 1]), ("b", [1, 3])]),
                       (EventKind.TIMELINE_QUERY, [("q", [3, 0])])])
    assert loop.scheduled_count == loop.pending_count == 6
    assert at(loop, 3, EventKind.FANOUT_STEP, "step") == 6
    assert loop.run_until(3) == 6
    assert fired == [(0, "q"), (1, "a"), (1, "b"), (3, "b"), (3, "q"), (3, "step")]
    assert loop.pending_count == 1
    assert loop.run_until(5) == 1
    assert fired[-1] == (5, "a")


def test_add_arrivals_after_another_event_raises():
    loop, _ = collecting_loop()
    at(loop, 2)
    with pytest.raises(ValueError):
        loop.add_arrivals([(EventKind.TIMELINE_QUERY, [("q", [6])])])
    assert loop.scheduled_count == 1
    # Every arrival goes in one call: a second call raises.
    loop, _ = collecting_loop()
    loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("a", [4])])])
    with pytest.raises(ValueError):
        loop.add_arrivals([(EventKind.TIMELINE_QUERY, [("q", [6])])])
    at(loop, 2)
    with pytest.raises(ValueError):
        loop.add_arrivals([(EventKind.TIMELINE_QUERY, [("q", [6])])])
    loop.run_until(10)
    with pytest.raises(ValueError):
        loop.add_arrivals([(EventKind.TIMELINE_QUERY, [("q", [12])])])
    assert loop.scheduled_count == loop.processed_count == 2


def test_add_arrivals_from_the_first_arrivals_handler_raises():
    loop, refused = EventLoop(), []

    def handle(payload):
        with pytest.raises(ValueError):
            loop.add_arrivals([(EventKind.TIMELINE_QUERY, [("q", [9])])])
        refused.append(payload)

    loop.set_handler(EventKind.TWEET_ARRIVAL, handle)
    loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("a", [4])])])
    assert loop.run_until(10) == 1
    assert refused == ["a"] and loop.scheduled_count == 1


def test_add_arrivals_in_the_past_raises_and_queues_nothing():
    loop, _ = collecting_loop()
    loop.run_until(10)
    with pytest.raises(ValueError):
        loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("a", [12, 9])])])
    assert loop.scheduled_count == loop.pending_count == 0
    loop.add_arrivals([(EventKind.TWEET_ARRIVAL, [("a", [12])])])
    assert loop.run_until(12) == 1


def test_arrival_whose_handler_raised_does_not_fire_again():
    loop, fired = EventLoop(), []

    def handle(payload):
        fired.append(payload)
        if payload == "a":
            raise RuntimeError("handler failed")

    loop.set_handler(EventKind.TWEET_ARRIVAL, handle)
    loop.add_arrivals([(EventKind.TWEET_ARRIVAL,
                        [("a", np.array([1])), ("b", np.array([2]))])])
    with pytest.raises(RuntimeError):
        loop.run_until(5)
    loop.run_until(5)
    assert fired == ["a", "b"]


def drive(loop, seed):
    """Random arrivals whose handlers schedule follow-ups with random delays.

    Times and delays come from narrow ranges and include zero delays, so
    arrivals and in-flight events often tie on fire_at. One payload object,
    a list and so unhashable, is given under both arrival kinds, and a block
    with no pairs sits between them, so an arrival's kind and payload must
    follow its (kind, payload) pair, not the payload's value. Returns every
    (now, kind, payload) fired, each step's run_until count and pending
    count, and the seqs schedule returned.
    """
    rng = np.random.default_rng(seed)
    fired, seqs, steps = [], [], []
    follow_ups = (EventKind.FANOUT_STEP, EventKind.PROPAGATION_ARRIVAL, EventKind.RETRY_WRITE)

    def handler(kind):
        def handle(payload):
            fired.append((loop.now(), kind, payload))
            for _ in range(int(rng.choice(3, p=[0.5, 0.3, 0.2]))):
                delay = int(rng.choice([0, 0, 1, 2, int(rng.integers(0, 40))]))
                follow_up = follow_ups[int(rng.integers(3))]
                seqs.append(loop.schedule((loop.now() + delay, follow_up,
                                           (payload, len(seqs)))))
        return handle

    for kind in EventKind:
        loop.set_handler(kind, handler(kind))
    shared = ["shared"]

    def block(kind):
        pairs = [((kind.value, payload), rng.integers(0, 60, size=int(rng.integers(0, 8))).tolist())
                 for payload in range(int(rng.integers(0, 12)))]
        pairs.insert(int(rng.integers(0, len(pairs) + 1)),
                     (shared, rng.integers(0, 60, size=int(rng.integers(1, 4))).tolist()))
        return kind, pairs

    loop.add_arrivals([block(EventKind.TWEET_ARRIVAL), (EventKind.PROPAGATION_ARRIVAL, []),
                       block(EventKind.TIMELINE_QUERY)])
    for t_end in sorted(rng.integers(0, 120, size=4).tolist()) + [10_000]:
        steps.append((loop.run_until(t_end), loop.pending_count))
    return fired, steps, seqs


def test_event_loop_matches_single_heap_reference():
    mismatched = [seed for seed in range(60)
                  if drive(EventLoop(), seed) != drive(ReferenceLoop(), seed)]
    assert mismatched == []
    fired, _, seqs = drive(EventLoop(), 3)
    assert len(seqs) > 20 and len({t for t, _, _ in fired}) < len(fired)  # ties happen
    # The shared payload fires under both kinds.
    assert {kind for _, kind, payload in fired if payload == ["shared"]} == {
        EventKind.TWEET_ARRIVAL, EventKind.TIMELINE_QUERY}


def test_arrival_schedule_holds_12_bytes_per_arrival():
    """An arrival costs the loop its int64 time and a C-int index of its
    (kind, payload) pair; the kinds and payloads are held once per pair. A
    kind and a payload pointer per arrival would add 16 B."""
    rng = np.random.default_rng(0)
    blocks = [(kind, [(payload, np.sort(rng.integers(0, 10**9, size=500)))
                      for payload in range(20)])
              for kind in (EventKind.TWEET_ARRIVAL, EventKind.TIMELINE_QUERY)]
    n, owners = 2 * 20 * 500, 2 * 20
    gc.collect()
    tracemalloc.start()
    try:
        loop = EventLoop()
        loop.add_arrivals(blocks)
        held = tracemalloc.get_traced_memory()[0]
        del loop
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Two lists of one pointer per pair, with their growth headroom, and the
    # loop object's own fields.
    per_owner = 2 * 8 * 1.25 * owners + 2048
    assert freed - per_owner <= 12 * n, (freed, n)


def test_rng_same_label_restarts_stream():
    rng = RngStreams(7)
    a = rng.stream("fanout").random(100)
    b = rng.stream("fanout").random(100)
    assert np.array_equal(a, b)


def test_rng_labels_are_independent():
    rng = RngStreams(7)
    assert not np.array_equal(rng.stream("fanout").random(100),
                              rng.stream("lag").random(100))


def test_rng_different_seeds_differ():
    assert not np.array_equal(RngStreams(1).stream("x").random(50),
                              RngStreams(2).stream("x").random(50))


def test_rng_uniform_mean_in_expected_band():
    draws = RngStreams(123).stream("uniform-check").random(10_000)
    assert 0.48 <= draws.mean() <= 0.52


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        RngStreams(-1)


def test_iso_roundtrip_microsecond_precision():
    cases = [0, 1, 999_999, 32_256_647, 86_400_000_000 + 123]
    for micros, text in zip(cases, to_iso(cases), strict=True):
        assert from_iso(text) == micros
        # microseconds are always rendered, six digits wide
        assert len(text.rsplit(".", 1)[1]) == 6


def datetime_from_iso(text):
    """The reference parse from_iso must reproduce, error for error."""
    try:
        delta = datetime.fromisoformat(text) - EPOCH
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return (delta.days * 86_400 + delta.seconds) * 1_000_000 + delta.microseconds


def parse_or_error(text):
    try:
        return from_iso(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_from_iso_matches_datetime():
    day = 86_400_000_000
    rng = np.random.default_rng(8)
    texts = to_iso(rng.integers(-5 * day, 400 * day, size=5_000))
    texts += ["2020-02-30T00:00:00.000000", "2021-02-29T12:00:00.000000",
              "2020-13-01T00:00:00.000000", "2020-00-10T00:00:00.000000",
              "2020-01-01T24:00:00.000000", "2020-01-01T23:60:00.000000",
              "2020-01-01T23:59:60.000000", "2020-01-01T00:00:00",
              "2020-01-01T00:00:00.00000", "2020-01-01T00:00:00.0000000",
              "2020-01-01T0a:00:00.000000", "2020-01-01T00:00:00.00000x",
              "2020-01-01T+1:00:00.000000", "2020-01-01T 1:00:00.000000",
              "2020-01-01T00:00:00,000000", "2020-01-01 00:00:00.000000",
              "2020-01-01T00:00:00.000000+00:00", "2020-01-01T\u0661\u0662:00:00.000000",
              "2020-W01-3T00:00:00.000000", "20200101T000000", "", "garbage", None, 5]
    mismatched = [text for text in texts if parse_or_error(text) != datetime_from_iso(text)]
    assert mismatched == []


def micros_at(*when) -> int:
    return (datetime(*when) - EPOCH) // timedelta(microseconds=1)


# The first and last microsecond datetime can represent.
MIN_MICROS = micros_at(1, 1, 1)
MAX_MICROS = micros_at(9999, 12, 31, 23, 59, 59, 999_999)


def test_to_iso_matches_datetime():
    day = 86_400_000_000
    rng = np.random.default_rng(5)
    boundaries = [micros_at(2020, 1, 2), micros_at(2020, 2, 29), micros_at(2020, 3, 1),
                  micros_at(2021, 1, 1), 0, day, -day,
                  # Leap days and month ends on both sides of the epoch, the
                  # century years 1900 and 2100 (not leap) and 2000 (leap).
                  micros_at(2024, 2, 29), micros_at(2024, 3, 1), micros_at(2023, 3, 1),
                  micros_at(2000, 2, 29), micros_at(2000, 3, 1), micros_at(1900, 3, 1),
                  micros_at(2100, 3, 1), micros_at(1970, 1, 1), micros_at(1969, 12, 31),
                  micros_at(1, 1, 2), micros_at(9999, 12, 31)]
    cases = ([int(v) for v in rng.integers(-5 * day, 400 * day, size=20_000)]
             + [int(v) for v in rng.integers(MIN_MICROS, MAX_MICROS, size=2_000)]
             + [b + d for b in boundaries for d in (-1_000_001, -1, 0, 1, 999_999, 1_000_000)]
             + [MIN_MICROS, MIN_MICROS + 1, MAX_MICROS - 1, MAX_MICROS])
    rendered = to_iso(cases)
    assert len(rendered) == len(cases)
    assert [c for c, text in zip(cases, rendered) if text != datetime_iso(c)] == []
    assert to_iso([micros_at(2020, 2, 29, 23, 59, 59, 999_999), -1]) == \
        ["2020-02-29T23:59:59.999999", "2019-12-31T23:59:59.999999"]
    assert to_iso([]) == []


def test_to_iso_raises_beyond_datetime_range():
    eight_millennia = 8_000 * 365 * 86_400_000_000
    for micros in (MAX_MICROS + 1, MIN_MICROS - 1, eight_millennia, -eight_millennia, 2**63):
        # datetime refuses the same timestamp.
        with pytest.raises(OverflowError):
            datetime_iso(micros)
        with pytest.raises(OverflowError):
            to_iso([0, micros, 1])


def test_block_samplers_equal_scalar_draws():
    draws = 3 * SAMPLE_BLOCK + 17
    mismatched = []
    for seed in range(6):
        for mean_ms in (0.0004, 20.0, 500.0, 7500.0):
            sample = make_sampler(DistributionSpec("exponential", mean_ms),
                                  RngStreams(seed).stream("lag"))
            scalar = RngStreams(seed).stream("lag")
            got = [sample() for _ in range(draws)]
            want = [int(scalar.exponential(mean_ms * MICROS_PER_MS)) for _ in range(draws)]
            mismatched += [("exponential", seed, mean_ms)] * (got != want)
        for n in (1, 2, 3, 5, 1_000_003):
            sample = choice_sampler(n, RngStreams(seed).stream("replica"))
            scalar = RngStreams(seed).stream("replica")
            got = [sample() for _ in range(draws)]
            want = [int(scalar.integers(n)) for _ in range(draws)]
            mismatched += [("choice", seed, n)] * (got != want)
    assert mismatched == []
    assert type(make_sampler(DistributionSpec("exponential", 1.0),
                             RngStreams(0).stream("lag"))()) is int


def test_constant_sampler_and_zero_exponential():
    stream = RngStreams(0).stream("s")
    assert make_sampler(DistributionSpec("constant", 2.5), stream)() == 2500
    assert make_sampler(DistributionSpec("exponential", 0.0), stream)() == 0


def test_exponential_sampler_mean():
    stream = RngStreams(0).stream("exp")
    sample = make_sampler(DistributionSpec("exponential", 100.0), stream)
    draws = [sample() for _ in range(20_000)]
    assert abs(np.mean(draws) - 100_000) < 3_000


def test_distribution_spec_validation():
    with pytest.raises(ValueError):
        DistributionSpec("weibull", 1.0)
    with pytest.raises(ValueError):
        DistributionSpec("constant", -1.0)
