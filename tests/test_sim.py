from datetime import datetime, timedelta

import numpy as np
import pytest

from feedsim.sim import (
    EPOCH,
    DistributionSpec,
    EventKind,
    EventLoop,
    RngStreams,
    SimEvent,
    from_iso,
    make_sampler,
    to_iso,
)


def collecting_loop():
    loop = EventLoop()
    fired = []
    for kind in EventKind:
        loop.set_handler(kind, lambda ev: fired.append((loop.now(), ev.seq, ev.payload)))
    return loop, fired


def test_schedule_in_past_raises():
    loop, _ = collecting_loop()
    loop.schedule_at(5, EventKind.TWEET_ARRIVAL)
    loop.run_until(5)
    with pytest.raises(ValueError):
        loop.schedule_at(4, EventKind.TWEET_ARRIVAL)


def test_zero_delay_event_fires_before_later_events():
    loop, fired = collecting_loop()
    loop.schedule_at(10, EventKind.TWEET_ARRIVAL, "late")
    loop.schedule_at(0, EventKind.TWEET_ARRIVAL, "now")
    loop.run_until(10)
    assert [payload for _, _, payload in fired] == ["now", "late"]


def test_equal_fire_at_processed_in_seq_order():
    loop, fired = collecting_loop()
    a = loop.schedule_at(7, EventKind.FANOUT_STEP, "first")
    b = loop.schedule_at(7, EventKind.FANOUT_STEP, "second")
    assert a.seq < b.seq
    loop.run_until(7)
    assert [payload for _, _, payload in fired] == ["first", "second"]


def test_run_until_processes_due_events_and_advances_clock():
    loop, fired = collecting_loop()
    for t in (1, 2, 3):
        loop.schedule_at(t, EventKind.TIMELINE_QUERY, t)
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

    def chain(ev):
        fired.append((loop.now(), ev.payload))
        if ev.payload < 3:
            loop.schedule_at(loop.now(), EventKind.RETRY_WRITE, ev.payload + 1)

    loop.set_handler(EventKind.RETRY_WRITE, chain)
    loop.schedule_at(5, EventKind.RETRY_WRITE, 1)
    loop.run_until(5)
    assert fired == [(5, 1), (5, 2), (5, 3)]


def test_scheduled_events_are_processed_or_pending():
    loop, fired = collecting_loop()
    loop.schedule_at(1, EventKind.TWEET_ARRIVAL, "first")
    loop.schedule_at(2, EventKind.TWEET_ARRIVAL, "second")
    loop.schedule_at(9, EventKind.TWEET_ARRIVAL, "pending")
    loop.run_until(5)
    assert [payload for _, _, payload in fired] == ["first", "second"]
    assert loop.scheduled_count == loop.processed_count + loop.pending_count
    assert loop.pending_count == 1
    loop.run_until(9)
    assert loop.scheduled_count == loop.processed_count == 3
    assert loop.pending_count == 0


def test_clock_is_monotonic_across_callbacks():
    loop = EventLoop()
    seen = []
    loop.set_handler(EventKind.TWEET_ARRIVAL, lambda ev: seen.append(loop.now()))
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 1000, size=200):
        loop.schedule_at(int(t), EventKind.TWEET_ARRIVAL)
    loop.run_until(1000)
    assert seen == sorted(seen)


def test_trace_identical_across_reruns():
    def run():
        loop = EventLoop()
        rng = RngStreams(42)
        stream = rng.stream("trace-test")
        trace = []

        def handle(ev):
            trace.append((loop.now(), ev.seq, ev.kind.value))
            if ev.kind is EventKind.TWEET_ARRIVAL:
                for _ in range(int(stream.integers(0, 3))):
                    loop.schedule_at(loop.now() + int(stream.integers(1, 50)),
                                     EventKind.FANOUT_STEP)

        loop.set_handler(EventKind.FANOUT_STEP, handle)
        loop.set_handler(EventKind.TWEET_ARRIVAL, handle)
        for t in range(0, 200, 7):
            loop.schedule_at(t, EventKind.TWEET_ARRIVAL)
        loop.run_until(500)
        return trace

    first = run()
    assert len(first) > 29  # every arrival plus at least one fan-out step
    assert first == run()


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
    for micros in (0, 1, 999_999, 32_256_647, 86_400_000_000 + 123):
        text = to_iso(micros)
        assert from_iso(text) == micros
        # microseconds are always rendered, six digits wide
        assert len(text.rsplit(".", 1)[1]) == 6


def datetime_iso(micros: int) -> str:
    """The reference rendering to_iso must reproduce."""
    return (EPOCH + timedelta(microseconds=micros)).isoformat(timespec="microseconds")


def micros_at(*when) -> int:
    return (datetime(*when) - EPOCH) // timedelta(microseconds=1)


def test_to_iso_matches_datetime():
    day = 86_400_000_000
    rng = np.random.default_rng(5)
    boundaries = [micros_at(2020, 1, 2), micros_at(2020, 2, 29), micros_at(2020, 3, 1),
                  micros_at(2021, 1, 1), 0, day, -day]
    cases = ([int(v) for v in rng.integers(-5 * day, 400 * day, size=20_000)]
             + [b + d for b in boundaries for d in (-1_000_001, -1, 0, 1, 999_999, 1_000_000)])
    assert [c for c in cases if to_iso(c) != datetime_iso(c)] == []
    assert to_iso(micros_at(2020, 2, 29, 23, 59, 59, 999_999)) == "2020-02-29T23:59:59.999999"
    assert to_iso(-1) == "2019-12-31T23:59:59.999999"


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
