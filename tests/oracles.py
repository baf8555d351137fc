"""Independent reference implementations used to cross-check the detector
and the event loop.

Everything here is deliberately written from the definitions (filter,
sort, truncate, all-pairs scans) without reusing feedsim.detect internals.
"""

from __future__ import annotations

import heapq
from datetime import timedelta

import numpy as np

from feedsim.app import TimelineResponse
from feedsim.netgen import FollowingNetwork
from feedsim.sim import EPOCH


class ReferenceLoop:
    """The event loop as one heap: arrivals are pushed up front like any event.

    Same interface as feedsim.sim.EventLoop; events fire in (fire_at, seq)
    order with seq counting every event queued.
    """

    def __init__(self):
        self.heap = []
        self.handlers = {}
        self.t = 0
        self.scheduled_count = 0

    def now(self):
        return self.t

    def set_handler(self, kind, handler):
        self.handlers[kind] = handler

    def schedule(self, event):
        fire_at, kind, payload = event
        assert fire_at >= self.t
        seq = self.scheduled_count
        heapq.heappush(self.heap, (fire_at, seq, kind, payload))
        self.scheduled_count = seq + 1
        return seq

    def add_arrivals(self, kind, times_per_payload):
        for payload, times in times_per_payload:
            for t in times:
                self.schedule((t, kind, payload))

    @property
    def pending_count(self):
        return len(self.heap)

    def run_until(self, t_end):
        processed = 0
        while self.heap and self.heap[0][0] <= t_end:
            fire_at, _, kind, payload = heapq.heappop(self.heap)
            self.t = fire_at
            self.handlers[kind](payload)
            processed += 1
        self.t = t_end
        return processed


def datetime_iso(micros: int) -> str:
    """The reference rendering of a timestamp that feedsim.sim.to_iso must reproduce."""
    return (EPOCH + timedelta(microseconds=micros)).isoformat(timespec="microseconds")


def brute_timeline(consumer_id, T, tweets, network, n_timeline):
    """Merge-sort-and-truncate over the full log of (producer_id, t) pairs, whose
    positions are their seqs; returns the newest (producer_id, t) pairs."""
    followed = set(network.follows[consumer_id])
    eligible = [(t, seq, pid) for seq, (pid, t) in enumerate(tweets)
                if pid in followed and t <= T]
    eligible.sort(reverse=True)
    return [(pid, t) for t, _, pid in eligible[:n_timeline]]


def brute_force_conflicts(responses, tweets, network, n_timeline,
                          window_fraction=1.0):
    """All-pairs crosschecking: returns {(response_id, producer, t, type)}."""
    seq_of = {pair: seq for seq, pair in enumerate(tweets)}
    start = len(responses) - int(round(len(responses) * window_fraction))
    analyzed = list(responses)[start:]
    found = set()
    for resp in analyzed:
        oracle = brute_timeline(resp.consumer_id, resp.T, tweets, network, n_timeline)
        served_pairs = set(resp.entries)
        served_keys = [(t, seq_of[(pid, t)]) for pid, t in resp.entries]
        for pid, t in oracle:
            if (pid, t) in served_pairs:
                continue
            key = (t, seq_of[(pid, t)])
            newer = any(k > key for k in served_keys)
            older = any(k < key for k in served_keys)
            witnesses = [
                other for other in analyzed
                if other.response_id != resp.response_id
                and (pid, t) in set(other.entries)
            ]
            if newer and older:
                if witnesses:
                    found.add((resp.response_id, pid, t, "gap"))
            elif not newer:
                if any(other.T < resp.T for other in witnesses):
                    found.add((resp.response_id, pid, t, "newer_earlier"))
    return found


def detector_conflict_set(result):
    return {(r.response_id, r.producer_id, r.t, r.type.value) for r in result.records}


def make_network(follows: dict[int, tuple[int, ...]], n_producers: int) -> FollowingNetwork:
    """Hand-build a network from explicit follow lists."""
    return FollowingNetwork.from_follows(
        n_producers, {c: tuple(sorted(set(ps))) for c, ps in follows.items()})


def random_instance(rng: np.random.Generator):
    """A small random corpus: (responses, tweets, network, n_timeline), where
    tweets is the log of (producer_id, t) pairs and each position is its seq.

    Times are drawn from a narrow range so cross-producer timestamp ties
    are common; response styles mix near-oracle views with entry drops,
    stale views, and arbitrary subsets (including entries older than the
    oracle window).
    """
    n_producers = int(rng.integers(1, 6))
    n_consumers = int(rng.integers(1, 11))
    n_timeline = int(rng.integers(2, 9))
    follows = {}
    for c in range(n_consumers):
        k = int(rng.integers(1, n_producers + 1))
        follows[c] = tuple(sorted(rng.choice(n_producers, size=k, replace=False).tolist()))
    network = make_network(follows, n_producers)

    raw = []
    for p in range(n_producers):
        count = int(rng.integers(0, 11))
        times = rng.choice(80, size=min(count, 80), replace=False)
        raw.extend((int(t), p) for t in times)
    raw.sort()
    tweets = [(p, t) for t, p in raw][:50]

    responses = []
    n_responses = int(rng.integers(0, 60))
    Ts = sorted(int(t) for t in rng.integers(0, 100, size=n_responses))
    for rid, T in enumerate(Ts):
        consumer = int(rng.integers(0, n_consumers))
        followed = set(follows[consumer])
        # strictly-past entries only: a served view can never contain a
        # same-instant tweet while missing another (store values grow as a
        # chain), so fabricated corpora must not either; the log is in
        # (t, seq) order, so its reverse is newest first
        eligible = [(pid, t) for pid, t in reversed(tweets) if pid in followed and t < T]
        style = rng.random()
        if style < 0.4:
            # near-oracle view with random drops
            kept = [pair for pair in eligible if rng.random() > 0.3][:n_timeline]
        elif style < 0.7 and eligible:
            # stale view: what the oracle looked like a little earlier
            cutoff = int(rng.integers(0, T + 1))
            kept = [(pid, t) for pid, t in eligible if t <= cutoff][:n_timeline]
        else:
            # arbitrary subset, possibly older than the oracle window
            size = int(rng.integers(0, min(n_timeline, len(eligible)) + 1)) if eligible else 0
            idx = sorted(rng.choice(len(eligible), size=size, replace=False).tolist())
            kept = [eligible[i] for i in idx]
        responses.append(TimelineResponse(response_id=rid, consumer_id=consumer,
                                          T=T, entries=tuple(kept)))
    return responses, tweets, network, n_timeline
