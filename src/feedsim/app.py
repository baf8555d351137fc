"""Feed-following application: global-order timestamping, asynchronous
per-follower fan-out into materialized timeline views, and query serving.

Each posted tweet receives a global (t, seq) timestamp from the single
frontend, where seq is its position in the tweet log, then one timeline
update per follower flows through the store's conditional-write path.
Query responses are whatever a random replica holds at that instant.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .netgen import FollowingNetwork, WorkloadProfile
from .sim import (
    MICROS_PER_HOUR,
    MICROS_PER_MS,
    DistributionSpec,
    EventKind,
    EventLoop,
    RngStreams,
    from_iso,
    make_sampler,
    read_jsonl,
    record_decimal,
    record_int,
    to_iso,
    write_jsonl,
)
from .store import ReplicatedStore

if TYPE_CHECKING:
    from .config import ExperimentConfig

# A failed conditional write is retried this long after it failed.
RETRY_BACKOFF_US = 10 * MICROS_PER_MS


@dataclass(slots=True)
class TimelineResponse:
    """One served timeline query; entries are (producer_id, t) newest-first.
    Its response id is its position in the response log."""

    consumer_id: int
    T: int
    entries: tuple[tuple[int, int], ...]


class ResponseLog:
    """The response log as columns: response i is consumer_ids[i] querying at
    times[i] and served entries[i], a shared timeline tuple; log[i] is its row.

    The columns are allocated once, with size slots, and append fills the
    slots in order, so a log made for the responses a run will serve never
    regrows; past size, append grows the columns. The slots past len(log)
    are not yet filled.
    """

    def __init__(self, size: int = 0):
        self.consumer_ids, self.times = array("q", [0]) * size, array("q", [0]) * size
        self.entries: list[tuple[tuple[int, int], ...]] = [()] * size
        self._filled = 0

    def append(self, consumer_id: int, T: int, entries: tuple[tuple[int, int], ...]) -> None:
        i = self._filled
        if i < len(self.entries):
            self.consumer_ids[i] = consumer_id
            self.times[i] = T
            self.entries[i] = entries
        else:
            self.consumer_ids.append(consumer_id)
            self.times.append(T)
            self.entries.append(entries)
        self._filled = i + 1

    def __len__(self) -> int:
        return self._filled

    def __getitem__(self, i: int) -> TimelineResponse:
        i = range(self._filled)[i]
        return TimelineResponse(self.consumer_ids[i], self.times[i], self.entries[i])


@dataclass(frozen=True)
class FanoutSettings:
    """How follower timeline updates are executed after a post.

    "scheduled" runs each update as its own event after a sampled service
    delay, with at most concurrency_cap updates of one tweet in service at
    a time (None = unlimited). "synchronous" completes the whole fan-out
    inside the post itself, which is the consistency baseline.
    """

    mode: str = "scheduled"
    service: DistributionSpec = field(default_factory=lambda: DistributionSpec("exponential", 20.0))
    concurrency_cap: int | None = None

    def __post_init__(self):
        if self.mode not in ("scheduled", "synchronous"):
            raise ValueError(f"unknown fan-out mode: {self.mode!r}")
        if self.concurrency_cap is not None and self.concurrency_cap < 1:
            raise ValueError("concurrency_cap must be >= 1 or None")


# A timeline value is the tuple of (producer_id, t) pairs a response serves,
# newest-first: the store holds it and a query hands it out as it is.
def insert_entry(value: tuple | None, pair: tuple[int, int], seqs: dict[tuple[int, int], int],
                 n_timeline: int) -> tuple:
    """Insert a tweet's pair into a timeline value, newest-first, truncated to n_timeline.

    seqs maps each pair to its tweet's seq. Inside one FeedApp a tweet's t is
    the clock at posting, so seq order is (t, seq) order.
    """
    if not value:
        return (pair,)
    seq = seqs[pair]
    if seq > seqs[value[0]]:
        return (pair,) + value[:n_timeline - 1]
    pos = len(value)
    while seqs[value[pos - 1]] < seq:
        pos -= 1
    return (value[:pos] + (pair,) + value[pos:])[:n_timeline]


@dataclass(slots=True)
class _Fanout:
    """One tweet's follower updates: those not started and those not committed."""

    pair: tuple[int, int]
    pending: int
    queue: deque | None = None
    lanes: int = 0


@dataclass
class RunArtifacts:
    """The run stage's one record: its logs and the counters that audit them."""

    tweet_log: list[tuple[int, int]]
    responses: ResponseLog
    duration_us: int
    max_propagation_lag_us: int
    fanout_completion_us: dict[tuple[int, int], int]
    updates_committed: int
    cas_failures: int
    events_processed: int

    def to_dict(self) -> dict:
        """The trace_stats.json document."""
        # Tweet-log order is (t, producer_id) order: only arrivals post, and
        # arrivals at one instant fire in producer-id order.
        times = to_iso([t for _, t in self.fanout_completion_us])
        completions = [
            {"producer_id": str(pid), "t": t, "completion_us": delay}
            for ((pid, _), delay), t in zip(self.fanout_completion_us.items(), times)
        ]
        return {
            "duration_us": self.duration_us,
            "max_propagation_lag_us": self.max_propagation_lag_us,
            "tweets": len(self.tweet_log),
            "responses": len(self.responses),
            "updates_committed": self.updates_committed,
            "cas_failures": self.cas_failures,
            # _write retries every failed conditional write once.
            "retries": self.cas_failures,
            "events_processed": self.events_processed,
            "fanout_completions": completions,
        }


class FeedApp:
    """Application layer bound to one event loop and one store; its response
    log is allocated for n_queries responses."""

    def __init__(self, network: FollowingNetwork, loop: EventLoop, store: ReplicatedStore,
                 rng: RngStreams, fanout: FanoutSettings, n_timeline: int, n_queries: int = 0):
        if n_timeline < 1:
            raise ValueError("n_timeline must be >= 1")
        self.network = network
        self.loop = loop
        self.store = store
        self.n_timeline = n_timeline
        self.fanout = fanout
        # Each posted tweet's (producer_id, t) in the global order; its
        # position is its seq.
        self.tweet_log: list[tuple[int, int]] = []
        self.responses = ResponseLog(n_queries)
        # Each finished fan-out's delay from post to last commit; 0 for a
        # tweet with no followers. An unfinished fan-out has no entry.
        self.fanout_completion_us: dict[tuple[int, int], int] = {}
        self._service_sample = make_sampler(self.fanout.service, rng.stream("app.fanout_delay"))
        self._order_rng = rng.stream("app.fanout_order")
        # The seq of each posted tweet's pair, which orders timeline values.
        self._seqs: dict[tuple[int, int], int] = {}
        loop.set_handler(EventKind.TWEET_ARRIVAL, self.post_tweet)
        loop.set_handler(EventKind.TIMELINE_QUERY, self.query_timeline)
        loop.set_handler(EventKind.FANOUT_STEP, self._on_fanout_step)
        loop.set_handler(EventKind.RETRY_WRITE, self._write)

    # -- posting ---------------------------------------------------------

    def post_tweet(self, producer_id: int) -> tuple[int, int]:
        """Timestamp a new tweet, kick off its per-follower fan-out and return its pair."""
        if producer_id not in self.network.followers:
            raise ValueError(f"unknown producer {producer_id}")
        pair = (producer_id, self.loop.now())
        if pair in self._seqs:
            raise ValueError(f"producer {producer_id} already posted at t={pair[1]}")
        self._seqs[pair] = len(self.tweet_log)
        self.tweet_log.append(pair)
        followers = self.network.followers[producer_id]
        if not followers:
            self.fanout_completion_us[pair] = 0
            return pair
        fanout = _Fanout(pair, len(followers))
        if self.fanout.mode == "synchronous":
            # Nothing runs between the read and the write, so each write lands.
            for consumer_id in followers:
                self._write((fanout, consumer_id, self.store.authoritative_read(consumer_id)))
            return pair
        order = self._order_rng.permutation(len(followers))
        fanout.queue = deque(followers[i] for i in order)
        self._fill_lanes(fanout)
        return pair

    def _fill_lanes(self, fanout: _Fanout) -> None:
        """Start queued updates while the tweet has a free service lane."""
        cap = self.fanout.concurrency_cap
        queue = fanout.queue
        while queue and (cap is None or fanout.lanes < cap):
            consumer_id = queue.popleft()
            fanout.lanes += 1
            # The update task reads the timeline when it starts service; the
            # conditional write lands when service completes.
            expected = self.store.authoritative_read(consumer_id)
            self.loop.schedule((self.loop.now() + self._service_sample(),
                                EventKind.FANOUT_STEP, (fanout, consumer_id, expected)))

    def _write(self, update: tuple[_Fanout, int, tuple | None]) -> None:
        """Try one conditional write of a tweet into a follower's timeline.

        update is (fanout, consumer_id, expected): a failed write is retried
        after the backoff against the value that beat it.
        """
        fanout, consumer_id, expected = update
        new_value = insert_entry(expected, fanout.pair, self._seqs, self.n_timeline)
        result = self.store.conditional_write(consumer_id, expected, new_value)
        if not result.ok:
            self.loop.schedule((self.loop.now() + RETRY_BACKOFF_US, EventKind.RETRY_WRITE,
                                (fanout, consumer_id, result.current)))
            return
        fanout.pending -= 1
        if fanout.pending == 0:
            # Commits come in clock order, so the last one is the latest.
            self.fanout_completion_us[fanout.pair] = self.loop.now() - fanout.pair[1]

    def _on_fanout_step(self, update: tuple[_Fanout, int, tuple | None]) -> None:
        self._write(update)
        # The service lane frees when the first attempt completes; any
        # retries run off-lane.
        fanout = update[0]
        fanout.lanes -= 1
        self._fill_lanes(fanout)

    # -- querying --------------------------------------------------------

    def query_timeline(self, consumer_id: int) -> None:
        """Serve the materialized view from a random replica; no caching."""
        if consumer_id not in self.network.follows:
            raise ValueError(f"unknown consumer {consumer_id}")
        self.responses.append(consumer_id, self.loop.now(),
                              self.store.read_with_source(consumer_id)[1] or ())


def _chunk_size(expected: float) -> int:
    """Gaps a Poisson draw takes at once when expected arrivals fall in the
    horizon: enough that the first chunk nearly always passes it."""
    return max(16, int(expected * 1.5) + 8)


def _poisson_times_us(rate_per_hour: float, duration_us: int,
                      stream: np.random.Generator) -> np.ndarray:
    """Arrival times of a Poisson process over [0, duration_us), ascending."""
    if rate_per_hour <= 0 or duration_us <= 0:
        return np.empty(0, dtype=np.int64)
    mean_gap = MICROS_PER_HOUR / rate_per_hour
    size = _chunk_size(duration_us / mean_gap)
    times: list[np.ndarray] = []
    total = 0.0
    while True:
        chunk = stream.exponential(mean_gap, size=size)
        cum = total + np.cumsum(chunk)
        times.append(cum)
        total = float(cum[-1])
        if total > duration_us:
            break
    all_times = np.concatenate(times)
    return all_times[all_times < duration_us].astype(np.int64)


# Rates one bulk Poisson draw spans. A short first chunk throws away the
# draws of the rates after it in the same bulk draw, so this bounds the waste.
_RATES_PER_DRAW = 1024


def _poisson_arrivals_us(rates_per_hour: np.ndarray, duration_us: int,
                         stream: np.random.Generator) -> list[np.ndarray]:
    """_poisson_times_us of each rate in turn on stream, value for value and
    leaving stream where those calls would.

    The first chunks of up to _RATES_PER_DRAW rates come from one draw: an
    array of scales draws what the per-rate calls draw, in the same order.
    A rate whose first chunk falls short of the horizon would draw its
    second chunk next, so the stream is rewound to the rate's start, the
    rate runs through _poisson_times_us alone, and the rates after it are
    drawn together again. Memory stays proportional to the draws.
    """
    times = [np.empty(0, dtype=np.int64)] * len(rates_per_hour)
    if duration_us <= 0:
        return times
    active = np.flatnonzero(rates_per_hour > 0)
    mean_gaps = MICROS_PER_HOUR / rates_per_hour[active]
    sizes = [_chunk_size(expected) for expected in (duration_us / mean_gaps).tolist()]
    # Rate j's first chunk is draws bounds[j]:bounds[j + 1] of the whole stream.
    bounds = [0, *accumulate(sizes)]
    first = 0
    while first < len(sizes):
        last = min(first + _RATES_PER_DRAW, len(sizes))
        state = stream.bit_generator.state
        gaps = stream.exponential(np.repeat(mean_gaps[first:last], sizes[first:last]))
        offset = bounds[first]
        for j in range(first, last):
            # A rate's own cumsum adds in the order _poisson_times_us does.
            cum = np.cumsum(gaps[bounds[j] - offset:bounds[j + 1] - offset])
            if cum[-1] <= duration_us:
                stream.bit_generator.state = state
                stream.exponential(np.repeat(mean_gaps[first:j], sizes[first:j]))
                times[active[j]] = _poisson_times_us(
                    float(rates_per_hour[active[j]]), duration_us, stream)
                break
            times[active[j]] = cum[cum < duration_us].astype(np.int64)
        first = j + 1
    return times


def _strictly_increasing(times: np.ndarray) -> np.ndarray:
    # Same-microsecond collisions are nudged so (producer_id, t) stays unique:
    # t'[i] = max(t[i], t'[i-1] + 1), so t'[i] - i is the running max of t[i] - i.
    steps = np.arange(len(times))
    return np.maximum.accumulate(times - steps) + steps


def run_experiment(network: FollowingNetwork, profile: WorkloadProfile,
                   cfg: ExperimentConfig) -> RunArtifacts:
    """Run per-producer Poisson posts and per-consumer Poisson queries.

    cfg's seed, store, fanout, duration_hours and n_timeline fix the run.
    Returns the immutable tweet log, the full response log, and the
    counters that audit them.
    """
    duration_us = round(cfg.duration_hours * MICROS_PER_HOUR)
    rng = RngStreams(cfg.seed)
    tweet_times = _poisson_arrivals_us(profile.producer_rate, duration_us,
                                       rng.stream("workload.tweet_times"))
    query_times = _poisson_arrivals_us(profile.consumer_rate, duration_us,
                                       rng.stream("workload.query_times"))
    loop = EventLoop()
    store = ReplicatedStore(cfg.store, loop, rng)
    # Each query arrival serves one response.
    app = FeedApp(network, loop, store, rng, cfg.fanout, cfg.n_timeline,
                  n_queries=sum(map(len, query_times)))
    loop.add_arrivals([
        (EventKind.TWEET_ARRIVAL, zip(range(network.n_producers),
                                      map(_strictly_increasing, tweet_times))),
        (EventKind.TIMELINE_QUERY, zip(range(network.n_consumers), query_times)),
    ])
    # The loop's schedule holds every arrival now, so the per-producer and
    # per-consumer time arrays are not kept through the run.
    del tweet_times, query_times

    loop.run_until(duration_us)
    loop.close()

    # A fan-out still running at the horizon counts as finishing there.
    # update() keeps each key where it is, so the keys stay in tweet-log order.
    completions = {pair: duration_us - pair[1] for pair in app.tweet_log}
    completions.update(app.fanout_completion_us)
    return RunArtifacts(
        tweet_log=app.tweet_log,
        responses=app.responses,
        duration_us=duration_us,
        max_propagation_lag_us=store.max_lag_sample_us,
        fanout_completion_us=completions,
        updates_committed=store.write_count,
        cas_failures=store.cas_failure_count,
        events_processed=loop.processed_count,
    )


# -- log files -------------------------------------------------------------


def save_tweet_log(path: str | Path, tweets: list[tuple[int, int]]) -> None:
    """Write each tweet's pair with its position in the log as its seq."""
    times = to_iso([t for _, t in tweets])
    write_jsonl(path, ({"producer_id": str(pid), "t": t, "seq": seq}
                       for seq, ((pid, _), t) in enumerate(zip(tweets, times))))


def load_tweet_log(path: str | Path) -> list[tuple[int, int]]:
    """Read a tweet log's (producer_id, t) pairs; each record's seq must be its position."""
    def tweet(record: dict, position: int) -> tuple[int, int]:
        pair = (record_decimal(record["producer_id"]), from_iso(record["t"]))
        if (seq := record_int(record["seq"])) != position:
            raise ValueError(f"seq {seq} is not the record's position {position}")
        return pair

    return list(read_jsonl(path, tweet))


# save_response_log renders the T of this many responses at a time, so only
# one chunk's timestamp strings are held at once.
RESPONSE_LOG_CHUNK = 1024
# The response log's write buffer: a line is two small writes, and a larger
# buffer than the default, one file-system block (often 4 KiB), hands the
# file system fewer, larger writes.
RESPONSE_LOG_BUFFER = 1 << 16


def save_response_log(path: str | Path, log: ResponseLog) -> None:
    """Write what json.dumps would write for each response's record, byte for byte,
    with its position in the log as its response_id.

    Every value is an integer or an ISO timestamp, so nothing needs escaping.
    Responses share timeline tuples and a tweet shows up in many timelines,
    so each pair is rendered once, and each distinct entries tuple gets a
    slot, hashed once per response, whose tail is rendered once, with the
    line's end, and written by every line that serves it after its own header.
    A tail is rendered in the chunk of its slot's first line and dropped after
    the chunk of its last, so only the timelines that this or a later chunk
    still serves are held.
    """
    slots: dict[tuple, int] = {}
    slot_of = array("i", [slots.setdefault(entries, len(slots)) for entries in log.entries])
    timelines = list(slots)
    del slots
    pairs = list({pair for entries in timelines for pair in entries})
    pair_json = {pair: b'{"producer_id": "%d", "t": "%s"}' % (pair[0], t.encode())
                 for pair, t in zip(pairs, to_iso([t for _, t in pairs]))}
    # Slots are numbered in first-use order, so the slots a chunk uses first
    # are those past the tails rendered so far, up to its largest slot.
    line_slots = np.frombuffer(slot_of, dtype=np.intc)
    last_chunk = np.zeros(len(timelines), dtype=np.intp)
    np.maximum.at(last_chunk, line_slots, np.arange(len(line_slots)) // RESPONSE_LOG_CHUNK)
    # The slots whose last line falls in each chunk; the last chunk holds the
    # last line of some slot, so there is one group per chunk.
    last_used = np.split(np.argsort(last_chunk), np.cumsum(np.bincount(last_chunk))[:-1])
    tails: list[bytes | None] = []
    with open(path, "wb", buffering=RESPONSE_LOG_BUFFER) as fh:
        write = fh.write
        for start, done in zip(range(0, len(log), RESPONSE_LOG_CHUNK), last_used):
            stop = start + RESPONSE_LOG_CHUNK
            tails += [b", ".join(map(pair_json.__getitem__, entries)) + b"]}\n"
                      for entries in timelines[len(tails):int(line_slots[start:stop].max()) + 1]]
            for response_id, (consumer_id, T) in enumerate(
                    zip(log.consumer_ids[start:stop], to_iso(log.times[start:stop])), start):
                write(b'{"response_id": %d, "consumer_id": "%d", "T": "%s", "entries": ['
                      % (response_id, consumer_id, T.encode()))
                write(tails[slot_of[response_id]])
            for slot in done.tolist():
                tails[slot] = None


def load_response_log(path: str | Path) -> ResponseLog:
    """Read a response log into its columns, record by record; each record's response_id
    must be its position, each distinct (producer_id, t) string pair is parsed once, and
    records that serve equal timelines share one tuple, as the run's responses do."""
    log = ResponseLog()
    pairs: dict[tuple[str, str], tuple[int, int]] = {}
    timelines: dict[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]] = {}

    def entry(record: dict) -> tuple[int, int]:
        try:
            return pairs[record["producer_id"], record["t"]]
        except (KeyError, TypeError):
            # Unseen, or not a pair of strings: parsing raises as it would
            # uncached, and only a pair of strings that parsed is kept.
            pair = pairs[record["producer_id"], record["t"]] = (
                record_decimal(record["producer_id"]), from_iso(record["t"]))
            return pair

    def response(record: dict, position: int) -> None:
        if (response_id := record_int(record["response_id"])) != position:
            raise ValueError(f"response_id {response_id} is not the record's position {position}")
        entries = tuple(map(entry, record["entries"]))
        log.append(record_decimal(record["consumer_id"]), from_iso(record["T"]),
                   timelines.setdefault(entries, entries))

    deque(read_jsonl(path, response), maxlen=0)
    return log
