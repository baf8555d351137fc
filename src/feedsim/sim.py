"""Deterministic virtual-time event loop, labelled random streams, and the
line codec every log file goes through.

All simulation time is integer microseconds since a fixed epoch. Every
source of randomness is a named substream derived from one master seed,
so a (seed, config) pair pins down an entire run byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

MICROS_PER_MS = 1_000
MICROS_PER_SECOND = 1_000_000
MICROS_PER_HOUR = 3_600_000_000

# Fixed epoch backing the ISO-8601 rendering of virtual timestamps.
EPOCH = datetime(2020, 1, 1)


# EPOCH as a numpy instant, and the timestamps datetime can represent,
# which is the range from_iso parses.
_EPOCH_US = np.datetime64(EPOCH, "us")
_MIN_MICROS = (datetime.min - EPOCH) // timedelta(microseconds=1)
MAX_MICROS = (datetime.max - EPOCH) // timedelta(microseconds=1)


def to_iso(micros: Sequence[int]) -> list[str]:
    """Render virtual timestamps as ISO-8601 with microsecond precision.

    Raises OverflowError for a timestamp outside datetime's range, which
    numpy would otherwise render with a five-digit year.
    """
    counts = np.asarray(micros, dtype=np.int64)
    if counts.size and (counts.min() < _MIN_MICROS or counts.max() > MAX_MICROS):
        raise OverflowError("timestamp out of datetime's range")
    return np.datetime_as_string(_EPOCH_US + counts.astype("timedelta64[us]"),
                                 unit="us").tolist()


def from_iso(text: str) -> int:
    """Parse an ISO-8601 timestamp back to integer microseconds."""
    delta = datetime.fromisoformat(text) - EPOCH
    return (delta.days * 86_400 + delta.seconds) * MICROS_PER_SECOND + delta.microseconds


class IntegrityError(ValueError):
    """A file or log violates the format or an invariant the simulator guarantees;
    position is that of the one record at fault, when one is."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


# What decoding a record, or mapping one of the wrong shape to an object, can
# raise: a bad or infinite value, a missing key, a value of the wrong type, or
# nesting too deep for the decoder.
RECORD_ERRORS = (ValueError, OverflowError, KeyError, TypeError, AttributeError, RecursionError)


def record_int(value) -> int:
    """A JSON integer field; a float or a boolean is not one."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def record_decimal(value) -> int:
    """An id written as a string of ASCII digits."""
    if type(value) is not str or not (value.isascii() and value.isdigit()):
        raise ValueError(f"{value!r} is not a decimal id")
    return int(value)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)


def write_json(path: str | Path, document: Any, sort_keys: bool = False) -> None:
    """Write one indented JSON document and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_jsonl(path: str | Path, parse: Callable[[Any, int], Any]) -> Iterator:
    """Decode each line and yield parse(record, position), where a record's
    position is its line number less one; the file opens at the first next().

    Any failure on one line, from a blank line or undecodable bytes to a
    record parse rejects, raises IntegrityError naming path:line.
    """
    with open(path, "rb") as fh:
        for position, line in enumerate(fh):
            try:
                if line.isspace():
                    raise ValueError("blank line")
                parsed = parse(json.loads(line), position)
            except RECORD_ERRORS as exc:
                raise IntegrityError(f"{path}:{position + 1}: corrupt record: "
                                     f"{type(exc).__name__}: {exc}") from exc
            yield parsed


def _column(typecode: str, values: np.ndarray) -> array:
    """values as an array of typecode, allocated at exactly their length:
    array(typecode, values.tobytes()) would allocate a sixteenth more."""
    column = array(typecode, [0]) * len(values)
    np.frombuffer(column, dtype=typecode)[:] = values
    return column


class EventKind(str, Enum):
    TWEET_ARRIVAL = "tweet_arrival"
    FANOUT_STEP = "fanout_step"
    PROPAGATION_ARRIVAL = "propagation_arrival"
    TIMELINE_QUERY = "timeline_query"
    RETRY_WRITE = "retry_write"


class EventLoop:
    """Single-threaded virtual-time event queue.

    Events fire in ascending (fire_at, seq) order, and seq is assigned when
    an event is queued, so simultaneous events fire in the order they were
    queued. Pre-drawn arrivals, which make up most events, are kept apart
    from the heap of in-flight events as two columns in firing order: their
    times (int64) and their owners (C int), where an owner indexes the kind
    and payload of one (kind, payload) pair that add_arrivals was given. The
    loop walks the columns by index, merging them with the heap as it runs.
    """

    def __init__(self):
        # (fire_at, seq, kind, payload) of each in-flight event.
        self._heap: list[tuple[int, int, EventKind, Any]] = []
        self._arrival_times = array("q")
        self._arrival_owners = array("i")
        # Each owner's kind and payload.
        self._arrival_kinds: list[EventKind] = []
        self._arrival_payloads: list[Any] = []
        # The position in the arrival columns of the next arrival to fire.
        self._next_arrival = 0
        self._now = 0
        self._handlers: dict[EventKind, Callable[[Any], None]] = {}
        # Also the seq of the next queued event.
        self.scheduled_count = 0
        self.processed_count = 0

    def now(self) -> int:
        return self._now

    def set_handler(self, kind: EventKind, handler: Callable[[Any], None]) -> None:
        self._handlers[kind] = handler

    def add_arrivals(
            self, blocks: Iterable[tuple[EventKind, Iterable[tuple[Any, Sequence[int]]]]]) -> None:
        """Queue every pre-drawn arrival: for each (kind, pairs) block and each
        (payload, times) pair in it, an event of kind at each time, where
        times is a list or an integer array.

        Seqs follow the order given, exactly as if each were scheduled in
        turn. Arrivals are accepted only while no event is queued, so they
        all go in one call and a later call raises; a time before now()
        raises and queues nothing.
        """
        if self.scheduled_count:
            raise ValueError("arrivals must be added in one call, before any other event")
        kinds, payloads, times = [], [], [np.empty(0, dtype=np.int64)]
        for kind, pairs in blocks:
            for payload, payload_times in pairs:
                kinds.append(kind)
                payloads.append(payload)
                times.append(np.asarray(payload_times, dtype=np.int64))
        all_times = np.concatenate(times)
        if all_times.size and all_times.min() < self._now:
            fire_at = int(all_times[np.argmax(all_times < self._now)])
            raise ValueError(f"cannot schedule event at t={fire_at} before now={self._now}")
        # An arrival's seq is its position in all_times, so a stable sort on
        # time is (time, seq) order.
        order = np.argsort(all_times, kind="stable")
        owners = np.repeat(np.arange(len(payloads), dtype=np.intc), [len(t) for t in times[1:]])
        self._arrival_times = _column("q", all_times[order])
        self._arrival_owners = _column("i", owners[order])
        self._arrival_kinds, self._arrival_payloads = kinds, payloads
        self.scheduled_count = all_times.size

    def schedule(self, event: tuple[int, EventKind, Any]) -> int:
        """Queue a (fire_at, kind, payload) event: kind's handler receives the
        payload at fire_at. Returns the event's seq."""
        fire_at, kind, payload = event
        if fire_at < self._now:
            raise ValueError(f"cannot schedule event at t={fire_at} before now={self._now}")
        seq = self.scheduled_count
        heappush(self._heap, (fire_at, seq, kind, payload))
        self.scheduled_count = seq + 1
        return seq

    def close(self) -> None:
        """Drop every handler; the loop runs no event after this.

        Handlers are bound to objects that hold the loop, and that cycle
        would keep them all alive until the next full garbage collection.
        """
        self._handlers.clear()

    @property
    def pending_count(self) -> int:
        return self.scheduled_count - self.processed_count

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end; leaves now() == t_end."""
        if t_end < self._now:
            raise ValueError(f"cannot run to t={t_end} before now={self._now}")
        heap, handlers = self._heap, self._handlers
        times, owners = self._arrival_times, self._arrival_owners
        kinds, payloads = self._arrival_kinds, self._arrival_payloads
        start = self.processed_count
        # next_arrival is the time of arrival i when it fires by t_end, else
        # t_end + 1; only firing an arrival changes it, since no arrival is
        # queued mid-run.
        i, n = self._next_arrival, len(times)
        limit = t_end + 1
        next_arrival = times[i] if i < n and times[i] < limit else limit
        while True:
            # Every arrival was queued before any heap event, so its seq is
            # smaller and it fires first on a tie.
            if heap and heap[0][0] < next_arrival:
                fire_at, _, kind, payload = heappop(heap)
            elif next_arrival < limit:
                owner = owners[i]
                fire_at, kind, payload = next_arrival, kinds[owner], payloads[owner]
                # Stored before the handler runs, which may raise.
                i = self._next_arrival = i + 1
                next_arrival = times[i] if i < n and times[i] < limit else limit
            else:
                break
            self._now = fire_at
            handlers[kind](payload)
            self.processed_count += 1
        self._now = t_end
        return self.processed_count - start


class RngStreams:
    """Labelled deterministic substreams of a single master seed.

    Each call re-derives the stream from (seed, label), so two calls with
    the same label restart the same sequence; hold the generator if you
    need a continuing stream.
    """

    def __init__(self, master_seed: int):
        if master_seed < 0:
            raise ValueError("master seed must be non-negative")
        self.master_seed = int(master_seed)

    def stream(self, label: str) -> np.random.Generator:
        digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
        key = int.from_bytes(digest, "big")
        return np.random.default_rng(np.random.SeedSequence([self.master_seed, key]))


@dataclass(frozen=True)
class DistributionSpec:
    """A named non-negative delay distribution.

    distribution is "constant" or "exponential"; mean_ms doubles as the
    fixed value for "constant".
    """

    distribution: str = "exponential"
    mean_ms: float = 0.0

    def __post_init__(self):
        if self.distribution not in ("constant", "exponential"):
            raise ValueError(f"unknown distribution kind: {self.distribution!r}")
        if self.mean_ms < 0:
            raise ValueError("mean_ms must be non-negative")


# Samplers draw this many values per numpy call. numpy's block draws equal
# the same number of scalar draws value for value, and each stream feeds one
# sampler, so the buffering changes no output.
SAMPLE_BLOCK = 1024


def _block_sampler(draw_block: Callable[[], list[int]]) -> Callable[[], int]:
    """A () -> int that hands out draw_block()'s values in order, refilling as needed."""
    return partial(next, chain.from_iterable(iter(draw_block, None)))


def make_sampler(spec: DistributionSpec, stream: np.random.Generator) -> Callable[[], int]:
    """Build a () -> microseconds sampler for a delay distribution."""
    if spec.distribution == "constant":
        value = round(spec.mean_ms * MICROS_PER_MS)
        return lambda: value
    scale = spec.mean_ms * MICROS_PER_MS
    # int() of each scalar draw truncates toward zero, as astype does.
    return _block_sampler(
        lambda: stream.exponential(scale, SAMPLE_BLOCK).astype(np.int64).tolist())


def choice_sampler(n: int, stream: np.random.Generator) -> Callable[[], int]:
    """Build a () -> int sampler uniform on range(n), equal to int(stream.integers(n))."""
    return _block_sampler(lambda: stream.integers(n, size=SAMPLE_BLOCK).tolist())
