"""Deterministic virtual-time event loop, labelled random streams, and the
line codec every log file goes through.

All simulation time is integer microseconds since a fixed epoch. Every
source of randomness is a named substream derived from one master seed,
so a (seed, config) pair pins down an entire run byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from enum import Enum
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

MICROS_PER_MS = 1_000
MICROS_PER_SECOND = 1_000_000
MICROS_PER_HOUR = 3_600_000_000

# Fixed epoch backing the ISO-8601 rendering of virtual timestamps.
EPOCH = datetime(2020, 1, 1)


# "YYYY-MM-DD" of each day since EPOCH that to_iso has rendered.
_ISO_DATES: dict[int, str] = {}


def to_iso(micros: int) -> str:
    """Render a virtual timestamp as ISO-8601 with microsecond precision."""
    seconds, micro = divmod(int(micros), MICROS_PER_SECOND)
    days, seconds = divmod(seconds, 86_400)
    date = _ISO_DATES.get(days)
    if date is None:
        date = _ISO_DATES[days] = (EPOCH + timedelta(days=days)).date().isoformat()
    hour, seconds = divmod(seconds, 3_600)
    minute, second = divmod(seconds, 60)
    return "%sT%02d:%02d:%02d.%06d" % (date, hour, minute, second, micro)


def from_iso(text: str) -> int:
    """Parse an ISO-8601 timestamp back to integer microseconds."""
    delta = datetime.fromisoformat(text) - EPOCH
    return (delta.days * 86_400 + delta.seconds) * MICROS_PER_SECOND + delta.microseconds


class IntegrityError(ValueError):
    """A file or log violates the format or an invariant the simulator guarantees."""


# What mapping a decoded record of the wrong shape to an object can raise:
# a bad or infinite value, a missing key, or a value of the wrong type.
RECORD_ERRORS = (ValueError, OverflowError, KeyError, TypeError, AttributeError)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)


def write_json(path: str | Path, document: Any, sort_keys: bool = False) -> None:
    """Write one indented JSON document and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def read_jsonl(path: str | Path, parse: Callable[[Any], Any]) -> list:
    """Decode each non-blank line and map it through parse.

    Any failure on one line, from undecodable bytes to a record parse
    rejects, raises IntegrityError naming path:line.
    """
    parsed = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                parsed.append(parse(json.loads(line)))
            except RECORD_ERRORS as exc:
                raise IntegrityError(
                    f"{path}:{line_no}: corrupt record: {type(exc).__name__}: {exc}") from exc
    return parsed


class EventKind(Enum):
    TWEET_ARRIVAL = "tweet_arrival"
    FANOUT_STEP = "fanout_step"
    PROPAGATION_ARRIVAL = "propagation_arrival"
    TIMELINE_QUERY = "timeline_query"
    RETRY_WRITE = "retry_write"


@dataclass(slots=True)
class SimEvent:
    """A queued callback: events fire in ascending (fire_at, seq) order.

    seq is assigned by the loop at schedule time, so simultaneous events
    process in the order they were scheduled.
    """

    fire_at: int
    kind: EventKind
    payload: Any = None
    seq: int = -1


class EventLoop:
    """Single-threaded virtual-time event queue."""

    def __init__(self):
        self._heap: list[tuple[int, int, SimEvent]] = []
        self._now = 0
        self._next_seq = 0
        self._handlers: dict[EventKind, Callable[[SimEvent], None]] = {}
        self.scheduled_count = 0
        self.processed_count = 0

    def now(self) -> int:
        return self._now

    def set_handler(self, kind: EventKind, handler: Callable[[SimEvent], None]) -> None:
        self._handlers[kind] = handler

    def schedule(self, event: SimEvent) -> SimEvent:
        """Queue an event; returns it with its seq assigned."""
        if event.fire_at < self._now:
            raise ValueError(
                f"cannot schedule event at t={event.fire_at} before now={self._now}"
            )
        event.seq = self._next_seq
        self._next_seq += 1
        heappush(self._heap, (event.fire_at, event.seq, event))
        self.scheduled_count += 1
        return event

    def schedule_at(self, fire_at: int, kind: EventKind, payload: Any = None) -> SimEvent:
        return self.schedule(SimEvent(fire_at=fire_at, kind=kind, payload=payload))

    @property
    def pending_count(self) -> int:
        return self.scheduled_count - self.processed_count

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_at <= t_end; leaves now() == t_end."""
        if t_end < self._now:
            raise ValueError(f"cannot run to t={t_end} before now={self._now}")
        heap = self._heap
        processed = 0
        while heap and heap[0][0] <= t_end:
            fire_at, _, event = heappop(heap)
            self._now = fire_at
            self._handlers[event.kind](event)
            self.processed_count += 1
            processed += 1
        self._now = t_end
        return processed


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

    kind is "constant" or "exponential"; mean_ms doubles as the fixed
    value for "constant".
    """

    kind: str = "exponential"
    mean_ms: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "exponential"):
            raise ValueError(f"unknown distribution kind: {self.kind!r}")
        if self.mean_ms < 0:
            raise ValueError("mean_ms must be non-negative")

    def to_dict(self) -> dict:
        return {"distribution": self.kind, "mean_ms": self.mean_ms}

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionSpec":
        return cls(kind=data["distribution"], mean_ms=float(data["mean_ms"]))


def make_sampler(spec: DistributionSpec, stream: np.random.Generator) -> Callable[[], int]:
    """Build a () -> microseconds sampler for a delay distribution."""
    if spec.kind == "constant":
        value = round(spec.mean_ms * MICROS_PER_MS)
        return lambda: value
    scale = spec.mean_ms * MICROS_PER_MS
    if scale == 0:
        return lambda: 0
    return lambda: int(stream.exponential(scale))
