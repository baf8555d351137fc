"""Offline observable-inconsistency detection.

Reconstructs, for every served response, the timeline a single totally
ordered system would have returned, diffs it against what was actually
served, and keeps only the missing tweets that some other response can
witness: either the flagged response shows items both newer and older
than the hole, or an earlier-timestamped response already contained the
missing tweet. Staleness alone is never a conflict.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .app import ResponseLog, TimelineResponse
from .netgen import FollowingNetwork
from .sim import (MICROS_PER_SECOND, RECORD_ERRORS, IntegrityError, from_iso, read_jsonl,
                  record_decimal, record_int, to_iso, write_jsonl)


class ConflictType(Enum):
    GAP = "gap"
    NEWER_EARLIER = "newer_earlier"


@dataclass(frozen=True, slots=True)
class ConflictRecord:
    response_id: int
    consumer_id: int
    producer_id: int
    t: int
    type: ConflictType
    witness_response_id: int
    gap_us: int


# A consumer's feed: the (producer_id, t) pairs of its followed producers'
# tweets in global order.
Feed = tuple[tuple[int, int], ...]
# A pair's t; made once, since building an itemgetter costs more than a bisect's calls of it.
_pair_t = itemgetter(1)


class TweetIndex:
    """The tweet log's (producer_id, t) pairs, validated on build against the network
    whose producers posted it, and its views: rank maps each pair to its seq, which is
    its position in the (t, seq)-ordered log, so ranks compare in the global order;
    feeds holds each consumer's Feed, and tweet_counts each posting producer's tweets;
    follows holds each consumer's followed producers."""

    def __init__(self, tweet_log: Sequence[tuple[int, int]], network: FollowingNetwork):
        self.rank: dict[tuple[int, int], int] = {}
        self.follows = network.follows
        self.tweet_counts: dict[int, int] = {}
        feeds: dict[int, list[tuple[int, int]] | Feed] = {
            consumer: [] for consumer in network.follows}
        last_t = None
        for seq, key in enumerate(tweet_log):
            producer_id, t = key
            if last_t is not None and t < last_t:
                raise IntegrityError(f"tweet log not strictly ordered at seq {seq}", seq)
            last_t = t
            if key in self.rank:
                raise IntegrityError(f"tweet seq {seq} repeats the identity {key}", seq)
            followers = network.followers.get(producer_id)
            if followers is None:
                raise IntegrityError(f"tweet seq {seq} names unknown producer {producer_id}",
                                     seq)
            self.rank[key] = seq
            self.tweet_counts[producer_id] = self.tweet_counts.get(producer_id, 0) + 1
            for consumer in followers:
                feeds[consumer].append(key)
        # Each list is dropped as its tuple replaces it.
        for consumer, feed in feeds.items():
            feeds[consumer] = tuple(feed)
        self.feeds: dict[int, Feed] = feeds

    def check(self, response_id: int, consumer_id: int, T: int, entries: tuple) -> None:
        """Raise IntegrityError unless every entry the response served is in the
        tweet log, no later than its T and from a producer the consumer follows,
        and the entries are strictly newest-first."""
        prev = len(self.rank)  # above every rank, so the first entry passes
        followed = self.follows[consumer_id]
        for pid, t in entries:
            rank = self.rank.get((pid, t))
            if rank is None:
                raise IntegrityError(f"response {response_id} contains a phantom tweet "
                                     f"({pid}, {t}) that is not in the tweet log", response_id)
            if t > T:
                raise IntegrityError(f"response {response_id} contains a future tweet ({pid}, {t})",
                                     response_id)
            if pid not in followed:
                raise IntegrityError(f"response {response_id} contains an unfollowed "
                                     f"producer's tweet ({pid}, {t})", response_id)
            if rank >= prev:
                raise IntegrityError(f"response {response_id} entries not strictly newest-first",
                                     response_id)
            prev = rank


def consistent_timeline(feeds: dict[int, Feed], consumer_id: int, T: int,
                        n_timeline: int) -> tuple[tuple[int, int], ...]:
    """The n_timeline newest tweets with t <= T in the consumer's feed, as the
    newest-first (producer_id, t) pairs a response serves."""
    feed = feeds.get(consumer_id)
    if feed is None:
        raise ValueError(f"unknown consumer {consumer_id}")
    # The newest tweet with t <= T, counted from the end of the feed, so that a
    # bound of the reversed slice that falls before the first pair clamps to it.
    newest = bisect_right(feed, T, key=_pair_t) - 1 - len(feed)
    return feed[newest:newest - n_timeline:-1]


def find_missing(index: TweetIndex, entries: Sequence[tuple[int, int]],
                 oracle: Sequence[tuple[int, int]]
                 ) -> list[tuple[tuple[int, int], ConflictType]]:
    """Oracle (producer_id, t) pairs absent from the served entries, tagged
    with the conflict type each would be.

    entries must have passed TweetIndex.check, so each has a rank in index
    and they are newest first. A missing tweet is a GAP when the response
    holds both newer and older entries and NEWER_EARLIER when nothing
    served is newer. A tweet older than everything served is mere
    staleness and is left out.
    """
    rank = index.rank
    served = set(entries)
    newest, oldest = (rank[entries[0]], rank[entries[-1]]) if entries else (-1, -1)
    missing = []
    for key in oracle:
        if key in served:
            continue
        position = rank[key]
        if newest < position:
            missing.append((key, ConflictType.NEWER_EARLIER))
        elif oldest < position:
            missing.append((key, ConflictType.GAP))
    return missing


@dataclass
class WitnessIndex:
    """For each tweet, the earliest (T, response_id) of a response that contained it."""

    containments: dict[tuple[int, int], tuple[int, int]]


def build_witness_index(responses: Iterable[tuple[int, int, tuple]]) -> WitnessIndex:
    """Index every served (producer_id, t) key of the (response_id, T, entries)
    triples at its first sighting, which is its earliest witness when they come
    in (T, response_id) order."""
    containments: dict[tuple[int, int], tuple[int, int]] = {}
    for response_id, T, entries in responses:
        pair = (T, response_id)
        for key in entries:
            containments.setdefault(key, pair)
    return WitnessIndex(containments)


def classify(response_id: int, response: TimelineResponse, missing: tuple[int, int],
             conflict_type: ConflictType, witness_index: WitnessIndex) -> ConflictRecord | None:
    """Decide whether one missing tweet is an observable conflict.

    A gap is a conflict as soon as any response contains the tweet; a
    newer-earlier hole needs a witness timestamped strictly earlier than
    the flagged response.
    """
    producer_id, t = missing
    earliest = witness_index.containments.get(missing)
    if earliest is None or (conflict_type is ConflictType.NEWER_EARLIER
                            and earliest[0] >= response.T):
        return None
    gap_us = response.T - t
    if gap_us <= 0:
        raise IntegrityError(
            f"non-positive gap for response {response_id}: tweet at {t} vs T={response.T}",
            response_id)
    return ConflictRecord(
        response_id=response_id,
        consumer_id=response.consumer_id,
        producer_id=producer_id,
        t=t,
        type=conflict_type,
        witness_response_id=earliest[1],
        gap_us=gap_us,
    )


@dataclass
class DetectionResult:
    """What the detector observed with which settings; every conflict count derives
    from the records, the analyzed count from the queries counted in the analysis
    window, and the window's first response id from the two counts."""

    records: list[ConflictRecord]
    total_count: int
    tweet_counts: dict[int, int]
    query_counts: dict[int, int]
    n_timeline: int
    analysis_window_fraction: float

    @cached_property
    def per_response_G(self) -> dict[int, int]:
        """Each conflicting response's G = max(T - t) over its records, in record order."""
        G: dict[int, int] = {}
        for record in self.records:
            G[record.response_id] = max(G.get(record.response_id, record.gap_us), record.gap_us)
        return G

    @property
    def conflicting_count(self) -> int:
        return len(self.per_response_G)

    @property
    def analyzed_count(self) -> int:
        return sum(self.query_counts.values())

    @property
    def analyzed_start_id(self) -> int:
        """The analysis window's first response id, its position in the log; -1 if empty."""
        return self.total_count - self.analyzed_count if self.query_counts else -1

    def type_counts(self) -> dict[str, int]:
        counts = {kind.value: 0 for kind in ConflictType}
        for record in self.records:
            counts[record.type.value] += 1
        return counts

    def to_dict(self) -> dict:
        """The detection_totals.json document."""
        return {
            "total_responses": self.total_count,
            "analyzed_responses": self.analyzed_count,
            "analyzed_start_id": self.analyzed_start_id,
            "conflicting_responses": self.conflicting_count,
            "conflict_records": len(self.records),
            "type_counts": self.type_counts(),
            "n_timeline": self.n_timeline,
            "analysis_window_fraction": self.analysis_window_fraction,
            "per_response_G_us": {str(k): v for k, v in sorted(self.per_response_G.items())},
            "tweet_counts": {str(k): v for k, v in sorted(self.tweet_counts.items())},
            "query_counts": {str(k): v for k, v in sorted(self.query_counts.items())},
        }


def detect_all(log: ResponseLog, index: TweetIndex, *,
               n_timeline: int, analysis_window_fraction: float) -> DetectionResult:
    """Run the full pipeline over the configured analysis window.

    A response's id is its position in the log. The warm-up prefix is
    dropped: only the latter analysis_window_fraction of responses (by count)
    is analyzed, and witnesses are drawn from that same window. Every
    response, warm-up included, is validated, and T must not decrease, so
    the responses are in (T, response_id) order and each tweet's first
    sighting in the window is its earliest witness.
    """
    if not 0 < analysis_window_fraction <= 1:
        raise ValueError("analysis_window_fraction must be in (0, 1]")
    start = len(log) - int(round(len(log) * analysis_window_fraction))
    incomplete = []  # (id, row, what it misses) for analyzed responses unlike their oracle
    prev_T = None
    for i, (consumer_id, T, entries) in enumerate(zip(log.consumer_ids, log.times, log.entries)):
        if prev_T is not None and T < prev_T:
            raise IntegrityError(f"response {i} is timestamped before the response before it", i)
        prev_T = T
        if consumer_id not in index.feeds:
            raise IntegrityError(f"response {i} names unknown consumer {consumer_id}", i)
        if i < start:
            index.check(i, consumer_id, T, entries)
            continue
        oracle = consistent_timeline(index.feeds, consumer_id, T, n_timeline)
        # Serving exactly the oracle proves the entries valid and complete.
        if entries != oracle:
            index.check(i, consumer_id, T, entries)
            incomplete.append((i, log[i], find_missing(index, entries, oracle)))

    # The window's columns are walked in place: a slice would copy them.
    window = zip(count(start), islice(log.times, start, None), islice(log.entries, start, None))
    witness_index = build_witness_index(window if incomplete else [])
    records = [record for i, resp, missing in incomplete for key, conflict_type in missing
               if (record := classify(i, resp, key, conflict_type, witness_index)) is not None]
    return DetectionResult(records, len(log), index.tweet_counts,
                           dict(Counter(islice(log.consumer_ids, start, None))),
                           n_timeline, analysis_window_fraction)


# -- serialization -----------------------------------------------------------


def save_conflict_records(path: str | Path, result: DetectionResult) -> None:
    write_jsonl(path, ({"response_id": record.response_id,
                        "consumer_id": str(record.consumer_id),
                        "producer_id": str(record.producer_id),
                        "t": t,
                        "type": record.type.value,
                        "witness_response_id": record.witness_response_id,
                        "G_seconds": record.gap_us / MICROS_PER_SECOND}
                       for record, t in zip(result.records,
                                            to_iso([record.t for record in result.records]))))


def _record_gap_us(seconds) -> int:
    """G_seconds in whole microseconds; classify writes only a positive gap."""
    gap_us = round(seconds * MICROS_PER_SECOND) if type(seconds) in (int, float) else 0
    if gap_us <= 0:
        raise ValueError(f"G_seconds {seconds!r} is not a positive number of seconds")
    return gap_us


def load_conflict_records(path: str | Path) -> list[ConflictRecord]:
    return list(read_jsonl(path, lambda data, _: ConflictRecord(
        response_id=record_int(data["response_id"]),
        consumer_id=record_decimal(data["consumer_id"]),
        producer_id=record_decimal(data["producer_id"]),
        t=from_iso(data["t"]),
        type=ConflictType(data["type"]),
        witness_response_id=record_int(data["witness_response_id"]),
        gap_us=_record_gap_us(data["G_seconds"]),
    )))


def _counts(table: dict) -> dict[int, int]:
    """Tweets or queries per id; detect_all counts only ids it saw, so each is at least 1."""
    counts = {record_decimal(k): record_int(v) for k, v in table.items()}
    for key, count in counts.items():
        if count < 1:
            raise ValueError(f"id {key} has a count of {count}")
    return counts


def _check_counts(result: DetectionResult) -> None:
    """Raise ValueError for totals that no detect_all run writes."""
    if result.n_timeline < 1:
        raise ValueError(f"n_timeline {result.n_timeline} is not positive")
    fraction = result.analysis_window_fraction
    if type(fraction) not in (int, float) or not 0 < fraction <= 1:
        raise ValueError(f"analysis_window_fraction {fraction!r} is not a number in (0, 1]")
    analyzed = result.analyzed_count
    if not result.conflicting_count <= analyzed <= result.total_count:
        raise ValueError(f"{result.conflicting_count} conflicting, {analyzed} analyzed and "
                         f"{result.total_count} total responses are out of order")


def _check_ids(result: DetectionResult, network: FollowingNetwork, network_path: str | Path,
               records_path: str | Path, totals_path: str | Path) -> None:
    """Raise IntegrityError for an id the network lacks, against the record's
    line when a record names it and against the totals file when a count table does."""
    for index, record in enumerate(result.records):
        for kind, id_, known in (("producer", record.producer_id, network.followers),
                                 ("consumer", record.consumer_id, network.follows)):
            if id_ not in known:
                raise IntegrityError(f"{records_path}:{index + 1}: names {kind} {id_}, "
                                     f"which {network_path} does not hold")
    for table, kind, known in (("tweet_counts", "producer", network.followers),
                               ("query_counts", "consumer", network.follows)):
        if unknown := getattr(result, table).keys() - known.keys():
            raise IntegrityError(f"{totals_path}: {table!r} names {kind} {min(unknown)}, "
                                 f"which {network_path} does not hold")


def _record_id_fault(record: ConflictRecord, window: range) -> str | None:
    """Why detect_all cannot have written the record's ids, or None: both lie
    in the analysis window, a response never witnesses its own hole, and a
    newer-earlier witness has a strictly earlier T, so a smaller id."""
    for name in ("response_id", "witness_response_id"):
        if (id_ := getattr(record, name)) not in window:
            return f"{name} {id_} is outside the analysis window [{window.start}, {window.stop})"
    if record.witness_response_id == record.response_id:
        return f"response {record.response_id} is its own witness"
    if (record.type is ConflictType.NEWER_EARLIER
            and record.witness_response_id > record.response_id):
        return (f"newer_earlier witness {record.witness_response_id} comes after "
                f"response {record.response_id}")
    return None


# The totals keys that echo the conflict records; the totals file owns the others.
_RECORD_KEYS = {"conflicting_responses", "conflict_records", "type_counts", "per_response_G_us"}


def load_detection(records_path: str | Path, totals_path: str | Path,
                   network: FollowingNetwork, network_path: str | Path) -> DetectionResult:
    """The records and, from the totals file, the counts they cannot give;
    the file's other values must echo the records or those counts. Every id
    must be in the network, read from network_path, every consumer must
    have at least as many queries as conflicting responses, and each record's
    ids must be ones detect_all draws."""
    records = load_conflict_records(records_path)
    try:
        with open(totals_path, encoding="utf-8") as fh:
            totals = json.load(fh)
        result = DetectionResult(
            records=records,
            total_count=record_int(totals["total_responses"]),
            tweet_counts=_counts(totals["tweet_counts"]),
            query_counts=_counts(totals["query_counts"]),
            n_timeline=record_int(totals["n_timeline"]),
            analysis_window_fraction=totals["analysis_window_fraction"],
        )
        _check_counts(result)
        rendered = result.to_dict()
    except RECORD_ERRORS as exc:
        raise IntegrityError(
            f"{totals_path}: corrupt totals: {type(exc).__name__}: {exc}") from exc
    expected, found = ({key: json.dumps(value, sort_keys=True) for key, value in doc.items()}
                       for doc in (rendered, totals))
    if differing := sorted(expected.items() ^ found.items()):
        key = differing[0][0]
        if key == "analyzed_responses":
            raise IntegrityError(f"{totals_path}: {key!r} does not match the sum of "
                                 f"'query_counts'")
        if key in _RECORD_KEYS:
            raise IntegrityError(f"{totals_path}: {key!r} does not match {records_path}")
        raise IntegrityError(f"{totals_path}: {key!r} is not written the way detect writes it")
    _check_ids(result, network, network_path, records_path, totals_path)
    conflicting = Counter({r.response_id: r.consumer_id for r in records}.values())
    for consumer, count in conflicting.items():
        if count > (queries := result.query_counts.get(consumer, 0)):
            raise IntegrityError(f"{totals_path}: consumer {consumer} has {count} conflicting "
                                 f"responses but {queries} queries")
    window = range(result.analyzed_start_id, result.total_count)
    for index, record in enumerate(records):
        if fault := _record_id_fault(record, window):
            raise IntegrityError(f"{records_path}:{index + 1}: {fault}")
    return result
