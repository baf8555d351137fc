"""Synthetic following-network and workload-rate generation.

Degrees and rates are Zipf-shaped: values are iid rank draws from
P(r) ~ r**-s rescaled to a target mean, while producer popularity (which
shapes in-degree) follows fixed rank weights. Generation is a pure
function of the seeded streams, so the same seed reproduces the same
network bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from pathlib import Path

import numpy as np

from .sim import IntegrityError, RngStreams, read_jsonl, record_int, record_line
from .stats import rank_correlation, rank_size_slope, zipf_rank_mle

MEAN_TOLERANCE = 0.10
EXPONENT_TOLERANCE = 0.25
INDEPENDENCE_THRESHOLD = 0.10
# Degree means may drift from their target by rounding and the min-degree
# floor; feasibility of the two degree means is checked to this slack.
FEASIBILITY_SLACK = 0.01


class InfeasibleParametersError(ValueError):
    """Requested population sizes and degree means cannot coexist."""


@dataclass(frozen=True)
class ZipfPair:
    mean: float
    s: float


@dataclass(frozen=True)
class ZipfParams:
    """Shape parameters of the four skewed workload distributions."""

    consumers_per_producer: ZipfPair = ZipfPair(13.38, 0.39)
    producers_per_consumer: ZipfPair = ZipfPair(4.63, 0.62)
    producer_rate_per_hour: ZipfPair = ZipfPair(1.0, 0.57)
    consumer_rate_per_hour: ZipfPair = ZipfPair(5.8, 0.62)


class ZipfSampler:
    """Rank sampler with P(rank r) proportional to r**-s over 1..rank_count."""

    def __init__(self, rank_count: int, s: float):
        if rank_count < 1:
            raise ValueError("rank_count must be >= 1")
        if s < 0:
            raise ValueError("s must be >= 0")
        self.rank_count = rank_count
        self.s = s
        weights = np.arange(1, rank_count + 1, dtype=float) ** (-s)
        self.pmf = weights / weights.sum()
        self._cdf = np.cumsum(self.pmf)
        self._cdf[-1] = 1.0

    def sample_many(self, n: int, stream: np.random.Generator) -> np.ndarray:
        return np.searchsorted(self._cdf, stream.random(n), side="right").astype(np.int64) + 1

    @property
    def mean(self) -> float:
        return float(np.arange(1, self.rank_count + 1) @ self.pmf)


@dataclass
class FollowingNetwork:
    """Static bipartite consumer -> producer follow relation."""

    n_producers: int
    n_consumers: int
    follows: dict[int, tuple[int, ...]]
    followers: dict[int, tuple[int, ...]]
    # Raw rank draws behind the out-degrees; generation-time diagnostics only.
    out_degree_ranks: np.ndarray | None = None

    @property
    def edge_count(self) -> int:
        return sum(len(p) for p in self.follows.values())

    def out_degrees(self) -> np.ndarray:
        return np.array([len(self.follows[c]) for c in range(self.n_consumers)], dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        return np.array([len(self.followers[p]) for p in range(self.n_producers)], dtype=np.int64)

    @classmethod
    def from_follows(cls, n_producers: int, follows: dict[int, tuple[int, ...]],
                     out_degree_ranks: np.ndarray | None = None) -> FollowingNetwork:
        """The network of these follow lists, with each producer's followers sorted.

        Raises FollowListError naming the first consumer, by id, whose follow
        list is empty, repeats a producer, is unsorted or names an unknown
        producer.
        """
        follower_lists: list[list[int]] = [[] for _ in range(n_producers)]
        for consumer, producers in sorted(follows.items()):
            if len(producers) == 0:
                raise FollowListError(consumer, "follows nobody")
            if len(set(producers)) != len(producers):
                raise FollowListError(consumer, "has duplicate follows")
            if tuple(sorted(producers)) != tuple(producers):
                raise FollowListError(consumer, "follow list not sorted")
            for p in producers:
                if not 0 <= p < n_producers:
                    raise FollowListError(consumer, f"follows unknown producer {p}")
                follower_lists[p].append(consumer)
        return cls(n_producers, len(follows), follows,
                   {p: tuple(consumers) for p, consumers in enumerate(follower_lists)},
                   out_degree_ranks)


class FollowListError(ValueError):
    """A follow list FollowingNetwork.from_follows rejects, and its consumer's id."""

    def __init__(self, consumer: int, problem: str):
        super().__init__(f"consumer {consumer} {problem}")
        self.consumer = consumer


@dataclass
class WorkloadProfile:
    """Per-producer tweet rates and per-consumer query rates (per hour)."""

    producer_rate: np.ndarray
    consumer_rate: np.ndarray
    producer_rate_ranks: np.ndarray | None = None
    consumer_rate_ranks: np.ndarray | None = None


def _calibrate_degree_scale(sampler: ZipfSampler, target_mean: float, max_value: int) -> float:
    """Find f so that E[clip(round(f * rank), 1, max_value)] hits target_mean."""
    ranks = np.arange(1, sampler.rank_count + 1, dtype=float)
    pmf = sampler.pmf

    def realized(f: float) -> float:
        return float(np.clip(np.round(f * ranks), 1, max_value) @ pmf)

    if target_mean > max_value:
        raise InfeasibleParametersError(
            f"mean degree {target_mean} exceeds population size {max_value}"
        )
    lo, hi = 0.0, 2.0 * target_mean / sampler.mean + 1.0
    while realized(hi) < target_mean and hi < 1e12:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if realized(mid) < target_mean:
            lo = mid
        else:
            hi = mid
    return hi


def _choose_distinct(cdf: np.ndarray, pmf: np.ndarray, k: int,
                     stream: np.random.Generator) -> np.ndarray:
    """Draw k distinct indices with probability proportional to pmf."""
    n = len(cdf)
    if k >= n:
        return np.arange(n)
    if 3 * k >= n:
        return np.sort(stream.choice(n, size=k, replace=False, p=pmf))
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < k:
        batch = np.searchsorted(cdf, stream.random(max(2 * (k - len(chosen)), 8)), side="right")
        for idx in batch:
            idx = int(idx)
            if idx not in seen:
                seen.add(idx)
                chosen.append(idx)
                if len(chosen) == k:
                    break
    return np.sort(np.array(chosen, dtype=np.int64))


# A bulk follow draw spans at least _BULK_MIN consumers, since fewer draw
# faster one by one, and at most _BULK_MAX, which bounds its memory.
_BULK_MIN, _BULK_MAX = 64, 4096


def _choose_follows(cdf: np.ndarray, pmf: np.ndarray, degrees: np.ndarray,
                    stream: np.random.Generator) -> list[tuple[int, ...]]:
    """_choose_distinct of each degree k in turn on stream, as tuples, value
    for value and leaving stream where those calls would.

    Consecutive consumers with 3k < n draw the first batch of uniforms of
    each in one call and keep each one's first k distinct indices. A
    consumer in another branch ends the bulk draw. So does one whose first
    batch holds fewer than k distinct indices: it would draw a second batch
    next, so the stream is rewound to its start and it runs through
    _choose_distinct; the draws made for the consumers after it are thrown
    away. The next bulk draw spans at most twice the consumers this one
    kept, so no more is thrown away than was kept. Where fewer than
    _BULK_MIN consumers would be drawn in bulk, the next _BULK_MIN run
    through _choose_distinct one by one instead.
    """
    n = len(cdf)
    follows: list[tuple[int, ...]] = []
    run_ends = np.append(np.flatnonzero(3 * degrees >= n), len(degrees))
    consumer, window = 0, _BULK_MIN
    while consumer < len(degrees):
        stop = min(int(run_ends[np.searchsorted(run_ends, consumer)]), consumer + window)
        if stop - consumer < _BULK_MIN:
            stop = min(consumer + _BULK_MIN, len(degrees))
            follows += [tuple(_choose_distinct(cdf, pmf, k, stream).tolist())
                        for k in degrees[consumer:stop].tolist()]
            consumer, window = stop, _BULK_MIN
            continue
        ks = degrees[consumer:stop]
        batches = np.maximum(2 * ks, 8)
        state = stream.bit_generator.state
        idx = np.searchsorted(cdf, stream.random(int(batches.sum())), side="right")
        owner = np.repeat(np.arange(len(ks)), batches)
        # The first sighting of each index in each batch, in draw order.
        _, sighted = np.unique(owner * n + idx, return_index=True)
        sighted.sort()
        found = np.bincount(owner[sighted], minlength=len(ks))
        rank = np.arange(len(sighted)) - np.repeat(np.cumsum(found) - found, found)
        short = np.flatnonzero(found < ks)
        complete = int(short[0]) if short.size else len(ks)
        kept = sighted[(rank < ks[owner[sighted]]) & (owner[sighted] < complete)]
        chosen = iter((np.sort(owner[kept] * n + idx[kept]) % n).tolist())
        follows += [tuple(islice(chosen, k)) for k in ks[:complete].tolist()]
        consumer += complete
        if complete < len(ks):
            stream.bit_generator.state = state
            stream.random(int(batches[:complete].sum()))
            follows.append(tuple(_choose_distinct(cdf, pmf, int(ks[complete]),
                                                  stream).tolist()))
            consumer += 1
        window = min(2 * complete, _BULK_MAX)
    return follows


def build_network(n_producers: int, n_consumers: int, zipf_params: ZipfParams,
                  rng: RngStreams) -> FollowingNetwork:
    """Generate the static follow relation from rng's "netgen.graph" stream.

    Each consumer's out-degree is an iid Zipf rank draw rescaled to the
    target mean; it then picks that many distinct producers with
    probability proportional to a Zipf popularity weight, which is what
    shapes the in-degree distribution.
    """
    if n_producers < 1 or n_consumers < 1:
        raise ValueError("need at least one producer and one consumer")
    mean_out = zipf_params.producers_per_consumer.mean
    mean_in = zipf_params.consumers_per_producer.mean
    if mean_out < 1:
        raise InfeasibleParametersError("mean out-degree below the minimum degree of 1")
    edges_out = mean_out * n_consumers
    edges_in = mean_in * n_producers
    if abs(edges_out - edges_in) > FEASIBILITY_SLACK * max(edges_out, edges_in):
        raise InfeasibleParametersError(
            f"mean out-degree x consumers ({edges_out:.1f}) and mean in-degree x producers "
            f"({edges_in:.1f}) disagree beyond rounding"
        )

    stream = rng.stream("netgen.graph")
    out_sampler = ZipfSampler(n_producers, zipf_params.producers_per_consumer.s)
    f = _calibrate_degree_scale(out_sampler, mean_out, n_producers)
    ranks = out_sampler.sample_many(n_consumers, stream)
    degrees = np.clip(np.round(f * ranks), 1, n_producers).astype(np.int64)

    popularity = ZipfSampler(n_producers, zipf_params.consumers_per_producer.s)
    pop_pmf, pop_cdf = popularity.pmf, popularity._cdf

    follows = dict(enumerate(_choose_follows(pop_cdf, pop_pmf, degrees, stream)))
    return FollowingNetwork.from_follows(n_producers, follows, out_degree_ranks=ranks)


def build_profile(network: FollowingNetwork, zipf_params: ZipfParams,
                  rng: RngStreams) -> WorkloadProfile:
    """Assign Zipf-shaped tweet/query rates, rescaled to exact target means.

    Rates come from rng's "netgen.rates" stream, drawn independently of the
    follow graph, so a producer's popularity says nothing about how often
    it posts.
    """
    stream = rng.stream("netgen.rates")

    def draw_rates(count: int, pair: ZipfPair) -> tuple[np.ndarray, np.ndarray]:
        sampler = ZipfSampler(count, pair.s)
        ranks = sampler.sample_many(count, stream)
        values = ranks.astype(float)
        rates = values * (pair.mean / values.mean())
        return rates, ranks

    producer_rate, producer_ranks = draw_rates(network.n_producers,
                                               zipf_params.producer_rate_per_hour)
    consumer_rate, consumer_ranks = draw_rates(network.n_consumers,
                                               zipf_params.consumer_rate_per_hour)
    return WorkloadProfile(
        producer_rate=producer_rate,
        consumer_rate=consumer_rate,
        producer_rate_ranks=producer_ranks,
        consumer_rate_ranks=consumer_ranks,
    )


@dataclass
class DistributionCheck:
    name: str
    target_mean: float
    realized_mean: float
    mean_ok: bool
    target_s: float
    fitted_s: float | None
    s_ok: bool | None


@dataclass
class ValidationReport:
    checks: list[DistributionCheck]
    degree_rate_spearman: float | None
    independence_ok: bool
    passed: bool


def validate_profile(network: FollowingNetwork, profile: WorkloadProfile,
                     targets: ZipfParams) -> ValidationReport:
    """Compare realized means and Zipf exponents against their targets.

    Exponent fits use the raw rank draws when the network/profile still
    carry them (generation time); for data loaded from disk the fit is
    skipped and only the means are checked.
    """

    def check(name: str, values: np.ndarray, pair: ZipfPair,
              ranks: np.ndarray | None, rank_count: int,
              rank_size: bool = False) -> DistributionCheck:
        realized = float(np.mean(values))
        mean_ok = abs(realized - pair.mean) <= MEAN_TOLERANCE * pair.mean
        fitted: float | None = None
        if rank_size:
            fitted = rank_size_slope(values)
        elif ranks is not None and rank_count >= 2:
            fitted = zipf_rank_mle(ranks, rank_count)
        s_ok = None if fitted is None else abs(fitted - pair.s) <= EXPONENT_TOLERANCE
        return DistributionCheck(name, pair.mean, realized, mean_ok, pair.s, fitted, s_ok)

    in_degrees = network.in_degrees()
    out_degrees = network.out_degrees()
    checks = [
        check("consumers_per_producer", in_degrees, targets.consumers_per_producer,
              None, network.n_producers, rank_size=True),
        check("producers_per_consumer", out_degrees, targets.producers_per_consumer,
              network.out_degree_ranks, network.n_producers),
        check("producer_rate_per_hour", profile.producer_rate, targets.producer_rate_per_hour,
              profile.producer_rate_ranks, network.n_producers),
        check("consumer_rate_per_hour", profile.consumer_rate, targets.consumer_rate_per_hour,
              profile.consumer_rate_ranks, network.n_consumers),
    ]

    rho = rank_correlation(in_degrees, profile.producer_rate)
    independence_ok = rho is None or abs(rho) < INDEPENDENCE_THRESHOLD
    passed = (
        all(c.mean_ok for c in checks)
        and independence_ok
        and all(c.s_ok is not False for c in checks)
    )
    return ValidationReport(checks, rho, independence_ok, passed)


def save_network_profile(path: str | Path, network: FollowingNetwork,
                         profile: WorkloadProfile) -> None:
    """Write the follow lists and rates as line-delimited JSON: what json.dumps
    would write for each record, byte for byte.

    Ids are integers and rates finite floats, whose repr is what json writes.
    """
    if not (np.isfinite(profile.producer_rate).all() and np.isfinite(profile.consumer_rate).all()):
        raise ValueError("rates must be finite")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines('{"c": %d, "p": [%s]}\n'
                      % (consumer, ", ".join(map(str, network.follows[consumer])))
                      for consumer in range(network.n_consumers))
        fh.writelines('{"producer": %d, "rate_per_hour": %r}\n' % record
                      for record in enumerate(profile.producer_rate.tolist()))
        fh.writelines('{"consumer": %d, "rate_per_hour": %r}\n' % record
                      for record in enumerate(profile.consumer_rate.tolist()))


def _record_rate(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value) or value < 0:
        raise ValueError(f"rate {value!r} is not a finite non-negative number")
    return float(value)


def _network_record(record: dict) -> tuple[str, int, tuple[int, ...] | float]:
    """(table, id, value) of one record; records self-identify by field name."""
    if "c" in record:
        return "follows", record_int(record["c"]), tuple(map(record_int, record["p"]))
    for table in ("producer", "consumer"):
        if table in record:
            return table, record_int(record[table]), _record_rate(record["rate_per_hour"])
    raise ValueError(f"unrecognized record {record!r}")


def load_network_profile(path: str | Path) -> tuple[FollowingNetwork, WorkloadProfile]:
    """Read a file written by save_network_profile; IntegrityError names the file,
    and the line of a record that is malformed, repeats an earlier record's id
    or holds a follow list from_follows rejects."""
    tables: dict[str, dict] = {"follows": {}, "producer": {}, "consumer": {}}
    # Each consumer's follow record's position among the file's records.
    follow_records: dict[int, int] = {}
    positions = count()

    def add(record: dict) -> None:
        position = next(positions)
        table, key, value = _network_record(record)
        if key in tables[table]:
            raise ValueError(f"a second {table} record for id {key}")
        tables[table][key] = value
        if table == "follows":
            follow_records[key] = position

    read_jsonl(path, add)
    follows, producer_rates, consumer_rates = tables.values()

    n_consumers = len(follows)
    n_producers = len(producer_rates)
    if set(follows) != set(range(n_consumers)):
        raise IntegrityError(f"{path}: consumer ids are not a dense 0..N-1 range")
    if set(producer_rates) != set(range(n_producers)):
        raise IntegrityError(f"{path}: producer ids are not a dense 0..N-1 range")
    if set(consumer_rates) != set(range(n_consumers)):
        raise IntegrityError(f"{path}: consumer rate records do not match follow records")
    try:
        network = FollowingNetwork.from_follows(n_producers, follows)
    except FollowListError as exc:
        line = record_line(path, follow_records[exc.consumer])
        raise IntegrityError(f"{path}:{line}: {exc}") from exc
    profile = WorkloadProfile(
        producer_rate=np.array([producer_rates[p] for p in range(n_producers)]),
        consumer_rate=np.array([consumer_rates[c] for c in range(n_consumers)]),
    )
    return network, profile
