"""Simulated replicated key-value store with eventual consistency.

Every write is conditional: it commits only if the key's authoritative
(highest committed) value is the one the writer expected, which gives
per-key strong write ordering. A write commits at one home replica and
propagates to the others after a sampled lag; reads hit a uniformly random
replica and may be stale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

from .sim import (
    DistributionSpec,
    EventKind,
    EventLoop,
    RngStreams,
    choice_sampler,
    make_sampler,
)


@dataclass(frozen=True)
class StoreConfig:
    n_replicas: int = 3
    lag: DistributionSpec = field(default_factory=lambda: DistributionSpec("exponential", 500.0))

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")


class CasResult(NamedTuple):
    ok: bool
    current: Any  # the authoritative value after the call


# CasResult of an (ok, current) tuple, without the namedtuple's Python-level __new__.
_cas_result = partial(tuple.__new__, CasResult)
# An Enum member read from its class costs a metaclass lookup per use.
_PROPAGATION_ARRIVAL = EventKind.PROPAGATION_ARRIVAL


class ReplicatedStore:
    """All mutation happens inside the owning event loop; never share across threads."""

    def __init__(self, config: StoreConfig, loop: EventLoop, rng: RngStreams):
        self.config = config
        self._loop = loop
        self._replicas: list[dict[Any, tuple[int, Any]]] = [
            {} for _ in range(config.n_replicas)
        ]
        self._authoritative: dict[Any, tuple[int, Any]] = {}
        # The values of the replicas a write committed at each home propagates
        # to, in order.
        self._peers = [tuple(values for r, values in enumerate(self._replicas) if r != home)
                       for home in range(config.n_replicas)]
        self._now, self._schedule = loop.now, loop.schedule
        self._lag_sample = make_sampler(config.lag, rng.stream("store.lag"))
        self._read_replica = choice_sampler(config.n_replicas, rng.stream("store.read"))
        self._home_replica = choice_sampler(config.n_replicas, rng.stream("store.home"))
        self.max_lag_sample_us = 0
        self.write_count = 0
        self.cas_failure_count = 0
        loop.set_handler(EventKind.PROPAGATION_ARRIVAL, self._on_propagation)

    def _on_propagation(self, payload: tuple[dict, Any, tuple[int, Any]]) -> None:
        # payload is the target replica's values, the key and the entry.
        # Last writer by version wins; late lower-version arrivals are dropped.
        values, key, entry = payload
        current = values.get(key)
        if current is None or entry[0] > current[0]:
            values[key] = entry

    def conditional_write(self, key: Any, expected: Any, new_value: Any) -> CasResult:
        """Commit new_value iff the authoritative value equals expected.

        Either way the authoritative value after the call is returned, so on
        failure the caller can recompute and retry.
        """
        current = self._authoritative.get(key)
        value = None if current is None else current[1]
        # A writer usually expects the very tuple the store holds.
        if value is not expected and value != expected:
            self.cas_failure_count += 1
            return _cas_result((False, value))
        entry = (1 if current is None else current[0] + 1, new_value)
        now = self._now()
        home = self._home_replica()
        self._authoritative[key] = entry
        # The new version is above every replica's, so the home takes it as is.
        self._replicas[home][key] = entry
        for values in self._peers[home]:
            lag = self._lag_sample()
            if lag > self.max_lag_sample_us:
                self.max_lag_sample_us = lag
            self._schedule((now + lag, _PROPAGATION_ARRIVAL, (values, key, entry)))
        self.write_count += 1
        return _cas_result((True, new_value))

    def read_with_source(self, key: Any) -> tuple[int, Any]:
        """Read from a uniformly random replica: (replica, value), where the
        value may be stale, or None for a key the replica lacks."""
        replica = self._read_replica()
        entry = self._replicas[replica].get(key)
        return replica, None if entry is None else entry[1]

    def authoritative_read(self, key: Any) -> Any:
        """Highest-version committed value across replicas and in-flight updates."""
        entry = self._authoritative.get(key)
        return None if entry is None else entry[1]

    def replica_value(self, replica: int, key: Any) -> Any:
        entry = self._replicas[replica].get(key)
        return None if entry is None else entry[1]

    def is_converged(self) -> bool:
        """True when every replica holds the authoritative value for every key."""
        return all(
            self._replicas[r].get(key) == auth
            for key, auth in self._authoritative.items()
            for r in range(self.config.n_replicas)
        )
