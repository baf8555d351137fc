"""Simulated replicated key-value store with eventual consistency.

Writes commit at one home replica and propagate to the others after a
sampled lag; reads hit a uniformly random replica and may be stale.
Conditional writes validate against the authoritative (highest committed)
version, giving per-key strong write ordering on top of eventually
consistent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class ReplicatedStore:
    """All mutation happens inside the owning event loop; never share across threads."""

    def __init__(self, config: StoreConfig, loop: EventLoop, rng: RngStreams):
        self.config = config
        self._loop = loop
        self._replicas: list[dict[Any, tuple[int, Any]]] = [
            {} for _ in range(config.n_replicas)
        ]
        self._authoritative: dict[Any, tuple[int, Any]] = {}
        # The replicas a write committed at each home propagates to, in order.
        self._peers = [tuple(r for r in range(config.n_replicas) if r != home)
                       for home in range(config.n_replicas)]
        self._lag_sample = make_sampler(config.lag, rng.stream("store.lag"))
        self._read_replica = choice_sampler(config.n_replicas, rng.stream("store.read"))
        self._home_replica = choice_sampler(config.n_replicas, rng.stream("store.home"))
        self.max_lag_sample_us = 0
        self.write_count = 0
        self.cas_failure_count = 0
        loop.set_handler(EventKind.PROPAGATION_ARRIVAL, self._on_propagation)

    def write(self, key: Any, value: Any) -> None:
        """Unconditional write; always succeeds."""
        self._commit(key, self._authoritative.get(key), value)

    def _commit(self, key: Any, current: tuple[int, Any] | None, value: Any) -> None:
        """Commit value over current, the key's authoritative entry."""
        entry = (1 if current is None else current[0] + 1, value)
        now = self._loop.now()
        home = self._home_replica()
        self._authoritative[key] = entry
        # The new version is above every replica's, so the home takes it as is.
        self._replicas[home][key] = entry
        for replica in self._peers[home]:
            lag = self._lag_sample()
            if lag > self.max_lag_sample_us:
                self.max_lag_sample_us = lag
            self._loop.schedule((now + lag, EventKind.PROPAGATION_ARRIVAL, (replica, key, entry)))
        self.write_count += 1

    def _on_propagation(self, payload: tuple[int, Any, tuple[int, Any]]) -> None:
        # Last writer by version wins; late lower-version arrivals are dropped.
        replica, key, entry = payload
        values = self._replicas[replica]
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
        if value != expected:
            self.cas_failure_count += 1
            return CasResult(False, value)
        self._commit(key, current, new_value)
        return CasResult(True, new_value)

    def read(self, key: Any) -> Any:
        """Read from a uniformly random replica; may be stale or absent."""
        return self.read_with_source(key)[1]

    def read_with_source(self, key: Any) -> tuple[int, Any]:
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
