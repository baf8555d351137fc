import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedsim.config import ExperimentConfig
from feedsim.sim import DistributionSpec, EventKind, EventLoop, RngStreams
from feedsim.store import ReplicatedStore, StoreConfig


class PropagationLoop(EventLoop):
    """Notes (scheduled_at, fire_at) of every propagation the store schedules."""

    def __init__(self):
        super().__init__()
        self.propagations: list[tuple[int, int]] = []

    def schedule(self, event):
        fire_at, kind, _ = event
        if kind is EventKind.PROPAGATION_ARRIVAL:
            self.propagations.append((self.now(), fire_at))
        return super().schedule(event)

    @property
    def lags(self) -> list[int]:
        return [fire_at - scheduled_at for scheduled_at, fire_at in self.propagations]


def make_store(n_replicas=3, lag=("exponential", 500.0), seed=0, loop_cls=EventLoop):
    loop = loop_cls()
    store = ReplicatedStore(
        StoreConfig(n_replicas=n_replicas, lag=DistributionSpec(*lag)),
        loop, RngStreams(seed),
    )
    return loop, store


def write(store, key, value):
    """Commit value over whatever the key holds; every write is a conditional one."""
    assert store.conditional_write(key, store.authoritative_read(key), value).ok


def test_single_replica_schedules_no_propagation():
    loop, store = make_store(n_replicas=1)
    write(store, "k", "v")
    assert loop.scheduled_count == 0
    assert store.read_with_source("k")[1] == "v"
    assert store.is_converged()


def test_constant_zero_lag_replicas_identical_after_events_fire():
    loop, store = make_store(lag=("constant", 0.0))
    write(store, "k", "v1")
    assert not store.is_converged() or store.config.n_replicas == 1
    loop.run_until(0)
    assert store.is_converged()
    for replica in range(3):
        assert store.replica_value(replica, "k") == "v1"


def test_propagation_delay_mean_within_5_percent():
    loop, store = make_store(lag=("exponential", 100.0), loop_cls=PropagationLoop)
    for i in range(10_000):
        write(store, f"k{i}", i)
    assert len(loop.lags) == 20_000
    mean_ms = np.mean(loop.lags) / 1000
    assert abs(mean_ms - 100.0) <= 5.0


def test_conditional_write_success_bumps_version():
    loop, store = make_store(n_replicas=1)
    write(store, "k", "a")
    result = store.conditional_write("k", "a", "b")
    assert result.ok
    assert store.authoritative_read("k") == "b"


def test_conditional_write_stale_expectation_returns_current():
    loop, store = make_store()
    write(store, "k", "fresh")
    result = store.conditional_write("k", "stale", "new")
    assert not result.ok
    assert result.current == "fresh"
    assert store.authoritative_read("k") == "fresh"


def test_conditional_write_absent_key_uses_none_expectation():
    loop, store = make_store()
    assert store.conditional_write("k", "ghost", "v").ok is False
    assert store.conditional_write("k", None, "v").ok is True


def test_interleaved_conditional_writers_lose_no_increments():
    # Two writers racing to increment a counter; each refetches on failure.
    loop, store = make_store()
    pending = {1: 50, 2: 50}
    snapshots = {1: None, 2: None}
    rng = np.random.default_rng(1)
    while any(pending.values()):
        writer = rng.choice([w for w in pending if pending[w]])
        action = rng.random()
        if snapshots[writer] is None or action < 0.3:
            snapshots[writer] = ("snap", store.authoritative_read("counter"))
        else:
            expected = snapshots[writer][1]
            value = 0 if expected is None else expected
            result = store.conditional_write("counter", expected, value + 1)
            if result.ok:
                pending[writer] -= 1
                snapshots[writer] = None
            else:
                snapshots[writer] = ("snap", result.current)
    assert store.authoritative_read("counter") == 100  # serial oracle


def test_read_converges_to_authoritative_after_quiescence():
    loop, store = make_store(seed=7)
    rng = np.random.default_rng(2)
    t = 0
    for _ in range(200):
        t += int(rng.integers(0, 1000))
        loop.run_until(t)
        write(store, f"k{rng.integers(10)}", int(rng.integers(1000)))
    loop.run_until(t + 60_000_000)
    assert store.is_converged()
    for i in range(10):
        key = f"k{i}"
        assert store.read_with_source(key)[1] == store.authoritative_read(key)


def test_stale_read_probability_one_third():
    loop, store = make_store(lag=("exponential", 1000.0), seed=3, loop_cls=PropagationLoop)
    write(store, "k", "old")
    loop.run_until(60_000_000)
    loop.run_until(60_000_000)
    commit_time = loop.now()
    write(store, "k", "new")
    lags = sorted(loop.lags[-2:])
    assert lags[0] != lags[1]
    # exactly one replica is still behind between the two arrivals
    loop.run_until(commit_time + lags[0] + (lags[1] - lags[0]) // 2)
    stale = sum(store.read_with_source("k")[1] == "old" for _ in range(10_000))
    assert abs(stale / 10_000 - 1 / 3) <= 1 / 3 * 0.05


def test_authoritative_read_absent_and_latest():
    loop, store = make_store()
    assert store.authoritative_read("nope") is None
    last = None
    rng = np.random.default_rng(3)
    t = 0
    for i in range(1000):
        t += int(rng.integers(0, 500))
        loop.run_until(t)
        last = int(rng.integers(10_000))
        write(store, "k", last)
    assert store.authoritative_read("k") == last


def test_replica_version_sequences_strictly_increase():
    # Values grow with every write, so a replica going back to a smaller
    # value went back to an older version of that key.
    loop, store = make_store(seed=5, loop_cls=PropagationLoop)
    keys = [f"k{i}" for i in range(5)]
    seen: dict[tuple[int, str], int] = {}
    changes = 0

    def step_to(t):
        nonlocal changes
        for fire_at in sorted({f for _, f in loop.propagations if loop.now() < f <= t}):
            loop.run_until(fire_at)
            for replica in range(3):
                for key in keys:
                    value = store.replica_value(replica, key)
                    if value is None:
                        continue
                    assert value >= seen.get((replica, key), value)
                    changes += value != seen.get((replica, key))
                    seen[(replica, key)] = value
        loop.run_until(t)

    rng = np.random.default_rng(4)
    t = 0
    for value in range(300):
        t += int(rng.integers(0, 2000))
        step_to(t)
        write(store, keys[rng.integers(5)], value)
    step_to(t + 10_000_000)
    assert store.is_converged()
    assert changes > 200  # values moved often enough for a step back to show


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5000)), max_size=40),
       st.integers(0, 2 ** 16))
def test_eventual_convergence_property(ops, seed):
    loop, store = make_store(seed=seed)
    t = 0
    for key, gap in ops:
        t += gap
        loop.run_until(t)
        write(store, f"k{key}", (key, t))
    loop.run_until(t + 600_000_000)
    assert store.is_converged()


def test_store_config_validation():
    with pytest.raises(ValueError):
        StoreConfig(n_replicas=0)
    # A config file from before the one-value policy fields were removed.
    data = ExperimentConfig().to_dict()
    data["store"]["read_policy"] = "uniform_random_replica"
    with pytest.raises(ValueError, match=r"unknown config keys: \['store.read_policy'\]"):
        ExperimentConfig.from_dict(data)
