"""Watch a replicated key-value store drift and re-converge in virtual time.

Every write is conditional: it commits only if the key's authoritative
value is the one the writer expected, and a key that was never written
holds None. A write commits at one home replica immediately; the other
replicas catch up after a sampled propagation lag, and random-replica reads
are stale in between.
"""

from feedsim.sim import DistributionSpec, EventLoop, RngStreams
from feedsim.store import ReplicatedStore, StoreConfig

loop = EventLoop()
store = ReplicatedStore(
    StoreConfig(n_replicas=3, lag=DistributionSpec("exponential", 500.0)),
    loop, RngStreams(1),
)


def holders(value):
    return [r for r in range(3) if store.replica_value(r, "greeting") == value]


# The key was never written, so the write that creates it expects None.
result = store.conditional_write("greeting", None, "v1")
print(f"wrote v1 expecting the empty key's None at t=0: ok={result.ok}, held right after "
      f"the commit by replica(s) {holders('v1')}")
print("replica values right after commit:",
      [store.replica_value(r, "greeting") for r in range(3)])

loop.run_until(5_000_000)  # 5 virtual seconds
print("after 5s:", [store.replica_value(r, "greeting") for r in range(3)],
      "converged:", store.is_converged())

result = store.conditional_write("greeting", "v1", "v2")
print(f"\nwrote v2 expecting v1 at t=5s: ok={result.ok}, held right after the commit by "
      f"replica(s) {holders('v2')}")
stale = sum(store.read_with_source("greeting")[1] == "v1" for _ in range(10_000))
print(f"immediately after: {stale / 100:.1f}% of 10k random-replica reads still see v1")

result = store.conditional_write("greeting", "v1", "v3")
print(f"conditional write expecting v1: ok={result.ok}, current={result.current!r}")
result = store.conditional_write("greeting", result.current, "v3")
print(f"retry with returned value:      ok={result.ok}")

loop.run_until(60_000_000)
print("\nafter a quiet minute:", [store.replica_value(r, "greeting") for r in range(3)],
      "converged:", store.is_converged())
