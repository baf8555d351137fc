"""The consistency baseline: no replication lag, fan-out inside the post.

Every served timeline then equals the one a single totally ordered server
would produce, so the detector must find exactly nothing.
"""

from dataclasses import replace

from feedsim.app import run_experiment
from feedsim.config import zero_delay_config
from feedsim.detect import TweetIndex, detect_all
from feedsim.netgen import build_network, build_profile
from feedsim.sim import RngStreams

cfg = replace(zero_delay_config(seed=1), n_producers=136, n_consumers=393,
              duration_hours=2.0)
rng = RngStreams(cfg.seed)
network = build_network(cfg.n_producers, cfg.n_consumers, cfg.zipf, rng)
profile = build_profile(network, cfg.zipf, rng)

print(f"running {cfg.duration_hours:.0f} virtual hours, synchronous fan-out, zero lag ...")
artifacts = run_experiment(network, profile, cfg)
print(f"{len(artifacts.tweet_log)} tweets, {len(artifacts.responses)} responses, "
      f"{artifacts.updates_committed} timeline writes")

result = detect_all(artifacts.responses, TweetIndex(artifacts.tweet_log, network),
                    n_timeline=cfg.n_timeline, analysis_window_fraction=1.0)
print(f"observable conflicts over the whole corpus: {len(result.records)}")
assert not result.records, "a zero-delay run can never conflict"
print("consistent, as construction demands")
