"""A lagged desk-scale run: slow serial fan-out makes conflicts observable.

With one update lane per tweet and a 7.5 s mean service time, a popular
producer's fan-out takes minutes; followers querying mid-fan-out see
timelines that other users can already contradict.
"""

from feedsim.analytics import GAP_BUCKET_WIDTH_S, build_report
from feedsim.app import run_experiment
from feedsim.config import ExperimentConfig
from feedsim.detect import TweetIndex, detect_all
from feedsim.netgen import build_network, build_profile
from feedsim.sim import RngStreams

cfg = ExperimentConfig()
rng = RngStreams(cfg.seed)
network = build_network(cfg.n_producers, cfg.n_consumers, cfg.zipf, rng)
profile = build_profile(network, cfg.zipf, rng)

print(f"running {cfg.duration_hours:.0f} virtual hours at desk scale ...")
artifacts = run_experiment(network, profile, cfg)
print(f"{len(artifacts.tweet_log)} tweets, {len(artifacts.responses)} responses, "
      f"{artifacts.cas_failures} conditional-write retries")
slowest = max(artifacts.fanout_completion_us.values())
print(f"slowest fan-out completion: {slowest / 1e6:.0f} s")

result = detect_all(artifacts.responses, TweetIndex(artifacts.tweet_log, network),
                    n_timeline=cfg.n_timeline,
                    analysis_window_fraction=cfg.analysis_window_fraction)
report = build_report(result, network)
print(f"\nanalyzed {result.analyzed_count} responses (warm-up half excluded)")
print(f"inconsistency rate: {report.rate:.2%} "
      f"({result.conflicting_count} conflicting responses, {len(result.records)} records)")
print(f"gap summary: mean {report.gaps.mean_s:.0f} s, max {report.gaps.max_s:.0f} s, "
      f"{report.gaps.count_above_1s} above 1 s")

print(f"\nG histogram ({GAP_BUCKET_WIDTH_S} s buckets):")
peak = max(report.histogram.values())
for bucket, count in report.histogram.items():
    bar = "#" * max(1, round(40 * count / peak))
    start = bucket * GAP_BUCKET_WIDTH_S
    print(f"  {start:>5}-{start + GAP_BUCKET_WIDTH_S - 1:<5} {count:>5} {bar}")
