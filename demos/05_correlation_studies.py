"""Who causes inconsistency, and who runs into it?

Re-runs the anomaly configuration and correlates conflict incidents with
producer popularity and activity, and with consumer follow counts and
query counts. Popularity is the only strong signal: big fan-outs take
long, so popular producers' tweets go missing observably.
"""

from feedsim.analytics import attribute_to_producers, correlation_studies
from feedsim.app import run_experiment
from feedsim.config import ExperimentConfig
from feedsim.detect import TweetIndex, detect_all
from feedsim.netgen import build_network, build_profile
from feedsim.sim import RngStreams

cfg = ExperimentConfig()
rng = RngStreams(cfg.seed)
network = build_network(cfg.n_producers, cfg.n_consumers, cfg.zipf, rng)
profile = build_profile(network, cfg.zipf, rng)
artifacts = run_experiment(network, profile, cfg)
result = detect_all(artifacts.responses, TweetIndex(artifacts.tweet_log, network),
                    n_timeline=cfg.n_timeline,
                    analysis_window_fraction=cfg.analysis_window_fraction)

print("top offenders (records attributed to the missing tweet's producer):")
attribution = attribute_to_producers(result)
for producer, count in sorted(attribution.items(), key=lambda kv: -kv[1])[:5]:
    print(f"  producer {producer:>4}: {count:>3} records, "
          f"{len(network.followers[producer])} followers, "
          f"{result.tweet_counts.get(producer, 0)} tweets")

print("\nrank correlations over conflict participants (log-log scatter style):")
for study in correlation_studies(result, network):
    value = "degenerate" if study.degenerate else f"{study.spearman:+.3f}"
    print(f"  {study.spec.x_label:<26} vs {study.spec.y_label:<21} "
          f"spearman {value}  ({len(study.points)} points)")
print("\nonly producer popularity correlates strongly; activity and consumer "
      "behavior barely matter here")
