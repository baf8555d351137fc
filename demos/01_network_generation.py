"""Generate a synthetic following network and workload, then inspect it.

Degrees and rates are Zipf-shaped: a few very popular producers, a few
very chatty ones, and no correlation between the two.
"""

import numpy as np

from feedsim import RngStreams, ZipfParams, build_network, build_profile, validate_profile

rng = RngStreams(7)
params = ZipfParams()  # desk defaults: 13.38 followers, 4.63 follows, 1 and 5.8 events/h

print("generating 679 producers x 1963 consumers ...")
network = build_network(679, 1963, params, rng)
profile = build_profile(network, params, rng)

out_degrees = network.out_degrees()
in_degrees = network.in_degrees()
print(f"edges: {network.edge_count}")
print(f"follows per consumer:  mean {out_degrees.mean():.2f}  max {out_degrees.max()}")
print(f"followers per producer: mean {in_degrees.mean():.2f}  max {in_degrees.max()}")
print(f"tweet rate /h:  mean {profile.producer_rate.mean():.2f}  "
      f"max {profile.producer_rate.max():.2f}")
print(f"query rate /h:  mean {profile.consumer_rate.mean():.2f}  "
      f"max {profile.consumer_rate.max():.2f}")

# the most-followed producers, in-degree decays like rank**-0.39
top = np.argsort(in_degrees)[::-1][:5]
print("most followed producers:", [(int(p), int(in_degrees[p])) for p in top])

report = validate_profile(network, profile, params)
print("\nvalidation:")
for check in report.checks:
    fit = "n/a" if check.fitted_s is None else f"{check.fitted_s:.2f}"
    print(f"  {check.name}: mean {check.realized_mean:.2f} "
          f"(target {check.target_mean:.2f}), zipf fit {fit} (target {check.target_s})")
print(f"  degree/rate spearman: {report.degree_rate_spearman:+.3f} (want ~0)")
print(f"  passed: {report.passed}")
