import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feedsim.netgen as netgen_module
from feedsim.netgen import (
    FollowingNetwork,
    InfeasibleParametersError,
    ZipfPair,
    ZipfParams,
    ZipfSampler,
    build_network,
    build_profile,
    load_network_profile,
    WorkloadProfile,
    save_network_profile,
    validate_profile,
)
from feedsim.sim import RngStreams
from feedsim.stats import rank_correlation

DESK = dict(n_producers=679, n_consumers=1963)


def stream(label="s", seed=11):
    return RngStreams(seed).stream(label)


def desk_network(seed=11):
    rng = RngStreams(seed)
    net = build_network(DESK["n_producers"], DESK["n_consumers"], ZipfParams(), rng)
    profile = build_profile(net, ZipfParams(), rng)
    return net, profile


def test_zipf_s0_is_uniform_chi_square():
    sampler = ZipfSampler(10, 0.0)
    draws = sampler.sample_many(100_000, stream())
    counts = np.bincount(draws, minlength=11)[1:]
    expected = 10_000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 21.67  # chi-square critical value, df=9, alpha=0.01


def test_zipf_single_rank_always_one():
    for s in (2.0, 0.5):
        assert ZipfSampler(1, s).sample_many(10, stream()).tolist() == [1] * 10


def test_zipf_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.1)


def test_zipf_head_probability_ratio():
    draws = ZipfSampler(1000, 0.62).sample_many(1_000_000, stream())
    p1 = np.count_nonzero(draws == 1)
    p2 = np.count_nonzero(draws == 2)
    assert abs((p1 / p2) / 2 ** 0.62 - 1) < 0.05


def test_build_network_single_producer():
    params = ZipfParams(consumers_per_producer=ZipfPair(3.0, 0.39),
                        producers_per_consumer=ZipfPair(1.0, 0.62))
    net = build_network(1, 3, params, RngStreams(11))
    assert net.follows == {0: (0,), 1: (0,), 2: (0,)}
    assert net.followers == {0: (0, 1, 2)}


def test_build_network_desk_scale_targets():
    net, _ = desk_network()
    assert net.followers == {p: tuple(c for c in range(net.n_consumers) if p in net.follows[c])
                             for p in range(net.n_producers)}
    out_degrees = net.out_degrees()
    in_degrees = net.in_degrees()
    assert abs(out_degrees.mean() - 4.63) <= 0.1 * 4.63
    assert abs(in_degrees.mean() - 13.38) <= 0.1 * 13.38
    assert out_degrees.sum() == in_degrees.sum() == net.edge_count


def test_from_follows_derives_sorted_followers():
    # Consumers out of id order, as a network file may list them.
    net = FollowingNetwork.from_follows(3, {2: (0, 2), 0: (1, 2), 1: (2,)})
    assert (net.n_producers, net.n_consumers) == (3, 3)
    assert net.followers == {0: (2,), 1: (0,), 2: (0, 1, 2)}


@pytest.mark.parametrize("follows,message", [
    ({0: (0,), 1: ()}, "consumer 1 follows nobody"),
    ({0: (1, 1)}, "consumer 0 has duplicate follows"),
    ({0: (1, 0)}, "consumer 0 follow list not sorted"),
    ({0: (0, 2)}, "consumer 0 follows unknown producer 2"),
    ({0: (-1, 0)}, "consumer 0 follows unknown producer -1"),
])
def test_from_follows_rejects_bad_follow_lists(follows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FollowingNetwork.from_follows(2, follows)


def test_build_network_rejects_imbalanced_means():
    params = ZipfParams(consumers_per_producer=ZipfPair(13.38, 0.39),
                        producers_per_consumer=ZipfPair(4.63, 0.62))
    with pytest.raises(InfeasibleParametersError):
        build_network(10, 1000, params, RngStreams(11))


def test_build_network_rejects_mean_above_population():
    params = ZipfParams(consumers_per_producer=ZipfPair(2.5, 0.39),
                        producers_per_consumer=ZipfPair(2.5, 0.62))
    with pytest.raises(InfeasibleParametersError):
        build_network(2, 2, params, RngStreams(11))


def test_generation_is_seed_deterministic():
    net1, prof1 = desk_network(seed=5)
    net2, prof2 = desk_network(seed=5)
    assert net1.follows == net2.follows
    assert np.array_equal(prof1.producer_rate, prof2.producer_rate)
    assert np.array_equal(prof1.consumer_rate, prof2.consumer_rate)
    net3, _ = desk_network(seed=6)
    assert net1.follows != net3.follows


def test_profile_hits_means_exactly_and_stays_positive():
    net, profile = desk_network()
    assert abs(profile.producer_rate.mean() - 1.0) < 1e-6
    assert abs(profile.consumer_rate.mean() - 5.8) < 1e-6
    assert profile.producer_rate.min() > 0
    assert profile.consumer_rate.min() > 0


def test_profile_single_producer_rate_is_the_mean():
    params = ZipfParams(consumers_per_producer=ZipfPair(3.0, 0.39),
                        producers_per_consumer=ZipfPair(1.0, 0.62))
    net = build_network(1, 3, params, RngStreams(11))
    profile = build_profile(net, params, RngStreams(11))
    assert profile.producer_rate[0] == pytest.approx(1.0)


def test_validate_profile_desk_passes_with_exponent_fits():
    net, profile = desk_network()
    report = validate_profile(net, profile, ZipfParams())
    assert report.passed
    for check in report.checks:
        assert check.mean_ok
        assert check.fitted_s is not None
        assert check.s_ok
    assert abs(report.degree_rate_spearman) < 0.1


def test_validate_profile_flags_misscaled_rates():
    net, profile = desk_network()
    profile.producer_rate = profile.producer_rate * 3
    report = validate_profile(net, profile, ZipfParams())
    assert not report.passed
    assert any(not c.mean_ok for c in report.checks)


def test_validate_profile_hand_built_exact_means():
    from oracles import make_network
    from feedsim.netgen import WorkloadProfile

    net = make_network({0: (0, 1), 1: (1,)}, n_producers=2)
    profile = WorkloadProfile(producer_rate=np.array([2.0, 4.0]),
                              consumer_rate=np.array([1.0, 3.0]))
    targets = ZipfParams(consumers_per_producer=ZipfPair(1.5, 0.39),
                         producers_per_consumer=ZipfPair(1.5, 0.62),
                         producer_rate_per_hour=ZipfPair(3.0, 0.57),
                         consumer_rate_per_hour=ZipfPair(2.0, 0.62))
    report = validate_profile(net, profile, targets)
    by_name = {c.name: c for c in report.checks}
    assert by_name["consumers_per_producer"].realized_mean == pytest.approx(1.5)
    assert by_name["producers_per_consumer"].realized_mean == pytest.approx(1.5)
    assert by_name["producer_rate_per_hour"].realized_mean == pytest.approx(3.0)
    assert by_name["consumer_rate_per_hour"].realized_mean == pytest.approx(2.0)


def test_degree_and_rate_are_independent():
    net, profile = desk_network(seed=3)
    rho = rank_correlation(net.in_degrees(), profile.producer_rate)
    assert abs(rho) < 0.1


# The per-consumer draw, the reference the bulk draw must equal.
CHOOSE_DISTINCT = netgen_module._choose_distinct


class CountingStream:
    """A stream that records the size of each uniform draw made from it."""

    def __init__(self, stream):
        self.stream, self.draws = stream, []

    def random(self, size):
        self.draws.append(size)
        return self.stream.random(size)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def assert_bulk_follows_equal_per_consumer(n, s, degrees, seed):
    """The two streams' uniform draw sizes, bulk then per-consumer."""
    sampler = ZipfSampler(n, s)
    degrees = np.array(degrees, dtype=np.int64)
    bulk = CountingStream(RngStreams(seed).stream("g"))
    reference = CountingStream(RngStreams(seed).stream("g"))
    drawn = netgen_module._choose_follows(sampler._cdf, sampler.pmf, degrees, bulk)
    assert drawn == [tuple(CHOOSE_DISTINCT(sampler._cdf, sampler.pmf, int(k), reference).tolist())
                     for k in degrees]
    # Both streams end in the same state, so the next draw is equal too.
    assert bulk.random(1) == reference.random(1)
    return bulk.draws[:-1], reference.draws[:-1]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.floats(0.0, 3.0), st.lists(st.integers(1, 45), max_size=25),
       st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 8))
def test_bulk_follow_draws_equal_per_consumer_draws(n, s, degrees, seed, bulk_min, extra):
    # Degrees up to past n interleave the k >= n, 3k >= n and 3k < n branches;
    # a steep popularity curve makes first batches fall short. Small bulk
    # bounds let a few consumers make several bulk draws.
    with patch.object(netgen_module, "_BULK_MIN", bulk_min), \
            patch.object(netgen_module, "_BULK_MAX", bulk_min + extra):
        assert_bulk_follows_equal_per_consumer(n, s, degrees, seed)


def test_bulk_follow_draws_replay_each_short_batch():
    replayed = []

    def replay(cdf, pmf, k, stream):
        replayed.append(k)
        return CHOOSE_DISTINCT(cdf, pmf, k, stream)

    degrees = [5, 4, 9, 30, 5, 60, 7, 6, 8, 70, 4, 5, 9, 9]
    with patch.object(netgen_module, "_choose_distinct", replay), \
            patch.object(netgen_module, "_BULK_MIN", 1):
        assert_bulk_follows_equal_per_consumer(60, 1.5, degrees, 4)
    # The 3k >= n consumers draw alone, and some 3k < n ones were replayed
    # (or drawn alone after a bulk draw kept none) and the others drawn in bulk.
    assert [k for k in replayed if 3 * k >= 60] == [30, 60, 70]
    assert 0 < len([k for k in replayed if 3 * k < 60]) < 11


def desk_degrees(n_consumers, seed):
    """Out-degrees drawn as build_network draws them for the desk network."""
    sampler = ZipfSampler(679, ZipfParams().producers_per_consumer.s)
    ranks = sampler.sample_many(n_consumers, RngStreams(seed).stream("d"))
    f = netgen_module._calibrate_degree_scale(sampler, ZipfParams().producers_per_consumer.mean,
                                              679)
    return np.clip(np.round(f * ranks), 1, 679).astype(np.int64)


@pytest.mark.parametrize("s", [0.39, 1.0, 2.0])
def test_bulk_follow_draws_waste_no_more_than_they_keep(s):
    # At s = 2 most of a consumer's first batch is the top producer, so most
    # consumers fall short and are replayed; the draws thrown away must stay
    # in proportion to those kept, however many consumers there are.
    degrees = desk_degrees(3000, 5)
    with patch.object(netgen_module, "_BULK_MAX", 256):
        bulk, reference = assert_bulk_follows_equal_per_consumer(679, s, degrees, 6)
    assert sum(bulk) <= 3 * sum(reference)
    # No one draw spans more than _BULK_MAX consumers' first batches.
    assert max(bulk) <= np.sort(np.maximum(2 * degrees, 8))[-256:].sum()


NETWORK_RATES = st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 1e16, 1.7976931348623157e308]) | \
    st.floats(0.0, 1e6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_network_file_equals_json_dumps_of_each_record(tmp_path_factory, data):
    producer_rates = data.draw(st.lists(NETWORK_RATES, min_size=1, max_size=6))
    n_producers = len(producer_rates)
    follows = data.draw(st.lists(
        st.sets(st.integers(0, n_producers - 1), min_size=1).map(sorted).map(tuple),
        min_size=1, max_size=6))
    consumer_rates = data.draw(st.lists(NETWORK_RATES, min_size=len(follows),
                                        max_size=len(follows)))
    network = FollowingNetwork.from_follows(n_producers, dict(enumerate(follows)))
    path = tmp_path_factory.mktemp("net") / "network.jsonl"
    save_network_profile(path, network, WorkloadProfile(np.array(producer_rates),
                                                        np.array(consumer_rates)))
    records = ([{"c": c, "p": list(p)} for c, p in enumerate(follows)]
               + [{"producer": p, "rate_per_hour": r} for p, r in enumerate(producer_rates)]
               + [{"consumer": c, "rate_per_hour": r} for c, r in enumerate(consumer_rates)])
    assert path.read_text() == "".join(json.dumps(record) + "\n" for record in records)


def test_network_file_rejects_rates_json_cannot_load(tmp_path):
    network = FollowingNetwork.from_follows(1, {0: (0,)})
    for rate in (np.inf, np.nan):
        with pytest.raises(ValueError, match="rates must be finite"):
            save_network_profile(tmp_path / "network.jsonl", network,
                                 WorkloadProfile(np.array([1.0]), np.array([rate])))


def test_file_roundtrip_is_exact(tmp_path):
    net, profile = desk_network()
    path = tmp_path / "network.jsonl"
    save_network_profile(path, net, profile)
    loaded_net, loaded_profile = load_network_profile(path)
    assert loaded_net.follows == net.follows
    assert loaded_net.followers == net.followers
    assert np.array_equal(loaded_profile.producer_rate, profile.producer_rate)
    assert np.array_equal(loaded_profile.consumer_rate, profile.consumer_rate)


def test_load_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"c": 0, "p": [0]}\nnot json\n')
    with pytest.raises(ValueError):
        load_network_profile(path)


def test_load_rejects_unknown_records(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"mystery": 1}\n')
    with pytest.raises(ValueError):
        load_network_profile(path)


def test_full_scale_shape_targets():
    # Population sizes and distribution targets at full scale; shape only,
    # not exact head values.
    rng = RngStreams(2)
    net = build_network(67_882, 196_283, ZipfParams(), rng)
    out_degrees = net.out_degrees()
    in_degrees = net.in_degrees()
    assert abs(out_degrees.mean() - 4.63) <= 0.1 * 4.63
    assert abs(in_degrees.mean() - 13.38) <= 0.1 * 13.38
    assert in_degrees.max() > 30 * in_degrees.mean()  # heavy popularity head
    assert out_degrees.max() <= 25
    profile = build_profile(net, ZipfParams(), rng)
    assert abs(profile.producer_rate.mean() - 1.0) < 1e-6
    assert abs(profile.consumer_rate.mean() - 5.8) < 1e-6
    rho = rank_correlation(in_degrees, profile.producer_rate)
    assert abs(rho) < 0.1
