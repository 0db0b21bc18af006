import math

import numpy as np
import pytest
from scipy import stats

from densematch import complement_of_random_triangle_free, complete_graph, two_cliques
from densematch.errors import SamplingFailure
from densematch.graphs import from_edge_list
from densematch.sampling import sample_edge_heavy_partition
from helpers import (all_pairings, empirical_deviation_rate, pair_inclusion_frequencies,
                     sample_partition)


def all_pairs(items):
    items = sorted(items)
    return [(a, b) for i, a in enumerate(items) for b in items[i + 1:]]


class TestSamplePartition:
    def test_two_elements(self):
        rng = np.random.default_rng(0)
        assert sample_partition({3, 8}, rng) == ((3, 8),)

    def test_partition_is_perfect(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pairs = sample_partition(range(12), rng)
            assert sorted(x for p in pairs for x in p) == list(range(12))

    def test_all_fifteen_pairings_of_six_appear(self):
        rng = np.random.default_rng(2)
        expected = set(all_pairings(list(range(6))))
        assert len(expected) == 15  # (6-1)!! pairings of a 6-set
        seen = set()
        for _ in range(5000):
            seen.add(tuple(sorted(sample_partition(range(6), rng))))
        assert seen == expected

    def test_uniformity_chi_square(self):
        # frequencies over all pairings must be consistent with uniform
        for size, samples in ((4, 100_000), (6, 100_000)):
            rng = np.random.default_rng(size)
            labels = {p: i for i, p in enumerate(all_pairings(list(range(size))))}
            counts = np.zeros(len(labels))
            for _ in range(samples):
                pairs = sample_partition(range(size), rng)
                counts[labels[tuple(sorted(pairs))]] += 1
            assert stats.chisquare(counts).pvalue >= 1e-3

    def test_odd_set_rejected(self):
        with pytest.raises(ValueError):
            sample_partition({1, 2, 3}, np.random.default_rng(0))

    def test_determinism(self):
        a = [sample_partition(range(10), np.random.default_rng(42)) for _ in range(5)]
        b = [sample_partition(range(10), np.random.default_rng(42)) for _ in range(5)]
        assert a == b


class TestCountIntersection:
    def test_single_pair_mean(self):
        rng = np.random.default_rng(5)
        samples = 40_000
        hits = sum((0, 1) in sample_partition(range(6), rng) for _ in range(samples))
        p = 1 / 5
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(hits / samples - p) < 4 * sigma


class TestPairInclusionLaws:
    def test_smallest_ground_set(self):
        # a fixed pair lands in a uniform pairing of 4 elements 1/3 of the time
        rng = np.random.default_rng(40)
        samples = 30_000
        freq_e, _ = pair_inclusion_frequencies(range(4), (0, 1), (2, 3), samples, rng)
        sigma = math.sqrt((1 / 3) * (2 / 3) / samples)
        assert abs(freq_e - 1 / 3) < 4 * sigma

    @pytest.mark.parametrize("size", [6, 8, 12])
    def test_single_and_joint_inclusion(self, size):
        rng = np.random.default_rng(size * 11)
        samples = 100_000
        freq_e, freq_ef = pair_inclusion_frequencies(
            range(size), (0, 1), (2, 3), samples, rng)
        p_e = 1 / (size - 1)
        p_ef = 1 / ((size - 1) * (size - 3))
        assert abs(freq_e - p_e) < 4 * math.sqrt(p_e * (1 - p_e) / samples)
        assert abs(freq_ef - p_ef) < 4 * math.sqrt(p_ef * (1 - p_ef) / samples)

    def test_agrees_with_plain_sampler(self):
        # same law as counting a pair in sample_partition draws, within noise
        rng = np.random.default_rng(6)
        samples = 30_000
        direct = sum((0, 1) in sample_partition(range(6), rng)
                     for _ in range(samples)) / samples
        freq_e, _ = pair_inclusion_frequencies(range(6), (0, 1), (2, 3), samples,
                                               np.random.default_rng(7))
        sigma = math.sqrt(0.2 * 0.8 / samples)
        assert abs(direct - freq_e) < 6 * sigma

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            pair_inclusion_frequencies(range(6), (0, 1), (1, 2), 10,
                                       np.random.default_rng(0))


class TestDeviationRate:
    def test_full_pair_family_never_deviates(self):
        # |F ∩ X| is |S|/2 deterministically when F holds every pair
        rng = np.random.default_rng(8)
        rate = empirical_deviation_rate(range(8), all_pairs(range(8)), 0.5, 500, rng)
        assert rate == 0.0

    def test_empty_family(self):
        rng = np.random.default_rng(9)
        assert empirical_deviation_rate(range(8), [], 0.5, 200, rng) == 0.0

    def test_two_cliques_bound(self):
        # |F| = 2 * C(20, 2) = 380 edges over a 40-vertex ground set
        g = two_cliques(20)
        rng = np.random.default_rng(10)
        rate = empirical_deviation_rate(range(40), list(g.edges()), 10.0, 10_000, rng)
        bound = min(1.0, 40 / 10.0**2)
        sigma = math.sqrt(bound * (1 - bound) / 10_000)
        assert rate <= bound + 3 * sigma

    def test_random_families_respect_bound(self):
        rng = np.random.default_rng(11)
        for size, lam in ((8, 2.0), (12, 3.0), (20, 6.0)):
            pool = all_pairs(range(size))
            take = rng.permutation(len(pool))[:len(pool) // 3]
            family = [pool[i] for i in take]
            rate = empirical_deviation_rate(range(size), family, lam, 4000, rng)
            bound = min(1.0, size / lam**2)
            assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / 4000) + 1e-12


class TestEdgeHeavyPartition:
    def test_complete_graph_accepts_first_try(self):
        g = complete_graph(4)
        edges, attempts = sample_edge_heavy_partition(g, 2, 100, np.random.default_rng(0))
        assert attempts == 1
        assert all(g.has_edge(u, v) for u, v in edges.tolist())

    def test_edgeless_graph_fails(self):
        g = from_edge_list(6, [])
        with pytest.raises(SamplingFailure) as err:
            sample_edge_heavy_partition(g, 1, 50, np.random.default_rng(0))
        assert err.value.attempts == 50

    def test_zero_threshold_always_accepts(self):
        g = two_cliques(10)
        _, attempts = sample_edge_heavy_partition(g, 0, 10, np.random.default_rng(1))
        assert attempts == 1

    def test_acceptance_rate_beats_chebyshev_floor(self):
        # mean edge count is |E|/(n-1); demanding mean - lam keeps acceptance
        # above 1 - n/lam^2
        g = complement_of_random_triangle_free(40, 2)
        mean = g.m / (g.n - 1)
        lam = 10.0
        threshold = math.floor(mean - lam)
        rng = np.random.default_rng(3)
        trials = 2000
        accepted = 0
        for _ in range(trials):
            _, attempts = sample_edge_heavy_partition(g, threshold, 10**6, rng)
            accepted += 1 if attempts == 1 else 0
        floor = 1 - g.n / lam**2
        assert accepted / trials >= floor - 3 * math.sqrt(floor * (1 - floor) / trials)

    def test_odd_order_rejected(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            sample_edge_heavy_partition(g, 1, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("threshold, max_attempts, message", [
        pytest.param(-1, 10, r"threshold must be nonnegative \(got -1\)", id="threshold-negative"),
        pytest.param(1.5, 10, "threshold 1.5 is not an integer", id="threshold-float"),
        pytest.param(True, 10, "threshold True is not an integer", id="threshold-bool"),
        pytest.param(1, 0, r"max_attempts must be at least 1 \(got 0\)", id="attempts-zero"),
        pytest.param(1, 2.0, "max_attempts 2.0 is not an integer", id="attempts-float"),
        pytest.param(1, None, "max_attempts None is not an integer", id="attempts-none"),
        pytest.param(1, np.bool_(True), "max_attempts .*True.* is not an integer",
                     id="attempts-numpy-bool"),
    ])
    def test_bad_integer_argument_is_named(self, threshold, max_attempts, message):
        with pytest.raises(ValueError, match=message):
            sample_edge_heavy_partition(complete_graph(4), threshold, max_attempts,
                                        np.random.default_rng(0))

    def test_numpy_integers_accepted(self):
        g = two_cliques(8)
        edges, attempts = sample_edge_heavy_partition(g, np.int64(4), np.int32(100),
                                                      np.random.default_rng(2))
        expected = sample_edge_heavy_partition(g, 4, 100, np.random.default_rng(2))
        assert (edges.tolist(), attempts) == (expected[0].tolist(), expected[1])
        assert type(attempts) is int

    def test_same_stream_as_plain_sampler(self):
        # an always-accepting call is one shuffle-and-pair draw, like sample_partition
        for n in (2, 10, 64):
            plain_rng, heavy_rng = np.random.default_rng(n), np.random.default_rng(n)
            for _ in range(3):
                edges, attempts = sample_edge_heavy_partition(complete_graph(n), 0, 1, heavy_rng)
                assert attempts == 1
                assert edges.tolist() == [list(p) for p in sample_partition(range(n), plain_rng)]
            assert plain_rng.integers(1 << 62) == heavy_rng.integers(1 << 62)

    def test_returns_edge_pairs_in_draw_order(self):
        # the array holds exactly the partition's pairs that are edges, in the
        # order sample_partition draws them, and consumes the same stream
        g = two_cliques(8)
        for seed in range(5):
            plain_rng, heavy_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            edges, _ = sample_edge_heavy_partition(g, 0, 1, heavy_rng)
            pairs = sample_partition(range(16), plain_rng)
            assert edges.tolist() == [list(p) for p in pairs if g.has_edge(*p)]
            assert plain_rng.bit_generator.state == heavy_rng.bit_generator.state

    def test_accepted_edges_meet_threshold(self):
        g = two_cliques(8)  # 56 edges, so a uniform partition holds 56/15 on average
        rng = np.random.default_rng(12)
        for _ in range(20):
            edges, _ = sample_edge_heavy_partition(g, 6, 10**4, rng)
            assert edges.shape[1] == 2 and len(edges) >= 6
            assert (edges[:, 0] < edges[:, 1]).all()
