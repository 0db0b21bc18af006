import collections
import dataclasses
import hashlib
import itertools
import json
import math
import re
import statistics

import numpy as np
import pytest

from densematch import (Graph, Matching, c5_blowup_complement,
                        complement_of_random_triangle_free, complete_graph,
                        count_bad_quadruples, derive_params, extract_best,
                        extract_once, is_alpha_at_most_2, nonadjacent_pairs,
                        optimal_slack, two_cliques)
from densematch import extractor, oracles
from densematch.errors import ParameterError, SamplingFailure
from densematch.extractor import ExtractionParams, prepare_extraction, trial_seed
from densematch.graphs import from_edge_list
from densematch.oracles import validate_matching
from densematch.sampling import DEFAULT_MAX_ATTEMPTS, sample_edge_heavy_partition
from helpers import all_pairings, count_nonadjacent_pairs_naive


def reference_bound(ratio, t, slack):
    # independent transcription of the closed form, grouped differently
    denom = (2.0 * (ratio - 1.0 - 2.0 * slack) ** 2
             * (1.0 - ratio / (slack * slack * t))
             * (ratio * t - 1.0) * (ratio * t - 3.0))
    return ratio * t * (t - 1.0) ** 3 / denom


class TestOptimalSlack:
    def test_reference_point(self):
        assert abs(optimal_slack(8, 100) - 0.6542131) < 1e-6

    def test_ratio_two_collapses_to_cube_root(self):
        # ratio 2 gives (2*1/(2t))^(1/3) = t^(-1/3); exact at t = 8
        assert optimal_slack(2, 8) == pytest.approx(0.5, abs=1e-12)

    def test_second_reference_point(self):
        assert abs(optimal_slack(5, 1000) - 0.2154435) < 1e-6

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            optimal_slack(1.0, 10)
        with pytest.raises(ParameterError):
            optimal_slack(8, 0)

    def test_nan_ratio_is_named(self):
        with pytest.raises(ParameterError, match=r"ratio must exceed 1 \(got nan\)"):
            optimal_slack(math.nan, 10)

    @pytest.mark.parametrize("t, message", [
        (2.5, "t 2.5 is not an integer"), (8.0, "t 8.0 is not an integer"),
        (True, "t True is not an integer"), (0, r"t must be at least 1 \(got 0\)"),
        (-1, r"t must be at least 1 \(got -1\)"),
    ])
    def test_bad_t_is_named(self, t, message):
        with pytest.raises(ParameterError, match=message):
            optimal_slack(8.0, t)
        with pytest.raises(ParameterError, match=message):
            derive_params(8.0, t, 2.5)
        with pytest.raises(ParameterError, match=message):
            prepare_extraction(complete_graph(16), t)


class TestDeriveParams:
    def test_reference_values(self):
        p = derive_params(8.0, 100, optimal_slack(8, 100))
        assert abs(p.slack - 0.65421) < 1e-4
        assert abs(p.margin - 2.84579) < 1e-4
        assert abs(p.accept_floor - 0.81309) < 1e-4
        assert abs(p.pick_cap - 0.35140) < 1e-4
        assert p.threshold == 285
        rel = abs(p.pair_bound - reference_bound(8.0, 100, p.slack)) / p.pair_bound
        assert rel < 1e-12
        assert abs(p.pair_bound / (100 * 99 / 2) - 0.00468) < 1e-4

    def test_exact_small_case(self):
        p = derive_params(8.0, 4, 2.5)
        assert p.margin == pytest.approx(1.0, abs=1e-12)
        assert p.pick_cap == pytest.approx(1.0, abs=1e-12)
        assert p.accept_floor == pytest.approx(0.68, abs=1e-12)
        assert p.threshold == 4
        assert p.pair_bound == pytest.approx(reference_bound(8.0, 4, 2.5), rel=1e-12)

    def test_slack_cap_violation_is_named(self):
        with pytest.raises(ParameterError, match="ratio/2 - 3/2"):
            derive_params(4.0, 10, 1.0)

    def test_slack_floor_violation_is_named(self):
        with pytest.raises(ParameterError, match="exceed ratio/t"):
            derive_params(8.0, 4, 1.0)

    @pytest.mark.parametrize("slack", [-1.0, -0.3, 0.0, math.nan])
    def test_slack_outside_the_window_is_refused(self, slack):
        # -1.0 and -0.3 square past ratio/t = 0.08, so the floor test alone
        # would pass them, with a margin and threshold no partition can meet
        with pytest.raises(ParameterError, match=re.escape(
                "outside the window (sqrt(ratio/t), ratio/2 - 3/2] = (0.282843, 2.5]")):
            derive_params(8.0, 100, slack)

    def test_nan_ratio_is_named(self):
        with pytest.raises(ParameterError, match=r"ratio must be at least 4 \(got nan\)"):
            derive_params(math.nan, 100, 0.6)

    def test_numpy_t_stored_as_int(self):
        p = derive_params(8.0, np.int64(4), 2.5)
        assert p == derive_params(8.0, 4, 2.5) and type(p.t) is int

    def test_small_ratio_rejected(self):
        with pytest.raises(ParameterError, match="at least 4"):
            derive_params(3.9, 100, 1.0)

    def test_margin_at_least_one(self):
        for ratio, t in ((8.0, 100), (12.0, 1), (6.0, 40), (4.5, 200)):
            p = derive_params(ratio, t, optimal_slack(ratio, t))
            assert p.margin >= 1.0 - 1e-12
            assert p.accept_floor > 0
            assert p.threshold >= t

    def test_bound_minimal_at_optimal_slack(self):
        slack = optimal_slack(8, 100)
        mid = derive_params(8.0, 100, slack).pair_bound
        assert mid <= derive_params(8.0, 100, slack * 1.2).pair_bound
        assert mid <= derive_params(8.0, 100, slack * 0.8).pair_bound


class TestExtractOnce:
    def test_clique_has_no_nonadjacent_pairs(self):
        g = complete_graph(32)
        params = derive_params(8.0, 4, optimal_slack(8, 4))
        matching, report = extract_once(g, params, 5)
        assert report.nonadjacent_pairs == 0
        assert report.within_bound
        assert report.seed == 5
        assert report.rejection_attempts == 1
        assert report.intersection_size == 16  # every partition pair is an edge
        assert matching.size == 4

    def test_two_cliques_counts_cross_products(self):
        g = two_cliques(16)
        params = derive_params(8.0, 4, optimal_slack(8, 4))
        counts = []
        for seed in range(400):
            matching, report = extract_once(g, params, seed)
            left = sum(1 for u, v in matching.edges if u < 16 and v < 16)
            right = matching.size - left
            assert report.nonadjacent_pairs == left * right
            assert report.intersection_size >= params.threshold
            counts.append(report.nonadjacent_pairs)
        # the closed form does not cover this instance (its non-adjacent edge
        # pairs vastly exceed the premise cap), so compare against the
        # per-instance expectation cap built from the actual pair count
        pair_count = count_bad_quadruples(g).count // 8
        assert pair_count == 120 * 120  # every cross pair of the two K16 edge sets
        nt = params.ratio * params.t
        instance_cap = (params.pick_cap**2 * pair_count
                        / (params.accept_floor * (nt - 1) * (nt - 3)))
        assert statistics.fmean(counts) <= instance_cap * 1.2

    def test_trivial_single_edge(self):
        g = complement_of_random_triangle_free(12, 4)
        _, params = prepare_extraction(g, 1)
        _, report = extract_once(g, params, 2)
        assert report.nonadjacent_pairs == 0

    def test_matching_invariants(self):
        g = complement_of_random_triangle_free(48, 9)
        _, params = prepare_extraction(g, 6)
        for seed in range(40):
            matching, _ = extract_once(g, params, seed)
            assert matching.size == 6
            validate_matching(g, matching)

    @pytest.mark.parametrize("g, t", [
        pytest.param(complement_of_random_triangle_free(80, 1), 10, id="rtf"),
        pytest.param(c5_blowup_complement([8, 8, 8, 8, 32]), 8, id="c5"),
        pytest.param(two_cliques(16), 4, id="two-cliques"),
    ])
    def test_array_count_equals_public_score(self, g, t):
        # the trial scores its own pair array and builds its matching unchecked
        _, params = prepare_extraction(g, t)
        for seed in range(50):
            matching, report = extract_once(g, params, seed)
            assert report.nonadjacent_pairs == nonadjacent_pairs(g, matching)
            assert matching == Matching(list(matching.edges))
            assert all(type(end) is int for edge in matching.edges for end in edge)

    def test_order_mismatch_rejected(self):
        params = derive_params(8.0, 4, optimal_slack(8, 4))
        with pytest.raises(ValueError, match="does not match"):
            extract_once(complete_graph(30), params, 0)

    def test_odd_order_rejected_by_the_sampler(self):
        params = derive_params(8.25, 4, optimal_slack(8.25, 4))
        assert round(params.ratio * params.t) == 33
        with pytest.raises(ValueError, match="graph order must be even"):
            extract_once(complete_graph(33), params, 0)

    def test_generator_in_place_of_seed_rejected(self):
        params = derive_params(8.0, 4, optimal_slack(8, 4))
        with pytest.raises(ValueError, match="seed Generator.* is not an integer"):
            extract_once(complete_graph(32), params, np.random.default_rng(0))

    @pytest.mark.parametrize("seed, message", [
        pytest.param(-1, r"seed must be nonnegative \(got -1\)", id="negative"),
        pytest.param(True, "seed True is not an integer", id="bool"),
    ])
    def test_bad_seed_is_named(self, seed, message):
        params = derive_params(8.0, 4, optimal_slack(8, 4))
        with pytest.raises(ValueError, match=message):
            extract_once(complete_graph(32), params, seed)

    def test_numpy_seed_reported_as_int(self):
        h, params = prepare_extraction(complement_of_random_triangle_free(48, 9), 6)
        matching, report = extract_once(h, params, np.uint64(5))
        assert (matching, report) == extract_once(h, params, 5)
        assert type(report.seed) is int
        assert json.loads(json.dumps(dataclasses.asdict(report)))["seed"] == 5

    def test_short_partition_names_t(self):
        # hand-built params may demand fewer partition edges than the t to pick
        params = ExtractionParams(ratio=8.0, t=4, slack=1.0, margin=2.5,
                                  accept_floor=0.5, pick_cap=0.4,
                                  threshold=0, pair_bound=1.0)
        with pytest.raises(ValueError, match=r"t = 4 .* holding 0"):
            extract_once(from_edge_list(32, []), params, 0)

    def test_sampling_failure_propagates(self):
        params = ExtractionParams(ratio=8.0, t=4, slack=1.0, margin=2.5,
                                  accept_floor=0.5, pick_cap=0.4,
                                  threshold=17, pair_bound=1.0)  # demands > n/2 edges
        with pytest.raises(SamplingFailure):
            extract_once(two_cliques(16), params, 0, max_attempts=25)


class TestPrepareExtraction:
    def test_odd_order_drops_vertex_zero(self):
        cases = [(complement_of_random_triangle_free(13, 2), 1),
                 (complement_of_random_triangle_free(33, 7), 4),
                 (complement_of_random_triangle_free(65, 3), 8),
                 (c5_blowup_complement([5, 6, 7, 8, 7]), 4),
                 (complete_graph(41), 5)]
        for g, t in cases:
            assert g.n % 2 == 1 and is_alpha_at_most_2(g)
            h, params = prepare_extraction(g, t)
            # vertex 0 and its edges go; every id w > 0 becomes w - 1
            assert h == from_edge_list(g.n - 1, [(u - 1, v - 1) for u, v in g.edges() if u > 0])
            assert is_alpha_at_most_2(h)
            assert params.ratio == h.n / t

    @pytest.mark.parametrize("c", [4.2, 4.348, 5.0])
    def test_slack_is_clamped_to_its_window(self, c):
        # every t up to 40 on an even order n >= c*t; where optimal_slack lies
        # above the cap ratio/2 - 3/2 the cap is used, and only an empty window
        # (sqrt(ratio/t), ratio/2 - 3/2] is refused, naming both of its ends
        ran, capped = [], []
        for t in range(1, 41):
            n = 2 * math.ceil(c * t / 2)
            ratio = n / t
            lo, hi = math.sqrt(ratio / t), ratio / 2 - 1.5
            if not hi * hi > ratio / t:
                with pytest.raises(ParameterError, match=re.escape(
                        f"window (sqrt(ratio/t), ratio/2 - 3/2] = ({lo:.6g}, {hi:.6g}] is empty")):
                    prepare_extraction(complete_graph(n), t)
                continue
            _, params = prepare_extraction(complete_graph(n), t)
            assert params.slack == min(optimal_slack(ratio, t), hi)
            if params.slack == hi:
                capped.append(t)
            grid = np.linspace(lo, hi, 20_001)[1:]
            best = grid[np.argmin(reference_bound(ratio, t, grid))]
            assert abs(params.slack - best) / best < 0.01, (t, params.slack, best)
            matching, _ = extract_best(complete_graph(n), c, t, 1, master_seed=0)
            assert matching.size == t
            ran.append(t)
        # at ratio c the window is non-empty exactly above t = c/(c/2 - 3/2)**2,
        # and that end falls as the ratio grows, so every t from it on ran
        first = math.floor(c / (c / 2 - 1.5) ** 2) + 1
        assert set(range(first, 41)) <= set(ran)
        # each ratio has a band of t where optimal_slack was refused before the cap
        assert capped

    def test_capped_slack_serves_a_once_refused_input(self):
        # optimal_slack 0.681437 lies above the cap 0.673913 at ratio 100/23;
        # the cap meets both inequalities, so the extractor runs there
        g = complement_of_random_triangle_free(100, 1)
        _, params = prepare_extraction(g, 23)
        assert params.slack == 100 / 23 / 2 - 1.5 < optimal_slack(100 / 23, 23)
        matching, reports = extract_best(g, 4.3, 23, 4, 0)
        assert matching.size == 23 and len(reports) == 4

    def test_slack_below_the_cap_is_unchanged(self):
        # the benchmark's and the golden hashes' orders, whose outputs stay pinned
        for g, t in [(complete_graph(3200), 400), (complete_graph(801), 100),
                     (complete_graph(41), 5)]:
            h, params = prepare_extraction(g, t)
            assert params == derive_params(h.n / t, t, optimal_slack(h.n / t, t))


class TestSelectionProbability:
    def test_per_edge_frequency_at_most_pick_cap(self):
        g = complement_of_random_triangle_free(24, 6)
        _, params = prepare_extraction(g, 2)
        rounds = 5_000
        present, hits = collections.Counter(), collections.Counter()
        for seed in range(rounds):
            matching, report = extract_once(g, params, seed)
            # the trial draws only through the sampler, so replaying it gives the partition
            edges, _ = sample_edge_heavy_partition(g, params.threshold, DEFAULT_MAX_ATTEMPTS,
                                                   np.random.default_rng(seed))
            assert len(edges) == report.intersection_size
            assert params.t / len(edges) <= params.pick_cap
            present.update(map(tuple, edges.tolist()))
            hits.update(matching.edges)
        assert hits.keys() <= present.keys()
        for edge, times in present.items():
            sigma = math.sqrt(params.pick_cap * (1 - params.pick_cap) / times)
            assert hits[edge] / times <= params.pick_cap + 4 * sigma

    def test_exact_law_over_every_shuffle_order(self, monkeypatch):
        # feed the sampler each of the 8! shuffle orders once: every accepted
        # partition must come out equally often, and within one every t-subset
        # of its edges must be picked equally often
        g = complement_of_random_triangle_free(8, 0)
        params = ExtractionParams(ratio=4.0, t=2, slack=1.0, margin=1.5, accept_floor=0.5,
                                  pick_cap=0.5, threshold=3, pair_bound=1.0)

        class FixedOrder:
            order = None

            def permutation(self, n):
                return np.array(self.order)

        shuffle = FixedOrder()
        real = extractor.sample_edge_heavy_partition
        monkeypatch.setattr(extractor, "sample_edge_heavy_partition",
                            lambda graph, threshold, max_attempts, rng:
                            real(graph, threshold, max_attempts, shuffle))
        law = collections.defaultdict(collections.Counter)
        for order in itertools.permutations(range(g.n)):
            shuffle.order = order
            try:
                matching, _ = extract_once(g, params, 0, max_attempts=1)
            except SamplingFailure:
                continue
            partition = tuple(sorted(tuple(sorted(order[i:i + 2])) for i in range(0, g.n, 2)))
            law[partition][matching.edges] += 1
        heavy = {p: [e for e in p if g.has_edge(*e)] for p in all_pairings(range(g.n))}
        heavy = {p: edges for p, edges in heavy.items() if len(edges) >= params.threshold}
        assert law.keys() == heavy.keys()
        assert {len(edges) for edges in heavy.values()} == {3, 4}
        assert len({sum(picks.values()) for picks in law.values()}) == 1
        for partition, picks in law.items():
            assert picks.keys() == set(itertools.combinations(heavy[partition], params.t))
            assert len(set(picks.values())) == 1


class TestExtractBest:
    def test_parity_fix_on_clique(self):
        g = complete_graph(97)
        matching, reports = extract_best(g, 8.0, 12, 5, master_seed=0)
        assert len(reports) == 5
        assert all(r.nonadjacent_pairs == 0 for r in reports)
        validate_matching(g, matching)  # ids are valid in the original graph
        assert matching.size == 12

    def test_ratio_four_with_small_t_is_infeasible(self):
        # ratio 4 at t = 10 admits no slack: the window (sqrt(ratio/t),
        # ratio/2 - 3/2] is empty, so parameter derivation must refuse
        with pytest.raises(ParameterError):
            extract_best(complete_graph(41), 4.05, 10, 3, master_seed=0)

    def test_strict_c_above_four(self):
        with pytest.raises(ValueError, match="exceed 4"):
            extract_best(two_cliques(20), 4.0, 10, 3, master_seed=0)

    def test_order_below_ct(self):
        with pytest.raises(ValueError, match="below c\\*t"):
            extract_best(complete_graph(30), 8.0, 4, 3, master_seed=0)

    def test_alpha_precondition(self):
        with pytest.raises(ValueError, match="non-adjacent"):
            extract_best(from_edge_list(6, []), 4.1, 1, 3, master_seed=0)

    def test_expectation_bound_on_dense_family(self):
        g = complement_of_random_triangle_free(400, 17)
        matching, reports = extract_best(g, 8.0, 50, 100, master_seed=3)
        counts = [r.nonadjacent_pairs for r in reports]
        bound = reports[0].bound
        # the instance satisfies the pair-count premise, so the closed form applies
        pair_count = count_bad_quadruples(g).count // 8
        assert pair_count <= 8 * 50 * 49**3 / 8
        assert statistics.fmean(counts) <= 1.15 * bound
        assert min(counts) == nonadjacent_pairs(g, matching)
        assert sum(1 for x in counts if x <= 2 * bound) >= 0.4 * len(counts)

    @pytest.mark.parametrize("t, trials, message", [
        pytest.param(4.0, 1, "t 4.0 is not an integer", id="t"),
        pytest.param(4, 1.5, "trials 1.5 is not an integer", id="trials"),
        pytest.param(True, 1, "t True is not an integer", id="t-bool"),
        pytest.param(0, 1, r"t must be at least 1 \(got 0\)", id="t-zero"),
        pytest.param(4, False, "trials False is not an integer", id="trials-bool"),
        pytest.param(4, 0, r"trials must be at least 1 \(got 0\)", id="trials-zero"),
    ])
    def test_non_integer_t_or_trials_named(self, t, trials, message):
        # the edgeless graph fails the alpha check, so the arguments are checked first
        with pytest.raises(ValueError, match=message):
            extract_best(from_edge_list(40, []), 8.0, t, trials, master_seed=0)

    @pytest.mark.parametrize("c", [
        pytest.param("5", id="str"),
        pytest.param(True, id="bool"),
        pytest.param(np.True_, id="numpy-bool"),
        pytest.param(None, id="none"),
    ])
    def test_non_number_c_named(self, c):
        with pytest.raises(ValueError) as err:
            extract_best(complete_graph(40), c, 4, 1, master_seed=0)
        assert str(err.value) == f"c {c!r} is not a number"

    @pytest.mark.parametrize("c", [8, np.float64(8.0), np.int64(8)])
    def test_numeric_c_accepted(self, c):
        matching, _ = extract_best(complete_graph(40), c, 4, 1, master_seed=0)
        assert matching.size == 4

    @pytest.mark.parametrize("n, graph_seed", [(81, 3), (80, 1)])
    def test_reports_replay_from_their_seed(self, n, graph_seed):
        g = complement_of_random_triangle_free(n, graph_seed)
        matching, reports = extract_best(g, 8.0, 10, 6, master_seed=7)
        h, params = prepare_extraction(g, 10)
        replays = [extract_once(h, params, r.seed) for r in reports]
        assert [report for _, report in replays] == reports
        best = min(range(len(reports)), key=lambda i: reports[i].nonadjacent_pairs)
        shift = g.n % 2
        assert matching == Matching((u + shift, v + shift) for u, v in replays[best][0].edges)

    @pytest.mark.parametrize("n", [81, 80])
    def test_winner_alone_is_validated_on_the_input_graph(self, n, monkeypatch):
        g = complement_of_random_triangle_free(n, 3)
        validated = []

        def spy(graph, matching):
            validated.append((graph, matching))
            return validate_matching(graph, matching)

        monkeypatch.setattr(oracles, "validate_matching", spy)
        matching, reports = extract_best(g, 8.0, 10, 6, master_seed=50)
        assert validated == [(g, matching)]
        assert nonadjacent_pairs(g, matching) == min(r.nonadjacent_pairs for r in reports)

    def test_winner_count_mismatch_raises(self, monkeypatch):
        real = extractor._count_unlinked
        monkeypatch.setattr(extractor, "_count_unlinked", lambda g, a, b: real(g, a, b) + 1)
        with pytest.raises(RuntimeError, match="counted 1 non-adjacent pairs, its matching has 0"):
            extract_best(complete_graph(97), 8.0, 12, 3, master_seed=0)

    def test_trial_and_score_calls_go_through_module_names(self, monkeypatch):
        # per-layer timings wrap these two module globals by name, so each trial
        # must call extract_once and the winner alone nonadjacent_pairs
        calls = collections.Counter()

        def counted(name):
            real = getattr(extractor, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("extract_once", "nonadjacent_pairs"):
            monkeypatch.setattr(extractor, name, counted(name))
        for g, trials in [(complement_of_random_triangle_free(81, 3), 6), (complete_graph(97), 3)]:
            calls.clear()
            extract_best(g, 8.0, 10, trials, master_seed=5)
            assert calls == {"extract_once": trials, "nonadjacent_pairs": 1}

    @pytest.mark.parametrize("g, c, t", [
        pytest.param(complement_of_random_triangle_free(129, 4), 4.3, 24, id="rtf-129"),
        pytest.param(c5_blowup_complement([9, 8, 7, 6, 9]), 6.0, 6, id="c5-39"),
        # cliques of 17 and 16 vertices: many cross pairs of edges are unlinked
        pytest.param(from_edge_list(33, [(u, v) for u, v in itertools.combinations(range(33), 2)
                                         if (u < 17) == (v < 17)]), 6.0, 5, id="two-cliques-33"),
    ])
    def test_odd_order_trials_score_like_the_naive_count(self, g, c, t):
        assert g.n % 2 == 1
        matching, reports = extract_best(g, c, t, 6, master_seed=9)
        h, params = prepare_extraction(g, t)
        for report in reports:
            replay, _ = extract_once(h, params, report.seed)
            assert count_nonadjacent_pairs_naive(h, replay.edges) == report.nonadjacent_pairs
        best = min(r.nonadjacent_pairs for r in reports)
        assert count_nonadjacent_pairs_naive(g, matching.edges) == best
        assert any(r.nonadjacent_pairs for r in reports)

    def test_every_trial_failing_raises_one_aggregate(self):
        # two K400 hold about 200 partition edges on average, far below the 285 demanded
        with pytest.raises(SamplingFailure, match="all 3 trials exhausted 2 attempts each") as info:
            extract_best(two_cliques(400), 8.0, 100, 3, master_seed=0, max_attempts=2)
        assert info.value.attempts == 6

    def test_failed_trials_are_skipped(self):
        g = two_cliques(16)
        _, params = prepare_extraction(g, 4)
        trials = []
        for index in range(8):
            seed = trial_seed(13, index)
            try:
                trials.append(extract_once(g, params, seed, max_attempts=1))
            except SamplingFailure:
                trials.append(None)
        survivors = [i for i, trial in enumerate(trials) if trial is not None]
        # failures before and between survivors, and a three-way tie for the minimum
        assert survivors == [1, 2, 3, 4, 6, 7]
        assert [trials[i][1].nonadjacent_pairs for i in survivors] == [4, 4, 3, 4, 3, 3]
        matching, reports = extract_best(g, 8.0, 4, 8, master_seed=13, max_attempts=1)
        assert reports == [trials[i][1] for i in survivors]
        assert matching == trials[3][0]

    def test_deterministic(self):
        g = complement_of_random_triangle_free(80, 1)
        a = extract_best(g, 8.0, 10, 8, master_seed=11)
        b = extract_best(g, 8.0, 10, 8, master_seed=11)
        assert a == b

    def test_master_seed_changes_trials(self):
        g = complement_of_random_triangle_free(80, 1)
        _, ra = extract_best(g, 8.0, 10, 8, master_seed=11)
        _, rb = extract_best(g, 8.0, 10, 8, master_seed=12)
        assert [r.seed for r in ra] != [r.seed for r in rb]

    def test_golden_output(self):
        # re-pinned when the pick became the accepted partition's first t
        # edges in draw order, and when rtf graphs came to draw open pairs;
        # the odd order 801 exercises the parity fix
        graphs = [complement_of_random_triangle_free(801, 5),
                  complement_of_random_triangle_free(1600, 9),
                  c5_blowup_complement([16, 16, 16, 16, 736]),
                  complete_graph(1001)]
        digest = hashlib.sha256()
        for g in graphs:
            for master_seed in range(4):
                out = extract_best(g, 8.0, 100, 5, master_seed, max_attempts=1000)
                digest.update(repr(out).encode())
        assert digest.hexdigest() == (
            "7541b69ae79a6d72824072ef9258d53e32fff295e2053bbb231d2156dc456984")


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        seeds = [trial_seed(5, i) for i in range(50)]
        assert seeds == [trial_seed(5, i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert trial_seed(6, 0) != trial_seed(5, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            trial_seed(-1, 0)

    def test_numpy_master_seed_accepted(self):
        assert trial_seed(np.int64(5), 3) == trial_seed(5, 3)

    @pytest.mark.parametrize("index", [1.5, True, np.bool_(True), "1", None, -1])
    def test_bad_index_is_named(self, index):
        with pytest.raises(ValueError, match=r"^index (.* is not an integer|must be nonnegative)"):
            trial_seed(0, index)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, -1, None])
    def test_bad_master_seed_is_named(self, seed):
        with pytest.raises(ValueError, match="master_seed"):
            trial_seed(seed, 0)
        # an untrusted copy, since a generator's output carries its alpha answer
        g = Graph(complete_graph(40).rows)
        with pytest.raises(ValueError, match="master_seed"):
            extract_best(g, 8.0, 4, 2, seed)
        assert "_alpha_at_most_2" not in vars(g)  # refused before the alpha scan
