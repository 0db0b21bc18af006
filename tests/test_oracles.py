import gc
import hashlib
import itertools
import weakref

import numpy as np
import pytest

from densematch import (Matching, c5_blowup_complement, clique_bound_audit, clique_number,
                        complement_of_random_triangle_free, complete_graph,
                        connected_matching_number,
                        count_bad_quadruples, is_alpha_at_most_2, matching_from_clique,
                        min_nonadjacent_matching, nonadjacent_pairs, two_cliques)
from densematch.errors import InfeasibleError, SizeLimitError
from densematch import oracles
from densematch.graphs import Graph, complement, from_edge_list, iter_bits
from densematch.oracles import BadQuadrupleCount, _compatibility_rows, _incidence_masks, validate_matching
from helpers import (all_matchings, brute_alpha_at_most_2, brute_clique_number,
                     compatibility_rows_pairwise, connected_matching_number_by_cliques,
                     count_bad_quadruples_enumerated,
                     count_bad_quadruples_naive, count_nonadjacent_pairs_naive,
                     greedy_clique, matching_from_clique_recursive,
                     min_nonadjacent_matching_plain,
                     random_alpha2_graph, random_graph, random_matching_of,
                     swap_rule_conflicts_pairwise, twin_masks_pairwise,
                     validate_matching_reference, with_twins)


def _error(check, g, m):
    """The message of the ValueError ``check(g, m)`` raises, or None."""
    try:
        check(g, m)
    except ValueError as err:
        return str(err)
    return None


class TestNonadjacentPairs:
    def test_clique_matching_has_none(self):
        g = complete_graph(8)
        m = Matching([(0, 1), (2, 3), (4, 5)])
        assert nonadjacent_pairs(g, m) == 0

    def test_cross_component_pair(self):
        g = two_cliques(5)
        m = Matching([(0, 1), (5, 6)])
        assert nonadjacent_pairs(g, m) == 1

    def test_within_one_clique(self):
        g = two_cliques(5)
        m = Matching([(0, 1), (2, 3)])
        assert nonadjacent_pairs(g, m) == 0

    def test_single_edge_vacuous(self):
        g = two_cliques(5)
        assert nonadjacent_pairs(g, Matching([(0, 1)])) == 0

    def test_invalid_matchings_rejected(self):
        g = two_cliques(3)
        with pytest.raises(ValueError, match="not an edge"):
            validate_matching(g, Matching([(0, 3)]))
        with pytest.raises(ValueError, match="reuses"):
            validate_matching(g, Matching([(0, 1), (1, 2)]))
        with pytest.raises(ValueError, match="invalid edge"):
            validate_matching(g, Matching(((2, 2),)))

    def test_invalid_matchings_rejected_before_packing(self):
        bad = {"not an edge": [(0, 3)], "reuses": [(0, 1), (1, 2)],
               "invalid edge": [(0, 6)]}
        for message, pairs in bad.items():
            g = two_cliques(3)
            with pytest.raises(ValueError, match=message):
                nonadjacent_pairs(g, Matching(pairs))
            assert "packed" not in vars(g) and "_words" not in vars(g)

    @staticmethod
    def _invalid_cases():
        # Matching sorts its edges, and the first bad edge in that order is named
        cases = [
            [(-1, 2)], [(0, 1), (2, 9)], [(0, 1), (2, 3), (4, 5), (6, 8)], [(4, 2**70)],
            [(0, 1), (5, 5)], [(0, 1), (2, 5)], [(0, 1), (1, 2)],
            [(0, 2), (1, 5), (2, 3)],  # a non-edge, then a reused vertex
            [(0, 1), (1, 5)],  # a non-edge that also reuses vertex 1
            [(0, 1), (2, 3), (3, 3)],  # a loop that also reuses vertex 3
        ]
        cases = [(two_cliques(4), pairs) for pairs in cases]
        rng = np.random.default_rng(77)
        while len(cases) < 70:
            g = random_graph(int(rng.integers(4, 20)), 0.5, rng)
            pairs = list(random_matching_of(g, rng).edges)
            pairs.insert(int(rng.integers(len(pairs) + 1)),
                         tuple(rng.integers(-3, g.n + 3, 2).tolist()))
            if _error(validate_matching_reference, g, Matching(pairs).edges):
                cases.append((g, pairs))
        return cases

    def test_invalid_matching_messages_match_reference(self):
        seen = set()
        for g, pairs in self._invalid_cases():
            m = Matching(pairs)
            expected = _error(validate_matching_reference, g, m.edges)
            assert expected is not None
            assert _error(validate_matching, g, m) == expected
            assert _error(nonadjacent_pairs, g, m) == expected
            assert "packed" not in vars(g) and "_words" not in vars(g)
            seen.update(kind for kind in ("invalid edge", "not an edge", "reuses")
                        if kind in expected)
        assert seen == {"invalid edge", "not an edge", "reuses"}

    def test_invalid_matching_messages_match_reference_on_cached_rows(self):
        # the vectorised check of built rows names the same first bad edge
        for g, pairs in self._invalid_cases():
            g._words  # build the 64-bit rows
            m = Matching(pairs)
            expected = _error(validate_matching_reference, g, m.edges)
            assert _error(validate_matching, g, m) == expected
            assert _error(nonadjacent_pairs, g, m) == expected

    def test_valid_matchings_on_cached_rows_pass_as_walked(self):
        rng = np.random.default_rng(78)
        for n in (0, 1, 2, 7, 63, 64, 65, 130):
            g = random_graph(n, 0.5, rng)
            for m in (Matching([]), random_matching_of(g, rng)):
                walked = validate_matching(g, m)
                g._words  # build the 64-bit rows
                checked = validate_matching(g, m)
                assert checked.dtype == walked.dtype == np.intp
                assert checked.tolist() == walked.tolist() == [x for e in m.edges for x in e]

    def test_packed_and_scan_agree_across_byte_boundaries(self):
        for n in (34, 63, 64, 65):
            # (7, 8), (15, 16), ... first: every byte boundary of the packed rows
            # falls inside a matched edge, then the rest of a matching that
            # leaves at most vertex 0 out
            boundary = list(range(7, n - 1, 8))
            starts = boundary + [s for s in range(1, n, 2) if s not in boundary]
            perfect = [(s, (s + 1) % n) for s in starts]
            rng = np.random.default_rng(n)
            for p in (0.05, 0.3, 0.7):
                base = random_graph(n, p, rng)
                g = from_edge_list(n, list(base.edges()) + perfect)
                for t in (0, 1, 2, n // 2):
                    m = Matching(perfect[:t])
                    fast = nonadjacent_pairs(g, m)
                    assert fast == count_nonadjacent_pairs_naive(g, m.edges), (n, p, t)

    def test_golden_counts(self):
        # pinned before scoring moved from a gathered 2t x 2t block to union
        # rows; a planted random pairing gives every size up to n // 2
        rng = np.random.default_rng(2025)
        digest = hashlib.sha256()
        for p in (0.05, 0.3, 0.7):
            for n in (63, 64, 65, 257):
                order = rng.permutation(n).tolist()
                pairing = list(zip(order[0::2], order[1::2]))
                g = from_edge_list(n, list(random_graph(n, p, rng).edges()) + pairing)
                for t in range(n // 2 + 1):
                    picked = rng.choice(len(pairing), t, replace=False).tolist()
                    count = nonadjacent_pairs(g, Matching(pairing[i] for i in picked))
                    digest.update(f"{p} {n} {t} {count}\n".encode())
        assert digest.hexdigest() == (
            "2153cef4f5496e685db9c72225c9523f875bcac8f602f1677ca5c2bcb09424cf")

    def test_bitset_and_scan_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            g = random_graph(int(rng.integers(2, 14)), float(rng.uniform(0.1, 0.9)), rng)
            m = random_matching_of(g, rng)
            fast = nonadjacent_pairs(g, m)
            assert fast == count_nonadjacent_pairs_naive(g, m.edges)


def _alpha2_families(n: int, rng: np.random.Generator):
    """Two cliques, a c5 blow-up complement (from n = 5) and a random graph with
    alpha <= 2, each on n vertices, as ``(name, graph)``."""
    s = n // 2
    yield "two-cliques", from_edge_list(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                            if (u < s) == (v < s)])
    if n >= 5:
        yield "c5", c5_blowup_complement((1 + rng.multinomial(n - 5, [0.2] * 5)).tolist())
    yield "rtf", complement_of_random_triangle_free(n, int(rng.integers(1 << 16)))


class TestScoringCrossCheck:
    @pytest.mark.parametrize("n", [*range(2, 10), 63, 64, 65, 127, 128, 129])
    def test_counts_match_the_naive_scan(self, n):
        rng = np.random.default_rng(n)
        for name, base in _alpha2_families(n, rng):
            assert is_alpha_at_most_2(base)
            order = rng.permutation(n).tolist()
            pairing = [(min(p), max(p)) for p in zip(order[0::2], order[1::2])]
            # the planted pairs are the matching's own edges, so they add no link
            # between two pairs, and adding edges keeps alpha <= 2
            g = from_edge_list(n, list(base.edges()) + pairing)
            total = 0
            for t in (1, n // 2):
                m = Matching(pairing[:t])
                expect = count_nonadjacent_pairs_naive(g, m.edges)
                assert nonadjacent_pairs(g, m) == expect, (name, t)
                a, b = np.array(m.edges, dtype=np.intp).reshape(t, 2).T
                assert oracles._count_unlinked(g, a, b) == expect, (name, t)
                # either end may come first, and the edges may come in any order
                flip = rng.permutation(t)
                assert oracles._count_unlinked(g, b[flip], a[flip]) == expect, (name, t)
                total += expect
            if n > 60:
                # a random pairing of an rtf graph leaves no pair unlinked about one
                # time in five, so every family also scores one planted unlinked
                # pair: edges ab and cd on a 4-cycle a-c-b-d of the complement
                co = complement(base).rows
                a, b = next((a, b) for a, b in itertools.combinations(range(n), 2)
                            if (co[a] & co[b]).bit_count() >= 2)
                c, d = list(iter_bits(co[a] & co[b]))[:2]
                m = Matching([(a, b), (c, d)])
                assert count_nonadjacent_pairs_naive(base, m.edges) == 1, name
                assert nonadjacent_pairs(base, m) == 1, name
                assert total > 0 or name == "rtf", name
            m = random_matching_of(base, rng)
            assert nonadjacent_pairs(base, m) == count_nonadjacent_pairs_naive(base, m.edges)


class TestBadQuadruples:
    def test_complete_graph(self):
        assert count_bad_quadruples(complete_graph(6)).count == 0

    def test_two_disjoint_edges(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        result = count_bad_quadruples(g)
        assert result.count == 8  # one unordered pair, eight orderings
        # b = 4 complement edges, delta = 1 so k = 3: bound 2*4*(3-1)^2
        assert result.bound == 32

    def test_empty_graph(self):
        assert count_bad_quadruples(Graph(())) == BadQuadrupleCount(0, 0)

    def test_count_is_multiple_of_eight(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            g = random_graph(int(rng.integers(2, 12)), float(rng.uniform(0.1, 0.9)), rng)
            assert count_bad_quadruples(g).count % 8 == 0

    def test_matches_quartic_scan_and_pair_count(self):
        rng = np.random.default_rng(8)
        for _ in range(80):
            g = random_graph(int(rng.integers(4, 10)), float(rng.uniform(0.1, 0.9)), rng)
            result = count_bad_quadruples(g)
            assert result.count == count_bad_quadruples_naive(g)
            edges = list(g.edges())
            assert result.count == 8 * count_nonadjacent_pairs_naive(g, edges)

    def test_bound_holds_on_alpha2_instances(self):
        for i in range(80):
            g = random_alpha2_graph(i, n_max=20)
            result = count_bad_quadruples(g)
            b = g.n * (g.n - 1) // 2 - len(list(g.edges()))
            delta = min(map(g.degree, range(g.n)))
            assert result.bound == 2 * b * (g.n - delta - 1) ** 2
            assert result.count <= result.bound

    def test_matches_enumeration_on_random_graphs(self):
        # the sum over non-edges vanishes when alpha <= 2, so graphs with an
        # independent triple must be among the inputs to exercise it
        rng = np.random.default_rng(18)
        alpha_above_2 = 0
        for _ in range(30):
            g = random_graph(int(rng.integers(20, 61)), float(rng.uniform(0.2, 0.9)), rng)
            assert count_bad_quadruples(g).count == count_bad_quadruples_enumerated(g)
            alpha_above_2 += not brute_alpha_at_most_2(g)
        assert alpha_above_2 >= 10

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: complement_of_random_triangle_free(40, 3), id="rtf-40"),
        pytest.param(lambda: complement_of_random_triangle_free(120, 5), id="rtf-120"),
        pytest.param(lambda: c5_blowup_complement((8, 8, 8, 8, 8)), id="c5-40"),
        pytest.param(lambda: two_cliques(20), id="two-cliques-40"),
        pytest.param(lambda: two_cliques(60), id="two-cliques-120"),
        pytest.param(lambda: complete_graph(40), id="complete-40"),
        pytest.param(lambda: complete_graph(120), id="complete-120"),
    ])
    def test_matches_enumeration_on_families(self, build):
        g = build()
        assert count_bad_quadruples(g).count == count_bad_quadruples_enumerated(g)

    def test_matches_enumeration_with_k_above_t(self):
        # n = 80, so t = n/8 = 10, while k = n - min_degree = 69
        g = c5_blowup_complement((4, 4, 4, 4, 64))
        assert g.n - min(map(g.degree, range(g.n))) > g.n // 8
        result = count_bad_quadruples(g)
        assert result.count == count_bad_quadruples_enumerated(g) > 0

    @pytest.mark.parametrize("n", [60, 100])
    @pytest.mark.parametrize("p", [0.3, 0.45])
    def test_matches_enumeration_on_complement_bipartite(self, n, p):
        g = _complement_bipartite(n, p, np.random.default_rng(n))
        assert count_bad_quadruples(g).count == count_bad_quadruples_enumerated(g) > 0


class TestCliqueNumber:
    def test_complete(self):
        assert clique_number(complete_graph(7)) == 7

    def test_two_cliques(self):
        assert clique_number(two_cliques(5)) == 5

    def test_c5_complement(self):
        c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert clique_number(complement(c5)) == 2

    def test_agrees_with_subset_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            g = random_graph(int(rng.integers(1, 11)), float(rng.uniform(0.1, 0.95)), rng)
            assert clique_number(g) == brute_clique_number(g)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            clique_number(complete_graph(41))
        assert clique_number(complete_graph(41), limit=41) == 41


def _complement_bipartite(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Two cliques of ``n // 2`` and ``n - n // 2`` vertices, each cross pair
    kept as an edge with probability ``1 - p``."""
    half = n // 2
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u < half) == (v < half) or rng.random() >= p]
    return from_edge_list(n, edges)


def _assert_agrees_with_clique_search(g: Graph):
    """cm and the audit at every ``t`` agree with the clique search over the edges."""
    cm = connected_matching_number_by_cliques(g)
    assert connected_matching_number(g) == cm, g.rows
    alpha_is_two = is_alpha_at_most_2(g) and g.m < g.n * (g.n - 1) // 2
    for t in range(1, g.n // 2 + 1):
        asked = alpha_is_two and g.n >= 4 * t - 1
        assert clique_bound_audit(g, t) == (not asked or cm >= t), (g.rows, t)


class TestConnectedMatchingNumber:
    def test_even_cliques_have_perfect_connected_matchings(self):
        for m in (1, 2, 3, 4, 5):
            assert connected_matching_number(complete_graph(2 * m)) == m

    def test_two_cliques_values(self):
        assert connected_matching_number(two_cliques(3)) == 1
        assert connected_matching_number(two_cliques(5)) == 2

    def test_edgeless(self):
        assert connected_matching_number(from_edge_list(5, [])) == 0

    def test_unbalanced_c5_blowup(self):
        # the parts are twin classes, so the twin rules cut most of this search
        assert connected_matching_number(c5_blowup_complement([5, 10, 2, 5, 2])) == 12

    @pytest.mark.parametrize("parts, cm", [
        pytest.param(parts, cm, id=",".join(map(str, parts))) for parts, cm in (
            ([9, 3, 9, 2, 1], 12), ([5, 1, 4, 8, 6], 10), ([9, 2, 7, 1, 4], 11),
            ([3, 7, 6, 2, 5], 10), ([2, 1, 4, 4, 13], 10), ([4, 5, 2, 1, 11], 10),
            ([10, 1, 1, 10, 1], 11))
    ])
    def test_c5_blowups_at_the_size_limit(self, parts, cm):
        # pinned, not cross-checked: the clique search of helpers takes seconds
        # to minutes on these mixes at the connected-matching size limit
        assert connected_matching_number(c5_blowup_complement(parts)) == cm

    def test_agrees_with_clique_search_on_alpha2_graphs(self):
        for i in range(200):
            _assert_agrees_with_clique_search(random_alpha2_graph(i, 6, 16))

    def test_agrees_with_clique_search_on_twin_free_complement_bipartite(self):
        # two cliques, each cross pair kept as an edge with probability 1 - p;
        # twin-free, so the twin rules prune nothing and the colouring bound works alone
        checked = 0
        for n, p, seed in itertools.product(range(8, 17), (0.5, 0.7, 0.85, 0.95), range(6)):
            g = _complement_bipartite(n, p, np.random.default_rng(100 * n + seed))
            if any(oracles._twin_masks(g)):
                continue
            _assert_agrees_with_clique_search(g)
            checked += 1
        assert checked >= 40

    def test_agrees_with_matching_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            g = random_graph(int(rng.integers(2, 11)), float(rng.uniform(0.2, 0.9)), rng)
            best = 0
            for edges in all_matchings(g):
                if edges and count_nonadjacent_pairs_naive(g, edges) == 0:
                    best = max(best, len(edges))
            assert connected_matching_number(g) == best

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            connected_matching_number(complete_graph(25))

    def test_compatibility_rows_match_pairwise_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.1, 0.9)), rng)
            by_index = list(g.edges())
            # an unsorted order too: the rows must not assume the sorted edge list
            by_degree = sorted(by_index, key=lambda e: -(g.degree(e[0]) + g.degree(e[1])))
            for edges in (by_index, by_degree):
                incident = _incidence_masks(g.n, edges)
                assert (_compatibility_rows(g, edges, incident)
                        == compatibility_rows_pairwise(g, edges))

    def test_zero_score_search_finds_sizes_up_to_cm(self):
        graphs = [random_alpha2_graph(i, 6, 12) for i in range(60)]
        graphs += [two_cliques(k) for k in range(3, 8)]
        graphs += [c5_blowup_complement([3, 3, 3, 3, 2]), c5_blowup_complement([2, 4, 2, 3, 3])]
        for g in graphs:
            cm = connected_matching_number(g)
            for t in range(1, g.n // 2 + 1):
                found = oracles._search(g, t, 1)
                assert (found is not None) == (t <= cm), (g.rows, t)
                if found is not None:
                    assert found[0].size == t and nonadjacent_pairs(g, found[0]) == found[1] == 0


class TestMinNonadjacentMatching:
    def test_clique(self):
        matching, count = min_nonadjacent_matching(complete_graph(10), 5)
        assert (matching.size, count) == (5, 0)

    def test_two_cliques_3_needs_both_components(self):
        matching, count = min_nonadjacent_matching(two_cliques(3), 2)
        assert count == 1
        assert nonadjacent_pairs(two_cliques(3), matching) == 1

    def test_two_cliques_5_fits_in_one_component(self):
        _, count = min_nonadjacent_matching(two_cliques(5), 2)
        assert count == 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(int(rng.integers(4, 11)), float(rng.uniform(0.3, 0.9)), rng)
            for t in (1, 2, 3):
                sizes = [e for e in all_matchings(g, max_size=t) if len(e) == t]
                if not sizes:
                    with pytest.raises(InfeasibleError):
                        min_nonadjacent_matching(g, t)
                    continue
                expected = min(count_nonadjacent_pairs_naive(g, e) for e in sizes)
                matching, count = min_nonadjacent_matching(g, t)
                assert count == expected
                assert nonadjacent_pairs(g, matching) == count

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_nonadjacent_matching(from_edge_list(4, []), 1)

    def test_agrees_with_unpruned_search(self):
        # the pruned search must return the very matching the plain one does
        graphs = [random_alpha2_graph(i, 6, 12) for i in range(100, 140)]
        graphs += [two_cliques(k) for k in range(3, 8)]  # two_cliques(7) has no 7-matching
        graphs += [c5_blowup_complement(parts)
                   for parts in ([1, 1, 1, 1, 1], [2, 1, 2, 1, 2], [3, 2, 2, 2, 3], [1, 4, 1, 4, 2])]
        graphs += [complete_graph(n) for n in (2, 5, 9, 12)]
        for g in graphs:
            for t in range(1, g.n // 2 + 2):
                try:
                    expected = min_nonadjacent_matching_plain(g, t)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        min_nonadjacent_matching(g, t)
                    continue
                assert min_nonadjacent_matching(g, t) == expected

    def test_twin_pruned_search_agrees_on_twin_rich_graphs(self):
        # swapping twins never changes a score, so these graphs tie often; the
        # twin rules must keep the first optimum the plain search returns
        for g in _twin_rich_graphs():
            for t in range(1, g.n // 2 + 2):
                try:
                    expected = min_nonadjacent_matching_plain(g, t)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        min_nonadjacent_matching(g, t)
                    continue
                assert min_nonadjacent_matching(g, t) == expected, (g.rows, t)

    def test_golden_output(self):
        # pins which optimal matching is returned on ties, not only its count
        graphs = [random_alpha2_graph(i, 6, 12) for i in range(60)]
        graphs += [two_cliques(5), complete_graph(10), c5_blowup_complement([2, 2, 2, 2, 4])]
        digest = hashlib.sha256()
        for g in graphs:
            for t in range(1, g.n // 2 + 1):
                try:
                    out = min_nonadjacent_matching(g, t)
                except InfeasibleError:
                    out = None
                digest.update(repr(out).encode())
        assert digest.hexdigest() == (
            "7372c144806c4606df4fb64bcfeb8cac72e2b8569eb29b90eba314228b8ba98c")

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            min_nonadjacent_matching(complete_graph(15), 2)

    def test_float_t_is_named(self):
        with pytest.raises(ValueError, match="t 2.0 is not an integer"):
            min_nonadjacent_matching(complete_graph(12), 2.0)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: min_nonadjacent_matching(complete_graph(6), 0),
                     r"t must be at least 1 \(got 0\)", id="minmatch-t-zero"),
        pytest.param(lambda: min_nonadjacent_matching(complete_graph(6), True),
                     "t True is not an integer", id="minmatch-t-bool"),
        pytest.param(lambda: min_nonadjacent_matching(complete_graph(6), 2, limit=14.5),
                     "limit 14.5 is not an integer", id="minmatch-limit-float"),
        pytest.param(lambda: clique_number(complete_graph(6), limit="40"),
                     "limit '40' is not an integer", id="omega-limit-str"),
        pytest.param(lambda: connected_matching_number(complete_graph(6), limit=None),
                     "limit None is not an integer", id="cm-limit-none"),
        pytest.param(lambda: clique_bound_audit(two_cliques(4), 1.5),
                     "t 1.5 is not an integer", id="audit-t-float"),
        pytest.param(lambda: clique_bound_audit(two_cliques(4), np.bool_(True)),
                     "t .*True.* is not an integer", id="audit-t-numpy-bool"),
        pytest.param(lambda: clique_bound_audit(two_cliques(4), 0),
                     r"t must be at least 1 \(got 0\)", id="audit-t-zero"),
    ])
    def test_bad_integer_argument_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_numpy_integers_accepted(self):
        g = two_cliques(5)
        assert (min_nonadjacent_matching(g, np.int64(2), limit=np.int32(14))
                == min_nonadjacent_matching(g, 2))
        assert clique_number(g, limit=np.int64(10)) == clique_number(g)
        assert clique_bound_audit(g, np.int64(2)) == clique_bound_audit(g, 2)


def _twin_rich_graphs():
    """Every c5 mix with parts in {1, 2, 3} and n <= 12, two_cliques(2..6),
    complete_graph(2..12), and seeded α ≤ 2 graphs with planted true and false twins."""
    graphs = [c5_blowup_complement(parts) for parts in itertools.product((1, 2, 3), repeat=5)
              if sum(parts) <= 12]
    graphs += [two_cliques(s) for s in range(2, 7)]
    graphs += [complete_graph(n) for n in range(2, 13)]
    for i in range(30):
        rng = np.random.default_rng(2100 + i)
        kinds = ["true", "false"] + rng.choice(["true", "false"], int(rng.integers(0, 3))).tolist()
        graphs.append(with_twins(random_alpha2_graph(i, 4, 8), kinds, rng))
    return graphs


class TestTwinClasses:
    def test_true_twins(self):
        assert oracles._twin_masks(complete_graph(4)) == [0b1110, 0b1101, 0b1011, 0b0111]
        assert oracles._twin_masks(two_cliques(2)) == [0b0010, 0b0001, 0b1000, 0b0100]

    def test_false_twins(self):
        # the ends of a path 0 - 1 - 2 share their one neighbour and are not adjacent
        assert oracles._twin_masks(from_edge_list(3, [(0, 1), (1, 2)])) == [0b100, 0, 0b001]
        # the sides of a complete bipartite graph
        k23 = from_edge_list(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert oracles._twin_masks(k23) == [0b00010, 0b00001, 0b11000, 0b10100, 0b01100]

    def test_twin_free_graph_has_singleton_classes(self):
        for g in (from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), c5_blowup_complement([1] * 5),
                  from_edge_list(1, [])):
            assert oracles._twin_masks(g) == [0] * g.n

    def test_c5_blowup_parts_are_the_classes(self):
        for parts in itertools.product((1, 2, 3), repeat=5):
            expected, start = [], 0
            for size in parts:
                part = ((1 << size) - 1) << start
                expected += [part ^ 1 << v for v in range(start, start + size)]
                start += size
            assert oracles._twin_masks(c5_blowup_complement(parts)) == expected, parts

    def test_matches_pairwise_reference(self):
        graphs = _twin_rich_graphs()
        for i in range(40):
            rng = np.random.default_rng(i)
            base = random_graph(int(rng.integers(1, 8)), float(rng.uniform(0.1, 0.9)), rng)
            graphs.append(with_twins(base, rng.choice(["true", "false"], 3).tolist(), rng))
        for g in graphs:
            assert oracles._twin_masks(g) == twin_masks_pairwise(g), g.rows

    def test_planted_twins_keep_alpha_at_most_2(self):
        for i in range(30):
            rng = np.random.default_rng(i)
            g = with_twins(random_alpha2_graph(i, 4, 8), ["true", "false", "false"], rng)
            assert brute_alpha_at_most_2(g)
            assert any(oracles._twin_masks(g))

    def test_rule_tables_match_pairwise_reference(self):
        # a ban row may also hold edges at a or b or before ab, which no later pick meets
        for g in _twin_rich_graphs()[::3]:
            edges = list(g.edges())
            incident = _incidence_masks(g.n, edges)
            bans, need = oracles._twin_rules(g, edges, incident)
            conflicts = swap_rule_conflicts_pairwise(g, edges)
            twins = twin_masks_pairwise(g)
            for i, (a, b) in enumerate(edges):
                later = -1 << i + 1 & ~(incident[a] | incident[b])
                assert bans[i] & later == conflicts[i] & later, (g.rows, i)
                assert need[i] == (twins[a] | twins[b]) & ((1 << a) - 1), (g.rows, i)


class TestMatchingFromClique:
    def test_whole_clique(self):
        g = complete_graph(6)
        m = matching_from_clique(g, range(6))
        assert m.size == 3
        assert nonadjacent_pairs(g, m) == 0

    def test_isolated_clique_pairs_internally(self):
        g = two_cliques(5)
        m = matching_from_clique(g, range(5))
        assert m.size == 2  # no edges leave the component, pair 4 of 5 inside
        assert nonadjacent_pairs(g, m) == 0
        assert connected_matching_number(g) >= m.size

    def test_isolated_single_vertex(self):
        g = from_edge_list(3, [(1, 2)])
        assert matching_from_clique(g, [0]).size == 0

    def test_vertex_outside_graph_rejected(self):
        with pytest.raises(ValueError, match=r"vertex 16 outside 0\.\.15"):
            matching_from_clique(complete_graph(16), [3, 16])

    def test_non_clique_rejected(self):
        with pytest.raises(ValueError, match="not a clique"):
            matching_from_clique(two_cliques(5), [0, 5])

    @pytest.mark.parametrize("g, clique", [
        pytest.param(two_cliques(5), [7, 0, 5, 1], id="two-cliques"),
        pytest.param(from_edge_list(6, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4)]),
                     [4, 3, 2, 1, 0], id="sparse"),
        pytest.param(c5_blowup_complement((3, 2, 3, 2, 2)), [0, 1, 5, 6, 3, 11], id="c5"),
    ])
    def test_non_clique_names_its_first_missing_pair(self, g, clique):
        # the first pair u < v, in sorted order, that is not an edge
        a = sorted(clique)
        u, v = next((u, v) for u, v in itertools.combinations(a, 2) if not g.has_edge(u, v))
        with pytest.raises(ValueError) as raised:
            matching_from_clique(g, clique)
        assert str(raised.value) == f"vertices {u} and {v} are not adjacent; not a clique"

    def test_clique_of_two_parts_of_a_balanced_c5_blowup(self):
        # parts 0 and 2 form a clique of 2560; part 0 sees part 3 and part 2
        # sees part 4, so every clique vertex is matched outside it
        g = c5_blowup_complement([1280] * 5)
        m = matching_from_clique(g, [*range(0, 1280), *range(2560, 3840)])
        assert m.size == 2560
        assert nonadjacent_pairs(g, m) == 0

    @pytest.mark.parametrize("clique, message", [
        pytest.param([0.0, 1], "clique vertex 0.0 is not an integer", id="float"),
        pytest.param([True, 1], "clique vertex True is not an integer", id="bool"),
        pytest.param([np.bool_(True)], "clique vertex .*True.* is not an integer",
                     id="numpy-bool"),
    ])
    def test_non_integer_vertex_is_named(self, clique, message):
        with pytest.raises(ValueError, match=message):
            matching_from_clique(complete_graph(4), clique)

    def test_numpy_vertices_accepted(self):
        g = complete_graph(6)
        assert matching_from_clique(g, np.arange(4)) == matching_from_clique(g, range(4))

    def test_output_always_connected(self):
        rng = np.random.default_rng(12)
        for i in range(60):
            g = random_alpha2_graph(i, n_max=14)
            clique = greedy_clique(g, rng)
            m = matching_from_clique(g, clique)
            validate_matching(g, m)
            assert nonadjacent_pairs(g, m) == 0

    def test_agrees_with_recursive_reference(self):
        # a clique planted in a sparse graph makes long augmenting paths
        rng = np.random.default_rng(28)
        for i in range(150):
            n = int(rng.integers(2, 90))
            clique = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            p = float(rng.uniform(0.02, 0.3))
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
            edges |= set(itertools.combinations(sorted(clique), 2))
            g = from_edge_list(n, edges)
            assert matching_from_clique(g, clique) == matching_from_clique_recursive(g, clique), i
        for i in range(60):
            g = random_alpha2_graph(i, n_max=40)
            clique = greedy_clique(g, rng)
            assert matching_from_clique(g, clique) == matching_from_clique_recursive(g, clique), i

    @staticmethod
    def staircase(links):
        # clique a_0..a_links; a_i sees b_i and b_(i+1), and a_links sees b_0 only,
        # so a_links is matched last, along an augmenting path through every a_i
        a = links + 1
        edges = list(itertools.combinations(range(a), 2))
        edges += [(i, a + j) for i in range(links) for j in (i, i + 1)] + [(links, a)]
        return from_edge_list(2 * a, edges), range(a)

    def test_staircase_agrees_with_reference(self):
        g, clique = self.staircase(500)
        assert matching_from_clique(g, clique) == matching_from_clique_recursive(g, clique)

    def test_staircase_path_longer_than_the_recursion_limit(self):
        g, clique = self.staircase(1200)
        assert g.n == 2402
        m = matching_from_clique(g, clique)
        # the last augment shifts every a_i with i < 1200 from b_i to b_(i+1)
        assert m == Matching([(i, 1202 + i) for i in range(1200)] + [(1200, 1201)])


class TestCliqueBoundAudit:
    def test_vacuous_when_order_too_small(self):
        assert clique_bound_audit(two_cliques(5), 3)  # n = 10 < 4*3 - 1

    def test_vacuous_for_complete_graph(self):
        assert clique_bound_audit(complete_graph(11), 3)

    def test_holds_on_random_instances(self):
        for i in range(120):
            g = random_alpha2_graph(i, n_max=14)
            for t in range(1, g.n // 2 + 2):
                assert clique_bound_audit(g, t)

    def test_seeded_scan_at_orders_20_to_24(self):
        # the Füredi–Gyárfás–Simonyi inequality cm >= floor((n + 1) / 4) on every
        # graph with alpha = 2 among the first 400 instances of the stream
        audited = 0
        for i in range(400):
            g = random_alpha2_graph(i, 20, 24)
            if is_alpha_at_most_2(g) and g.m < g.n * (g.n - 1) // 2:
                assert clique_bound_audit(g, (g.n + 1) // 4), g.rows
                audited += 1
        assert audited == 300

    def test_two_clique_boundary(self):
        for t in range(1, 5):
            # n = 4t - 2 is one vertex short of the premise, and cm = t - 1 there
            assert connected_matching_number(two_cliques(2 * t - 1)) == t - 1
            assert clique_bound_audit(two_cliques(2 * t - 1), t)
            # n = 4t meets it, and cm = t exactly
            assert connected_matching_number(two_cliques(2 * t)) == t
            assert clique_bound_audit(two_cliques(2 * t), t)

    def test_seeded_c5_mixes_at_orders_20_to_24(self):
        # the Füredi–Gyárfás–Simonyi inequality cm >= floor((n + 1) / 4) on 40
        # c5 blowups, each cut into five parts at 4 distinct random points
        rng = np.random.default_rng(2026)
        for _ in range(40):
            n = int(rng.integers(20, 25))
            cuts = [0, *sorted(rng.choice(np.arange(1, n), 4, replace=False).tolist()), n]
            g = c5_blowup_complement([b - a for a, b in zip(cuts, cuts[1:])])
            assert connected_matching_number(g) >= (n + 1) // 4, cuts

    def test_false_when_the_search_falls_short(self, monkeypatch):
        monkeypatch.setattr(oracles, "_search", lambda g, t, below: None)
        g = two_cliques(4)  # alpha = 2, n = 8
        assert not clique_bound_audit(g, 2)  # n >= 4t - 1
        assert clique_bound_audit(g, 3)  # n < 4t - 1: vacuous, no search

    def test_search_is_capped_at_t(self, monkeypatch):
        asked = []
        search = oracles._search

        def recorded(g, t, below):
            asked.append((t, below))
            return search(g, t, below)

        monkeypatch.setattr(oracles, "_search", recorded)
        g = c5_blowup_complement([3, 3, 3, 3, 4])
        assert all(clique_bound_audit(g, t) for t in range(1, g.n // 2 + 1))
        # the t with n >= 4t - 1, each asked for a score below 1; never n // 2 = 8
        assert asked == [(1, 1), (2, 1), (3, 1), (4, 1)]

    def test_size_limit(self):
        with pytest.raises(SizeLimitError,
                           match=r"^graph order 25 exceeds connected-matching limit 24$"):
            clique_bound_audit(c5_blowup_complement([5, 5, 5, 5, 5]), 1)
        assert clique_bound_audit(complete_graph(30), 3)


def _minimum(g: Graph, t: int):
    try:
        return min_nonadjacent_matching(g, t)
    except InfeasibleError:
        return None


def _exact_facts(g: Graph, audit_first: bool):
    """cm, the audit at every ``t`` and the exact minimum at every ``t`` of ``g``,
    with the audits run before or after the exact searches."""
    ts = range(1, g.n // 2 + 2)
    if audit_first:
        audits = [clique_bound_audit(g, t) for t in ts]
        mins = [_minimum(g, t) for t in ts]
    else:
        mins = [_minimum(g, t) for t in ts]
        audits = [clique_bound_audit(g, t) for t in ts]
    return connected_matching_number(g), audits, mins


def _memoised(g: Graph) -> bool:
    return g in oracles._SEARCH


def _fresh(rows, call, *args):
    """``call`` on a new graph of ``rows`` that no memo entry covers yet."""
    g = Graph(rows)
    assert not _memoised(g)
    return call(g, *args)


class TestPerGraphMemo:
    """The exact-search tables are built once per graph."""

    @pytest.mark.parametrize("audit_first", [True, False], ids=["audit-first", "minmatch-first"])
    def test_memoised_answers_equal_fresh_ones(self, audit_first):
        for i in range(60):
            rows = random_alpha2_graph(i, 6, 12).rows
            ts = range(1, len(rows) // 2 + 2)
            expected = (
                _fresh(rows, connected_matching_number),
                [_fresh(rows, clique_bound_audit, t) for t in ts],
                [_fresh(rows, _minimum, t) for t in ts],
            )
            g = Graph(rows)
            assert _exact_facts(g, audit_first) == expected, i
            assert _exact_facts(g, not audit_first) == expected, i
            del g  # an equal graph in the next round must start without an entry

    def test_equal_graphs_share_answers(self):
        for i in range(0, 40, 3):
            g = random_alpha2_graph(i, 6, 12)
            twin = Graph(g.rows)
            assert twin == g and twin is not g
            assert _exact_facts(g, True) == _exact_facts(twin, False)

    def test_errors_repeat(self):
        big = complete_graph(15)
        g = two_cliques(5)
        for _ in range(2):
            with pytest.raises(SizeLimitError):
                min_nonadjacent_matching(big, 2)
            with pytest.raises(SizeLimitError):
                connected_matching_number(complete_graph(25))
            with pytest.raises(SizeLimitError):
                clique_number(complete_graph(41))
            with pytest.raises(SizeLimitError):
                clique_number(g, limit=9)
            for t in (0, 2.0):
                with pytest.raises(ValueError, match="t "):
                    min_nonadjacent_matching(g, t)
                with pytest.raises(ValueError, match="t "):
                    clique_bound_audit(g, t)
            with pytest.raises(InfeasibleError):
                min_nonadjacent_matching(g, 6)
        assert not _memoised(big)  # refused before the memo is read

    def test_tables_built_once_per_graph(self, monkeypatch):
        built = []
        build = oracles._lexicographic_tables

        def counting(g):
            built.append(g.rows)
            return build(g)

        monkeypatch.setattr(oracles, "_lexicographic_tables", counting)
        g = c5_blowup_complement([3, 3, 3, 3, 2])
        assert _exact_facts(g, True) == _exact_facts(g, False)
        assert len(built) == 1

    def test_memo_does_not_keep_a_graph_alive(self):
        g = c5_blowup_complement([2, 2, 3, 2, 2])
        _exact_facts(g, True)
        assert g in oracles._SEARCH
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
