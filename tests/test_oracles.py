import gc
import hashlib
import weakref

import numpy as np
import pytest

from densematch import (Matching, c5_blowup_complement, clique_bound_audit, clique_number,
                        complete_graph, connected_matching_number,
                        count_bad_quadruples, matching_from_clique,
                        min_nonadjacent_matching, nonadjacent_pairs, two_cliques)
from densematch.errors import InfeasibleError, SizeLimitError
from densematch import oracles
from densematch.graphs import Graph, complement, from_edge_list
from densematch.oracles import _compatibility_rows, _incidence_masks, validate_matching
from helpers import (all_matchings, brute_clique_number, compatibility_rows_pairwise,
                     count_bad_quadruples_naive, count_nonadjacent_pairs_naive,
                     greedy_clique, min_nonadjacent_matching_plain,
                     random_alpha2_graph, random_graph, random_matching_of,
                     validate_matching_reference)


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
            assert "packed" not in vars(g)

    def test_invalid_matching_messages_match_reference(self):
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
        seen = set()
        for g, pairs in cases:
            m = Matching(pairs)
            expected = _error(validate_matching_reference, g, m.edges)
            assert expected is not None
            assert _error(validate_matching, g, m) == expected
            assert _error(nonadjacent_pairs, g, m) == expected
            assert "packed" not in vars(g)
            seen.update(kind for kind in ("invalid edge", "not an edge", "reuses")
                        if kind in expected)
        assert seen == {"invalid edge", "not an edge", "reuses"}

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


class TestBadQuadruples:
    def test_complete_graph(self):
        assert count_bad_quadruples(complete_graph(6)).count == 0

    def test_two_disjoint_edges(self):
        g = from_edge_list(4, [(0, 1), (2, 3)])
        result = count_bad_quadruples(g)
        assert result.count == 8  # one unordered pair, eight orderings
        # b = 4 complement edges, delta = 1 so k = 3: bound 2*4*(3-1)^2
        assert result.bound == 32

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


class TestConnectedMatchingNumber:
    def test_even_cliques_have_perfect_connected_matchings(self):
        for m in (1, 2, 3, 4, 5):
            assert connected_matching_number(complete_graph(2 * m)) == m

    def test_two_cliques_values(self):
        assert connected_matching_number(two_cliques(3)) == 1
        assert connected_matching_number(two_cliques(5)) == 2

    def test_edgeless(self):
        assert connected_matching_number(from_edge_list(5, [])) == 0

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
            # the degree-sum order connected_matching_number searches in
            by_degree = sorted(by_index, key=lambda e: -(g.degree(e[0]) + g.degree(e[1])))
            for edges in (by_index, by_degree):
                incident = _incidence_masks(g.n, edges)
                assert (_compatibility_rows(g, edges, incident)
                        == compatibility_rows_pairwise(g, edges))

    def test_capped_search_gives_min_of_cm_and_cap(self):
        graphs = [random_alpha2_graph(i, 6, 12) for i in range(60)]
        graphs += [two_cliques(k) for k in range(3, 8)]
        graphs += [c5_blowup_complement([3, 3, 3, 3, 2]), c5_blowup_complement([2, 4, 2, 3, 3])]
        for g in graphs:
            cm = connected_matching_number(g)
            for cap in range(1, g.n // 2 + 1):
                assert oracles._connected_matching(g, cap) == min(cm, cap), (g.rows, cap)


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

    def test_non_clique_rejected(self):
        with pytest.raises(ValueError, match="not a clique"):
            matching_from_clique(two_cliques(5), [0, 5])

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

    def test_two_clique_boundary(self):
        for t in range(1, 5):
            # n = 4t - 2 is one vertex short of the premise, and cm = t - 1 there
            assert connected_matching_number(two_cliques(2 * t - 1)) == t - 1
            assert clique_bound_audit(two_cliques(2 * t - 1), t)
            # n = 4t meets it, and cm = t exactly
            assert connected_matching_number(two_cliques(2 * t)) == t
            assert clique_bound_audit(two_cliques(2 * t), t)

    def test_false_when_the_search_falls_short(self, monkeypatch):
        monkeypatch.setattr(oracles, "_max_clique", lambda n, rows, cap: cap - 1)
        g = two_cliques(4)  # alpha = 2, n = 8
        assert not clique_bound_audit(g, 2)  # n >= 4t - 1
        assert clique_bound_audit(g, 3)  # n < 4t - 1: vacuous, no search

    def test_search_is_capped_at_t(self, monkeypatch):
        caps = []
        engine = oracles._max_clique

        def recorded(n, rows, cap):
            caps.append(cap)
            return engine(n, rows, cap)

        monkeypatch.setattr(oracles, "_max_clique", recorded)
        g = c5_blowup_complement([3, 3, 3, 3, 4])
        assert all(clique_bound_audit(g, t) for t in range(1, g.n // 2 + 1))
        assert caps == [1, 2, 3, 4]  # the t with n >= 4t - 1; never n // 2 = 8

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

    def test_memo_does_not_keep_a_graph_alive(self):
        g = c5_blowup_complement([2, 2, 3, 2, 2])
        _exact_facts(g, True)
        assert g in oracles._SEARCH
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
