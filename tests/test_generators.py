import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from densematch import (Graph, c5_blowup_complement,
                        complement_of_random_triangle_free, complete_graph,
                        connected_matching_number, is_alpha_at_most_2,
                        nonadjacent_pairs, two_cliques, Matching)
from densematch import generators
from densematch.generators import _open_pairs, _snapshot, _triangle_free_process
from densematch.graphs import MAX_VERTICES, complement
from helpers import (all_matchings, blowup_complement_pairwise, brute_alpha_at_most_2,
                     reference_random_triangle_free_complement,
                     reference_triangle_free_draws, triangle_free_process_law)


def _rows_digest(g: Graph) -> str:
    # pinned so that a rewrite of a generator must reproduce its rows bit for bit
    return hashlib.sha256(repr(g.rows).encode()).hexdigest()


class TestTwoCliques:
    def test_small(self):
        g = two_cliques(3)
        assert (g.n, g.m) == (6, 6)
        assert connected_matching_number(g) == 1

    def test_extremal_family(self):
        # two cliques of size 2t-1 top out at a connected matching of t-1
        for t in (1, 2, 3, 4):
            g = two_cliques(2 * t - 1)
            assert connected_matching_number(g) == t - 1

    def test_single_vertices(self):
        g = two_cliques(1)
        assert (g.n, g.m) == (2, 0)

    def test_no_cross_edges(self):
        g = two_cliques(4)
        assert not any(u < 4 <= v for u, v in g.edges())

    @pytest.mark.parametrize("s, expected", [
        (1, "9d37e282dff85f7c8fffc4daf3461561337a4a9da281111f2dbf927b7a99db77"),
        (4, "182832776c0ea9756b064556d0d95dfafbcb163aac20be3772bad015a4df57b9"),
        (33, "61e9e5976cb3a11ce5f01a6d5e0e34fa653b01df199a80d9a1450c9d6916febb"),
        (400, "da23cfd02640b7ed724f580576c44c53535013e881dad674af6b85698d4ff0ef"),
    ])
    def test_golden_rows(self, s, expected):
        assert _rows_digest(two_cliques(s)) == expected


class TestCompleteGraph:
    def test_k4(self):
        assert complete_graph(4).m == 6

    def test_k1(self):
        assert complete_graph(1).m == 0

    def test_all_size3_matchings_connected(self):
        g = complete_graph(6)
        for edges in all_matchings(g, max_size=3):
            if len(edges) == 3:
                assert nonadjacent_pairs(g, Matching(edges)) == 0

    @pytest.mark.parametrize("n, expected", [
        (1, "91d6039a01f57163ec02db197e5481ffc170187e262006fa833b26f0cc064633"),
        (2, "34e6f08aad18ac9868a9da1b5d2ad0bf2fabf191e92652264ecfc9bde7460695"),
        (9, "52ac3e8b2f431d8c45bf307d52b04d42733282b83feb1ba88c48b61f3983eed6"),
        (64, "7684009b0fddc03e384e2aaf88fb11579e813fdfc3b7c3ff9e99240298496397"),
        (65, "358ac96fb100bb4d577b9ada34e8d57b61857b589acc76a95e316ad23b5a309f"),
        (1001, "ee141d438d95b5d1f344a2ba8f58ca0a06dda88fc9bd5f6a2074c13136674765"),
    ])
    def test_golden_rows(self, n, expected):
        assert _rows_digest(complete_graph(n)) == expected


class TestRandomTriangleFreeComplement:
    def test_single_vertex(self):
        g = complement_of_random_triangle_free(1, 0)
        assert (g.n, g.m) == (1, 0)

    def test_alpha_bound_by_construction(self):
        # the generator stores the answer; an untrusted copy of its rows is scanned
        g = complement_of_random_triangle_free(20, 7)
        assert is_alpha_at_most_2(g) and is_alpha_at_most_2(Graph(g.rows))

    def test_deterministic(self):
        a = complement_of_random_triangle_free(20, 7)
        b = complement_of_random_triangle_free(20, 7)
        assert a == b

    def test_seed_changes_output(self):
        a = complement_of_random_triangle_free(20, 7)
        b = complement_of_random_triangle_free(20, 8)
        assert a != b

    def test_golden_rows(self):
        # pinned so that a rewrite of the generator must reproduce its output
        # bit for bit, odd orders included
        digest = hashlib.sha256()
        for n, seed in ((2, 3), (7, 5), (64, 9), (65, 1), (129, 2), (1000, 4)):
            digest.update(repr(complement_of_random_triangle_free(n, seed).rows).encode())
        assert digest.hexdigest() == (
            "e081a3156b4466b7e040479638755c34a08bc52f3f984aba910ac55fe6ba2caa")

    def test_golden_rows_large(self):
        # n=3200 draws in batches of up to millions of pairs, then lists its open pairs
        digest = hashlib.sha256(
            repr(complement_of_random_triangle_free(3200, 11).rows).encode())
        assert digest.hexdigest() == (
            "99d8d34a879ab2d7f3ba861e60855cfc9bbda4d40225e4f6923aca65e2ed92d4")

    @pytest.mark.parametrize("n", [4096, 4097])
    def test_golden_rows_at_code_width_change(self, n):
        # the orders where the rows' bytes fill a 64-bit word exactly and
        # just overflow it
        expected = {
            4096: "b3724be7c126f0a21ea613037cfc4fe5e5213403fbcbfee05b2ce95cd8eaa87e",
            4097: "2e5e3e0a32e06ffdf30c3d9f2fb0b8697a981683c0a041de59aa11f72ac7ac22",
        }
        digest = hashlib.sha256(repr(complement_of_random_triangle_free(n, 11).rows).encode())
        assert digest.hexdigest() == expected[n]

    def test_matches_unfiltered_reference(self):
        # n=17 is the last order whose first batch covers every pair and n=18
        # the first that draws; n=50 and 700 switch to the open list after a
        # batch with few survivors; the others straddle the rows' byte and
        # word ends, and n=257 a band of the open list
        for n in (17, 18, 49, 50, 64, 65, 66, 67, 130, 131, 257, 700):
            for seed in (0, 1, 2):
                assert (complement_of_random_triangle_free(n, seed)
                        == reference_triangle_free_draws(n, seed)), (n, seed)

    @given(st.integers(1, 150), st.integers(0, 2**32))
    def test_matches_unfiltered_reference_at_any_seed(self, n, seed):
        assert (complement_of_random_triangle_free(n, seed)
                == reference_triangle_free_draws(n, seed))

    @given(st.integers(2, 40), st.integers(0, 2**32), st.integers(1, 50))
    def test_matches_reference_at_any_first_batch(self, n, seed, first_batch):
        rows = _triangle_free_process(n, seed, first_batch)
        assert (generators._complement_of_triangle_free(rows)
                == reference_triangle_free_draws(n, seed, first_batch))

    def test_small_orders_follow_the_permutation(self):
        # up to n=17 the first batch covers every pair, so no pair is drawn and
        # the open list, every pair, is visited in rng.permutation's order
        for n in range(1, 18):
            for seed in range(30):
                assert (complement_of_random_triangle_free(n, seed)
                        == reference_random_triangle_free_complement(n, seed)), (n, seed)

    @pytest.mark.parametrize("n, first_batch", [(5, 1), (6, 2)])
    def test_law_of_the_drawn_process(self, n, first_batch):
        # first batches this small run phase A at these orders, so draws,
        # snapshots, the switch and the open list all shape the graph; its law
        # must be that of adding uniform open pairs one at a time
        law = triangle_free_process_law(n)
        builds = 20_000
        seen = Counter()
        for seed in range(builds):
            rows = _triangle_free_process(n, seed, first_batch)
            seen[frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                           if rows[u] >> v & 1)] += 1
        assert set(seen) <= set(law)
        graphs = sorted(law, key=law.get)
        # graphs expected fewer than 5 times share one bin
        small = [g for g in graphs if law[g] * builds < 5]
        bins = [[g] for g in graphs if g not in small] + ([small] if small else [])
        observed = [sum(seen[g] for g in b) for b in bins]
        expected = [builds * sum(law[g] for g in b) for b in bins]
        assert stats.chisquare(observed, expected).pvalue >= 1e-3

    def test_edge_counts_match_the_permutation_process(self):
        # two samples of triangle-free edge counts at n=60, where draws, the
        # switch and the open list all run, from disjoint seeds
        n = 60
        pairs = n * (n - 1) // 2
        drawn = [pairs - complement_of_random_triangle_free(n, seed).m for seed in range(300)]
        permuted = [pairs - reference_random_triangle_free_complement(n, seed).m
                    for seed in range(10_000, 10_300)]
        assert stats.ks_2samp(drawn, permuted).pvalue >= 1e-3

    def test_maximality(self, monkeypatch):
        # every non-edge of the triangle-free graph closes a triangle; each
        # order draws pairs first (n >= 18) and then lists open pairs
        listed = []

        def open_pairs(*args):
            order = _open_pairs(*args)
            listed.append(len(order))
            return order

        monkeypatch.setattr(generators, "_open_pairs", open_pairs)
        for n in (24, 300, 1000):
            g = complement_of_random_triangle_free(n, 3)
            tf = complement(g)
            for u, v in g.edges():  # edges of g are exactly the tf non-edges
                assert tf.rows[u] & tf.rows[v], f"pair ({u}, {v}) was addable"
        assert len(listed) == 3 and min(listed) > 0

    def test_peak_memory_per_pair(self):
        # about 2 bits each of closed rows and snapshot per pair, 4 bytes per
        # pair open at the switch, and steps of 2**12 draws and bands of 2**16
        # snapshot bits read 2.28; shuffled 3-byte codes of every pair read
        # 4.81 and fail
        n = 800
        tracemalloc.start()
        try:
            complement_of_random_triangle_free(n, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * (n - 1) // 2) < 3.0


class TestPairStream:
    # the open-pair list of the generator's second phase, on every numpy

    @pytest.mark.parametrize("total, seed", [(1, 0), (1000, 11), (70_001, 3), (1_279_200, 11)])
    def test_uint32_shuffle_equals_permutation(self, total, seed):
        order = np.arange(total, dtype=np.uint32)
        np.random.default_rng(seed).shuffle(order)
        assert np.array_equal(order, np.random.default_rng(seed).permutation(total))

    # a band unpacks 2**16 snapshot bits, so n = 256 and 257 straddle one
    # row per band, and n = 4096 and 4097 take 16 rows and 15
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 100, 256, 257, 296, 297, 4096, 4097])
    def test_pair_codes_are_lexicographic(self, n):
        # on an empty snapshot every pair is open
        stride = 8 * -(-n // 8)
        codes = _open_pairs(np.zeros(n * stride // 8, np.uint8), n, stride)
        assert codes.dtype == np.uint32 and len(codes) == n * (n - 1) // 2
        offset = 0
        for u in range(n - 1):
            row = codes[offset:offset + n - 1 - u]
            assert row.tolist() == list(range(u * stride + u + 1, u * stride + n))
            offset += n - 1 - u

    @pytest.mark.parametrize("n, seed", [(2, 0), (46, 11), (375, 3), (1600, 11)])
    def test_shuffled_codes_follow_permutation(self, n, seed):
        # the open pairs of a random triangle-free snapshot, in both
        # orientations; the shuffle's draws do not read the array, so codes
        # visit pairs in the order rng.permutation gives their indices
        rng = np.random.default_rng(seed)
        rows = complement(complement_of_random_triangle_free(n, seed)).rows
        closed = [int(x) for x in rng.integers(0, 1 << min(n, 62), n, dtype=np.int64)]
        stride = 8 * -(-n // 8)
        snapshot = np.empty(n * stride // 8, np.uint8)
        _snapshot(rows, closed, snapshot)
        codes = _open_pairs(snapshot, n, stride)
        taken = [(row | c) & ((1 << n) - 1) for row, c in zip(rows, closed)]
        assert codes.tolist() == [u * stride + v for u in range(n) for v in range(u + 1, n)
                                  if not taken[u] >> v & 1 and not taken[v] >> u & 1]
        shuffled = codes.copy()
        np.random.default_rng(seed).shuffle(shuffled)
        assert np.array_equal(shuffled, codes[np.random.default_rng(seed).permutation(len(codes))])

    def test_codes_fit_32_bits(self):
        # the largest order's draws over n * n and its last code, without
        # its 512 MB snapshot
        n = MAX_VERTICES
        stride = 8 * -(-n // 8)
        assert stride == n
        draws = np.random.default_rng(0).integers(0, n * n, 1000, np.uint32)
        assert draws.dtype == np.uint32 and int(draws.max()) >= 1 << 31
        assert (n - 2) * stride + n - 1 < 1 << 32


class TestC5BlowupComplement:
    def test_unit_parts(self):
        g = c5_blowup_complement((1, 1, 1, 1, 1))
        assert (g.n, g.m) == (5, 5)
        assert brute_alpha_at_most_2(g)
        assert g.m < g.n * (g.n - 1) // 2  # some non-edge, so alpha is exactly 2

    def test_even_parts(self):
        g = c5_blowup_complement((2, 2, 2, 2, 2))
        assert g.n == 10
        assert is_alpha_at_most_2(g)

    def test_mixed_parts(self):
        g = c5_blowup_complement((1, 1, 1, 1, 2))
        assert g.n == 6
        assert brute_alpha_at_most_2(g)
        assert g.m < g.n * (g.n - 1) // 2

    def test_bad_parts(self):
        with pytest.raises(ValueError):
            c5_blowup_complement((1, 1, 1, 1))
        with pytest.raises(ValueError):
            c5_blowup_complement((1, 1, 0, 1, 1))
        with pytest.raises(ValueError, match="part size 1.5 is not an integer"):
            c5_blowup_complement([1.5, 1, 1, 1, 1.9])
        assert c5_blowup_complement(np.array([1, 2, 1, 3, 2])) == c5_blowup_complement(
            (1, 2, 1, 3, 2))

    @pytest.mark.parametrize("parts, expected", [
        ((1, 1, 1, 1, 1), "cbaed4f8bfdc1f2f53bfbb35904a405848c75905be0062e1f3fd60e121d3adbb"),
        ((2, 1, 3, 1, 2), "4f3cd99bdaa71b9c11c3b0d4ce6e654e0143b44d57bc58ddf219d3ee2eaeb8bc"),
        ((9, 2, 7, 1, 4), "10ad7f6758bba6f7a2d7777cb78ad5c2f69b487389cc2b08b7bc34622f86fa1c"),
        ((16, 16, 16, 16, 736),
         "91e76e09780a2f4bd447b29eea26e66795a944ba017fdaee746f4af09f6d1502"),
    ])
    def test_golden_rows(self, parts, expected):
        assert _rows_digest(c5_blowup_complement(parts)) == expected


def _blocks(d: int, universal: int) -> Graph:
    """Complement of four disjoint K_{d,d} with ``universal`` vertices joined to all."""
    return generators._blowup_complement([1 << (i ^ 1) for i in range(8)] + [0] * universal,
                                         [d] * 8 + [1] * universal)


class TestBlowupComplement:
    @staticmethod
    def random_base(rng: np.random.Generator) -> list[int]:
        """A random triangle-free base: a bipartite graph, a matching, C5 or C7."""
        kind = int(rng.integers(4))
        if kind >= 2:
            length = 5 + 2 * (kind - 2)
            return [1 << (i - 1) % length | 1 << (i + 1) % length for i in range(length)]
        p = int(rng.integers(1, 9))
        rows = [0] * p
        if kind == 0:
            side = rng.integers(2, size=p)
            pairs = [(i, j) for i in range(p) for j in range(i + 1, p)
                     if side[i] != side[j] and rng.random() < 0.5]
        else:
            order = rng.permutation(p).tolist()
            pairs = list(zip(order[0::2], order[1::2]))[:int(rng.integers(p // 2 + 1))]
        for i, j in pairs:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return rows

    def test_matches_pairwise_reference(self):
        rng = np.random.default_rng(32)
        for case in range(300):
            base = self.random_base(rng)
            assert not any(base[i] & base[j] for i in range(len(base))
                           for j in range(len(base)) if base[i] >> j & 1), base
            sizes = [int(x) for x in rng.integers(1, 7, size=len(base))]
            g = generators._blowup_complement(base, sizes)
            assert g == blowup_complement_pairwise(base, sizes), (case, base, sizes)
            assert vars(g)["_alpha_at_most_2"] is True


class TestIntegerArguments:
    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: complete_graph(3.0), "n 3.0 is not an integer", id="complete-n"),
        pytest.param(lambda: two_cliques(2.5), "s 2.5 is not an integer", id="two-cliques-s"),
        pytest.param(lambda: complement_of_random_triangle_free(10.0, 1),
                     "n 10.0 is not an integer", id="rtf-n"),
        pytest.param(lambda: complement_of_random_triangle_free(10, 1.5),
                     "seed 1.5 is not an integer", id="rtf-seed"),
        pytest.param(lambda: complement_of_random_triangle_free(10, None),
                     "seed None is not an integer", id="rtf-seed-none"),
        pytest.param(lambda: complement_of_random_triangle_free(10, -1),
                     r"seed must be nonnegative \(got -1\)", id="rtf-seed-negative"),
        pytest.param(lambda: complete_graph(True), "n True is not an integer",
                     id="complete-n-bool"),
        pytest.param(lambda: two_cliques(False), "s False is not an integer",
                     id="two-cliques-s-bool"),
        pytest.param(lambda: c5_blowup_complement((1, 1, True, 1, 1)),
                     "part size True is not an integer", id="c5-part-bool"),
        pytest.param(lambda: c5_blowup_complement((1, 1, 0, 1, 1)),
                     r"part size must be at least 1 \(got 0\)", id="c5-part-zero"),
        pytest.param(lambda: c5_blowup_complement(5), "part sizes 5 are not a sequence",
                     id="c5-parts-int"),
        pytest.param(lambda: complement_of_random_triangle_free(True, 1),
                     "n True is not an integer", id="rtf-n-bool"),
        pytest.param(lambda: complement_of_random_triangle_free(10, True),
                     "seed True is not an integer", id="rtf-seed-bool"),
    ])
    def test_bad_argument_is_named(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_integers_accepted(self):
        # past 63 vertices a numpy n would overflow the row shifts
        assert complete_graph(np.int64(70)) == complete_graph(70)
        assert two_cliques(np.int32(40)) == two_cliques(40)
        assert (complement_of_random_triangle_free(np.int64(70), np.uint8(3))
                == complement_of_random_triangle_free(70, 3))


class TestFamilyInvariants:
    def test_every_generator_output_has_alpha_at_most_2(self):
        rng = np.random.default_rng(99)
        for i in range(200):
            n = int(rng.integers(1, 61))
            parts = tuple(1 + int(x) for x in rng.integers(0, 12, size=5))
            for g in (complement_of_random_triangle_free(n, i), two_cliques(max(1, n // 2)),
                      complete_graph(n), c5_blowup_complement(parts),
                      _blocks(1 + n // 16, n % 9)):
                # the stored answer must agree with the scan of an untrusted copy
                assert is_alpha_at_most_2(g) and is_alpha_at_most_2(Graph(g.rows)), (i, g.n)

    def test_alpha_memo_stored_by_construction(self):
        for g in (complement_of_random_triangle_free(30, 2), two_cliques(4),
                  complete_graph(9), c5_blowup_complement((2, 1, 3, 1, 2)), _blocks(4, 8)):
            assert vars(g)["_alpha_at_most_2"] is True
            assert "_alpha_at_most_2" not in vars(Graph(g.rows))

    def test_repeat_output_bitwise_identical(self):
        assert two_cliques(9).rows == two_cliques(9).rows
        assert complete_graph(17).rows == complete_graph(17).rows
        assert (c5_blowup_complement((2, 3, 1, 4, 2)).rows
                == c5_blowup_complement((2, 3, 1, 4, 2)).rows)
        assert (complement_of_random_triangle_free(33, 5).rows
                == complement_of_random_triangle_free(33, 5).rows)
