import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from densematch import (Graph, Matching, build_family, c5_blowup_complement,
                        complement_of_random_triangle_free, complete_graph, is_alpha_at_most_2,
                        nonadjacent_pairs, read_edge_list, two_cliques, write_edge_list)
from densematch.extractor import prepare_extraction
from densematch.graphs import (MAX_VERTICES, complement, format_edge_list,
                               from_edge_list, min_degree, parse_edge_list)
from helpers import brute_alpha_at_most_2, random_graph


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1:
        return from_edge_list(1, [])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=2 * n))
    return from_edge_list(n, edges)


class TestFromEdgeList:
    def test_triangle(self):
        g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
        assert (g.n, g.m) == (3, 3)
        assert g.has_edge(2, 0)

    def test_empty_edge_set(self):
        g = from_edge_list(2, [])
        assert (g.n, g.m) == (2, 0)

    def test_duplicates_collapse(self):
        g = from_edge_list(4, [(0, 1), (0, 1), (2, 3)])
        assert g.m == 2

    def test_reversed_duplicate_collapses(self):
        g = from_edge_list(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            from_edge_list(MAX_VERTICES + 1, [])

    def test_m_is_half_popcount_sum(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
        families = [build_family("two-cliques", 8, None, 0), build_family("rtf", 13, None, 4),
                    build_family("c5", None, (1, 2, 1, 3, 2), 0), build_family("complete", 6, None, 0)]
        parity_fixed, _ = prepare_extraction(build_family("rtf", 33, None, 4), 4)
        for h in [g, complement(g), parity_fixed, Graph((0, 0, 0)), *families]:
            assert h.n == len(h.rows)
            assert sum(row.bit_count() for row in h.rows) == 2 * h.m
            assert parse_edge_list(format_edge_list(h)) == h


class TestGraphFromRows:
    def test_bit_at_or_above_n_rejected(self):
        with pytest.raises(ValueError, match="row 0 has bits outside"):
            Graph((0b100, 0b100))
        # such rows would report an m that their own edge list contradicts
        with pytest.raises(ValueError, match="row 0 has bits outside"):
            Graph((1 << 9, 0))

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="row 1 has bits outside"):
            Graph((0, -1))

    def test_self_loop_bit_rejected(self):
        with pytest.raises(ValueError, match="row 0 carries a self-loop bit"):
            Graph((0b1,))

    def test_odd_popcount_rejected(self):
        with pytest.raises(ValueError, match="row 0 has bit 1, row 1 lacks bit 0"):
            Graph((0b10, 0))

    def test_asymmetric_even_popcount_rejected(self):
        # two one-way bits keep the popcount sum even, so only an exact check sees them
        with pytest.raises(ValueError, match="row 0 has bit 1, row 1 lacks bit 0"):
            Graph((0b10, 0b100, 0))

    @given(graphs(), st.data())
    def test_any_two_flipped_bits_rejected(self, g, data):
        # flipping bits (u, v) and (w, x) of a symmetric graph keeps the parity,
        # and the result is symmetric only when the two flips are mirror images
        n = g.n
        assume(n >= 2)
        # (u, u + step) mod n with 0 < step < n, so never a loop bit
        cells = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
            lambda c: (c[0], (c[0] + c[1]) % n))
        (u, v), (w, x) = data.draw(cells), data.draw(cells)
        assume((w, x) not in ((u, v), (v, u)))
        rows = list(g.rows)
        rows[u] ^= 1 << v
        rows[w] ^= 1 << x
        with pytest.raises(ValueError, match="rows are not symmetric"):
            Graph(tuple(rows))

    @pytest.mark.parametrize("u, v", [(300, 550), (520, 7), (599, 598)])
    def test_one_way_pair_in_a_later_band_is_named(self, u, v):
        # the check runs in bands of 256 rows; the pair sits past the first band
        rows = list(complete_graph(600).rows)
        rows[v] ^= 1 << u
        with pytest.raises(ValueError, match=f"row {u} has bit {v}, row {v} lacks bit {u}$"):
            Graph(tuple(rows))

    def test_banded_check_reports_the_first_one_way_pair(self):
        # the first pair in row-major order, as a check of the whole matrix reports it
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 700))
            upper = np.triu(rng.random((n, n)) < 0.3, 1)
            bits = upper | upper.T
            for u, v in rng.integers(0, n, (3, 2)).tolist():
                bits[u, v] ^= u != v
            one_way = np.argwhere(bits > bits.T)
            rows = tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                         for row in bits)
            if not len(one_way):
                assert Graph(rows).m == int(bits.sum()) // 2
                continue
            u, v = one_way[0].tolist()
            with pytest.raises(ValueError, match=f"row {u} has bit {v}, row {v} lacks bit {u}$"):
                Graph(rows)

    def test_symmetry_check_memory_is_banded(self):
        # an n x n bit matrix would hold 16 MiB at n = 4096 on its own
        rows = complete_graph(4096).rows
        tracemalloc.start()
        try:
            Graph(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match=r"vertex count 65537 outside \[0, 65536\]"):
            Graph((0,) * (MAX_VERTICES + 1))

    def test_top_vertex_accepted(self):
        g = Graph(tuple([1 << 8] + [0] * 7 + [1]))
        assert list(g.edges()) == [(0, 8)]

    def test_numpy_rows_are_stored_as_ints(self):
        g = Graph((np.int64(2), np.int64(1)))
        assert g == Graph((2, 1))
        assert [type(row) for row in g.rows] == [int, int]
        assert g.packed.tolist() == [[2], [1]]
        assert nonadjacent_pairs(g, Matching([(0, 1)])) == 0

    def test_non_integer_row_is_named(self):
        with pytest.raises(ValueError, match="row 1 value 1.0 is not an integer"):
            Graph((2, 1.0))

    def test_list_of_rows_builds_the_tuple_graph(self):
        rows = (0b10, 0b01)
        assert Graph(rows).rows is rows
        g = Graph(list(rows))
        assert g == Graph(rows)
        assert hash(g) == hash(Graph(rows))
        assert {g: 1}[Graph(rows)] == 1


def _checked_twin(g):
    """Assert ``Graph(g.rows)`` has ``g``'s value, hash, repr, ``n`` and ``m``."""
    twin = Graph(g.rows)
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert g.m == twin.m and g.n == twin.n
    assert all(type(row) is int for row in g.rows)


class TestTrustedBuilders:
    """Builders whose rows are valid by construction skip the checks of ``Graph(rows)``."""

    def test_generators(self):
        for g in (complete_graph(9), two_cliques(5), c5_blowup_complement((1, 2, 1, 3, 2)),
                  complement_of_random_triangle_free(21, seed=4)):
            _checked_twin(g)

    @given(graphs())
    def test_from_edge_list_and_complement(self, g):
        _checked_twin(g)
        _checked_twin(complement(g))

    @pytest.mark.parametrize("n, t", [(33, 4), (65, 8), (97, 12)])
    def test_parity_fix(self, n, t):
        for g in (complete_graph(n), complement_of_random_triangle_free(n, seed=n)):
            fixed, _ = prepare_extraction(g, t)
            assert fixed.n == n - 1
            _checked_twin(fixed)


class TestIntegerArguments:
    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: Graph((2, True)), "row 1 value True is not an integer",
                     id="graph-row-bool"),
        pytest.param(lambda: from_edge_list(3.0, []), "n 3.0 is not an integer",
                     id="edge-list-n-float"),
        pytest.param(lambda: from_edge_list(True, []), "n True is not an integer",
                     id="edge-list-n-bool"),
        pytest.param(lambda: from_edge_list(np.bool_(True), []), "n .*True.* is not an integer",
                     id="edge-list-n-numpy-bool"),
        pytest.param(lambda: from_edge_list("3", []), "n '3' is not an integer",
                     id="edge-list-n-str"),
        pytest.param(lambda: from_edge_list(None, []), "n None is not an integer",
                     id="edge-list-n-none"),
        pytest.param(lambda: from_edge_list(3, [(0, 1.0)]),
                     r"edge \(0, 1\.0\) end 1\.0 is not an integer", id="edge-list-end-float"),
        pytest.param(lambda: from_edge_list(3, [(0, 1), (True, 2)]),
                     r"edge \(True, 2\) end True is not an integer", id="edge-list-end-bool"),
    ])
    def test_bad_argument_is_named(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_numpy_edge_ends_accepted(self):
        ends = np.array([[0, 1], [1, 2]])
        assert from_edge_list(3, ends.tolist()) == from_edge_list(3, map(tuple, ends))


def _packed_test_graphs():
    rng = np.random.default_rng(808)
    for n in (0, 1, 7, 8, 9, 17):
        yield random_graph(n, 0.5, rng)
        if n:
            yield complement_of_random_triangle_free(n, seed=n)


class TestPackedView:
    def test_agrees_with_has_edge(self):
        for g in _packed_test_graphs():
            assert g.packed.shape == (g.n, (g.n + 7) // 8)
            assert g.packed.dtype == np.uint8
            bits = np.unpackbits(g.packed, axis=1, count=g.n, bitorder="little")
            expect = np.array([[g.has_edge(u, v) for v in range(g.n)] for u in range(g.n)],
                              dtype=bool).reshape(g.n, g.n)
            assert np.array_equal(bits.astype(bool), expect)
            u, v = np.divmod(np.arange(g.n * g.n), max(g.n, 1))
            assert np.array_equal(g.has_edges(u, v), expect.ravel())

    def test_row_bytes_over_64_bit_words(self):
        # the packed view keeps the layout of the rows' little-endian bytes,
        # read from the words that scoring uses, without a second copy
        rng = np.random.default_rng(64)
        for n in (0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129):
            g = random_graph(n, 0.5, rng)
            nbytes = (n + 7) // 8
            assert g.packed.shape == (n, nbytes)
            assert g.packed.tobytes() == b"".join(row.to_bytes(nbytes, "little") for row in g.rows)
            words = g._words
            assert words.dtype == np.dtype("<u8") and words.shape == (n, (n + 63) // 64)
            assert [int.from_bytes(row.tobytes(), "little") for row in words] == list(g.rows)
            assert not words.flags.writeable and not g.packed.flags.writeable
            assert n == 0 or np.shares_memory(g.packed, words)
            u, v = np.divmod(np.arange(n * n), max(n, 1))
            assert g.has_edges(u, v).tolist() == [g.has_edge(*uv) for uv in zip(u.tolist(), v.tolist())]

    @pytest.mark.parametrize("u, v, bad", [
        ([-1], [4], -1),  # would wrap to row 5
        ([3], [-4], -4),  # would wrap to byte -1 and read bit 4
        ([0], [6], 6),  # would read a padding bit
        ([0], [8], 8),
        ([1, 2, 7], [0, -1, 0], -1),  # the first bad end, in pair order
    ])
    def test_has_edges_refuses_ends_outside_the_graph(self, u, v, bad):
        g = two_cliques(3)
        for dtype in (np.int64, np.int32, np.intp):
            with pytest.raises(IndexError, match=rf"^vertex {bad} outside 0\.\.5$"):
                g.has_edges(np.array(u, dtype), np.array(v, dtype))
        if bad >= 0:  # ends of mixed signedness, whose common dtype is a float
            with pytest.raises(IndexError, match=rf"^vertex {bad} outside 0\.\.5$"):
                g.has_edges(np.array(u, np.int64), np.array(v, np.uint64))

    def test_has_edges_on_empty_arrays(self):
        g = two_cliques(3)
        assert g.has_edges(np.array([], np.intp), np.array([], np.intp)).tolist() == []
        assert g.has_edges(np.array([3, 0], np.uint16), np.array([4, 1], np.uint8)).tolist() == [True, True]

    def test_read_only(self):
        g = two_cliques(5)
        assert not g.packed.flags.writeable
        with pytest.raises(ValueError):
            g.packed[0, 0] = 0

    def test_built_once_and_only_on_use(self):
        g = two_cliques(5)
        assert "packed" not in vars(g)
        assert g.packed is g.packed

    def test_caches_leave_value_semantics_alone(self):
        g = complement_of_random_triangle_free(17, seed=3)
        twin = Graph(g.rows)
        before = (repr(g), hash(g))
        g.packed
        is_alpha_at_most_2(g)
        assert (repr(g), hash(g)) == before
        assert g == twin and twin == g
        assert hash(g) == hash(twin) and repr(g) == repr(twin)


class TestComplement:
    def test_k4(self):
        g = complement(from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
        assert g.m == 0

    def test_two_triangles_give_k33(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        co = complement(g)
        expected = {(u, v) for u in (0, 1, 2) for v in (3, 4, 5)}
        assert set(co.edges()) == expected

    def test_c5_self_complementary(self):
        c5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        co = complement(c5)
        assert co.m == 5
        assert all(co.degree(v) == 2 for v in range(5))

    @given(graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestAlphaAtMostTwo:
    def test_clique(self):
        assert is_alpha_at_most_2(from_edge_list(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]))

    def test_two_disjoint_cliques(self):
        assert is_alpha_at_most_2(two_cliques(5))

    def test_three_isolated_vertices(self):
        assert not is_alpha_at_most_2(from_edge_list(3, []))

    def test_agrees_with_triple_scan(self):
        rng = np.random.default_rng(20240)
        for i in range(1000):
            n = int(rng.integers(1, 11))
            g = random_graph(n, float(rng.uniform(0.2, 0.95)), rng)
            assert is_alpha_at_most_2(g) == brute_alpha_at_most_2(g), f"instance {i}"

    def test_memoised_answer_agrees_with_triple_scan(self):
        rng = np.random.default_rng(20250)
        for i in range(200):
            g = random_graph(int(rng.integers(1, 11)), float(rng.uniform(0.2, 0.95)), rng)
            expect = brute_alpha_at_most_2(g)
            assert is_alpha_at_most_2(g) == expect, f"instance {i}"
            assert is_alpha_at_most_2(g) == expect, f"instance {i}, cached"

    def test_degree_identity_when_alpha_small(self):
        # non-neighbours of a vertex form a clique, forcing high minimum degree
        rng = np.random.default_rng(5)
        for i in range(30):
            g = random_graph(int(rng.integers(2, 12)), float(rng.uniform(0.5, 1.0)), rng)
            if is_alpha_at_most_2(g):
                co = complement(g)
                assert max(map(co.degree, range(g.n))) + 1 + min_degree(g) >= g.n


class TestDegrees:
    def test_k5(self):
        g = from_edge_list(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert min_degree(g) == 4

    def test_star(self):
        g = from_edge_list(5, [(0, v) for v in range(1, 5)])
        assert min_degree(g) == 1

    def test_two_cliques(self):
        g = two_cliques(5)
        assert min_degree(g) == 4

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            min_degree(Graph(()))


class TestMatchingValue:
    def test_constructor_normalises(self):
        m = Matching([(3, 2), (0, 1)])
        assert m.edges == ((0, 1), (2, 3))
        assert m.size == 2

    def test_float_end_names_the_edge(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\.0\) end 1\.0 is not an integer"):
            Matching([(0, 1.0)])

    def test_numpy_integer_end_is_stored_as_int(self):
        m = Matching([(np.int64(3), 2), (0, np.int32(1))])
        assert m.edges == ((0, 1), (2, 3))
        assert {type(x) for edge in m.edges for x in edge} == {int}

    def test_bool_end_rejected(self):
        with pytest.raises(ValueError, match=r"edge \(True, 2\) end True is not an integer"):
            Matching([(True, 2)])
        with pytest.raises(ValueError, match="end .*True.* is not an integer"):
            Matching([(0, np.bool_(True))])

    @given(st.integers(0, 40).flatmap(lambda n: st.permutations(range(n))), st.data(),
           st.sampled_from([np.int64, np.intp, np.int32, np.uint16]))
    def test_trusted_build_equals_checked_build(self, perm, data, dtype):
        k = data.draw(st.integers(0, len(perm) // 2))
        pairs = sorted((min(u, v), max(u, v)) for u, v in zip(perm[0:2 * k:2], perm[1:2 * k:2]))
        arr = np.array(pairs, dtype=dtype).reshape(k, 2)
        trusted, checked = Matching._of_sorted(arr), Matching(arr.tolist())
        assert trusted == checked
        assert hash(trusted) == hash(checked) and repr(trusted) == repr(checked)
        assert all(type(end) is int for edge in trusted.edges for end in edge)
        assert all(type(edge) is tuple for edge in trusted.edges)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = two_cliques(4)
        assert parse_edge_list(format_edge_list(g)) == g

    @given(graphs())
    def test_roundtrip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_whitespace(self):
        text = """
        # a triangle plus an isolated vertex
        4 3
        0 1  # first edge
        1 2
        0 2
        """
        g = parse_edge_list(text)
        assert (g.n, g.m) == (4, 3)

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_edge_list("# nothing here\n")

    def test_non_integer_token(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_edge_list("2 1\n0 x\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError, match="declares"):
            parse_edge_list("4 3\n0 1\n1 2\n")

    def test_file_roundtrip(self, tmp_path):
        g = two_cliques(3)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert read_edge_list(path) == g
