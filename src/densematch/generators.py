"""Seeded constructors for graphs whose independence number is at most 2.

Every generator is a pure function of its arguments: calling it twice with
the same inputs yields bitwise-identical adjacency rows.  Each output has
α ≤ 2 by construction, so it carries the answer of
:func:`graphs.is_alpha_at_most_2` from the start and is never scanned.
"""

from array import array
from mmap import mmap

import numpy as np

from .graphs import Graph, _as_int, _as_order, complement

# the random triangle-free process visits its first 32*n pairs unfiltered;
# each later segment, 4x longer than the one before, is filtered against a
# fresh closed-pair snapshot, so a few snapshots cover every pair
_FIRST_SEGMENT_PER_VERTEX = 32
_SEGMENT_GROWTH = 4
# pairs decoded, filtered and visited at a time, so no temporary outgrows one step
_STEP = 1 << 12
# glibc's initial mmap threshold: a smaller buffer comes from the heap in any
# case, and a map of its own would cost a small build a third of its time
_MAPPED_CODES_BYTES = 1 << 17


def _alpha_at_most_2_by_construction(g: Graph) -> Graph:
    """``g`` with its α ≤ 2 memo stored, for a graph whose construction proves it."""
    object.__setattr__(g, "_alpha_at_most_2", True)
    return g


def complete_graph(n: int) -> Graph:
    """The complete graph on ``n`` vertices."""
    n = _as_order(n, 1)
    full = (1 << n) - 1
    return _alpha_at_most_2_by_construction(
        Graph._of_rows(tuple(full ^ (1 << v) for v in range(n))))


def two_cliques(s: int) -> Graph:
    """Two disjoint cliques of size ``s`` with no cross edges.

    The independence number is exactly 2 (one vertex per component), and the
    largest connected matching is markedly smaller than a perfect matching
    because cross pairs of edges have no edge between them.
    """
    s = _as_int("s", s)
    _as_order(2 * s, 1)
    mask_a = (1 << s) - 1
    mask_b = mask_a << s
    rows = [mask_a ^ (1 << v) for v in range(s)]
    rows += [mask_b ^ (1 << v) for v in range(s, 2 * s)]
    return _alpha_at_most_2_by_construction(Graph._of_rows(tuple(rows)))


def c5_blowup_complement(part_sizes) -> Graph:
    """Complement of the 5-cycle blowup with the given part sizes.

    Vertex ``i`` of the 5-cycle becomes an independent set of
    ``part_sizes[i]`` vertices, with all edges between consecutive parts.
    The blowup is triangle-free, so the complement has independence number
    at most 2; part sizes are caller-chosen so experiments can sweep density
    deterministically.
    """
    try:
        sizes = list(part_sizes)
    except TypeError:
        raise ValueError(f"part sizes {part_sizes!r} are not a sequence") from None
    sizes = [_as_int("part size", s, 1) for s in sizes]
    if len(sizes) != 5:
        raise ValueError(f"need exactly 5 part sizes, got {len(sizes)}")
    n = sum(sizes)
    _as_order(n, 1)
    offsets = [0]
    for s in sizes[:4]:
        offsets.append(offsets[-1] + s)
    part_masks = [((1 << sizes[i]) - 1) << offsets[i] for i in range(5)]
    full = (1 << n) - 1
    rows = []
    for i in range(5):
        blow_row = part_masks[(i - 1) % 5] | part_masks[(i + 1) % 5]
        for v in range(offsets[i], offsets[i] + sizes[i]):
            rows.append((full ^ blow_row) ^ (1 << v))
    return _alpha_at_most_2_by_construction(Graph._of_rows(tuple(rows)))


def complement_of_random_triangle_free(n: int, seed: int) -> Graph:
    """Complement of a maximal triangle-free graph grown in seeded random order.

    All candidate pairs are visited in a uniformly shuffled order; each is
    added unless it would close a triangle.  Visiting every pair makes the
    triangle-free graph maximal, so the complement is dense and has
    independence number at most 2.  Deterministic for fixed ``(n, seed)``.

    Past the first segment of the order, pairs whose ends already share a
    neighbour are dropped before the visit.  This is exact: rows only grow,
    so such a pair would still be rejected at its turn, and a rejected pair
    changes nothing.

    Memory: the order is the lexicographic list of ``uint32`` pair codes
    ``u << 16 | v``, shuffled in place, 4 bytes per pair in a memory map of
    its own (the same draws as ``rng.permutation``, so the same order), and
    a segment's closed-pair snapshot holds 1 bit per pair.  Each segment is
    decoded, filtered and visited in steps of 2**12 pairs against its one
    snapshot, so the other temporaries never outgrow a step.
    """
    n = _as_order(n, 1)
    rng = np.random.default_rng(_as_int("seed", seed, 0))
    rows = [0] * n
    neighbours = [array("I") for _ in range(n)]
    codes = _pair_codes(n)
    rng.shuffle(codes)
    total = len(codes)
    start, length = 0, _FIRST_SEGMENT_PER_VERTEX * n
    while start < total:
        end = min(start + length, total)
        closed = _closed_pairs(n, rows, neighbours) if start else None
        for step in range(start, end, _STEP):
            pairs = codes[step:min(step + _STEP, end)]
            us, vs = pairs >> 16, pairs & 0xFFFF
            if closed is not None:
                keep = closed[us, vs >> 3] >> (vs & 7) & 1 == 0
                us, vs = us[keep], vs[keep]
            for u, v in zip(us.tolist(), vs.tolist()):
                if not rows[u] & rows[v]:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    neighbours[u].append(v)
                    neighbours[v].append(u)
        # release the snapshot before the next one is built
        closed = None
        start, length = end, length * _SEGMENT_GROWTH
    return _alpha_at_most_2_by_construction(complement(Graph._of_rows(tuple(rows))))


def _pair_codes(n: int) -> np.ndarray:
    """Every pair ``u < v`` as the ``uint32`` code ``u << 16 | v``, lexicographically.

    From ``_MAPPED_CODES_BYTES`` on, the codes live in an anonymous memory map
    of their own, unmapped when the array goes.  A malloc'd buffer of that
    size is mapped the first time only: glibc raises its mmap threshold when
    it frees it, so later builds' codes come from the heap, whose holes later
    allocations split, and a process keeps megabytes it no longer uses.
    """
    count = n * (n - 1) // 2
    if 4 * count < _MAPPED_CODES_BYTES:
        codes = np.empty(count, dtype=np.uint32)
    else:
        codes = np.frombuffer(mmap(-1, 4 * count), dtype=np.uint32)
    offset = 0
    for u in range(n - 1):
        codes[offset:offset + n - 1 - u] = _row_codes(n, u)
        offset += n - 1 - u
    return codes


def _row_codes(n: int, u: int) -> np.ndarray:
    """The codes of the pairs ``(u, u+1) .. (u, n-1)``; ends below MAX_VERTICES fit 16 bits."""
    return np.arange((u << 16) + u + 1, (u << 16) + n, dtype=np.uint32)


def _closed_pairs(n: int, rows, neighbours) -> np.ndarray:
    """Bit ``v`` of packed row ``u`` is 1 iff ``u`` and ``v`` share a neighbour.

    An ``n x ceil(n/8)`` ``uint8`` matrix, 1 bit per pair: row ``u`` is the
    OR of ``rows[w]`` over the neighbours ``w`` of ``u``, little-endian, and
    only its bits above ``u`` are read.
    """
    width = (n + 7) // 8
    closed = bytearray(n * width)
    for u in range(n - 1):
        reach = 0
        for w in neighbours[u]:
            reach |= rows[w]
        closed[u * width:(u + 1) * width] = reach.to_bytes(width, "little")
    return np.frombuffer(closed, dtype=np.uint8).reshape(n, width)
