"""Seeded constructors for graphs whose independence number is at most 2.

Every generator is a pure function of its arguments: calling it twice with
the same inputs yields bitwise-identical adjacency rows.  Each output is the
complement of a triangle-free graph, built by :func:`_complement_of_triangle_free`,
so it has α ≤ 2 by construction: it carries the answer of
:func:`graphs.is_alpha_at_most_2` from the start and is never scanned.
"""

from itertools import accumulate
from mmap import PAGESIZE, mmap

try:
    from mmap import MADV_DONTNEED
except ImportError:  # no madvise on this platform
    MADV_DONTNEED = None

import numpy as np

from .graphs import Graph, _as_int, _as_order, _bit_in_byte

# the random triangle-free process visits its first 8*n pairs unfiltered;
# each later segment, 2x longer than the one before, is filtered against a
# fresh closed-pair snapshot, which costs one to_bytes per vertex
_FIRST_SEGMENT_PER_VERTEX = 8
_SEGMENT_GROWTH = 2
# pairs filtered, decoded and visited at a time, so no temporary outgrows one step
_STEP = 1 << 12
# pairs per block of rows when the codes are built, at least one row
_CODE_BLOCK = 1 << 15
# glibc's initial mmap threshold: a smaller buffer comes from the heap in any
# case, and a map of its own would cost a small build a third of its time
_MAPPED_CODES_BYTES = 1 << 17
# visited codes handed back to the system at a time, where it has madvise
_RELEASE_BYTES = 1 << 18


def _complement_of_triangle_free(rows) -> Graph:
    """Complement of the triangle-free graph with bit rows ``rows``, its α ≤ 2 memo stored.

    A triangle-free graph has no three pairwise adjacent vertices, so its
    complement has no three pairwise non-adjacent ones.
    """
    full = (1 << len(rows)) - 1
    g = Graph._of_rows(tuple(full ^ row ^ (1 << v) for v, row in enumerate(rows)))
    object.__setattr__(g, "_alpha_at_most_2", True)
    return g


def complete_graph(n: int) -> Graph:
    """The complete graph on ``n`` vertices, the complement of the empty graph."""
    return _complement_of_triangle_free([0] * _as_order(n, 1))


def two_cliques(s: int) -> Graph:
    """Two disjoint cliques of size ``s`` with no cross edges.

    The complement is the complete bipartite graph K_{s,s}.  The independence
    number is exactly 2 (one vertex per component), and the largest connected
    matching is markedly smaller than a perfect matching because cross pairs
    of edges have no edge between them.
    """
    s = _as_int("s", s)
    _as_order(2 * s, 1)
    side = (1 << s) - 1
    return _complement_of_triangle_free([side << s] * s + [side] * s)


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
    ends = list(accumulate(sizes))
    _as_order(ends[-1], 1)
    masks = [(1 << end) - (1 << end - s) for s, end in zip(sizes, ends)]
    return _complement_of_triangle_free([masks[i - 1] | masks[(i + 1) % 5]
                                         for i, s in enumerate(sizes) for _ in range(s)])


def complement_of_random_triangle_free(n: int, seed: int) -> Graph:
    """Complement of a maximal triangle-free graph grown in seeded random order.

    All candidate pairs are visited in a uniformly shuffled order; each is
    added unless it would close a triangle.  Visiting every pair makes the
    triangle-free graph maximal, so the complement is dense and has
    independence number at most 2.  Deterministic for fixed ``(n, seed)``.

    Past the first segment of the order, pairs whose ends already share a
    neighbour are dropped before the visit.  This is exact: rows only grow,
    so such a pair would still be rejected at its turn, and a rejected pair
    changes nothing.  The first segment holds 8n pairs and each later one
    twice the one before; each is filtered against one closed-pair snapshot.

    The snapshot comes from closed rows kept as the process runs: when
    ``uv`` is accepted, ``closed[u] |= rows[v]`` and ``closed[v] |= rows[u]``,
    after ``rows`` take the edge.  A pair ``p < q`` is closed, that is its
    ends share a neighbour, exactly when bit ``q`` of ``closed[p]`` or bit
    ``p`` of ``closed[q]`` is set.  If ``p`` and ``q`` share the neighbour
    ``w`` and, say, ``qw`` came after ``pw``, then ``rows[w]`` held ``p``
    when ``qw`` was accepted, so ``closed[q]`` took bit ``p``.  Conversely, a
    bit ``x`` of ``closed[u]`` came from ``rows[v]`` for some edge ``uv``, so
    ``u`` and ``x`` share the neighbour ``v``.  A snapshot is therefore one
    ``to_bytes`` per closed row, and each step of the order is filtered on
    its codes ``u * stride + v``, decoded, and filtered again on
    ``v * stride + u``.

    Memory: the order is the lexicographic list of flat pair codes
    ``u * stride + v`` of :func:`_flat_pair_codes`, shuffled in place (the
    same draws as ``rng.permutation``, so the same order): 3 bytes per pair
    from n = 257 to 4096 and 4 above, from 128 KiB on in a memory map of its
    own whose visited pages go back to the system where the platform has
    madvise.  The closed rows take ``n`` bits per vertex, about 2 bits per
    pair, and so does the snapshot: the closed rows packed at the codes' flat
    indices, in one buffer allocated at the first snapshot and reused.  The
    order is read as ``uint32`` codes in steps of 2**12 pairs, so the other
    temporaries never outgrow a step.
    """
    n = _as_order(n, 1)
    rng = np.random.default_rng(_as_int("seed", seed, 0))
    rows = [0] * n
    closed = [0] * n
    codes, stride, buffer = _flat_pair_codes(n)
    rng.shuffle(codes)
    total, width = len(codes), codes.itemsize
    # the 4 little-endian bytes from each code's first, the next code's masked off
    words, mask = np.ndarray(total, "<u4", buffer, 0, (width,)), np.uint32((1 << 8 * width) - 1)
    release = MADV_DONTNEED is not None and isinstance(buffer, mmap)
    released = 0
    snapshot = None
    start, length = 0, _FIRST_SEGMENT_PER_VERTEX * n
    while start < total:
        end = min(start + length, total)
        if start:
            snapshot = _closed_pairs(closed, stride, snapshot)
        for step in range(start, end, _STEP):
            count = min(_STEP, end - step)
            pairs = words[step:step + count] & mask
            if snapshot is not None:
                pairs = pairs.compress(_clear(snapshot, pairs))
            us, vs = np.divmod(pairs, stride)
            if snapshot is not None:
                keep = _clear(snapshot, vs * stride + us)
                us, vs = us.compress(keep), vs.compress(keep)
            for u, v in zip(us.tolist(), vs.tolist()):
                if not rows[u] & rows[v]:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                    closed[u] |= rows[v]
                    closed[v] |= rows[u]
            # hand back the map's pages whose codes have all been visited
            visited = (step + count) * width // PAGESIZE * PAGESIZE
            if release and visited - released >= _RELEASE_BYTES:
                buffer.madvise(MADV_DONTNEED, released, visited - released)
                released = visited
        start, length = end, length * _SEGMENT_GROWTH
    return _complement_of_triangle_free(rows)


def _flat_pair_codes(n: int) -> tuple[np.ndarray, int, mmap | bytearray]:
    """Every pair ``u < v`` as its flat code ``u * stride + v``, lexicographically.

    ``stride = 8 * ceil(n / 8)``, so a code is the pair's bit index in the
    flat :func:`_closed_pairs` snapshot.  Each code takes the ``width``
    little-endian bytes that hold ``n * stride - 1``: 1 up to n = 16, 2 up
    to 256, 3 up to 4096 and 4 up to ``MAX_VERTICES``.  The codes form a
    ``V{width}`` array, whose shuffle makes the same draws as
    ``rng.permutation``, so the order does not depend on the width.

    Returns ``(codes, stride, buffer)``.  ``buffer`` holds the codes and
    ``4 - width`` zero bytes after them, so 4 bytes can be read from every
    code's first.  From ``_MAPPED_CODES_BYTES`` on, it is an anonymous memory
    map of its own, unmapped when the array goes; below, a ``bytearray``.  A
    malloc'd buffer of that size is mapped the first time only: glibc raises
    its mmap threshold when it frees it, so later builds' codes come from the
    heap, whose holes later allocations split, and a process keeps megabytes
    it no longer uses.
    """
    stride, width = _code_layout(n)
    count = n * (n - 1) // 2
    size = width * count + 4 - width
    buffer = bytearray(size) if width * count < _MAPPED_CODES_BYTES else mmap(-1, size)
    codes = np.frombuffer(buffer, f"V{width}", count)
    rows_per_block = max(1, _CODE_BLOCK // n)
    offset = 0
    for u in range(0, n - 1, rows_per_block):
        block = _row_block_codes(n, stride, u, min(u + rows_per_block, n - 1)).astype("<u4", copy=False)
        # the first width bytes of each little-endian uint32
        codes[offset:offset + len(block)] = np.ndarray(len(block), codes.dtype, block, 0, (4,))
        offset += len(block)
    return codes, stride, buffer


def _code_layout(n: int) -> tuple[int, int]:
    """``(stride, width)``: bits per closed-pair row, ``8 * ceil(n / 8)``, and the
    bytes that hold every flat code below ``n * stride``."""
    stride = 8 * ((n + 7) // 8)
    return stride, ((n * stride - 1).bit_length() + 7) // 8


def _row_block_codes(n: int, stride: int, first: int, last: int) -> np.ndarray:
    """The ``uint32`` codes of rows ``first .. last - 1``, pairs ``(u, u+1) .. (u, n-1)``.

    Row ``u`` has ``n - 1 - u`` pairs and its last ends the block's first
    ``end[u]``, so pair ``j`` of the block, in row ``u``, is
    ``(u, n + j - end[u])``: its code is ``j`` plus ``u * stride + n - end[u]``.
    Below ``MAX_VERTICES`` every code fits 32 bits.
    """
    lengths = np.arange(n - 1 - first, n - 1 - last, -1)
    shifts = np.arange(first * stride + n, last * stride + n, stride) - np.cumsum(lengths)
    block = np.repeat(shifts.astype(np.uint32), lengths)
    block += np.arange(len(block), dtype=np.uint32)
    return block


def _closed_pairs(closed, stride: int, snapshot: np.ndarray | None) -> np.ndarray:
    """Bit ``u * stride + v`` is bit ``v`` of ``closed[u]``: a flat ``uint8``
    array of the ``n`` closed rows packed little-endian, ``stride`` bits each.

    Writes into ``snapshot`` when one is given, else into a new array.
    """
    width = stride // 8
    if snapshot is None:
        snapshot = np.empty(len(closed) * width, np.uint8)
    view = memoryview(snapshot)
    for u, row in enumerate(closed):
        view[u * width:(u + 1) * width] = row.to_bytes(width, "little")
    return snapshot


def _clear(snapshot: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Whether each of the flat bit indices ``bits`` is 0 in ``snapshot``."""
    return snapshot.take(bits >> 3) & _bit_in_byte(bits) == 0
