"""Seeded constructors for graphs whose independence number is at most 2.

Every generator is a pure function of its arguments: calling it twice with
the same inputs yields bitwise-identical adjacency rows.  Each output is the
complement of a triangle-free graph, built by :func:`_complement_of_triangle_free`,
so it has α ≤ 2 by construction: it carries the answer of
:func:`graphs.is_alpha_at_most_2` from the start and is never scanned.
"""

from itertools import accumulate

import numpy as np

from .graphs import Graph, _as_int, _as_order, _bit_in_byte

# the random triangle-free process draws 8*n pairs in its first batch, which
# covers every pair up to n = 17; each later batch of draws, and each later
# segment of the shuffled open pairs, is twice as long as the one before and
# filtered against a fresh snapshot
_FIRST_BATCH_PER_VERTEX = 8
_GROWTH = 2
# draws stop once fewer than 1/16 of a batch's draws survive its snapshot
_SWITCH_SURVIVAL = 16
# pairs drawn, filtered and visited at a time, so no temporary outgrows one step
_STEP = 1 << 12
# snapshot bits unpacked at a time when the open pairs are listed
_BAND_BITS = 1 << 16


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
    """Complement of a maximal triangle-free graph grown by the random triangle-free process.

    Pairs are added one at a time, each uniform over the pairs still open,
    that is, neither an edge nor closing a triangle, until none is open.  The
    triangle-free graph is then maximal, so the complement is dense and has
    independence number at most 2.  Deterministic for fixed ``(n, seed)``.
    """
    n = _as_order(n, 1)
    seed = _as_int("seed", seed, 0)
    return _complement_of_triangle_free(
        _triangle_free_process(n, seed, _FIRST_BATCH_PER_VERTEX * n))


def _triangle_free_process(n: int, seed: int, first_batch: int) -> list[int]:
    """Bit rows of the random triangle-free process on ``n`` vertices, drawn in two phases.

    Phase A draws batches of uniform ordered pairs with ``rng.integers`` over
    ``n * n`` and keeps those with ``u < v``, so each is uniform over all
    pairs; the first batch has ``first_batch`` draws, in steps of ``_STEP``.
    Each batch is filtered against a snapshot of the pairs closed or taken
    at its start, empty for the first, and the survivors are visited in
    draw order: a pair is added unless its ends share a neighbour.  Filtering is exact, as rows only grow, so a filtered pair
    would be rejected at its turn, and a rejected pair changes nothing.  A
    pair drawn twice has no common neighbour at its second turn either, and
    adding it again changes nothing.  So each pair added is uniform over the
    pairs open at its turn.  Phase A ends after a batch of which fewer than
    1/``_SWITCH_SURVIVAL`` of the draws survived, or before a batch with at
    least as many draws as there are pairs: at once for n <= 17 with the
    public first batch of ``8 * n``.

    Phase B lists every pair open at a fresh snapshot, lexicographically,
    as ``uint32`` codes ``u * stride + v`` (:func:`_open_pairs`), shuffles
    the list with ``rng.shuffle``, the same draws as ``rng.permutation``,
    and visits it in that order.  Greedy over a uniform order, each added
    pair is again uniform over the pairs open at its turn.  The list is
    visited in segments, the first ``first_batch`` long and each later one
    twice the one before, and each later segment is filtered against a
    fresh snapshot.

    The switch depends only on what came before it, so the graph has the
    law of the process over a uniform order of all pairs.  When phase A is
    skipped, the list holds every pair, and its shuffle visits them in the
    order ``rng.permutation`` gives their lexicographic indices.

    A snapshot comes from closed rows kept as the process runs: when ``uv``
    is added, ``closed[u] |= rows[v]`` and ``closed[v] |= rows[u]``, after
    ``rows`` take the edge.  A pair ``p < q`` is closed, that is its ends
    share a neighbour, exactly when bit ``q`` of ``closed[p]`` or bit ``p``
    of ``closed[q]`` is set.  If ``p`` and ``q`` share the neighbour ``w``
    and, say, ``qw`` came after ``pw``, then ``rows[w]`` held ``p`` when
    ``qw`` was added, so ``closed[q]`` took bit ``p``.  Conversely, a bit
    ``x`` of ``closed[u]`` came from ``rows[v]`` for some edge ``uv``, so
    ``u`` and ``x`` share the neighbour ``v``.  The snapshot packs
    ``closed[u] | rows[u]``, so it marks the edges too, one ``to_bytes``
    per vertex (:func:`_snapshot`), and a pair is filtered on both of its
    bits.

    Memory: the closed rows take ``n`` bits per vertex, about 2 bits per
    pair, and so does the snapshot, one buffer reused by every snapshot.
    The open list takes 4 bytes per pair open at the switch, about 1/8 of
    the pairs or fewer, and is built in bands of ``_BAND_BITS`` snapshot
    bits.  Other temporaries are bounded by a step or a band.
    """
    rng = np.random.default_rng(seed)
    rows, closed = [0] * n, [0] * n
    stride = 8 * ((n + 7) // 8)
    snapshot = np.zeros(n * stride // 8, np.uint8)
    batch = first_batch
    while batch < n * (n - 1) // 2:
        survivors = 0
        for step in range(0, batch, _STEP):
            us, vs = np.divmod(rng.integers(0, n * n, min(_STEP, batch - step), np.uint32), n)
            keep = us < vs
            us, vs = _still_open(snapshot, stride, us.compress(keep), vs.compress(keep))
            survivors += len(us)
            _visit(rows, closed, us, vs)
        _snapshot(rows, closed, snapshot)
        if survivors * _SWITCH_SURVIVAL < batch:
            break
        batch *= _GROWTH
    # with no pair added every pair is open, and the snapshot need not be read
    order = _open_pairs(snapshot if any(rows) else None, n, stride)
    rng.shuffle(order)
    start, length = 0, first_batch
    while start < len(order):
        end = min(start + length, len(order))
        if start:
            _snapshot(rows, closed, snapshot)
        for step in range(start, end, _STEP):
            us, vs = np.divmod(order[step:min(step + _STEP, end)], stride)
            if start:
                us, vs = _still_open(snapshot, stride, us, vs)
            _visit(rows, closed, us, vs)
        start, length = end, length * _GROWTH
    return rows


def _visit(rows: list[int], closed: list[int], us: np.ndarray, vs: np.ndarray) -> None:
    """Add each pair ``(us[i], vs[i])`` in turn unless its ends share a neighbour."""
    for u, v in zip(us.tolist(), vs.tolist()):
        row_u, row_v = rows[u], rows[v]
        if not row_u & row_v:
            rows[u] = row_u = row_u | 1 << v
            rows[v] = row_v = row_v | 1 << u
            closed[u] |= row_v
            closed[v] |= row_u


def _snapshot(rows: list[int], closed: list[int], snapshot: np.ndarray) -> None:
    """Write ``closed[u] | rows[u]`` into the flat ``uint8`` array ``snapshot``,
    the ``n`` rows packed little-endian in ``stride`` bits each, so bit
    ``u * stride + v`` is bit ``v`` of row ``u``.
    """
    width = len(snapshot) // len(rows)
    view = memoryview(snapshot)
    for u, (row, closed_row) in enumerate(zip(rows, closed)):
        view[u * width:(u + 1) * width] = (row | closed_row).to_bytes(width, "little")


def _open_pairs(snapshot: np.ndarray | None, n: int, stride: int) -> np.ndarray:
    """The ``uint32`` codes ``u * stride + v`` of the pairs ``u < v`` clear in
    ``snapshot`` in both orientations, lexicographically; every pair if
    ``snapshot`` is None.

    Rows are unpacked in bands of about ``_BAND_BITS`` bits; a band's pairs
    clear at ``u * stride + v`` are filtered again at ``v * stride + u``.
    Below ``MAX_VERTICES`` every code fits 32 bits.
    """
    rows_per_band = max(1, _BAND_BITS // stride)
    bands = [np.empty(0, np.uint32)]
    for first in range(0, n - 1, rows_per_band):
        last = min(first + rows_per_band, n - 1)
        # the diagonal, the pairs below it and the padding past n count as taken
        taken = np.arange(stride) <= np.arange(first, last)[:, None]
        taken[:, n:] = True
        if snapshot is not None:
            band = snapshot.reshape(n, -1)[first:last]
            taken |= np.unpackbits(band, axis=1, bitorder="little").view(bool)
        codes = (np.flatnonzero(~taken) + first * stride).astype(np.uint32)
        if snapshot is not None:
            us, vs = np.divmod(codes, stride)
            codes = codes.compress(_clear(snapshot, vs * stride + us))
        bands.append(codes)
    return np.concatenate(bands)


def _still_open(snapshot: np.ndarray, stride: int, us: np.ndarray,
                vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``(us[i], vs[i])`` clear in ``snapshot`` in both orientations."""
    keep = _clear(snapshot, us * stride + vs)
    us, vs = us.compress(keep), vs.compress(keep)
    keep = _clear(snapshot, vs * stride + us)
    return us.compress(keep), vs.compress(keep)


def _clear(snapshot: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Whether each of the flat bit indices ``bits`` is 0 in ``snapshot``."""
    return snapshot.take(bits >> 3) & _bit_in_byte(bits) == 0
