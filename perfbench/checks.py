"""Output checks written independently of densematch's own scoring code.

Adjacency is read by unpacking the graph's bit rows with numpy, so these
checks share no code path with ``nonadjacent_pairs``, ``validate_matching``
or the slow scans kept for the test suite.
"""

import numpy as np


def adjacency_among(g, vertices) -> np.ndarray:
    """Dense boolean adjacency between ``vertices`` (in the given order)."""
    vertices = list(vertices)
    nbytes = (g.n + 7) // 8
    buf = b"".join(g.rows[v].to_bytes(nbytes, "little") for v in vertices)
    bits = np.unpackbits(np.frombuffer(buf, np.uint8).reshape(len(vertices), nbytes),
                         axis=1, bitorder="little")
    return bits[:, vertices].astype(bool)


def matching_problem(g, edges, t) -> str | None:
    """Why ``edges`` is not a size-``t`` matching of ``g``, or None if it is."""
    if len(edges) != t:
        return f"matching has {len(edges)} edges, expected {t}"
    ends = [x for e in edges for x in e]
    if not all(0 <= x < g.n for x in ends):
        return "matching names a vertex outside the graph"
    if len(set(ends)) != len(ends):
        return "matching reuses a vertex"
    adj = adjacency_among(g, ends)
    idx = np.arange(0, len(ends), 2)
    if not adj[idx, idx + 1].all():
        return "matching contains a non-edge"
    return None


def nonadjacent_count(g, edges) -> int:
    """Pairs of matching edges with no graph edge between their endpoints."""
    t = len(edges)
    if t < 2:
        return 0
    adj = adjacency_among(g, [x for e in edges for x in e])
    a = np.arange(0, 2 * t, 2)
    b = a + 1
    linked = (adj[np.ix_(a, a)] | adj[np.ix_(a, b)]
              | adj[np.ix_(b, a)] | adj[np.ix_(b, b)])
    return int(np.count_nonzero(~linked[np.triu_indices(t, 1)]))


def has_matching(g, t) -> bool:
    """True iff ``g`` has a matching of size ``t`` (exhaustive; small graphs only)."""
    adj = adjacency_among(g, range(g.n))
    nbrs = [frozenset(np.flatnonzero(row).tolist()) for row in adj]

    def search(free: frozenset, need: int) -> bool:
        if need == 0:
            return True
        if len(free) < 2 * need:
            return False
        u = min(free)
        rest = free - {u}
        return (any(search(rest - {v}, need - 1) for v in nbrs[u] & rest)
                or search(rest, need))

    return search(frozenset(range(g.n)), t)
