"""Exact combinatorial oracles.

Matching adjacency scores, bad-quadruple counts, clique and
connected-matching numbers, and small-graph audits.  Scoring a matching is
vectorised over the graph's packed rows and scales to extractor-sized
inputs.  The other oracles are exhaustive or branch-and-bound grade, meant
for desk-scale verification.  Their default size limits keep each under a
few seconds on commodity hardware; pass ``limit`` explicitly to override.

The exact search's edge tables do not depend on ``t``, so they are built
once per graph and then memoised, for as long as the graph lives; equal
graphs share them, as they are pure functions of the rows.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SizeLimitError
from .graphs import (Graph, Matching, _as_int, _bit_in_byte, complement, is_alpha_at_most_2,
                     iter_bits, min_degree)

CM_LIMIT = 24
OMEGA_LIMIT = 40
MINMATCH_LIMIT = 14


# min_nonadjacent_matching's (edges, compat, ends, touch) tables per graph,
# with weak keys, so an entry lives as long as its graph.  The search reads
# it only after its own argument checks, so a refused call stores nothing;
# two threads that miss at once only build the same tables twice.
_SEARCH = weakref.WeakKeyDictionary()


def validate_matching(g: Graph, m: Matching) -> np.ndarray:
    """Raise ValueError unless ``m`` is a matching of ``g``; else return its ends
    ``u0, v0, u1, v1, ...`` as one ``intp`` array, checked without the packed view."""
    rows, n = g.rows, g.n
    seen = bytearray(n)
    for u, v in m.edges:  # stored smaller end first
        if not 0 <= u < v < n:
            raise ValueError(f"invalid edge ({u}, {v})")
        if not rows[u] >> v & 1:
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        if seen[u] or seen[v]:
            raise ValueError(f"edge ({u}, {v}) reuses a matched vertex")
        seen[u] = seen[v] = 1
    return np.array(m.edges, dtype=np.intp).reshape(2 * m.size)


def nonadjacent_pairs(g: Graph, m: Matching) -> int:
    """Number of matching-edge pairs with no edge between their endpoint sets.

    ORs the packed rows of each edge's ends into its neighbourhood row and reads the
    ``t x t`` matrix of edge-to-edge links from those rows at every edge's ends.  It is
    symmetric with an all-true diagonal, so its false entries count every pair twice.
    """
    ends = validate_matching(g, m)
    a, b = ends[0::2], ends[1::2]
    union = g.packed[a] | g.packed[b]
    linked = (union[:, a >> 3] & _bit_in_byte(a)) | (union[:, b >> 3] & _bit_in_byte(b))
    return int(np.count_nonzero(linked == 0)) // 2


@dataclass(frozen=True)
class BadQuadrupleCount:
    """Exact ordered bad-quadruple count plus the ``2b(k-1)**2`` cap."""

    count: int
    bound: int


def count_bad_quadruples(g: Graph) -> BadQuadrupleCount:
    """Count ordered ``(u, v, w, z)`` with ``uv, wz`` edges and all four cross
    pairs ``uw, uz, vw, vz`` non-edges.

    Enumerates ordered non-adjacent ``(u, w)`` first and then the eligible
    ``v`` and ``z``, so the cost scales with the complement size instead of
    ``n**4``.  With ``b`` the number of non-edges and ``k = n - min_degree``
    (the smallest ``k`` with every degree at least ``n - k``, so the tightest
    cap), the count is at most ``2*b*(k-1)**2``.  Every unordered pair of
    disjoint non-adjacent edges is counted exactly 8 times, so the count is
    always divisible by 8.
    """
    n = g.n
    if n == 0:
        return BadQuadrupleCount(0, 0)
    co = complement(g)
    k = n - min_degree(g)
    bound = 2 * co.m * (k - 1) ** 2
    rows = g.rows
    nadj = co.rows
    total = 0
    for u in range(n):
        nu = nadj[u]
        ru = rows[u]
        for w in iter_bits(nu):
            vmask = ru & nadj[w]
            if not vmask:
                continue
            base = rows[w] & nu
            for v in iter_bits(vmask):
                total += (base & nadj[v]).bit_count()
    return BadQuadrupleCount(total, bound)


def _max_clique(n: int, rows, cap: int) -> int:
    """``min(clique number, cap)`` by branch and bound with a greedy colouring bound.

    Returns a size only, not a clique.  A clique takes at most one vertex per
    colour class of any proper colouring of the candidate set, so the class
    index of a vertex bounds every extension through it.  The search stops
    outright once it finds a clique of at least ``cap`` vertices.
    """
    best = 0

    def expand(depth: int, cand: int):
        nonlocal best
        if best >= cap:
            return
        order: list[int] = []
        limits: list[int] = []
        colour = 0
        rest = cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail = (avail ^ low) & ~rows[v]
                rest ^= low
                order.append(v)
                limits.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if depth + limits[i] <= best:
                return
            v = order[i]
            sub = cand & rows[v]
            if sub:
                expand(depth + 1, sub)
            elif depth + 1 > best:
                best = depth + 1
            cand ^= 1 << v

    expand(0, (1 << n) - 1)
    return min(best, cap)


def clique_number(g: Graph, limit: int = OMEGA_LIMIT) -> int:
    """Exact clique number by bitset branch and bound."""
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds clique-number limit {limit}")
    return _max_clique(g.n, list(g.rows), g.n)


def _incidence_masks(n: int, edges) -> list[int]:
    """``incident[v]`` is the bitmask, over the positions in ``edges``, of the edges at ``v``."""
    incident = [0] * n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    return incident


def _compatibility_rows(g: Graph, edges, incident) -> list[int]:
    """Edge-compatibility bit rows: edges are compatible when they share no
    endpoint and some graph edge joins their endpoint sets.  ``incident`` is
    :func:`_incidence_masks` of ``edges``.

    ``near[w]`` is the OR of the incidence masks of the neighbours of ``w``.
    Row ``i`` of edge ``uv`` is ``near[u] | near[v]``, less the edges at
    ``u`` or ``v`` themselves, so the rows cost ``O(E)`` big-int ORs
    instead of ``O(E**2)`` pair tests.
    """
    near = [0] * g.n
    for w, row in enumerate(g.rows):
        for x in iter_bits(row):
            near[w] |= incident[x]
    return [(near[u] | near[v]) & ~(incident[u] | incident[v]) for u, v in edges]


def _connected_matching(g: Graph, cap: int, limit: int = CM_LIMIT) -> int:
    """``min(cm, cap)`` for the connected-matching number ``cm`` of ``g``.

    A connected matching is exactly a clique of the edge-compatibility graph,
    so the clique engine does the search and stops once it finds ``cap``
    edges.  Candidate edges are ordered by degree sum (descending), which
    affects speed only.
    """
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds connected-matching limit {limit}")
    edges = sorted(g.edges(), key=lambda e: -(g.degree(e[0]) + g.degree(e[1])))
    return _max_clique(len(edges), _compatibility_rows(g, edges, _incidence_masks(g.n, edges)), cap)


def connected_matching_number(g: Graph, limit: int = CM_LIMIT) -> int:
    """Largest size of a matching whose edge pairs are all endpoint-adjacent."""
    return _connected_matching(g, g.n // 2, limit)  # no matching is bigger


def min_nonadjacent_matching(g: Graph, t: int, limit: int = MINMATCH_LIMIT) -> tuple[Matching, int]:
    """Exhaustive minimum of ``nonadjacent_pairs`` over all size-``t`` matchings.

    Depth-first over index-increasing choices from the sorted edge list,
    keeping the picked edges as one bitmask over it; an edge adds the picked
    edges outside its :func:`_compatibility_rows` row to the score.  A leaf
    is recorded only when its score is strictly below the incumbent's, so on
    ties the first optimum in that order is returned.

    Each node with ``r`` edges still to pick looks at its candidates, the
    later edges disjoint from the picked ones, and prunes its subtree when

    - there are fewer than ``r`` of them, or their ends cover fewer than
      ``2r`` vertices, so no leaf lies below; or
    - its score plus the ``r`` smallest amounts the candidates would add now
      reaches the incumbent.  A candidate picked deeper adds at least its
      amount at this node, since the edges picked in between can only raise
      its count of incompatible picked edges, so this bounds every leaf below.

    A pruned subtree holds no leaf strictly below the incumbent, so the
    search records the same leaves in the same order as the unpruned one and
    returns the same matching.  The edge list and its bit tables do not
    depend on ``t``; they are built once per graph.
    """
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds exact-minimum limit {limit}")
    t = _as_int("t", t, 1)
    tables = _SEARCH.get(g)
    if tables is None:
        edges = list(g.edges())
        incident = _incidence_masks(g.n, edges)
        ends = [(1 << u) | (1 << v) for u, v in edges]
        # the edges that picking edge i rules out, itself included
        touch = [incident[u] | incident[v] for u, v in edges]
        tables = _SEARCH[g] = (edges, _compatibility_rows(g, edges, incident), ends, touch)
    edges, compat, ends, touch = tables
    best_count: int | None = None
    best_picked = 0

    def dfs(start: int, size: int, free: int, picked: int, cost: int):
        nonlocal best_count, best_picked
        if size == t:
            best_count, best_picked = cost, picked
            return
        r = t - size
        cand = free >> start << start
        order: list[int] = []
        adds: list[int] = []
        cover = 0
        while cand:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            order.append(j)
            adds.append(size - (compat[j] & picked).bit_count())
            cover |= ends[j]
        if len(order) < r or cover.bit_count() < 2 * r:
            return
        if best_count is not None and cost + sum(sorted(adds)[:r]) >= best_count:
            return
        for k in range(len(order) - r + 1):
            added = cost + adds[k]
            if best_count is not None and added >= best_count:
                continue
            i = order[k]
            dfs(i + 1, size + 1, free & ~touch[i], picked | 1 << i, added)
            if best_count == 0:
                return

    dfs(0, 0, (1 << len(edges)) - 1, 0, 0)
    if best_count is None:
        raise InfeasibleError(f"graph has no matching of size {t}")
    return Matching(edges[i] for i in iter_bits(best_picked)), best_count


def _max_bipartite_matching(g: Graph, left, right) -> dict[int, int]:
    """Maximum matching between ``left`` and ``right`` by augmenting paths."""
    right_mask = 0
    for v in right:
        right_mask |= 1 << v
    adj = {u: g.rows[u] & right_mask for u in left}
    owner: dict[int, int] = {}

    def try_augment(u: int, seen: set[int]) -> bool:
        for v in iter_bits(adj[u]):
            if v in seen:
                continue
            seen.add(v)
            if v not in owner or try_augment(owner[v], seen):
                owner[v] = u
                return True
        return False

    for u in left:
        try_augment(u, set())
    return {u: v for v, u in owner.items()}


def matching_from_clique(g: Graph, clique_a) -> Matching:
    """Connected matching built from a clique.

    Takes a maximum matching between the clique and the rest of the graph,
    then pairs leftover clique vertices among themselves.  Every edge keeps
    an endpoint inside the clique, so any two edges are joined through it
    and the result is connected.  Each vertex passes :func:`graphs._as_int`
    before the set is formed, so ``True`` is refused, not merged with ``1``.
    """
    a = sorted({_as_int("clique vertex", u) for u in clique_a})
    for u in a:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} outside 0..{g.n - 1}")
    for i, u in enumerate(a):
        for v in a[i + 1:]:
            if not g.has_edge(u, v):
                raise ValueError(f"vertices {u} and {v} are not adjacent; not a clique")
    in_a = set(a)
    b = [v for v in range(g.n) if v not in in_a]
    match_of = _max_bipartite_matching(g, a, b)
    pairs = [(u, match_of[u]) for u in a if u in match_of]
    leftover = [u for u in a if u not in match_of]
    pairs.extend(zip(leftover[0::2], leftover[1::2]))
    return Matching(pairs)


def clique_bound_audit(g: Graph, t: int) -> bool:
    """Whether ``g`` has a connected matching of size ``t`` where a conjecture says it must.

    The Füredi–Gyárfás–Simonyi conjecture ("Connected matchings and
    Hadwiger's conjecture", CPC 2005) says every graph with independence
    number at most 2 on ``n >= 4t - 1`` vertices has one, so that
    ``cm >= floor((n + 1) / 4)``.  Asked only when the independence number is
    exactly 2 and ``n >= 4t - 1``, by a search that stops at ``t`` edges; True
    elsewhere (vacuous).  A False would be a counterexample to the
    conjecture.  The name is kept because the benchmark wraps it.
    """
    t = _as_int("t", t, 1)
    alpha_is_two = is_alpha_at_most_2(g) and g.m < g.n * (g.n - 1) // 2
    if not alpha_is_two or g.n < 4 * t - 1:
        return True
    return _connected_matching(g, t) >= t
