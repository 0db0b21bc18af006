"""Exact combinatorial oracles.

Matching adjacency scores and bad-quadruple counts scale to extractor-sized
inputs: a score reads the few matched ends left outside each matched edge's
64-bit union row, and the count is one codegree pass over the edges and one
over the non-edges.  Clique and connected-matching numbers and small-graph
audits are exhaustive or branch-and-bound grade, for desk-scale
verification, under default size limits that keep each to a few seconds;
pass ``limit`` to override.

One exact edge search (:func:`_search`) answers the exact minimum, the
connected-matching number and the audit.  It finds the first size-``t``
matching of least score, in the lexicographic order of the sorted edges,
among those scoring below a cap.  A connected matching is a matching of
score 0, so the connected-matching oracles ask for a score below 1.  The
search's tables do not depend on ``t`` or the cap, so they are built once
per graph and then memoised in one weak-key memo, for as long as the graph
lives; equal graphs share them, as they are pure functions of the rows.

The search skips matchings that a swap of twins (``N[x] = N[y]`` or
``N(x) = N(y)``) maps to an earlier one of the same score.  At a node with
zero slack, whose score is one below the incumbent's or the cap, every edge
still to pick must add 0, so the rest of the matching is a set of pairwise
compatible edges, each compatible with the picked ones.  There a pick keeps
only the candidates compatible with it, and once the node's first branch
has returned without a leaf, a greedy colouring of the candidates stops the
branching where fewer colours than edges to pick remain.  None of these
drops the first optimum, so the search returns the matching the unpruned
one does; :func:`_search` says why.
"""

import weakref
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InfeasibleError, SizeLimitError
from .graphs import (Graph, Matching, _as_int, complement, is_alpha_at_most_2, iter_bits,
                     min_degree)

CM_LIMIT = 24
OMEGA_LIMIT = 40
MINMATCH_LIMIT = 14


# _search's tables (_lexicographic_tables) per graph, with weak keys, so an
# entry lives as long as its graph.  The search reads it only after its
# callers' argument checks, so a refused call stores nothing; two threads that
# miss at once only build the same tables twice.
_SEARCH = weakref.WeakKeyDictionary()


def validate_matching(g: Graph, m: Matching) -> np.ndarray:
    """Raise ValueError unless ``m`` is a matching of ``g``; else return its ends
    ``u0, v0, u1, v1, ...`` as one ``intp`` array.

    Where ``g``'s 64-bit rows are already built, range, order, reuse and
    edges are checked over them at once.  Otherwise, and to name the first
    bad edge of a matching that fails, the edges are walked on the int rows,
    which builds no numpy rows.
    """
    if "_words" in vars(g):
        ends = _matched_ends(g, m)
        if ends is not None:
            return ends
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


def _matched_ends(g: Graph, m: Matching) -> np.ndarray | None:
    """The ends of ``m`` as :func:`validate_matching` returns them if ``m`` is a
    matching of ``g``, checked on the packed rows; else None."""
    try:
        ends = np.fromiter(chain.from_iterable(m.edges), np.intp, 2 * m.size)
    except OverflowError:  # an end beyond intp is out of range
        return None
    if not m.size:
        return ends
    us, vs = ends[0::2], ends[1::2]
    if us.min() < 0 or vs.max() >= g.n or not (us < vs).all():
        return None
    seen = np.zeros(g.n, bool)
    seen[ends] = True
    if np.count_nonzero(seen) < len(ends) or not g._has_edges_unchecked(us, vs).all():
        return None
    return ends


def _count_unlinked(g: Graph, a: np.ndarray, b: np.ndarray) -> int:
    """Number of pairs among the edges ``a[i] b[i]`` with no edge between their
    endpoint sets.  The edges must form a matching of ``g``; nothing is checked.

    Edge ``j`` is unlinked from edge ``i`` exactly when both of its ends lie
    outside ``N(a[i]) | N(b[i])``, the OR of two 64-bit rows.  Masked to the ends
    ``a``, the complement of that union holds few set bits (about one per row on
    rtf graphs), and row ``i`` never holds ``a[i]``, a neighbour of ``b[i]``.  Each
    ``a[j]`` found free in row ``i`` is moved to ``b[j]`` and read in the same
    union row.  The relation is symmetric, so each unlinked pair is found from
    both of its edges.  That is ``O(t * n / 64)`` word operations plus a few per
    free end, in place of ``t * t`` lookups.
    """
    words = g._words
    width = 64 * words.shape[1]
    union = words.take(a, 0)
    union |= words.take(b, 0)
    mark = np.zeros(width, bool)
    mark[a] = True
    # explicit little-endian buffers, so the byte views below read bit v at v % 8
    free = np.empty_like(union)
    np.invert(union, out=free)
    free &= np.packbits(mark, bitorder="little").view("<u8")
    nonzero = np.flatnonzero(free != 0)
    bits = np.flatnonzero(np.unpackbits(free.take(nonzero).view(np.uint8),
                                        bitorder="little").view(bool))
    # each free a[j] as a flat bit index of the union rows, then moved to b[j]
    at = nonzero.take(bits >> 6) * 64 + (bits & 63)
    step = np.empty(width, np.intp)
    step[a] = b - a
    at += step.take(at % width)
    linked = union.view(np.uint8).take(at >> 3) >> (at & 7) & 1
    return (len(at) - int(np.count_nonzero(linked))) // 2


def nonadjacent_pairs(g: Graph, m: Matching) -> int:
    """Number of matching-edge pairs with no edge between their endpoint sets.

    Raises ValueError unless ``m`` passes :func:`validate_matching`.
    """
    ends = validate_matching(g, m)
    return _count_unlinked(g, ends[0::2], ends[1::2])


@dataclass(frozen=True)
class BadQuadrupleCount:
    """Exact ordered bad-quadruple count plus the ``2b(k-1)**2`` cap."""

    count: int
    bound: int


def count_bad_quadruples(g: Graph) -> BadQuadrupleCount:
    """Count ordered ``(u, v, w, z)`` with ``uv, wz`` edges and all four cross
    pairs ``uw, uz, vw, vz`` non-edges, exactly on every graph.

    With ``T(u, v)`` the common non-neighbours of ``u`` and ``v`` and ``e(S)``
    the ordered edges inside ``S``, the count is ``2 * (sum over edges uv of
    |T(u, v)|*(|T(u, v)|-1) - sum over non-edges wz of e(T(w, z)))``: the
    partners of ``uv`` are the ordered pairs in ``T(u, v)`` but its ordered
    non-edges, and a non-edge ``wz`` lies in ``T(u, v)`` iff ``u, v`` lie in
    ``T(w, z)``.  With independence number at most 2 every ``T(w, z)`` is
    empty, as ``w``, ``z`` and any vertex of it would be independent.  With
    ``b`` non-edges and the tightest ``k = n - min_degree``, the count is at
    most ``2*b*(k-1)**2``; each unordered pair of disjoint non-adjacent
    edges is counted 8 times, so it is divisible by 8.
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
    for u, v in g.edges():
        c = (nadj[u] & nadj[v]).bit_count()
        total += c * (c - 1)
    for w, z in co.edges():
        common = nadj[w] & nadj[z]
        for x in iter_bits(common):
            total -= (rows[x] & common).bit_count()
    return BadQuadrupleCount(2 * total, bound)


def _max_clique(n: int, rows) -> int:
    """Clique number by branch and bound with a greedy colouring bound.

    Returns a size only, not a clique.  A clique takes at most one vertex per
    colour class of any proper colouring of the candidate set, so the class
    index of a vertex bounds every extension through it.
    """
    best = 0

    def expand(depth: int, cand: int):
        nonlocal best
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
    return best


def clique_number(g: Graph, limit: int = OMEGA_LIMIT) -> int:
    """Exact clique number by bitset branch and bound."""
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds clique-number limit {limit}")
    return _max_clique(g.n, g.rows)


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
    near = []
    for row in g.rows:
        acc = 0
        while row:  # iter_bits inlined: this loop is most of the table build
            low = row & -row
            acc |= incident[low.bit_length() - 1]
            row ^= low
        near.append(acc)
    return [(near[u] | near[v]) & ~(incident[u] | incident[v]) for u, v in edges]


def _twin_masks(g: Graph) -> list[int]:
    """``twins[v]`` is the bitmask of the other vertices of ``v``'s twin class.

    ``x`` and ``y`` are twins when ``N[x] = N[y]`` (true twins) or
    ``N(x) = N(y)`` (false twins).  No vertex has twins of both kinds: with
    ``N[x] = N[y]`` and ``N(x) = N(z)``, ``z`` would be a neighbour of ``y``
    but not of ``x``.  So the classes split the vertices, and swapping two
    vertices of a class maps the graph onto itself.
    """
    classes: dict[int, int] = {}
    for v, row in enumerate(g.rows):
        for key in (row, row | 1 << v):  # N(v) and N[v]; no N(x) equals an N[y]
            classes[key] = classes.get(key, 0) | 1 << v
    return [(classes[row] | classes[row | 1 << v]) ^ 1 << v for v, row in enumerate(g.rows)]


def _twin_rules(g: Graph, edges, incident) -> tuple[list[int], list[int]]:
    """Per edge ``ab`` (``a < b``) of the sorted ``edges``, the edges that rule 2
    of :func:`_search` bans beside it, and the vertices that rule 1 needs
    matched before it: the twins of ``a`` or ``b`` below ``a``.

    A later edge ``cd`` disjoint from ``ab`` has ``a < c < d``.  It breaks
    rule 2 beside ``ab`` exactly when it has an end among the twins of ``b``
    below ``b`` (whose partner is above ``a``, the partner of ``b``), or an
    end among the twins of ``a`` whose other end lies between ``a`` and ``b``
    (a partner below ``b``, the partner of ``a``).  The edges are sorted by
    smaller end, so the row ``below[b] | spread[a] & under[b] | tail[a] &
    before[b]`` holds those edges, from per-vertex masks of edges:

    - ``below[b]``: at twins of ``b`` below ``b``;
    - ``spread[a]``: at ``a``'s class; ``under[b]``: both ends below ``b``;
    - ``tail[a]``: larger end in ``a``'s class; ``before[b]``: smaller end
      below ``b``.

    The rest of a row is edges at ``a`` or ``b`` or before ``ab``, which no
    pick after ``ab`` meets.  A twin-free graph has empty rows.
    """
    n = g.n
    twins = _twin_masks(g)
    if not any(twins):
        return [0] * len(edges), [0] * len(edges)
    before, under, count = [0], [0], 0  # edges whose smaller end, or both ends, are below k
    for k, row in enumerate(g.rows):
        count += (row >> k + 1).bit_count()
        before.append((1 << count) - 1)
        under.append(under[k] | incident[k] & before[k])
    below, spread, tail = [0] * n, [0] * n, [0] * n
    for v in range(n):
        if twins[v] and not twins[v] & ((1 << v) - 1):  # the least vertex of a class
            members = list(iter_bits(twins[v] | 1 << v))
            at = high = 0
            for x in members:
                below[x] = at
                at |= incident[x]
                high |= incident[x] & before[x]
            for x in members:
                spread[x], tail[x] = at, high
    bans = [below[b] | spread[a] & under[b] | tail[a] & before[b] for a, b in edges]
    need = [(twins[a] | twins[b]) & ((1 << a) - 1) for a, b in edges]
    return bans, need


def _lexicographic_tables(g: Graph):
    """:func:`_search`'s tables, over the sorted edge list: the edges, their
    compatibility rows, their end masks, ``touch`` (the edges that picking one
    rules out: itself, the edges sharing an end, and its rule 2 bans) and
    ``need`` (the twins below the smaller end that rule 1 wants matched
    first)."""
    edges = list(g.edges())
    incident = _incidence_masks(g.n, edges)
    bans, need = _twin_rules(g, edges, incident)
    ends = [(1 << u) | (1 << v) for u, v in edges]
    touch = [incident[u] | incident[v] | ban for (u, v), ban in zip(edges, bans)]
    return edges, _compatibility_rows(g, edges, incident), ends, touch, need


def _colour_reach(order: list[int], adds: list[int], compat) -> list[int]:
    """``reach[k]``: the colours that a greedy colouring, run from the end,
    gives the candidates among ``order[k:]`` that add 0 (``adds[k] == 0``).

    A colour class holds pairwise incompatible edges, so a set of pairwise
    compatible edges takes at most one edge of each class, and at most
    ``reach[k]`` of them lie in ``order[k:]``.
    """
    classes: list[int] = []
    reach = [0] * len(order)
    for k in range(len(order) - 1, -1, -1):
        if not adds[k]:
            j = order[k]
            for c, members in enumerate(classes):
                if not compat[j] & members:
                    classes[c] = members | 1 << j
                    break
            else:
                classes.append(1 << j)
        reach[k] = len(classes)
    return reach


def _search(g: Graph, t: int, below: int | None) -> tuple[Matching, int] | None:
    """The first minimum-score size-``t`` matching, with its score, among those
    whose score (``nonadjacent_pairs``) is below ``below``; None if there is
    none.  ``below=None`` sets no cap.  ``t`` must be at least 1.

    Depth-first over index-increasing choices from the lexicographically
    sorted edge list, keeping the picked edges as one bitmask over it; an
    edge adds the picked edges outside its :func:`_compatibility_rows` row
    to the score.  A leaf is recorded only when its score is strictly below
    the incumbent's (at first ``below``), so on ties the first optimum in
    that order is returned.

    Twins (``N[x] = N[y]`` or ``N(x) = N(y)``, see :func:`_twin_masks`) can
    be swapped without changing any score, so the search skips a pick of
    edge ``uv``, ``u < v``, that breaks either rule:

    1. every twin of ``u`` or ``v`` below ``u`` must already be matched, so
       the matched vertices of each class form a prefix of the class;
    2. twins ``x < y`` that are both matched, not to each other, must have
       partners in the same order, ``partner(x) < partner(y)``.

    A broken rule 2 stays broken as picks are added, so its bans
    (:func:`_twin_rules`) leave the candidate set at the pick; rule 1 is
    tested at each pick.  Neither changes the answer.  A matching that
    breaks rule 1, with ``w`` unmatched below a matched twin, becomes
    strictly earlier in lexicographic order when the two swap; one that
    breaks rule 2 does when ``x`` and ``y`` swap.  So the first optimum
    ``M*`` keeps both rules, and each prefix of it passes both tests at its
    picks.

    Each node with ``r`` edges still to pick looks at its candidates, the
    later edges disjoint from the picked ones and not banned by rule 2, and
    prunes its subtree when

    - there are fewer than ``r`` of them, or their ends cover fewer than
      ``2r`` vertices, so no leaf lies below; or
    - its score plus the ``r`` smallest amounts the candidates would add now
      reaches the incumbent.  A candidate picked deeper adds at least its
      amount at this node, since the edges picked in between can only raise
      its count of incompatible picked edges, so this bounds every leaf below.

    A node whose score is one below the incumbent has zero slack: a leaf
    below it is recorded only if every edge still to pick adds 0, so those
    edges are pairwise compatible and compatible with the picked ones.
    There a pick's child keeps only the candidates compatible with it, and
    once the node's first branch has returned without a leaf, branching
    stops at the first candidate ``k`` from which the zero-add candidates
    need fewer than ``r`` colours (:func:`_colour_reach`).  The colouring is
    left until then because a first branch that finds a leaf ends the node.

    These bounds cover every leaf below that keeps rule 2 and scores below
    the incumbent, ``M*`` among them, and every leaf before ``M*`` scores
    above it, so no pruning removes ``M*``: the search returns the same
    matching as the unpruned one.  The edge list and its bit tables do not
    depend on ``t`` or ``below``; they are built once per graph.
    """
    tables = _SEARCH.get(g)
    if tables is None:
        tables = _SEARCH[g] = _lexicographic_tables(g)
    edges, compat, ends, touch, need = tables
    best_count = below
    best_picked = None

    def dfs(start: int, size: int, free: int, picked: int, cost: int, unmatched: int):
        nonlocal best_count, best_picked
        if size == t:
            best_count, best_picked = cost, picked
            return
        r = t - size
        # the set bits of free from start up; bin() lists them faster than peeling bits
        order = [j for j, bit in enumerate(bin(free >> start)[:1:-1], start) if bit == "1"]
        adds: list[int] = []
        cover = 0
        for j in order:
            adds.append(size - (compat[j] & picked).bit_count())
            cover |= ends[j]
        if len(order) < r or cover.bit_count() < 2 * r:
            return
        if best_count is not None and cost + sum(sorted(adds)[:r]) >= best_count:
            return
        tight = best_count is not None and cost + 1 >= best_count  # zero slack
        branched = False
        reach = None
        for k in range(len(order) - r + 1):
            added = cost + adds[k]
            if best_count is not None and added >= best_count:
                continue
            i = order[k]
            if need[i] & unmatched:  # rule 1
                continue
            child = free & ~touch[i]
            if tight:
                if branched:
                    if reach is None:
                        reach = _colour_reach(order, adds, compat)
                    if reach[k] < r:
                        return
                child &= compat[i]
            dfs(i + 1, size + 1, child, picked | 1 << i, added, unmatched & ~ends[i])
            if best_count == 0:
                return
            branched = True

    dfs(0, 0, (1 << len(edges)) - 1, 0, 0, (1 << g.n) - 1)
    if best_picked is None:
        return None
    return Matching(edges[i] for i in iter_bits(best_picked)), best_count


def min_nonadjacent_matching(g: Graph, t: int, limit: int = MINMATCH_LIMIT) -> tuple[Matching, int]:
    """Exhaustive minimum of ``nonadjacent_pairs`` over all size-``t`` matchings.

    Returns the first optimum in the lexicographic order of the sorted edge
    list, by :func:`_search` with no cap; raises InfeasibleError when the
    graph has no matching of size ``t``.
    """
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds exact-minimum limit {limit}")
    t = _as_int("t", t, 1)
    found = _search(g, t, None)
    if found is None:
        raise InfeasibleError(f"graph has no matching of size {t}")
    return found


def connected_matching_number(g: Graph, limit: int = CM_LIMIT) -> int:
    """Largest size of a matching whose edge pairs are all endpoint-adjacent.

    Such a matching is one of score 0, so :func:`_search` with cap 1 asks
    for one of each size ``s = 1, 2, ...`` in turn.  A connected matching
    of size ``s`` holds one of size ``s - 1``, so the first size it finds
    none of is ``cm + 1``; no matching has more than ``n // 2`` edges.
    """
    if g.n > _as_int("limit", limit):
        raise SizeLimitError(f"graph order {g.n} exceeds connected-matching limit {limit}")
    cm = 0
    while cm < g.n // 2 and _search(g, cm + 1, 1) is not None:
        cm += 1
    return cm


def _max_bipartite_matching(g: Graph, left, right) -> dict[int, int]:
    """Maximum matching between ``left`` and ``right`` by augmenting paths.

    Each left vertex in turn starts a depth-first search that tries its
    unseen right neighbours in increasing order, following a taken one to
    its owner.  The search keeps its path on an explicit stack, so a path
    of any length fits.
    """
    right_mask = 0
    for v in right:
        right_mask |= 1 << v
    adj = {u: g.rows[u] & right_mask for u in left}
    owner: dict[int, int] = {}
    for root in left:
        # each step of the path is a left vertex and the right vertex it tries
        seen, path = 0, [[root, None]]
        while path:
            untried = adj[path[-1][0]] & ~seen
            if not untried:
                path.pop()
                continue
            low = untried & -untried
            seen |= low
            v = path[-1][1] = low.bit_length() - 1
            if v not in owner:
                # augment: each left vertex on the path takes the one it tries
                for u, w in path:
                    owner[w] = u
                break
            path.append([owner[v], None])
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
    mask = 0
    for u in a:
        mask |= 1 << u
    for u in a:
        # the clique vertices above u that are not its neighbours, lowest first
        missing = (mask >> u + 1 << u + 1) & ~g.rows[u]
        if missing:
            v = (missing & -missing).bit_length() - 1
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
    exactly 2 and ``n >= 4t - 1``, by :func:`_search` for a size-``t``
    matching of score 0, under the connected-matching size limit; True
    elsewhere (vacuous).  A False would be a counterexample to the
    conjecture.  The name is kept because the benchmark wraps it.
    """
    t = _as_int("t", t, 1)
    alpha_is_two = is_alpha_at_most_2(g) and g.m < g.n * (g.n - 1) // 2
    if not alpha_is_two or g.n < 4 * t - 1:
        return True
    if g.n > CM_LIMIT:
        raise SizeLimitError(f"graph order {g.n} exceeds connected-matching limit {CM_LIMIT}")
    return _search(g, t, 1) is not None
