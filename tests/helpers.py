"""Brute-force reference oracles, Monte Carlo estimators and instance
factories for the test suite.

Everything here is deliberately naive: plain loops over tuples and subsets,
and partitions drawn by their own shuffle-then-pair step.  These are the
independent yardsticks the fast implementations get checked against, so
they must not share code with the package internals.
"""

import itertools

import numpy as np

from densematch import (Graph, Matching, c5_blowup_complement, generators,
                        complement_of_random_triangle_free, complete_graph,
                        two_cliques)
from densematch.errors import InfeasibleError
from densematch.graphs import from_edge_list


def brute_alpha_at_most_2(g: Graph) -> bool:
    """O(n^3) scan for an independent triple."""
    for a, b, c in itertools.combinations(range(g.n), 3):
        if not (g.has_edge(a, b) or g.has_edge(a, c) or g.has_edge(b, c)):
            return False
    return True


def brute_clique_number(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                return r
    return best


def all_pairings(items):
    """Yield every partition of ``items`` into pairs, as sorted pair tuples."""
    items = list(items)
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        a, b = first, items[i]
        pair = (a, b) if a < b else (b, a)
        rest = items[1:i] + items[i + 1:]
        for tail in all_pairings(rest):
            yield tuple(sorted((pair,) + tail))


# permutation rows per vectorised batch in pair_inclusion_frequencies
_CHUNK = 1 << 16


def _shuffled_pairs(arr: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Shuffle ``arr``, pair consecutive entries and write each pair smaller end first."""
    shuffled = arr[rng.permutation(arr.size)]
    a, b = shuffled[0::2], shuffled[1::2]
    return tuple(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def sample_partition(s, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Uniform partition of ``s`` into pairs (shuffle, then pair up), smaller ends first.

    Every one of the ``(|S|-1)!!`` partitions is equally likely; a fixed
    pair belongs to one with probability ``1/(|S|-1)``, and two disjoint
    fixed pairs jointly with probability ``1/((|S|-1)(|S|-3))``.
    """
    items = sorted(s)
    if len(items) < 2 or len(items) % 2:
        raise ValueError(f"partition into pairs needs an even set of size >= 2, got {len(items)}")
    return _shuffled_pairs(np.asarray(items), rng)


def empirical_deviation_rate(s, f, lam: float, trials: int, rng: np.random.Generator) -> float:
    """Fraction of sampled partitions where ``|F ∩ X|`` strays from its mean.

    The mean of ``|F ∩ X|`` is ``|F|/(|S|-1)`` and a second-moment argument
    caps the probability of a deviation of at least ``lam`` by
    ``min(1, |S|/lam**2)``; this estimates the left side of that bound.
    """
    items = sorted(s)
    if len(items) < 4 or len(items) % 2:
        raise ValueError("deviation rate needs an even set of size >= 4")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    wanted = {(min(a, b), max(a, b)) for a, b in f}
    target = len(wanted) / (len(items) - 1)
    arr = np.asarray(items)
    hits = 0
    for _ in range(trials):
        count = sum(p in wanted for p in _shuffled_pairs(arr, rng))
        if abs(count - target) >= lam:
            hits += 1
    return hits / trials


def pair_inclusion_frequencies(s, e, f, samples: int,
                               rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo frequencies of ``e ∈ X`` and ``e, f ∈ X`` over uniform partitions.

    Vectorised shuffle-then-pair sampling (rows of index permutations; a pair
    is present iff its two positions differ only in the last bit), so large
    sample counts stay cheap.  ``e`` and ``f`` must be disjoint pairs over ``s``.
    """
    items = sorted(s)
    size = len(items)
    if size < 4 or size % 2:
        raise ValueError("need an even ground set of size >= 4")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    index = {x: i for i, x in enumerate(items)}
    try:
        ia, ib = index[e[0]], index[e[1]]
        ic, id_ = index[f[0]], index[f[1]]
    except KeyError as missing:
        raise ValueError(f"pair element {missing} is not in the ground set") from None
    if len({ia, ib, ic, id_}) != 4:
        raise ValueError("e and f must be disjoint pairs of distinct elements")
    base = np.arange(size)
    count_e = 0
    count_both = 0
    done = 0
    while done < samples:
        rows = min(_CHUNK, samples - done)
        perms = rng.permuted(np.tile(base, (rows, 1)), axis=1)
        pa = np.argmax(perms == ia, axis=1)
        pb = np.argmax(perms == ib, axis=1)
        in_e = (pa ^ 1) == pb
        pc = np.argmax(perms == ic, axis=1)
        pd = np.argmax(perms == id_, axis=1)
        in_f = (pc ^ 1) == pd
        count_e += int(in_e.sum())
        count_both += int((in_e & in_f).sum())
        done += rows
    return count_e / samples, count_both / samples


def reference_random_triangle_free_complement(n: int, seed: int) -> Graph:
    """The random triangle-free process over a seeded uniform order of all pairs.

    Every pair is visited in the order ``rng.permutation`` gives the
    lexicographic pair indices, each checked in its turn.  This is the law
    of the package generator, and its rows exactly where the generator's
    first batch of draws covers every pair (n <= 17).
    """
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rows = [0] * n
    _visit_pairs(rows, (pairs[i] for i in rng.permutation(len(pairs)).tolist()))
    return _complement_of_rows(rows)


def reference_triangle_free_draws(n: int, seed: int, first_batch: int | None = None) -> Graph:
    """The package generator's draws, every pair checked in its turn, no snapshots.

    Makes the generator's ``rng`` calls: batches of ``rng.integers`` over
    ``n * n`` in steps of ``_STEP`` draws, the first ``first_batch`` long
    (``8 * n`` by default) and each later one twice the one before, while
    a batch has fewer draws than there are pairs and at least 1/16 of the
    last batch's draws were pairs ``u < v`` open at its start; then one
    ``rng.permutation`` of the pairs still open, listed lexicographically.
    Open pairs are found by row intersections, not by closed-pair rows.
    """
    step = generators._STEP
    first_batch = 8 * n if first_batch is None else first_batch
    rng = np.random.default_rng(seed)
    rows = [0] * n

    def is_open(rows, u, v):
        return not rows[u] >> v & 1 and not rows[u] & rows[v]

    batch = first_batch
    while batch < n * (n - 1) // 2:
        at_start = list(rows)
        drawn = []
        for done in range(0, batch, step):
            for d in rng.integers(0, n * n, min(step, batch - done), np.uint32).tolist():
                u, v = divmod(d, n)
                if u < v and is_open(at_start, u, v):
                    drawn.append((u, v))
        _visit_pairs(rows, drawn)
        if 16 * len(drawn) < batch:
            break
        batch *= 2
    still_open = [(u, v) for u, v in itertools.combinations(range(n), 2) if is_open(rows, u, v)]
    _visit_pairs(rows, (still_open[i] for i in rng.permutation(len(still_open)).tolist()))
    return _complement_of_rows(rows)


def _visit_pairs(rows: list[int], pairs) -> None:
    for u, v in pairs:
        if not rows[u] & rows[v]:
            rows[u] |= 1 << v
            rows[v] |= 1 << u


def _complement_of_rows(rows: list[int]) -> Graph:
    full = (1 << len(rows)) - 1
    return Graph(tuple((full ^ row) ^ (1 << v) for v, row in enumerate(rows)))


def triangle_free_process_law(n: int) -> dict[frozenset, float]:
    """Exact law of the random triangle-free process's final graph on ``n`` vertices.

    From each graph the next edge is uniform over the open pairs; the final
    graphs, as edge sets, map to their probabilities.  Memoised over the
    reachable triangle-free graphs, so small ``n`` only.
    """
    pairs = list(itertools.combinations(range(n), 2))
    memo: dict[frozenset, dict[frozenset, float]] = {}

    def law(edges: frozenset) -> dict[frozenset, float]:
        if edges in memo:
            return memo[edges]
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        open_pairs = [(u, v) for u, v in pairs
                      if (u, v) not in edges and not nbrs[u] & nbrs[v]]
        if not open_pairs:
            out = {edges: 1.0}
        else:
            out = {}
            for pair in open_pairs:
                for final, p in law(edges | {pair}).items():
                    out[final] = out.get(final, 0.0) + p / len(open_pairs)
        memo[edges] = out
        return out

    return law(frozenset())


def all_matchings(g: Graph, max_size: int | None = None):
    """Yield every matching of ``g`` (including the empty one) as edge tuples."""
    edges = list(g.edges())

    def rec(start, used, acc):
        yield tuple(acc)
        if max_size is not None and len(acc) == max_size:
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            bits = (1 << u) | (1 << v)
            if used & bits:
                continue
            acc.append(edges[i])
            yield from rec(i + 1, used | bits, acc)
            acc.pop()

    yield from rec(0, 0, [])


def compatibility_rows_pairwise(g: Graph, edges) -> list[int]:
    """Edge-compatibility bit rows by testing every pair of edges: bit ``j`` of
    row ``i`` is set when the edges share no endpoint and a graph edge joins them."""
    edges = list(edges)
    compat = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if len({a, b, c, d}) < 4:
                continue
            if g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, c) or g.has_edge(b, d):
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    return compat


def connected_matching_number_by_cliques(g: Graph) -> int:
    """Connected-matching number as the clique number of the edge-compatibility
    graph, whose vertices are the edges in degree-sum order (descending).

    Branch and bound with a greedy colouring bound: a clique takes at most one
    vertex per colour class, so the class index of a vertex bounds every
    extension through it.  It stops at ``n // 2`` edges, as no matching is
    bigger.  It shares neither the edge order nor the bounds of the exact
    minimum search.
    """
    edges = sorted(g.edges(), key=lambda e: -(g.degree(e[0]) + g.degree(e[1])))
    rows = compatibility_rows_pairwise(g, edges)
    best = 0

    def expand(depth, cand):
        nonlocal best
        if best >= g.n // 2:
            return
        order, limits, colour, rest = [], [], 0, cand
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v) & ~rows[v]
                rest &= ~(1 << v)
                order.append(v)
                limits.append(colour)
        for i in range(len(order) - 1, -1, -1):
            if depth + limits[i] <= best:
                return
            v = order[i]
            if cand & rows[v]:
                expand(depth + 1, cand & rows[v])
            best = max(best, depth + 1)
            cand &= ~(1 << v)

    expand(0, (1 << len(edges)) - 1)
    return best


def min_nonadjacent_matching_plain(g: Graph, t: int) -> tuple[Matching, int]:
    """Unpruned depth-first minimum of the non-adjacent pair count over size-``t`` matchings.

    Index-increasing choices from the sorted edge list; a branch dies only
    once its partial score reaches the incumbent, and a leaf is recorded only
    when strictly below it, so on ties the first optimum in that order wins.
    """
    edges = list(g.edges())
    compat = compatibility_rows_pairwise(g, edges)
    ends = [(1 << u) | (1 << v) for u, v in edges]
    best_count = None
    best_picked = 0

    def dfs(start, size, used, picked, cost):
        nonlocal best_count, best_picked
        if size == t:
            best_count, best_picked = cost, picked
            return
        for i in range(start, len(edges) - (t - size) + 1):
            if ends[i] & used:
                continue
            added = cost + size - (compat[i] & picked).bit_count()
            if best_count is not None and added >= best_count:
                continue
            dfs(i + 1, size + 1, used | ends[i], picked | 1 << i, added)
            if best_count == 0:
                return

    dfs(0, 0, 0, 0, 0)
    if best_count is None:
        raise InfeasibleError(f"graph has no matching of size {t}")
    return Matching(edges[i] for i in range(len(edges)) if best_picked >> i & 1), best_count


def twin_masks_pairwise(g: Graph) -> list[int]:
    """Bit ``u`` of entry ``v`` is set when ``u != v`` and ``N[u] = N[v]`` or
    ``N(u) = N(v)``, tested pair by pair on neighbour sets."""
    def open_nbhd(v):
        return {u for u in range(g.n) if g.has_edge(u, v)}

    masks = [0] * g.n
    for u, v in itertools.combinations(range(g.n), 2):
        if open_nbhd(u) == open_nbhd(v) or open_nbhd(u) | {u} == open_nbhd(v) | {v}:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return masks


def swap_rule_conflicts_pairwise(g: Graph, edges) -> list[int]:
    """Bit ``j`` of row ``i`` is set when edges ``i`` and ``j`` are disjoint and
    some twins ``x < y``, one in each, have partners in the opposite order."""
    twins = twin_masks_pairwise(g)
    rows = [0] * len(edges)
    for i, j in itertools.combinations(range(len(edges)), 2):
        partner = {}
        for a, b in (edges[i], edges[j]):
            partner[a], partner[b] = b, a
        if len(partner) < 4:
            continue
        for x in edges[i]:
            for y in edges[j]:
                lo, hi = min(x, y), max(x, y)
                if twins[x] >> y & 1 and partner[lo] > partner[hi]:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
    return rows


def with_twins(g: Graph, kinds, rng: np.random.Generator) -> Graph:
    """``g`` with one new vertex per entry of ``kinds``, each a twin of a random
    vertex, then with its vertices shuffled.

    A ``"true"`` twin copies the closed neighbourhood.  A ``"false"`` twin
    copies the open one after its vertex is joined to every other vertex, so
    an independence number of at most 2 survives either kind.
    """
    rows = list(g.rows)
    for kind in kinds:
        n = len(rows)
        v = int(rng.integers(n))
        if kind == "false":
            rows = [row | 1 << v for row in rows]
            rows[v] = ((1 << n) - 1) ^ 1 << v
        copy = rows[v] | 1 << v if kind == "true" else rows[v]
        rows = [row | (copy >> x & 1) << n for x, row in enumerate(rows)] + [copy]
    order = rng.permutation(len(rows)).tolist()
    edges = [(order[x], order[y]) for x in range(len(rows)) for y in range(x + 1, len(rows))
             if rows[x] >> y & 1]
    return from_edge_list(len(rows), edges)


def count_nonadjacent_pairs_naive(g: Graph, edges) -> int:
    """Four-cross-pair scan over an edge collection (no bitsets)."""
    total = 0
    edges = list(edges)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            if not (g.has_edge(a, c) or g.has_edge(a, d)
                    or g.has_edge(b, c) or g.has_edge(b, d)):
                total += 1
    return total


def validate_matching_reference(g: Graph, edges) -> None:
    """Edge-by-edge matching check whose ValueError names the first bad edge."""
    seen = 0
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
            raise ValueError(f"invalid edge ({u}, {v})")
        if not g.has_edge(u, v):
            raise ValueError(f"({u}, {v}) is not an edge of the graph")
        bits = (1 << u) | (1 << v)
        if seen & bits:
            raise ValueError(f"edge ({u}, {v}) reuses a matched vertex")
        seen |= bits


def count_bad_quadruples_naive(g: Graph) -> int:
    """O(n^4) enumeration of ordered bad quadruples."""
    total = 0
    for u, v, w, z in itertools.permutations(range(g.n), 4):
        if (g.has_edge(u, v) and g.has_edge(w, z)
                and not g.has_edge(u, w) and not g.has_edge(u, z)
                and not g.has_edge(v, w) and not g.has_edge(v, z)):
            total += 1
    return total


def count_bad_quadruples_enumerated(g: Graph) -> int:
    """Ordered bad quadruples by enumeration, for sizes the quartic scan cannot reach.

    Takes each ordered non-adjacent ``(u, w)``, then each neighbour ``v`` of
    ``u`` that is not adjacent to ``w``, and counts the neighbours ``z`` of
    ``w`` adjacent to neither ``u`` nor ``v``.  Reads only ``g.rows`` and
    builds its own non-adjacency rows.
    """
    n = g.n
    rows = g.rows
    nadj = [((1 << n) - 1) & ~row & ~(1 << v) for v, row in enumerate(rows)]

    def members(x):
        return [i for i in range(n) if x >> i & 1]

    total = 0
    for u in range(n):
        for w in members(nadj[u]):
            base = rows[w] & nadj[u]
            for v in members(rows[u] & nadj[w]):
                total += bin(base & nadj[v]).count("1")
    return total


def random_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return from_edge_list(n, edges)


def random_alpha2_graph(index: int, n_min: int = 4, n_max: int = 16) -> Graph:
    """Deterministic rotating mix of instance families with alpha <= 2."""
    rng = np.random.default_rng(1000 + index)
    n = int(rng.integers(n_min, n_max + 1))
    kind = index % 4
    if kind == 0:
        return complement_of_random_triangle_free(n, seed=index)
    if kind == 1:
        return two_cliques(max(1, n // 2))
    if kind == 2:
        base = max(n, 5)
        parts = tuple(1 + x for x in rng.multinomial(base - 5, [0.2] * 5))
        return c5_blowup_complement(parts)
    return complete_graph(n)


def random_matching_of(g: Graph, rng: np.random.Generator,
                       max_size: int | None = None) -> Matching:
    """Greedy matching built along a shuffled edge order."""
    edges = list(g.edges())
    used = 0
    picked = []
    for i in rng.permutation(len(edges)).tolist():
        u, v = edges[i]
        bits = (1 << u) | (1 << v)
        if used & bits:
            continue
        used |= bits
        picked.append(edges[i])
        if max_size is not None and len(picked) == max_size:
            break
    return Matching(picked)


def greedy_clique(g: Graph, rng: np.random.Generator) -> list[int]:
    """A (not necessarily maximum) clique grown from a random start."""
    if g.n == 0:
        return []
    order = rng.permutation(g.n).tolist()
    clique = [order[0]]
    for v in order[1:]:
        if all(g.has_edge(v, u) for u in clique):
            clique.append(v)
    return clique


def matching_from_clique_recursive(g: Graph, clique) -> Matching:
    """Reference for :func:`densematch.matching_from_clique`, by recursion.

    Each clique vertex in increasing order starts an augmenting-path search
    that tries its unseen outside neighbours in increasing order, recursing
    into the owner of a taken one; leftover clique vertices pair up in
    order.  The recursion overflows on augmenting paths of about a thousand
    links.
    """
    a = sorted(clique)
    in_a = set(a)
    outside = [v for v in range(g.n) if v not in in_a]
    owner = {}

    def try_augment(u, seen):
        for v in outside:
            if not g.has_edge(u, v) or v in seen:
                continue
            seen.add(v)
            if v not in owner or try_augment(owner[v], seen):
                owner[v] = u
                return True
        return False

    for u in a:
        try_augment(u, set())
    match_of = {u: v for v, u in owner.items()}
    leftover = [u for u in a if u not in match_of]
    return Matching([(u, match_of[u]) for u in a if u in match_of]
                    + list(zip(leftover[0::2], leftover[1::2])))
