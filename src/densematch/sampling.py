"""Uniform random partitions of an even vertex set into pairs.

A uniform partition of a ``2k``-element set into pairs is sampled by
shuffling the elements and pairing consecutive entries; every one of the
``(2k-1)!!`` partitions is equally likely.  A fixed pair belongs to such a
partition with probability ``1/(|S|-1)``, and two disjoint fixed pairs
jointly with probability ``1/((|S|-1)(|S|-3))``.

All samplers take a ``numpy.random.Generator``; a fixed seed yields an
identical partition stream.
"""

import numpy as np

from .errors import SamplingFailure
from .graphs import Graph

DEFAULT_MAX_ATTEMPTS = 10**6

# permutation rows per vectorised batch in pair_inclusion_frequencies
_CHUNK = 1 << 16


def _shuffle_pair(arr: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle ``arr`` and pair consecutive entries; returns the two pair ends."""
    shuffled = arr[rng.permutation(arr.size)]
    return shuffled[0::2], shuffled[1::2]


def _pairs(a: np.ndarray, b: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The pairs ``(a[i], b[i])``, each written smaller end first."""
    return tuple(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def sample_partition(s, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Uniform partition of ``s`` into pairs (shuffle, then pair up), smaller ends first."""
    items = sorted(s)
    if len(items) < 2 or len(items) % 2:
        raise ValueError(f"partition into pairs needs an even set of size >= 2, got {len(items)}")
    return _pairs(*_shuffle_pair(np.asarray(items), rng))


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
        count = sum(p in wanted for p in _pairs(*_shuffle_pair(arr, rng)))
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


def sample_edge_heavy_partition(g: Graph, threshold: int, max_attempts: int,
                                rng: np.random.Generator) -> tuple[tuple[tuple[int, int], ...], int]:
    """Uniform partition of ``V(g)`` conditioned on containing many edges.

    Draws independent uniform partitions until one has at least ``threshold``
    pairs that are edges of ``g``; because each attempt is an independent
    uniform draw, the accepted sample is uniform over the conditioned set.
    Returns the partition's pairs, as :func:`sample_partition` does, and the
    number of attempts.  Raises :class:`SamplingFailure` carrying the attempt
    count when ``max_attempts`` rejections occur (the threshold is too
    aggressive for this graph).
    """
    n = g.n
    if n < 2 or n % 2:
        raise ValueError(f"graph order must be even and >= 2, got {n}")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    vertices = np.arange(n)
    for attempt in range(1, max_attempts + 1):
        a, b = _shuffle_pair(vertices, rng)
        if np.count_nonzero(g.has_edges(a, b)) >= threshold:
            return _pairs(a, b), attempt
    raise SamplingFailure(max_attempts)
