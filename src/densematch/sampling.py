"""Rejection sampling of a uniform pair-partition that contains many graph edges.

A uniform partition of a ``2k``-element set into pairs is sampled by
shuffling the elements and pairing consecutive entries; every one of the
``(2k-1)!!`` partitions is equally likely.  The sampler returns only the
accepted partition's pairs that are graph edges, as one integer array.

The sampler takes a ``numpy.random.Generator``; a fixed seed yields an
identical stream.
"""

import numpy as np

from .errors import SamplingFailure
from .graphs import Graph, _as_int

DEFAULT_MAX_ATTEMPTS = 10**6


def sample_edge_heavy_partition(g: Graph, threshold: int, max_attempts: int,
                                rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Uniform partition of ``V(g)`` conditioned on containing many edges.

    Draws independent uniform partitions until one has at least ``threshold``
    pairs that are edges of ``g``; because each attempt is an independent
    uniform draw, the accepted sample is uniform over the conditioned set.
    Returns the accepted partition's edge pairs as a ``(k, 2)`` integer
    array, smaller end first and in draw order, and the number of attempts.
    Raises :class:`SamplingFailure` carrying the attempt count when
    ``max_attempts`` rejections occur (the threshold is too aggressive for
    this graph).
    """
    n = g.n
    if n < 2 or n % 2:
        raise ValueError(f"graph order must be even and >= 2, got {n}")
    threshold = _as_int("threshold", threshold, 0)
    max_attempts = _as_int("max_attempts", max_attempts, 1)
    for attempt in range(1, max_attempts + 1):
        shuffled = rng.permutation(n)
        a, b = shuffled[0::2], shuffled[1::2]
        in_graph = g._has_edges_unchecked(a, b)  # a permutation of range(n)
        if np.count_nonzero(in_graph) >= threshold:
            a, b = a[in_graph], b[in_graph]
            return np.column_stack((np.minimum(a, b), np.maximum(a, b))), attempt
    raise SamplingFailure(max_attempts)
