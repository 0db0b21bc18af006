"""Immutable simple graphs with bitset adjacency rows.

Vertices are the dense range ``0..n-1``.  Each adjacency row is a Python int
used as a bitset: bit ``v`` of ``rows[u]`` is set iff ``uv`` is an edge.  The
same rows are also available as a matrix of little-endian 64-bit words,
built on first use, and as its packed ``uint8`` view, for vectorised
lookups.  All operations treat graphs as read-only values, so instances are
safe to share between threads: a value memoised on first use (the numpy
rows, the α ≤ 2 answer, the exact oracles' per-graph facts) is a pure
function of the rows, so a race can only compute the same value twice.
"""

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

# n rows of n bits each: 2**16 vertices hold 512 MiB of rows (2**20 would hold 128 GiB)
MAX_VERTICES = 1 << 16
# rows per band of Graph's symmetry check, a multiple of 8 so bands start on a byte
_SYMMETRY_BAND = 256


def iter_bits(x: int):
    """Yield the indices of the set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _as_int(name: str, value, least: int | None = None) -> int:
    """``value`` as a Python int, the one integer check of every public argument.

    Python and numpy integers pass.  Bools (numpy's too), floats and anything
    else are a ValueError ``"{name} {value!r} is not an integer"``; when
    ``least`` is given, a smaller value is a ValueError naming ``name``, the
    bound and the value.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if least is not None and number < least:
        bound = "be nonnegative" if least == 0 else f"be at least {least}"
        raise ValueError(f"{name} must {bound} (got {number})")
    return number


def _as_order(n, least: int = 0) -> int:
    """``n`` as an int vertex count in ``[least, MAX_VERTICES]``, the one order check
    of every graph build; ``n`` passes :func:`_as_int` first."""
    n = _as_int("n", n)
    if not least <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [{least}, {MAX_VERTICES}]")
    return n


def _int_pairs(pairs) -> list:
    """``pairs`` as a list whose ends are ints, each checked by :func:`_as_int`
    under the name of its edge, as in ``edge (0, 1.0) end 1.0 is not an integer``.

    An all-int input is listed as it is, after one pass over the ends' types,
    since an edge-list parse feeds millions of them.
    """
    pairs = list(pairs)
    if set(map(type, chain.from_iterable(pairs))) <= {int}:
        return pairs
    return [tuple(_as_int(f"edge ({u!r}, {v!r}) end", end) for end in (u, v)) for u, v in pairs]


def _unsigned(x: np.ndarray) -> np.ndarray:
    """``x`` viewed with the unsigned dtype of its size when it is signed, so a
    negative value reads above every vertex; any other ``x`` as it is."""
    return x.view(x.dtype.str.replace("i", "u")) if x.dtype.kind == "i" else x


def _bit_in_byte(v: np.ndarray) -> np.ndarray:
    """Mask selecting vertex ``v`` inside its byte of a packed row."""
    return np.uint8(1) << (v & 7).astype(np.uint8)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph given by its symmetric, loop-free bit rows.

    Each row is stored as the Python int :func:`_as_int` makes of it (a
    bool, float or other non-integer row is a ValueError naming it).  ``n``
    and ``m`` are derived from the rows, so they cannot disagree.  The rows
    are checked for bits outside ``0..n-1``, loop bits and symmetry, exactly:
    ``Graph((0b10, 0b100, 0))`` is a ValueError naming the pair ``(0, 1)``.
    The library's own builders, whose rows are valid by construction, go
    through :meth:`_of_rows` instead and skip these checks.
    """

    rows: tuple[int, ...]
    m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a list of rows would leave the graph unhashable and unequal to the tuple build
        rows = tuple(self.rows)
        if any(type(row) is not int for row in rows):
            # numpy integers have no int.to_bytes, which the numpy rows need
            rows = tuple(_as_int(f"row {v} value", row) for v, row in enumerate(rows))
        object.__setattr__(self, "rows", rows)
        n = _as_order(len(rows))
        total = 0
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} has bits outside vertices 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"row {v} carries a self-loop bit")
            total += row.bit_count()
        # a band of rows against the same band of columns at a time, so the
        # check holds O(n) bytes per band row instead of the n x n bit matrix
        for lo in range(0, n, _SYMMETRY_BAND):
            rows_bits = np.unpackbits(self.packed[lo:lo + _SYMMETRY_BAND], axis=1,
                                      count=n, bitorder="little")
            cols_bits = np.unpackbits(self.packed[:, lo >> 3:(lo + _SYMMETRY_BAND) >> 3], axis=1,
                                      count=len(rows_bits), bitorder="little")
            one_way = np.argwhere(rows_bits > cols_bits.T)
            if len(one_way):
                u, v = (one_way[0] + (lo, 0)).tolist()
                raise ValueError(f"rows are not symmetric: row {u} has bit {v}, row {v} lacks bit {u}")
        object.__setattr__(self, "m", total // 2)

    @classmethod
    def _of_rows(cls, rows: tuple[int, ...]) -> "Graph":
        """Trusted build from a tuple of Python int rows that are symmetric,
        loop-free and inside ``0..n-1`` by construction; no check is made."""
        g = object.__new__(cls)
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "m", sum(row.bit_count() for row in rows) // 2)
        return g

    @cached_property
    def n(self) -> int:
        return len(self.rows)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self):
        """Yield the edges as ``(u, v)`` pairs with ``u < v``, sorted."""
        for u in range(self.n):
            high = self.rows[u] >> (u + 1)
            for off in iter_bits(high):
                yield u, u + 1 + off

    @cached_property
    def _words(self) -> np.ndarray:
        """Read-only ``n x ceil(n/64)`` little-endian ``uint64`` copy of the rows,
        built on first use: bit ``v`` of row ``u`` is bit ``v % 64`` of word ``v // 64``."""
        nbytes = 8 * ((self.n + 63) // 64)
        buf = b"".join(row.to_bytes(nbytes, "little") for row in self.rows)
        return np.frombuffer(buf, "<u8").reshape(self.n, nbytes // 8)

    @cached_property
    def packed(self) -> np.ndarray:
        """Read-only ``n x ceil(n/8)`` ``uint8`` view of the rows' 64-bit words,
        built on first use (``Graph(rows)`` uses it for its symmetry check).

        Bit ``v`` of row ``u`` is bit ``v % 8`` of byte ``v // 8``
        (little-endian), so row ``u`` holds the bytes of ``rows[u]``.
        """
        return self._words.view(np.uint8)[:, :(self.n + 7) // 8]

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Elementwise ``has_edge`` over two equal-shape integer index arrays.

        An end outside ``0..n-1`` is an IndexError naming the first such end,
        in pair order; negative ends do not wrap.
        """
        if u.size and np.maximum(_unsigned(u), _unsigned(v)).max() >= self.n:
            ends = chain.from_iterable(zip(u.ravel().tolist(), v.ravel().tolist()))
            bad = next(end for end in ends if not 0 <= end < self.n)
            raise IndexError(f"vertex {bad} outside 0..{self.n - 1}")
        return self._has_edges_unchecked(u, v)

    def _has_edges_unchecked(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """:meth:`has_edges` for ends the caller knows lie in ``0..n-1``; none is checked."""
        return self.packed[u, v >> 3] & _bit_in_byte(v) != 0

    @cached_property
    def _alpha_at_most_2(self) -> bool:
        # complement is triangle-free: no complement edge has a common
        # complement-neighbour, checked by row intersections
        co = complement(self)
        rows = co.rows
        return not any(rows[u] & rows[v] for u, v in co.edges())


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges, stored as sorted ``(u, v)`` pairs.

    ``Matching(pairs)`` takes any iterable of endpoint pairs and stores each
    pair smaller end first, the pairs sorted, as a tuple.  Ends pass
    :func:`_as_int` (numpy integers are converted); any other end, bools
    included, is a ValueError naming its edge and the end, as in
    ``edge (0, 1.0) end 1.0 is not an integer``.
    """

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = _int_pairs(self.edges)
        norm = sorted((u, v) if u < v else (v, u) for u, v in pairs)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _of_sorted(cls, pairs: np.ndarray) -> "Matching":
        """Trusted build from a ``(k, 2)`` integer array of disjoint pairs,
        each smaller end first, the rows sorted by that end; no check is made.

        Equal to ``Matching(pairs.tolist())``, with every end a Python int.
        """
        m = object.__new__(cls)
        object.__setattr__(m, "edges", tuple(zip(*pairs.T.tolist())))
        return m

    @property
    def size(self) -> int:
        return len(self.edges)


def from_edge_list(n: int, edges) -> Graph:
    """Build a graph on ``n`` vertices from an iterable of endpoint pairs.

    ``n`` must be an integer in ``[0, MAX_VERTICES]``.  Ends are checked as
    :class:`Matching`'s are, so a float or bool end is a ValueError naming
    its edge.  Duplicate edges collapse silently; self-loops and
    out-of-range endpoints are errors.
    """
    n = _as_order(n)
    pairs = _int_pairs(edges)
    rows = [0] * n
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._of_rows(tuple(rows))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges."""
    full = (1 << g.n) - 1
    return Graph._of_rows(tuple((full ^ row) ^ (1 << v) for v, row in enumerate(g.rows)))


def is_alpha_at_most_2(g: Graph) -> bool:
    """True iff no three vertices are pairwise non-adjacent.

    Equivalently the complement is triangle-free.  The scan runs once per
    graph; later calls on the same object return the stored answer.  The
    generators store that answer as they build, since their outputs have
    α ≤ 2 by construction; any other graph is scanned.
    """
    return g._alpha_at_most_2


def min_degree(g: Graph) -> int:
    if g.n < 1:
        raise ValueError("degree of an empty graph is undefined")
    return min(row.bit_count() for row in g.rows)


def format_edge_list(g: Graph) -> str:
    """Render the ``n m`` / ``u v`` edge-list text format."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: header ``n m``, then ``m`` pairs ``u v``.

    Tokens are whitespace-separated; ``#`` starts a comment that runs to the
    end of the line.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    if len(tokens) < 2:
        raise ValueError("edge list needs a header line 'n m'")
    numbers = []
    for tok in tokens:
        try:
            numbers.append(int(tok))
        except ValueError:
            raise ValueError(f"edge list contains a non-integer token {tok!r}") from None
    n, m = numbers[0], numbers[1]
    body = numbers[2:]
    if len(body) != 2 * m:
        raise ValueError(f"header declares {m} edges but body has {len(body)} endpoints")
    return from_edge_list(n, zip(body[0::2], body[1::2]))


def read_edge_list(path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_edge_list(g: Graph, path) -> None:
    Path(path).write_text(format_edge_list(g))
