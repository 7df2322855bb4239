"""Finite simple graphs: construction, edge-list text I/O, deterministic
generators, and exact homomorphism counting by the pattern contraction
that density_step shares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed text input; remembers the 1-based line it came from."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """value as int: the one refusal rule for integer arguments.  A bool or a
    non-integer, or a value below minimum if given, is refused with ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_permutation(perm, n: int, name: str) -> np.ndarray:
    """perm as an index array, refused with ValueError unless it is a bijection
    on 0..n-1 with no bool or non-integer entry; name spells n in the message."""
    entries = [check_integer(p, "perm entry") for p in perm]
    if sorted(entries) != list(range(n)):
        raise ValueError(f"perm is not a bijection on 0..{name}-1")
    return np.array(entries, dtype=np.intp)


def _refused_pair(u: np.ndarray, v: np.ndarray, n: int) -> tuple[int, str] | None:
    """The first row, and the reason, of the pairs u <= v that Graph(n, ...)
    refuses: a self-loop, or an endpoint outside 0..n-1.  None if none is."""
    bad = (u == v) | (u < 0) | (v >= n)
    if not bad.any():
        return None
    row = int(bad.argmax())
    if u[row] == v[row]:
        return row, f"self-loop at vertex {u[row]}"
    return row, f"edge ({u[row]}, {v[row]}) out of range for n={n}"


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Held as one read-only boolean adjacency matrix.  Graph(n, pairs), or
    Graph.from_edges(n, pairs), takes an (m, 2) integer array or any
    iterable of vertex pairs; (v, u) is the edge (u, v), repeats collapse,
    and self-loops and out-of-range or non-integer endpoints are refused.
    Instances are pure values, safe to share across threads.
    """

    n: int
    adjacency: np.ndarray

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        n = check_integer(n, "vertex count n", 0)
        pairs = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if pairs.size == 0:
            pairs = np.zeros((0, 2), dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("edges must be pairs of integer vertices")
        u, v = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        refused = _refused_pair(u, v, n)
        if refused is not None:
            raise ValueError(refused[1])
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        adj.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adj)

    from_edges = classmethod(lambda cls, n, pairs: cls(n, pairs))

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self):
        return hash(self.adjacency.tobytes())

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The (m, 2) edge array, u < v in each row, rows in lexicographic order."""
        return np.argwhere(np.triu(self.adjacency))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (u, v) pairs with u < v."""
        return frozenset(map(tuple, self._pairs.tolist()))

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adjacency[u, v])


# ───────────────────────── text format ─────────────────────────
#
# Header line "n m", then m lines "u v" with 0-indexed endpoints.
# Pairs are sorted and deduplicated on input; the serializer emits
# edges in lexicographic order so serialize(parse(s)) is canonical.
# _header and _rows read both text formats (see graphons.parse_graphon).


def _header(lines: list[str], spec: str, minimum: int) -> list[int]:
    """Line 1 as the integers that spec names ("n m" or "k"), each at least
    minimum; else ParseError at line 1."""
    head = lines[0] if lines else ""
    try:
        values = [int(field) for field in head.split()]
    except ValueError:
        values = []
    if len(values) != len(spec.split()) or any(x < minimum for x in values):
        raise ParseError(1, f"expected header {spec!r} of integers >= {minimum}, got {head!r}")
    return values


def _rows(lines: list[str], rows: int, width: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """The non-blank lines after line 1 as one (rows, width) array of dtype
    (int or float, also the reader of each field) and their 1-based numbers.
    ParseError names the first line with other than width fields, past the
    rows-th, or unreadable; if rows are missing, the end of the text.  One
    np.fromiter reads the fields of lines that exist: no list per line (that
    wakes the GC), and a header's row count alone allocates nothing."""
    counts = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    linenos = np.flatnonzero(counts[1:]) + 2
    wrong = np.flatnonzero(counts[linenos - 1] != width)
    fault = min(rows, len(linenos), *wrong[:1].tolist())  # well-shaped rows before a fault
    misread = f"expected {width} {'integers' if dtype is int else 'numbers'}, got {{!r}}"
    try:
        fields = map(str.split, lines[1:linenos[fault - 1] if fault else 1])
        values = np.fromiter(map(dtype, itertools.chain.from_iterable(fields)), dtype, fault * width)
    except (ValueError, OverflowError):
        for lineno in linenos[:fault].tolist():  # name the first unreadable line
            try:
                np.fromiter(map(dtype, lines[lineno - 1].split()), dtype, width)
            except (ValueError, OverflowError):
                raise ParseError(lineno, misread.format(lines[lineno - 1])) from None
    if fault < len(linenos):
        lineno = int(linenos[fault])
        if fault == rows:
            raise ParseError(lineno, f"more rows than the {rows} announced on line 1")
        raise ParseError(lineno, misread.format(lines[lineno - 1]))
    if fault < rows:
        raise ParseError(len(lines) + 1, f"expected {rows} rows, found {fault}")
    return values.reshape(rows, width), linenos


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.  Raises ParseError naming the bad line."""
    lines = text.splitlines()
    n, m = _header(lines, "n m", 0)
    pairs, linenos = _rows(lines, m, 2, int)
    try:
        return Graph(n, pairs)
    except ValueError as exc:  # Graph checks valid input; a refusal finds its line
        refused = _refused_pair(pairs.min(1), pairs.max(1), n)
        if refused is None:  # no pair is at fault: n itself is too large
            raise ParseError(1, f"vertex count {n}: {exc}") from None
        raise ParseError(int(linenos[refused[0]]), refused[1]) from None


def serialize_edge_list(graph: Graph) -> str:
    # one str() per vertex; each vertex's edges to higher vertices are one join
    names = [str(v) for v in range(graph.n)]
    u, v = graph._pairs.T
    upper = list(map(names.__getitem__, v.tolist()))
    lines = [f"{graph.n} {graph.edge_count}"]
    start = 0
    for name, end in zip(names, np.bincount(u, minlength=graph.n).cumsum().tolist()):
        if end > start:
            head = name + " "
            lines.append(head + ("\n" + head).join(upper[start:end]))
        start = end
    return "\n".join(lines) + "\n"


# ───────────────────────── generators ─────────────────────────


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} in block labeling: vertices 0..a-1 form one class, a..a+b-1
    the other, and {u, v} is an edge exactly when u < a <= v."""
    a = check_integer(a, "class size a", 0)
    b = check_integer(b, "class size b", 0)
    return Graph(a + b, np.argwhere(np.outer(np.arange(a + b) < a, np.arange(a + b) >= a)))


def complete(n: int) -> Graph:
    return Graph(n, np.transpose(np.triu_indices(n, 1)))


def cycle(n: int) -> Graph:
    n = check_integer(n, "cycle length n", 3)
    return Graph(n, np.column_stack((np.arange(n), np.arange(1, n + 1) % n)))


def single_vertex() -> Graph:
    return Graph(1, [])


def single_edge() -> Graph:
    return Graph(2, [(0, 1)])


def relabel(graph: Graph, perm: Sequence[int]) -> Graph:
    """Rename vertex u to perm[u].  perm must be a bijection on 0..n-1."""
    return Graph(graph.n, check_permutation(perm, graph.n, "n")[graph._pairs])


# ───────────────────────── homomorphisms ─────────────────────────

DEFAULT_WORK_LIMIT = 10**8
_BLAS_MIN_COST = 1 << 15  # the step cost from which an exact step uses BLAS (see _contract)


class WorkLimitExceeded(RuntimeError):
    """The exact pattern contraction would exceed the work limit."""

    def __init__(self, needed: int, limit: int):
        super().__init__(
            f"exact pattern contraction needs {needed} multiply-adds "
            f"(limit {limit}); use density_mc or raise work_limit"
        )
        self.needed = needed
        self.limit = limit


def _contract(pattern: Graph, measures: np.ndarray, weights: np.ndarray, work_limit: int,
              exact: bool = False):
    """Sum over maps phi: V(pattern) -> blocks of the product of
    measures[phi(v)] over vertices and weights[phi(u), phi(v)] over edges.

    hom_count and density_step are both this sum.  Pattern vertices are
    summed out in a greedy min-degree order, ties to the lowest vertex; a
    step's scope is the vertex plus the neighbours it leaves behind (which
    it joins), and costs k^|scope| multiply-adds on k blocks.  The plan
    costs about k^(treewidth + 1) rather than k^|V| (Diaz-Serna-Thilikos
    2002), and a step's output is at most 1/k of its cost.  Refuses with
    WorkLimitExceeded, before any array is built (weights take the dtype
    of measures only then), when the sum of step costs exceeds work_limit,
    and a negative, bool or non-integer work_limit with ValueError.

    Each step is one np.einsum that labels its own scope, so only a scope,
    not the pattern, is limited to einsum's 52 labels.  By default every
    step runs numpy's C loop, in one fixed order at any BLAS thread count,
    so density_step's float sums keep their bits.  exact=True says every
    partial sum is an integer exact in float64, so any summation order
    gives the same result; then a step costing _BLAS_MIN_COST or more goes
    through einsum's pairwise (tensordot, BLAS) path.  On a 2-core Xeon
    (numpy 2.4, OpenBLAS, one thread) C4's first k^3 step took 25 / 87 /
    380 us in the C loop at k = 24 / 32 / 64, and 55-90 us on the pairwise
    path, mostly its planning, so the two cross near 2^15.
    """
    check_integer(work_limit, "work_limit", 0)
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    nbrs = {v: set(np.flatnonzero(pattern.adjacency[v]).tolist()) for v in range(pattern.n)}
    plan = []
    while nbrs:
        v = min(nbrs, key=lambda x: (len(nbrs[x]), x))
        rest = nbrs.pop(v)
        for u in rest:
            nbrs[u] |= rest - {u}
            nbrs[u].discard(v)
        plan.append((v, tuple(sorted(rest))))
    k = len(measures)
    needed = sum(k ** (len(rest) + 1) for _, rest in plan)
    if needed > work_limit:
        raise WorkLimitExceeded(needed, work_limit)

    weights = weights.astype(measures.dtype, copy=False)
    factors = [((v,), measures) for v in range(pattern.n)]
    factors += [(edge, weights) for edge in pattern._pairs.tolist()]
    total = 1
    for v, rest in plan:
        label = {x: i for i, x in enumerate((v, *rest))}
        used = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        args = [a for scope, arr in used for a in (arr, [label[x] for x in scope])]
        blas = exact and k ** len(label) >= _BLAS_MIN_COST
        out = np.einsum(*args, [label[x] for x in rest], optimize=blas)
        if rest:
            factors.append((rest, out))
        else:
            total = total * out
    return total


def hom_count(pattern: Graph, host: Graph, work_limit: int = DEFAULT_WORK_LIMIT) -> int:
    """Number of maps V(pattern) -> V(host) sending edges to edges.

    The pattern contraction on the adjacency matrix with unit measures:
    about n^(treewidth + 1) multiply-adds, whatever the host's edge count.
    Refuses with WorkLimitExceeded past work_limit (default 10^8, which
    refuses a triangle on 464 host vertices or more, C4 on 369 or K5 on
    40); then density_mc on the host's pixel graphon estimates the density
    instead.
    Exact: every partial sum counts maps, so it is at most n^|V(pattern)|.
    While that bound is below 2^53 the sum runs in float64, where every
    partial sum is an exact integer, so its steps of cost 2^15 or more go
    through BLAS and the count is the same at any thread count.  int64 is
    used below 2^63 and Python integers (object arrays) above, both in
    the C loop.
    """
    bound = host.n**pattern.n
    dtype = np.float64 if bound < 2**53 else np.int64 if bound < 2**63 else object
    ones = np.ones(host.n, dtype=dtype)
    return int(_contract(pattern, ones, host.adjacency, work_limit, exact=dtype is np.float64))
