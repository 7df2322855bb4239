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
        if (u == v).any():
            raise ValueError(f"self-loop at vertex {u[u == v][0]}")
        bad = (u < 0) | (v >= n)
        if bad.any():
            raise ValueError(f"edge ({u[bad][0]}, {v[bad][0]}) out of range for n={n}")
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


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.  Raises ParseError naming the bad line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(1, f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"expected two integers in header, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError(1, "vertex and edge counts must be nonnegative")
    # m rows of two fields in bulk, keeping no list per row (those would
    # wake the garbage collector); the line-by-line pass below names the
    # first bad line of anything else, or of what int() or Graph refuses
    fields = list(map(len, map(str.split, lines[1:])))
    if fields.count(2) == m and fields.count(0) == len(fields) - m:
        try:
            ends = map(int, itertools.chain.from_iterable(map(str.split, lines[1:])))
            return Graph(n, np.fromiter(ends, dtype=np.int64, count=2 * m).reshape(m, 2))
        except (ValueError, OverflowError):
            pass
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        if len(pairs) == m:
            raise ParseError(lineno, f"more than the {m} edges announced in the header")
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(lineno, f"expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(lineno, f"expected two integers, got {raw!r}") from None
        if u == v:
            raise ParseError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(lineno, f"vertex index out of range 0..{n - 1}")
        pairs.append((u, v))
    if len(pairs) < m:
        raise ParseError(len(lines) + 1, f"expected {m} edge lines, found {len(pairs)}")
    return Graph(n, pairs)


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
