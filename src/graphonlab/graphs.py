"""Finite simple graphs: construction, edge-list text I/O, deterministic
generators, and exact homomorphism counting by the pattern contraction
that density_step shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed text input; remembers the 1-based line it came from."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    Edges are stored as (u, v) pairs with u < v; self-loops and duplicate
    edges are rejected.  Instances are pure values, safe to share across
    threads.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from unordered pairs, sorting each and deduplicating."""
        edges = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edges.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Dense boolean adjacency matrix (read-only view)."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            adj[u, v] = adj[v, u] = True
        adj.flags.writeable = False
        return adj


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
    pairs: list[tuple[int, int]] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
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
        raise ParseError(lineno + 1, f"expected {m} edge lines, found {len(pairs)}")
    return Graph.from_edges(n, pairs)


def serialize_edge_list(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


# ───────────────────────── generators ─────────────────────────


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} in block labeling: vertices 0..a-1 form one class, a..a+b-1
    the other, and {u, v} is an edge exactly when u < a <= v."""
    if a < 0 or b < 0:
        raise ValueError("class sizes must be nonnegative")
    return Graph(a + b, frozenset((u, v) for u in range(a) for v in range(a, a + b)))


def complete(n: int) -> Graph:
    return Graph(n, frozenset((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def single_vertex() -> Graph:
    return Graph(1, frozenset())


def single_edge() -> Graph:
    return Graph(2, frozenset({(0, 1)}))


def relabel(graph: Graph, perm: Sequence[int]) -> Graph:
    """Rename vertex u to perm[u].  perm must be a bijection on 0..n-1."""
    if sorted(perm) != list(range(graph.n)):
        raise ValueError("perm is not a bijection on 0..n-1")
    return Graph.from_edges(graph.n, ((perm[u], perm[v]) for u, v in graph.edges))


# ───────────────────────── homomorphisms ─────────────────────────

DEFAULT_WORK_LIMIT = 10**8


class WorkLimitExceeded(RuntimeError):
    """The exact pattern contraction would exceed the work limit."""

    def __init__(self, needed: int, limit: int):
        super().__init__(
            f"exact pattern contraction needs {needed} multiply-adds "
            f"(limit {limit}); use density_mc or raise work_limit"
        )
        self.needed = needed
        self.limit = limit


def _contract(pattern: Graph, measures: np.ndarray, weights: np.ndarray, work_limit: int):
    """Sum over maps phi: V(pattern) -> blocks of the product of
    measures[phi(v)] over vertices and weights[phi(u), phi(v)] over edges.

    hom_count and density_step are both this sum.  Pattern vertices are
    summed out in a greedy min-degree order, ties to the lowest vertex; a
    step's scope is the vertex plus the neighbours it leaves behind (which
    it joins), and costs k^|scope| multiply-adds on k blocks.  The plan
    costs about k^(treewidth + 1) rather than k^|V| (Diaz-Serna-Thilikos
    2002), and a step's output is at most 1/k of its cost.  Refuses with
    WorkLimitExceeded, before any array is built, when the sum of step
    costs exceeds work_limit.  One np.einsum per step in the result dtype
    of the arrays; each call labels its own scope, so only a scope, not the
    pattern, is limited to einsum's 52 labels.
    """
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    nbrs: dict[int, set[int]] = {v: set() for v in range(pattern.n)}
    for u, v in pattern.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    plan = []
    while nbrs:
        v = min(nbrs, key=lambda x: (len(nbrs[x]), x))
        rest = nbrs.pop(v)
        for u in rest:
            nbrs[u] |= rest - {u}
            nbrs[u].discard(v)
        plan.append((v, tuple(sorted(rest))))
    needed = sum(len(measures) ** (len(rest) + 1) for _, rest in plan)
    if needed > work_limit:
        raise WorkLimitExceeded(needed, work_limit)

    factors = [((v,), measures) for v in range(pattern.n)]
    factors += [(edge, weights) for edge in sorted(pattern.edges)]
    total = 1
    for v, rest in plan:
        label = {x: i for i, x in enumerate((v, *rest))}
        used = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        args = [a for scope, arr in used for a in (arr, [label[x] for x in scope])]
        out = np.einsum(*args, [label[x] for x in rest])
        if rest:
            factors.append((rest, out))
        else:
            total = total * out
    return total


def hom_count(pattern: Graph, host: Graph) -> int:
    """Number of maps V(pattern) -> V(host) sending edges to edges.

    The pattern contraction on the adjacency matrix with unit measures:
    about n^(treewidth + 1) multiply-adds, whatever the host's edge count.
    Refuses with WorkLimitExceeded past DEFAULT_WORK_LIMIT (10^8), e.g.
    a triangle on 464 host vertices or more, C4 on 369 or K5 on 40; then
    density_mc on the host's pixel graphon estimates the density instead.
    Exact: every partial sum counts maps, so it is at most n^|V(pattern)|;
    int64 is used while that bound is below 2^63 and Python integers
    (object arrays) above it.
    """
    dtype = np.int64 if host.n**pattern.n < 2**63 else object
    ones = np.ones(host.n, dtype=dtype)
    return int(_contract(pattern, ones, host.adjacency, DEFAULT_WORK_LIMIT))
