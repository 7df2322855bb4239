"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive (full enumeration, no pruning) so
they are easy to audit by eye. Production code is checked against them on
inputs small enough that the naive cost is irrelevant.
"""

import itertools

import numpy as np

from graphonlab import Graph, Kernel, StepGraphon


def brute_force_hom(pattern: Graph, host: Graph) -> int:
    """Count adjacency-preserving maps by enumerating all n^k of them."""
    k = pattern.n
    n = host.n
    if n == 0:
        return 0
    adj = host.adjacency
    edges = list(pattern.edges)
    count = 0
    for phi in itertools.product(range(n), repeat=k):
        if all(adj[phi[u], phi[v]] for u, v in edges):
            count += 1
    return count


def brute_triangle_count(host: Graph) -> int:
    a = host.adjacency.astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def brute_cut_norm(kernel) -> float:
    """Max over all 2^k x 2^k block-set pairs of |sum over the box|."""
    k = kernel.k
    box = kernel.weights * np.outer(kernel.measures, kernel.measures)
    masks = np.arange(1 << k)
    sel = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
    vals = sel @ box @ sel.T
    return float(np.abs(vals).max())


def best_t_cut_norm(kernel) -> float:
    """Max over all 2^k block sets S of |sum over S x T| with T best for S.

    For a fixed S the best T takes every column whose S-column-sum has the
    sign being maximized, so one matrix product covers all S at once.
    """
    k = kernel.k
    box = kernel.weights * np.outer(kernel.measures, kernel.measures)
    masks = np.arange(1 << k)
    sel = ((masks[:, None] >> np.arange(k)) & 1).astype(float)
    cols = sel @ box
    pos = np.maximum(cols, 0.0).sum(axis=1).max()
    neg = -np.minimum(cols, 0.0).sum(axis=1).min()
    return float(max(pos, neg))


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    hits = rng.random(len(pairs)) < p
    return Graph.from_edges(n, (e for e, hit in zip(pairs, hits) if hit))


def all_graphs(n: int):
    """Every labeled graph on n vertices, one per edge subset."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, (e for i, e in enumerate(pairs) if mask >> i & 1)
        )


def random_measures(rng: np.random.Generator, k: int) -> np.ndarray:
    raw = rng.random(k) + 0.05
    return raw / raw.sum()


def random_step_graphon(rng: np.random.Generator, k: int) -> StepGraphon:
    w = rng.random((k, k))
    w = (w + w.T) / 2
    return StepGraphon(random_measures(rng, k), w)


def random_kernel(rng: np.random.Generator, k: int) -> Kernel:
    w = rng.uniform(-1.0, 1.0, (k, k))
    w = (w + w.T) / 2
    return Kernel(random_measures(rng, k), w)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph.from_edges(g.n + h.n, list(g.edges) + shifted)


def interleave_labeling(n: int) -> list[int]:
    """Relabeling that maps the block labeling of K_{n,n} to the alternating one."""
    perm = [0] * (2 * n)
    for i in range(n):
        perm[i] = 2 * i
        perm[n + i] = 2 * i + 1
    return perm
