"""Shared oracles and generators for the test suite.

The oracles here are deliberately naive (full enumeration, no pruning) so
they are easy to audit by eye. Production code is checked against them on
inputs small enough that the naive cost is irrelevant.
"""

import itertools

import numpy as np

from graphonlab import Graph, Kernel, cutmetric, equalize, streams
from graphonlab.cutmetric import CutResult


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "one_blas_thread: output that must not depend on the BLAS thread count; "
        "CI reruns these at OPENBLAS_NUM_THREADS=1",
    )


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
    return Graph(n, (e for e, hit in zip(pairs, hits) if hit))


def all_graphs(n: int):
    """Every labeled graph on n vertices, one per edge subset."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, (e for i, e in enumerate(pairs) if mask >> i & 1))


def random_measures(rng: np.random.Generator, k: int) -> np.ndarray:
    raw = rng.random(k) + 0.05
    return raw / raw.sum()


def random_step_graphon(rng: np.random.Generator, k: int) -> Kernel:
    w = rng.random((k, k))
    w = (w + w.T) / 2
    return Kernel(random_measures(rng, k), w)


def random_kernel(rng: np.random.Generator, k: int) -> Kernel:
    w = rng.uniform(-1.0, 1.0, (k, k))
    w = (w + w.T) / 2
    return Kernel(random_measures(rng, k), w)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    return Graph(g.n + h.n, list(g.edges) + shifted)


def interleave_labeling(n: int) -> list[int]:
    """Relabeling that maps the block labeling of K_{n,n} to the alternating one."""
    perm = [0] * (2 * n)
    for i in range(n):
        perm[i] = 2 * i
        perm[n + i] = 2 * i + 1
    return perm


def serial_alternating_max(a: np.ndarray, restarts: int, rng: np.random.Generator):
    """The alternating-maximization heuristic climbed one vector at a time.

    Each restart draws a random S, climbed under both sign objectives by
    serial_climb; the first strictly best box in (restart, sign) order
    wins.  Returns (value, S, T).  The library's lockstep climb must give
    exactly this.
    """
    starts = np.repeat(rng.random((restarts, a.shape[0])) < 0.5, 2, axis=0)
    return serial_climb(a, starts, np.array([1.0, -1.0] * restarts))


def serial_climb(a: np.ndarray, starts: np.ndarray, signs: np.ndarray):
    """Alternating maximization from given starts, one vector at a time.

    Climb r starts from the 0/1 row set starts[r] and maximizes signs[r]
    times the box sum to a fixed point with vector-matrix products; the
    first strictly best box in start order wins.  Returns (value, S, T).
    """
    best_val = 0.0
    best_s: tuple[int, ...] = ()
    best_t: tuple[int, ...] = ()
    for s0, sign in zip(starts, signs):
        mat = sign * a
        s = np.asarray(s0, dtype=float)
        for _ in range(cutmetric._MAX_ALTERNATIONS):
            t = (s @ mat > 0.0).astype(float)
            s_next = (mat @ t > 0.0).astype(float)
            if np.array_equal(s_next, s):
                break
            s = s_next
        s_idx = tuple(int(i) for i in np.flatnonzero(s))
        t_idx = tuple(int(j) for j in np.flatnonzero(s @ mat > 0.0))
        val = abs(float(a[np.ix_(s_idx, t_idx)].sum())) if s_idx and t_idx else 0.0
        if val > best_val:
            best_val, best_s, best_t = val, s_idx, t_idx
    return best_val, best_s, best_t


def serial_hill_climb(
    w, u, m: int, budget: int, restarts: int, seed: int, exact: bool = False
) -> CutResult:
    """cut_distance's hill-climb, one swap at a time.

    Each start (the identity, then seeded random alignments) tries the
    pairwise swaps of each sweep in seeded order, scores each alone, keeps
    it if it scores strictly lower, and gives up after 4m swaps in a row
    that do not.  A swap is scored by its own serial_alternating_max, or
    with exact=True by the exact kernel on that one matrix (the witness
    then comes from _exact_witness).  The lowest value wins, ties going
    to the smaller permutation, and a zero ends the search.  Streams are
    seeded from the raw (seed, tag, *key) list.  The library's climb,
    which drops a swap once a box it reaches proves the swap above the
    current value, must give exactly this.
    """
    ww = equalize(w, m).weights
    uw = equalize(u, m).weights

    def diff(sig):
        return (ww - uw[np.ix_(sig, sig)]) * (1.0 / (m * m))

    def witness(sig):
        if exact:
            return cutmetric._exact_witness(diff(sig))
        rng = np.random.default_rng([seed, streams.CUT_EVAL, *sig])
        return serial_alternating_max(diff(sig), restarts, rng)

    def norm(sig):
        if exact:
            return float(cutmetric._exact_cut_norms(diff(sig)[None])[0][0])
        return witness(sig)[0]

    pairs = list(itertools.combinations(range(m), 2))
    best = (np.inf, (), ())
    for start in range(budget):
        rng = np.random.default_rng([seed, streams.CUT_DISTANCE, start])
        sig = list(range(m)) if start == 0 else [int(x) for x in rng.permutation(m)]
        val = norm(sig)
        calm = 0
        for _ in range(cutmetric._MAX_SWEEPS):
            for idx in rng.permutation(len(pairs)):
                if val == 0.0 or calm >= 4 * m:
                    break
                i, j = pairs[idx]
                sig[i], sig[j] = sig[j], sig[i]
                cand = norm(sig)
                if cand < val:
                    val, calm = cand, 0
                else:
                    sig[i], sig[j] = sig[j], sig[i]
                    calm += 1
            if val == 0.0 or calm >= 4 * m:
                break
        best = min(best, (val, tuple(int(x) for x in np.argsort(sig)), tuple(sig)))
        if val == 0.0:
            break
    _, perm, sig = best
    value, s, t = witness(list(sig))
    return CutResult(value, False, s, t, perm)
