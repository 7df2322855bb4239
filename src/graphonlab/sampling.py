"""Random graph models: W-random graphs, Erdos-Renyi, uniform attachment.

Each model consumes its own derived PCG64 stream (see streams.py), with a
documented draw order, so a (model, parameters, seed) triple pins the
output graph exactly.
"""

from __future__ import annotations

import numpy as np

from . import streams
from .graphs import Graph, check_integer
from .graphons import Kernel, block_indices


def w_random_graph(w: Kernel, n: int, seed: int) -> Graph:
    """Sample an n-vertex graph from a step graphon.

    Draw order: n uniform sample points first, which are then sorted so
    vertex labels follow the [0,1] order; then one uniform per pair
    (i, j), i < j, in lexicographic order, each compared against
    w(s_i, s_j).  Sorting makes the pixel picture of the sample line up
    with the graphon without any relabeling search.
    """
    n = check_integer(n, "sample size n", 1)
    if w.weights.min() < 0.0 or w.weights.max() > 1.0:
        raise ValueError("only weights in [0, 1] are edge probabilities")
    rng = streams.substream(seed, streams.W_RANDOM)
    points = np.sort(rng.random(n))
    idx = block_indices(w, points)
    iu, iv = np.triu_indices(n, 1)
    probs = w.weights[idx[iu], idx[iv]]
    hit = rng.random(probs.size) < probs
    return Graph(n, np.column_stack((iu[hit], iv[hit])))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): one uniform per pair (i, j), i < j, in lexicographic order."""
    n = check_integer(n, "sample size n", 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    return _gnp(n, p, streams.substream(seed, streams.ERDOS_RENYI))


def _gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    """erdos_renyi's draws on a given stream, with no argument checks."""
    iu, iv = np.triu_indices(n, 1)
    hit = rng.random(iu.size) < p
    return Graph(n, np.column_stack((iu[hit], iv[hit])))


def uniform_attachment(n: int, seed: int) -> Graph:
    """Growing uniform attachment graph on n vertices.

    Starts from a single vertex.  Step t (t = 2..n) first adds vertex
    t-1, then sweeps once over every pair that was non-adjacent at the
    start of the step, in lexicographic order, joining each independently
    with probability 1/t.
    """
    n = check_integer(n, "graph size n", 1)
    rng = streams.substream(seed, streams.UNIFORM_ATTACHMENT)
    adj = np.zeros((n, n), dtype=bool)  # upper triangle only: all the sweep reads
    for t in range(2, n + 1):
        iu, iv = np.nonzero(np.triu(~adj[:t, :t], 1))  # open pairs, lexicographic
        hit = rng.random(iu.size) < 1.0 / t
        adj[iu[hit], iv[hit]] = True
    return Graph(n, np.argwhere(adj))


def _check_model(model: str, p, graphon) -> None:
    # sample_graph's refusals; only whether p and graphon are None counts
    if model not in ("w-random", "erdos-renyi", "uniform-attachment"):
        raise ValueError(f"unknown model {model!r}")
    needs = (("erdos-renyi", "an edge probability p", p), ("w-random", "a graphon", graphon))
    for owner, name, value in needs:
        if (value is None) == (model == owner):
            raise ValueError(f"{owner} needs {name}" if value is None else f"only {owner} takes {name}")


def sample_graph(
    model: str, n: int, seed: int, p: float | None = None, graphon: Kernel | None = None
) -> Graph:
    """Sample from a model named "w-random" (needs graphon), "erdos-renyi"
    (needs p) or "uniform-attachment"; an unused p or graphon is refused."""
    _check_model(model, p, graphon)
    if model == "erdos-renyi":
        return erdos_renyi(n, p, seed)
    if model == "w-random":
        return w_random_graph(graphon, n, seed)
    return uniform_attachment(n, seed)
