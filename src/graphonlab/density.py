"""Homomorphism densities of small patterns in graphs and step graphons.

density_graph counts maps exactly; density_step integrates a pattern
against a step graphon by the same pattern contraction that hom_count
runs on an adjacency matrix; density_mc is the seeded Monte Carlo
fallback for when that contraction is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .graphs import DEFAULT_WORK_LIMIT, Graph, _contract, hom_count
from .graphons import StepGraphon, block_indices

_MC_SHARD = 1 << 16


@dataclass(frozen=True)
class DensityEstimate:
    """A homomorphism density value plus how it was obtained.

    method is "exact" or "monte-carlo"; samples is 0 for exact results;
    std_error is 0 for exact results and for degenerate (zero-variance)
    Monte Carlo runs.
    """

    value: float
    method: str
    samples: int = 0
    std_error: float = 0.0


def density_graph(
    pattern: Graph, host: Graph, work_limit: int = DEFAULT_WORK_LIMIT
) -> DensityEstimate:
    """t(pattern, host) = hom(pattern, host) / |V(host)|^|V(pattern)|, exact.

    Refuses with WorkLimitExceeded as hom_count does past work_limit.
    """
    if host.n == 0:
        raise ValueError("host graph must have at least one vertex")
    hom = hom_count(pattern, host, work_limit)
    # Python ints keep both sides exact; the division rounds once.
    return DensityEstimate(hom / host.n**pattern.n, "exact")


def density_step(pattern: Graph, w, work_limit: int = DEFAULT_WORK_LIMIT) -> DensityEstimate:
    """Exact density of a pattern in a step graphon or step kernel.

    Sums measure products times edge-weight products over all block maps
    by eliminating one pattern vertex at a time in a fixed greedy
    min-degree order.  That costs the sum of k^|scope| multiply-adds over
    the eliminations, about k^(treewidth + 1) rather than k^|V|.  Refuses
    with WorkLimitExceeded when that count exceeds work_limit (default
    10^8).  A graphon's density is clamped to [0, 1] against rounding; a
    kernel's may be negative and is returned as summed.
    """
    total = float(_contract(pattern, w.measures, w.weights, work_limit))
    if isinstance(w, StepGraphon):
        total = min(max(total, 0.0), 1.0)
    return DensityEstimate(total, "exact")


def density_mc(pattern: Graph, w, samples: int, seed: int) -> DensityEstimate:
    """Unbiased Monte Carlo estimate of a pattern density in a step graphon.

    Each sample draws one uniform coordinate per pattern vertex and takes
    the product of edge weights.  Samples are generated in fixed-size
    shards; shard i uses the stream keyed by (seed, MONTE_CARLO, i) and
    shards are combined in index order, so the estimate is identical no
    matter how shards are scheduled.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    h = pattern.n
    if h < 1:
        raise ValueError("pattern graph must have at least one vertex")
    edges = sorted(pattern.edges)
    weights = w.weights
    chunks = []
    for shard, start in enumerate(range(0, samples, _MC_SHARD)):
        count = min(_MC_SHARD, samples - start)
        rng = streams.substream(seed, streams.MONTE_CARLO, shard)
        coords = rng.random((count, h))
        idx = block_indices(w, coords)
        vals = np.ones(count)
        for u, v in edges:
            vals *= weights[idx[:, u], idx[:, v]]
        chunks.append(vals)
    vals = np.concatenate(chunks)
    if vals.min() == vals.max():
        # zero-variance integrand: the estimate is exact
        return DensityEstimate(float(vals[0]), "monte-carlo", samples, 0.0)
    mean = float(vals.mean())
    std_error = float(vals.std(ddof=1)) / math.sqrt(samples)
    return DensityEstimate(mean, "monte-carlo", samples, std_error)
