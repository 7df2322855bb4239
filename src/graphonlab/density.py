"""Homomorphism densities of small patterns in graphs and step graphons.

density_graph counts maps exactly; density_step integrates a pattern
against a step graphon by enumerating every block map; density_mc is the
seeded Monte Carlo fallback for when that enumeration is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .graphs import Graph, hom_count
from .graphons import StepGraphon, block_indices

DEFAULT_WORK_LIMIT = 10**8
_CHUNK = 1 << 15
_MC_SHARD = 1 << 16


class WorkLimitExceeded(RuntimeError):
    """Exact enumeration would exceed the work limit; use density_mc."""

    def __init__(self, needed: int, limit: int):
        super().__init__(
            f"exact block enumeration needs ~{needed} weight multiplications "
            f"(limit {limit}); use density_mc or raise work_limit"
        )
        self.needed = needed
        self.limit = limit


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


def _pattern_edges(pattern: Graph) -> list[tuple[int, int]]:
    if pattern.n < 1:
        raise ValueError("pattern graph must have at least one vertex")
    return sorted(pattern.edges)


def density_graph(pattern: Graph, host: Graph) -> DensityEstimate:
    """t(pattern, host) = hom(pattern, host) / |V(host)|^|V(pattern)|, exact."""
    if host.n == 0:
        raise ValueError("host graph must have at least one vertex")
    hom = hom_count(pattern, host)
    # Python ints keep both sides exact; the division rounds once.
    return DensityEstimate(hom / host.n**pattern.n, "exact")


def density_step(pattern: Graph, w, work_limit: int = DEFAULT_WORK_LIMIT) -> DensityEstimate:
    """Exact density of a pattern in a step graphon or step kernel.

    Enumerates all k^|V| block maps in fixed odometer order, in chunks, and
    sums measure products times edge-weight products.  A graphon's density
    is clamped to [0, 1] against rounding; a kernel's may be negative and
    is returned as summed.  Refuses with WorkLimitExceeded when the
    estimated multiplication count exceeds work_limit (default 10^8).
    """
    edges = _pattern_edges(pattern)
    h = pattern.n
    k = w.k
    total_maps = k**h
    needed = total_maps * (h + len(edges))
    if needed > work_limit:
        raise WorkLimitExceeded(needed, work_limit)

    measures = w.measures
    weights = w.weights
    shape = (k,) * h
    total = 0.0
    for start in range(0, total_maps, _CHUNK):
        stop = min(start + _CHUNK, total_maps)
        digits = np.unravel_index(np.arange(start, stop), shape)
        vals = measures[digits[0]].copy()
        for v in range(1, h):
            vals *= measures[digits[v]]
        for u, v in edges:
            vals *= weights[digits[u], digits[v]]
        total += float(vals.sum())
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
    edges = _pattern_edges(pattern)
    h = pattern.n
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
