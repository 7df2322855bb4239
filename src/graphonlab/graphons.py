"""Step kernels on [0,1]^2; step graphons are those with values in [0,1].

A step kernel is a symmetric function [0,1]^2 -> [-1,1] that is constant
on the cells of a product partition of [0,1] into finitely many
half-open blocks [b_i, b_{i+1}); differences of graphons live there.
Kernel is the one step-function type: a graphon is a kernel with values
in [0,1] (Lovasz, 2012), checked on input and where a weight must be a
probability or a gray level.  Block i owns its left endpoint, so the
function is defined everywhere on [0,1)^2 and the boundary set is null.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, ParseError, _header, _rows, check_integer, check_permutation

# Tolerance for partition boundaries and measure sums throughout.
BOUNDARY_TOL = 1e-12


def _freeze(obj, name, arr):
    arr = np.array(arr, dtype=float)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Blockwise-constant symmetric function [0,1]^2 -> [-1,1]."""

    measures: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _freeze(self, "measures", self.measures)
        _freeze(self, "weights", self.weights)
        measures, weights = self.measures, self.weights
        if measures.ndim != 1 or measures.size == 0:
            raise ValueError("kernel needs at least one block")
        k = measures.size
        if not np.all(np.isfinite(measures)) or not np.all(measures > 0.0):
            raise ValueError("block measures must be positive and finite")
        if abs(float(measures.sum()) - 1.0) > BOUNDARY_TOL:
            raise ValueError(f"block measures must sum to 1, got {float(measures.sum())}")
        if weights.shape != (k, k):
            raise ValueError(f"weight matrix must be {k}x{k}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if weights.min() < -1.0 or weights.max() > 1.0:
            raise ValueError("kernel weights must lie in [-1.0, 1.0]")
        if not np.array_equal(weights, weights.T):
            raise ValueError("kernel weight matrix must be symmetric")

    @property
    def k(self) -> int:
        return self.measures.size

    @cached_property
    def boundaries(self) -> np.ndarray:
        """Right endpoints of the k blocks; the last is exactly 1."""
        cum = np.cumsum(self.measures)
        cum[-1] = 1.0
        cum.flags.writeable = False
        return cum


# ───────────────────────── evaluation ─────────────────────────


def block_indices(w, xs) -> np.ndarray:
    """Block index of each coordinate in [0,1); blocks are left-closed.

    Returns exactly np.searchsorted(w.boundaries, xs, side="right"), NaN
    refused, without a binary search per key.  [0,1) is cut into G equal
    buckets, G the smallest power of two >= 8k, so x*G is exact and its
    floor g is the key's bucket: g/G <= x < (g+1)/G.  Its block then lies
    between lo[g], the count of boundaries <= g/G, and hi[g], the count
    below (g+1)/G.  Where the two agree that is the answer; only keys in
    the at most k-1 buckets that hold a boundary (at most 1/8 of uniform
    keys, none on a dyadic equal partition) fall back to searchsorted.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size and not (xs.min() >= 0.0 and xs.max() < 1.0):
        raise ValueError("coordinates must lie in [0, 1)")
    b = w.boundaries
    grid = 1 << (8 * w.k - 1).bit_length()
    edges = np.arange(grid + 1) / grid
    lo = np.searchsorted(b, edges[:-1], side="right")
    split = lo != np.searchsorted(b, edges[1:], side="left")
    flat = xs.ravel()
    g = (flat * grid).astype(np.intp)
    idx = lo[g]
    if split.any():
        fall = split[g]
        idx[fall] = np.searchsorted(b, flat[fall], side="right")
    return idx.reshape(xs.shape)


def evaluate(w, x: float, y: float) -> float:
    """Value of the step function at (x, y), both in [0,1)."""
    i, j = block_indices(w, (x, y))
    return float(w.weights[i, j])


# ───────────────────────── constructors ─────────────────────────


def constant_graphon(c: float) -> Kernel:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"constant must lie in [0,1], got {c}")
    return Kernel(np.ones(1), np.full((1, 1), float(c)))


def pixel_graphon(graph: Graph) -> Kernel:
    """Scale the adjacency matrix of a graph onto n equal blocks.

    Block i is vertex i; cell (i, j) gets weight 1 when {i, j} is an edge
    and 0 otherwise, diagonal included.
    """
    n = graph.n
    if n == 0:
        raise ValueError("pixel graphon of the empty graph is undefined")
    return Kernel(np.full(n, 1.0 / n), graph.adjacency.astype(float))


def bipartite_limit() -> Kernel:
    """Two equal blocks, weight 1 across and 0 within."""
    return Kernel(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def uniform_attachment_limit(m: int) -> Kernel:
    """The function 1 - max(x, y) averaged over an m x m grid of equal blocks.

    Off-diagonal cell (i, j) averages to 1 - (max(i, j) + 1/2)/m and the
    diagonal cell (i, i) to 1 - (i + 2/3)/m.
    """
    m = check_integer(m, "block count m", 1)
    idx = np.arange(m, dtype=float)
    weights = 1.0 - (np.maximum(idx[:, None], idx[None, :]) + 0.5) / m
    np.fill_diagonal(weights, 1.0 - (idx + 2.0 / 3.0) / m)
    return Kernel(np.full(m, 1.0 / m), weights)


# ───────────────────────── partition algebra ─────────────────────────


def _merged_grid(w, u) -> np.ndarray:
    """Sorted union of both partitions' breakpoints, 0 and 1 included.

    Breakpoints closer than BOUNDARY_TOL are merged onto the first
    representative encountered.
    """
    raw = np.sort(np.concatenate(([0.0], w.boundaries, u.boundaries)))
    grid = [0.0]
    for b in raw[1:]:
        if b - grid[-1] > BOUNDARY_TOL:
            grid.append(float(b))
    grid[-1] = 1.0
    return np.asarray(grid)


def _lookup(src, mids: np.ndarray) -> np.ndarray:
    idx = block_indices(src, mids)
    return src.weights[np.ix_(idx, idx)]


def common_refinement(w: Kernel, u: Kernel) -> tuple[Kernel, Kernel]:
    """Re-express both step functions on the overlay of their partitions.

    Both outputs share one measure vector and are pointwise equal to their
    inputs as functions on [0,1)^2.
    """
    grid = _merged_grid(w, u)
    measures = np.diff(grid)
    mids = (grid[:-1] + grid[1:]) / 2.0
    return (
        Kernel(measures, _lookup(w, mids)),
        Kernel(measures, _lookup(u, mids)),
    )


def equalize(w: Kernel, m: int) -> Kernel:
    """Re-express w on m equal-measure blocks.

    Every boundary of w must sit on the 1/m grid (within BOUNDARY_TOL);
    otherwise the offending boundary is named in the error.
    """
    m = check_integer(m, "block count m", 1)
    for b in w.boundaries[:-1]:
        if abs(b * m - round(b * m)) > BOUNDARY_TOL * m:
            raise ValueError(
                f"block boundary {float(b)!r} is not an integer multiple of 1/{m}"
            )
    mids = (np.arange(m) + 0.5) / m
    return Kernel(np.full(m, 1.0 / m), _lookup(w, mids))


def subtract(w: Kernel, u: Kernel) -> Kernel:
    """Difference w - u as a step kernel on the common refinement."""
    wr, ur = common_refinement(w, u)
    return Kernel(wr.measures, wr.weights - ur.weights)


def permute_blocks(w: Kernel, perm) -> Kernel:
    """Relabel blocks: block j of the input becomes block perm[j] of the output.

    Matches vertex relabeling: permute_blocks(pixel_graphon(G), perm) equals
    pixel_graphon(relabel(G, perm)) when all blocks have equal measure.
    """
    inv = np.argsort(check_permutation(perm, w.k, "k"))
    return Kernel(w.measures[inv], w.weights[np.ix_(inv, inv)])


# ───────────────────────── rendering ─────────────────────────


def render_pgm(w, px: int) -> bytes:
    """Binary PGM (P5, maxval 255) pixel picture of a step function.

    Pixel row r, column c samples the function at x = (c + 1/2)/px,
    y = (r + 1/2)/px with the origin at the top-left, and maps weight v to
    gray round(255 * (1 - v)), halves rounded away from zero, so weight 1
    is black.  Weights outside [0, 1] have no gray and are refused.
    """
    px = check_integer(px, "image size px", 1)
    if w.weights.min() < 0.0 or w.weights.max() > 1.0:
        raise ValueError("only weights in [0, 1] can be rendered")
    vals = _lookup(w, (np.arange(px) + 0.5) / px)
    gray = np.floor(255.0 * (1.0 - vals) + 0.5).astype(np.uint8)
    header = f"P5\n{px} {px}\n255\n".encode("ascii")
    return header + gray.tobytes()


# ───────────────────────── text format ─────────────────────────
#
# Line 1: block count k.  Line 2: k block measures.  Then k rows of k
# weights.  Symmetry and the measure sum are validated on load.


def parse_graphon(text: str) -> Kernel:
    lines = text.splitlines()
    (k,) = _header(lines, "k", 1)
    values, linenos = _rows(lines, k + 1, k, float)
    weights = values[1:]
    outside = ~((weights >= 0.0) & (weights <= 1.0)).all(axis=1)  # NaN too
    if outside.any():
        raise ParseError(int(linenos[1 + outside.argmax()]), "weights must lie in [0, 1]")
    gap = np.abs(weights - weights.T)
    if gap.max() > BOUNDARY_TOL:
        i, j = np.unravel_index(int(gap.argmax()), gap.shape)
        raise ParseError(
            int(linenos[1 + max(i, j)]),
            f"weight rows {min(i, j)} and {max(i, j)} disagree: not symmetric",
        )
    weights = np.triu(weights) + np.triu(weights, 1).T  # exact symmetry
    try:
        return Kernel(values[0], weights)
    except ValueError as exc:
        raise ParseError(int(linenos[0]), str(exc)) from None


def serialize_graphon(w: Kernel) -> str:
    lines = [str(w.k), " ".join(f"{m:.17g}" for m in w.measures)]
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in w.weights)
    return "\n".join(lines) + "\n"
