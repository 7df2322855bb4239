"""Step kernels and step graphons on [0,1]^2.

A step kernel is a symmetric function [0,1]^2 -> [-1,1] that is constant
on the cells of a product partition of [0,1] into finitely many
half-open blocks [b_i, b_{i+1}); differences of graphons live there.  A
step graphon is a step kernel with values in [0,1] (Lovasz, Large
Networks and Graph Limits, 2012), so StepGraphon subclasses Kernel and
only narrows the weight range.  Block i owns its left endpoint, so the
function is defined everywhere on [0,1)^2 and the boundary set is null.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, ParseError

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

    # lowest admitted weight and the name used in errors; StepGraphon narrows both
    _lo = -1.0
    _what = "kernel"

    def __post_init__(self):
        _freeze(self, "measures", self.measures)
        _freeze(self, "weights", self.weights)
        measures, weights, lo, what = self.measures, self.weights, self._lo, self._what
        if measures.ndim != 1 or measures.size == 0:
            raise ValueError(f"{what} needs at least one block")
        k = measures.size
        if not np.all(np.isfinite(measures)) or not np.all(measures > 0.0):
            raise ValueError("block measures must be positive and finite")
        if abs(float(measures.sum()) - 1.0) > BOUNDARY_TOL:
            raise ValueError(f"block measures must sum to 1, got {measures.sum()!r}")
        if weights.shape != (k, k):
            raise ValueError(f"weight matrix must be {k}x{k}, got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if weights.min(initial=lo) < lo or weights.max(initial=1.0) > 1.0:
            raise ValueError(f"{what} weights must lie in [{lo}, 1.0]")
        if not np.array_equal(weights, weights.T):
            raise ValueError(f"{what} weight matrix must be symmetric")

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


class StepGraphon(Kernel):
    """Blockwise-constant symmetric function [0,1]^2 -> [0,1]: a kernel
    whose weights are never negative."""

    _lo = 0.0
    _what = "graphon"


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
    fall = split[g]
    idx[fall] = np.searchsorted(b, flat[fall], side="right")
    return idx.reshape(xs.shape)


def evaluate(w, x: float, y: float) -> float:
    """Value of the step function at (x, y), both in [0,1)."""
    i, j = block_indices(w, (x, y))
    return float(w.weights[i, j])


# ───────────────────────── constructors ─────────────────────────


def constant_graphon(c: float) -> StepGraphon:
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"constant must lie in [0,1], got {c}")
    return StepGraphon(np.ones(1), np.full((1, 1), float(c)))


def pixel_graphon(graph: Graph) -> StepGraphon:
    """Scale the adjacency matrix of a graph onto n equal blocks.

    Block i is vertex i; cell (i, j) gets weight 1 when {i, j} is an edge
    and 0 otherwise, diagonal included.
    """
    n = graph.n
    if n == 0:
        raise ValueError("pixel graphon of the empty graph is undefined")
    return StepGraphon(np.full(n, 1.0 / n), graph.adjacency.astype(float))


def bipartite_limit() -> StepGraphon:
    """Two equal blocks, weight 1 across and 0 within."""
    return StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def uniform_attachment_limit(m: int) -> StepGraphon:
    """The function 1 - max(x, y) averaged over an m x m grid of equal blocks.

    Off-diagonal cell (i, j) averages to 1 - (max(i, j) + 1/2)/m and the
    diagonal cell (i, i) to 1 - (i + 2/3)/m.
    """
    if m < 1:
        raise ValueError("block count must be at least 1")
    idx = np.arange(m, dtype=float)
    weights = 1.0 - (np.maximum(idx[:, None], idx[None, :]) + 0.5) / m
    np.fill_diagonal(weights, 1.0 - (idx + 2.0 / 3.0) / m)
    return StepGraphon(np.full(m, 1.0 / m), weights)


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

    Both outputs share one measure vector, keep their input's type and are
    pointwise equal to their inputs as functions on [0,1)^2.
    """
    grid = _merged_grid(w, u)
    measures = np.diff(grid)
    mids = (grid[:-1] + grid[1:]) / 2.0
    return (
        type(w)(measures, _lookup(w, mids)),
        type(u)(measures, _lookup(u, mids)),
    )


def equalize(w: Kernel, m: int) -> Kernel:
    """Re-express w on m equal-measure blocks, keeping its type.

    Every boundary of w must sit on the 1/m grid (within BOUNDARY_TOL);
    otherwise the offending boundary is named in the error.
    """
    if m < 1:
        raise ValueError("block count must be at least 1")
    for b in w.boundaries[:-1]:
        if abs(b * m - round(b * m)) > BOUNDARY_TOL * m:
            raise ValueError(
                f"block boundary {float(b)!r} is not an integer multiple of 1/{m}"
            )
    mids = (np.arange(m) + 0.5) / m
    return type(w)(np.full(m, 1.0 / m), _lookup(w, mids))


def subtract(w: Kernel, u: Kernel) -> Kernel:
    """Difference w - u as a step kernel on the common refinement."""
    wr, ur = common_refinement(w, u)
    return Kernel(wr.measures, wr.weights - ur.weights)


def permute_blocks(w: Kernel, perm) -> Kernel:
    """Relabel blocks: block j of the input becomes block perm[j] of the output.

    Matches vertex relabeling: permute_blocks(pixel_graphon(G), perm) equals
    pixel_graphon(relabel(G, perm)) when all blocks have equal measure.
    """
    if sorted(perm) != list(range(w.k)):
        raise ValueError("perm is not a bijection on 0..k-1")
    inv = np.argsort(np.asarray(perm))
    return type(w)(w.measures[inv], w.weights[np.ix_(inv, inv)])


# ───────────────────────── rendering ─────────────────────────


def render_pgm(w, px: int) -> bytes:
    """Binary PGM (P5, maxval 255) pixel picture of a step function.

    Pixel row r, column c samples the function at x = (c + 1/2)/px,
    y = (r + 1/2)/px with the origin at the top-left, and maps weight v to
    gray round(255 * (1 - v)), halves rounded away from zero, so weight 1
    is black.  Weights outside [0, 1] have no gray and are refused.
    """
    if px < 1:
        raise ValueError("image size must be at least 1 pixel")
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


def parse_graphon(text: str) -> StepGraphon:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing block count")
    try:
        k = int(lines[0].split()[0])
    except ValueError:
        raise ParseError(1, f"expected an integer block count, got {lines[0]!r}") from None
    if k < 1 or len(lines[0].split()) != 1:
        raise ParseError(1, "block count must be a single positive integer")
    body = [(i + 2, raw) for i, raw in enumerate(lines[1:]) if raw.strip()]
    if len(body) != k + 1:
        raise ParseError(len(lines) + 1, f"expected {k + 1} data lines, found {len(body)}")

    def floats(lineno: int, raw: str, want: int) -> np.ndarray:
        parts = raw.split()
        if len(parts) != want:
            raise ParseError(lineno, f"expected {want} numbers, got {len(parts)}")
        try:
            out = np.array([float(p) for p in parts])
        except ValueError:
            raise ParseError(lineno, f"non-numeric entry in {raw!r}") from None
        if not np.all(np.isfinite(out)):
            raise ParseError(lineno, "entries must be finite")
        return out

    measures = floats(body[0][0], body[0][1], k)
    rows = []
    for lineno, raw in body[1:]:
        row = floats(lineno, raw, k)
        if row.min() < 0.0 or row.max() > 1.0:
            raise ParseError(lineno, "weights must lie in [0, 1]")
        rows.append(row)
    weights = np.vstack(rows)
    gap = np.abs(weights - weights.T)
    if gap.max() > BOUNDARY_TOL:
        i, j = np.unravel_index(int(gap.argmax()), gap.shape)
        raise ParseError(
            body[1 + max(i, j)][0],
            f"weight rows {min(i, j)} and {max(i, j)} disagree: not symmetric",
        )
    weights = np.triu(weights) + np.triu(weights, 1).T  # exact symmetry
    try:
        return StepGraphon(measures, weights)
    except ValueError as exc:
        raise ParseError(body[0][0], str(exc)) from None


def serialize_graphon(w: StepGraphon) -> str:
    lines = [str(w.k), " ".join(f"{m:.17g}" for m in w.measures)]
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in w.weights)
    return "\n".join(lines) + "\n"
