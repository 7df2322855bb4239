"""Cut norm of step kernels and cut distance between step graphons.

The cut norm of a step kernel is the maximum over block subsets S, T of
|sum over S x T of weight * measure * measure|.  For blockwise-constant
kernels the measurable optimum is attained at unions of blocks, so
enumerating subsets is exact.  The distance between two graphons on a
common equal-measure partition minimizes the cut norm of the difference
over block permutations.

Exact mode enumerates 2^k subsets (refused above a threshold, default
20); the heuristic alternates optimal-T-for-S / optimal-S-for-T steps
from random starts and certifies a lower bound on the norm; cut_norm
picks between them by the threshold.  Exhaustive permutation search
runs for m <= 10 blocks; beyond that, seeded hill-climbing on pairwise
block swaps gives an upper bound on the block-permutation distance
whenever inner norms are exact (m <= the exact threshold).  With
heuristic inner norms the reported distance is an estimate, flagged
exact=False.

Every exact norm, single or in the exhaustive search, goes through one
subset-sum kernel.  The search feeds it chunks of permutations stacked
into one array, so its cost is mostly numpy work: on a 2-core Xeon
(Python 3.11, numpy 2.4, OpenBLAS) a sampled graph against its limit
took about 0.3 s at m = 8, 5 s at m = 9 and 130 s at m = 10.
m = 10 is not refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import streams
from .graphons import Kernel, StepGraphon, constant_graphon, equalize, subtract

DEFAULT_EXACT_THRESHOLD = 20
_EXHAUSTIVE_LIMIT = 10
_LO_BITS = 14
_CHUNK_DOUBLES = 1 << 15
_MAX_SWEEPS = 100
_MAX_ALTERNATIONS = 200

_subset_cache: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class CutResult:
    """A cut norm or cut distance value with its certificate.

    For norms, witness_s/witness_t are the block subsets attaining value
    (re-evaluating the box sum over them reproduces it).  For distances,
    permutation relabels the second graphon's blocks to best match the
    first: value equals the cut norm of subtract(w_m, permute_blocks(u_m,
    permutation)) on the common equal-measure grid, and the witnesses
    index that difference kernel.  When exact is False the value is a
    certified lower bound for norms, and for distances an upper bound
    provided the inner norms were exact.
    """

    value: float
    exact: bool
    witness_s: tuple[int, ...] | None = None
    witness_t: tuple[int, ...] | None = None
    permutation: tuple[int, ...] | None = None


def _subset_matrix(bits: int) -> np.ndarray:
    """All 2^bits subsets as 0/1 columns; column index bit b selects row b."""
    sm = _subset_cache.get(bits)
    if sm is None:
        idx = np.arange(1 << bits, dtype=np.uint32)
        sm = ((idx[None, :] >> np.arange(bits, dtype=np.uint32)[:, None]) & 1).astype(float)
        _subset_cache[bits] = sm
    return sm


def _box_matrix(kernel) -> np.ndarray:
    mu = kernel.measures
    return kernel.weights * np.outer(mu, mu)


def _witness_value(a: np.ndarray, s: tuple[int, ...], t: tuple[int, ...]) -> float:
    if not s or not t:
        return 0.0
    return abs(float(a[np.ix_(s, t)].sum()))


def _subset_objectives(a: np.ndarray):
    """Enumerate every row subset S of each box-weight matrix in a stack.

    a has shape (P, k, k).  The low _LO_BITS rows are enumerated at once
    through one precomputed 0/1 matrix; the remaining rows are swept in
    an outer loop, one setting hm at a time.  For each hm this yields
    (hm, pos, neg), both of shape (P, 2^lo).  Entry li is for the set S of
    low rows li plus high rows hm: pos sums its positive column sums (the
    box S x T with T the columns of positive sum) and neg negates the sum
    of its negative ones.  Column sums are laid out column-major, (k, 2^lo)
    per matrix, so both reductions are contiguous row adds; neg is taken
    as pos minus the full S-row sum.
    """
    p, k = a.shape[:2]
    lo = min(k, _LO_BITS)
    hi = k - lo
    sm = _subset_matrix(lo)
    low = a[:, :lo]
    base = (low.transpose(0, 2, 1).reshape(p * k, lo) @ sm).reshape(p, k, -1)
    base_tot = low.sum(axis=2) @ sm
    # with no high rows left, base is needed once and is clipped in place
    buf = np.empty_like(base) if hi else base
    for hm in range(1 << hi):
        src, tot = base, base_tot
        if hm:
            rows = [lo + b for b in range(hi) if hm >> b & 1]
            extra = a[:, rows].sum(axis=1)
            src = np.add(base, extra[:, :, None], out=buf)
            tot = base_tot + extra.sum(axis=1)[:, None]
        pos = np.maximum(src, 0.0, out=buf).sum(axis=1)
        yield hm, pos, pos - tot


def _exact_cut_norms(a: np.ndarray) -> np.ndarray:
    """Exact cut norm of each box-weight matrix in a (P, k, k) stack."""
    best = np.zeros(a.shape[0])
    for _, pos, neg in _subset_objectives(a):
        np.maximum(best, pos.max(axis=1), out=best)
        np.maximum(best, neg.max(axis=1), out=best)
    return best


def _exact_witness(a: np.ndarray):
    """Exact cut norm of one box-weight matrix with its witness boxes.

    Scans pos before neg for each hm, keeping the first argmax that is
    strictly better; the best T for the chosen S takes every column whose
    S-column-sum has the chosen sign.  The value is re-evaluated on the
    witness box.  Returns (value, S, T).
    """
    lo = min(a.shape[0], _LO_BITS)
    hi = a.shape[0] - lo
    best_val, best_hm, best_li, best_sign = 0.0, 0, 0, 1.0
    for hm, pos, neg in _subset_objectives(a[None]):
        i = int(pos[0].argmax())
        if pos[0, i] > best_val:
            best_val, best_hm, best_li, best_sign = float(pos[0, i]), hm, i, 1.0
        j = int(neg[0].argmax())
        if neg[0, j] > best_val:
            best_val, best_hm, best_li, best_sign = float(neg[0, j]), hm, j, -1.0
    s = tuple(b for b in range(lo) if best_li >> b & 1) + tuple(
        lo + b for b in range(hi) if best_hm >> b & 1
    )
    if s:
        col = a[list(s)].sum(axis=0)
        t = tuple(int(j) for j in np.flatnonzero(best_sign * col > 0.0))
    else:
        t = ()
    return _witness_value(a, s, t), s, t


def _alternating_max(a: np.ndarray, restarts: int, rng: np.random.Generator):
    """Heuristic cut norm: alternate optimal T for S and optimal S for T.

    Each restart draws a random S; both sign objectives are climbed to a
    fixed point.  Every (S, T) visited is feasible, so the best value is a
    certified lower bound on the exact norm.  Returns (value, S, T).
    """
    k = a.shape[0]
    best_val = 0.0
    best_s: tuple[int, ...] = ()
    best_t: tuple[int, ...] = ()
    for _ in range(restarts):
        s0 = (rng.random(k) < 0.5).astype(float)
        for mat in (a, -a):
            s = s0
            for _ in range(_MAX_ALTERNATIONS):
                t = (s @ mat > 0.0).astype(float)
                s_next = (mat @ t > 0.0).astype(float)
                if np.array_equal(s_next, s):
                    break
                s = s_next
            s_idx = tuple(int(i) for i in np.flatnonzero(s))
            t_idx = tuple(int(j) for j in np.flatnonzero(s @ mat > 0.0))
            val = _witness_value(a, s_idx, t_idx)
            if val > best_val:
                best_val, best_s, best_t = val, s_idx, t_idx
    return best_val, best_s, best_t


def cut_norm(
    kernel: Kernel,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    restarts: int = 20,
    seed: int = 0,
) -> CutResult:
    """Cut norm of a step kernel (a graphon is one).

    Exact (cut_norm_exact) when the kernel has at most exact_threshold
    blocks, otherwise the certified lower bound of cut_norm_heuristic,
    flagged exact=False.
    """
    if kernel.k <= exact_threshold:
        return cut_norm_exact(kernel, exact_threshold)
    return cut_norm_heuristic(kernel, restarts, seed)


def cut_norm_exact(kernel: Kernel, threshold: int = DEFAULT_EXACT_THRESHOLD) -> CutResult:
    """Exact cut norm of a step kernel (or graphon treated as one).

    Refuses kernels with more than `threshold` blocks (default 20, the
    2^k enumeration limit); use cut_norm_heuristic beyond it.
    """
    if kernel.k > threshold:
        raise ValueError(
            f"exact cut norm enumerates 2^{kernel.k} subsets, above the "
            f"threshold {threshold}; use cut_norm_heuristic"
        )
    value, s, t = _exact_witness(_box_matrix(kernel))
    return CutResult(value, True, s, t)


def cut_norm_heuristic(kernel: Kernel, restarts: int = 20, seed: int = 0) -> CutResult:
    """Certified lower bound on the cut norm by alternating maximization."""
    if restarts < 1:
        raise ValueError("need at least one restart")
    rng = streams.substream(seed, streams.CUT_HEURISTIC)
    value, s, t = _alternating_max(_box_matrix(kernel), restarts, rng)
    return CutResult(value, False, s, t)


# ───────────────────────── distances ─────────────────────────


def cut_distance(
    w: StepGraphon,
    u: StepGraphon,
    resolution: int,
    budget: int = 8,
    restarts: int = 20,
    seed: int = 0,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
) -> CutResult:
    """Cut distance between two graphons over block permutations.

    Both graphons are re-expressed on `resolution` equal-measure blocks
    (an error names any boundary off that grid).  The value is the
    minimum over permutations pi of

        cut_norm(subtract(equalize(w, m), permute_blocks(equalize(u, m), pi)))

    and the returned permutation/witness pair reproduces it through
    exactly that expression.  All m! permutations are tried when
    m <= 10, otherwise hill-climbing on pairwise block swaps runs from
    `budget` starts: the identity alignment first (sampled graphs are
    label-sorted, so it is usually near-optimal), then budget - 1
    seeded random permutations, each scanning swaps in seeded order
    until a patience cap of 4m non-improving candidates.  Value ties
    break toward the lexicographically smaller permutation (except that
    the search stops at the first perfect alignment).  exact=True marks
    exhaustive search with exact inner norms.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    m = resolution
    ww = equalize(w, m).weights
    uw = equalize(u, m).weights
    scale = 1.0 / (m * m)
    inner_exact = m <= exact_threshold

    # the search walks sig = pi^-1: relabeling u's blocks by pi compares
    # ww[a, b] against uw[sig[a], sig[b]], and gathering by sig is the
    # cheap inner operation.  The inverse is taken only when reporting.
    def norm_value(sig) -> float:
        # keyed by the permutation itself, so this is a fixed deterministic
        # objective regardless of visiting order
        a = (ww - uw[np.ix_(sig, sig)]) * scale
        if inner_exact:
            return float(_exact_cut_norms(a[None])[0])
        rng = streams.substream(seed, streams.CUT_EVAL, *sig)
        return _alternating_max(a, restarts, rng)[0]

    def reported(sig) -> tuple[int, ...]:
        return tuple(int(x) for x in np.argsort(sig))

    best_val = np.inf
    best_sig: tuple[int, ...] | None = None
    best_report: tuple[int, ...] | None = None

    def consider(val: float, sig) -> None:
        nonlocal best_val, best_sig, best_report
        if val > best_val:
            return
        rep = reported(sig)
        if val < best_val or rep < best_report:
            best_val, best_sig, best_report = val, tuple(sig), rep

    if m <= _EXHAUSTIVE_LIMIT:
        # exact norms are evaluated a chunk of permutations at a time, the
        # chunk sized so its (P, m, 2^m) column sums stay cache-resident;
        # heuristic norms draw one stream per permutation, so go singly
        perms = itertools.permutations(range(m))
        chunk = max(1, _CHUNK_DOUBLES // (m << m)) if inner_exact else 1
        while best_val != 0.0:
            block = list(itertools.islice(perms, chunk))
            if not block:
                break
            if inner_exact:
                sigs = np.array(block, dtype=np.intp)
                vals = _exact_cut_norms(
                    (ww[None] - uw[sigs[:, :, None], sigs[:, None, :]]) * scale
                )
            else:
                vals = np.array([norm_value(sig) for sig in block])
            # best_val only falls, so a value above it now never counts;
            # the rest are taken in enumeration order, stopping at a zero
            for i in np.flatnonzero(vals <= best_val):
                consider(float(vals[i]), block[i])
                if best_val == 0.0:
                    break
        exact = inner_exact
    else:
        pair_list = list(itertools.combinations(range(m), 2))
        for start in range(budget):
            rng = streams.substream(seed, streams.CUT_DISTANCE, start)
            # identity first: sample labels are sorted, so it is usually
            # close to the right alignment already
            if start == 0:
                sig = list(range(m))
            else:
                sig = [int(x) for x in rng.permutation(m)]
            val = norm_value(sig)
            patience = 4 * m
            calm = 0
            for _ in range(_MAX_SWEEPS):
                improved = False
                order = rng.permutation(len(pair_list))
                for idx in order:
                    if val == 0.0 or calm >= patience:
                        break
                    i, j = pair_list[idx]
                    sig[i], sig[j] = sig[j], sig[i]
                    cand = norm_value(sig)
                    if cand < val:
                        val = cand
                        improved = True
                        calm = 0
                    else:
                        sig[i], sig[j] = sig[j], sig[i]
                        calm += 1
                if not improved or val == 0.0 or calm >= patience:
                    break
            consider(val, sig)
            if best_val == 0.0:
                break
        exact = False

    # re-derive the witness at the chosen alignment; the per-permutation
    # stream makes this reproduce the tracked value
    a = (ww - uw[np.ix_(best_sig, best_sig)]) * scale
    if inner_exact:
        value, s, t = _exact_witness(a)
    else:
        value, s, t = _alternating_max(
            a, restarts, streams.substream(seed, streams.CUT_EVAL, *best_sig)
        )
    return CutResult(value, exact, s, t, best_report)


def distance_to_constant(
    w: StepGraphon,
    c: float,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    restarts: int = 20,
    seed: int = 0,
) -> CutResult:
    """Cut distance from a graphon to the constant-c graphon.

    Every block permutation leaves a constant graphon fixed, so no
    alignment search is needed: this is cut_norm of w - c.
    """
    return cut_norm(subtract(w, constant_graphon(c)), exact_threshold, restarts, seed)
