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
runs for m <= 10 blocks, always with exact inner norms, and its result
is exact.  Beyond that, seeded hill-climbing on pairwise block swaps
gives an upper bound on the block-permutation distance whenever inner
norms are exact (m <= the exact threshold); with heuristic inner norms
the reported distance is only an estimate.  Either way it is flagged
exact=False.

Every exact norm, single, in the exhaustive search or in the climb, goes
through one subset-sum kernel.  Above 14 blocks it clips and sums its
column sums one 128 KB row at a time, because the whole (k, 2^14) array
(2.9 MB at k = 22) outgrows a 2 MiB L2; at one BLAS thread an exact norm
at k = 20 / 22 takes about 0.035 / 0.15 s.  A matrix's value and best
box are the same bits wherever it sits in a stack, so no result depends
on how the work is chunked.
Both permutation searches score candidates through one evaluator: a
certified O(m^2) lower bound screens a stack of permutations, skips each
whose bound exceeds the value to beat (its exact norm does too), and
feeds the kernel the survivors in order, in chunks stacked into one
array.  The exhaustive search draws its permutations as integer arrays,
one block per prefix, and beats the running best.  On a 2-core Xeon
(Python 3.11, numpy 2.4, OpenBLAS) a sampled uniform-attachment graph
against its limit takes about 0.03 s at m = 8, 0.26 s at m = 9 and
2.7-2.9 s at m = 10, nearly all of it in the screen.  The worst case is
a graphon with twin blocks, where the screen skips nothing: ua-limit:10
against bipartite at m = 10 scores all 10! = 3,628,800 permutations in
1,209,600 kernel calls of 3 and took 59-130 s in three runs on the same
box.
The hill-climb scores the next swaps speculatively, up to 8 at a time,
and takes the first whose norm is below the current value.  With exact
inner norms the evaluator scores them, one kernel call per survivor
above 10 blocks; with heuristic ones a swap is rejected by a box reached
while all their restarts climb in one stacked product per half-step.  It
takes the same steps as scoring one swap at a time.  On the same box the
two m = 24 cells of converge --kind ua at seeds 0, 1 take 0.15-0.17 s
and the N = 100 cell 2.4-2.9 s; two ER(n, 1/2) pixel graphons at
resolution n, with exact inner norms, take 0.07-0.10 / 1.1-1.5 / 26-29 s
at n = 12 / 16 / 20.  Neither m = 10 nor that climb is refused.
"""

from __future__ import annotations

import functools
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
_MAX_BATCH = 8


@dataclass(frozen=True)
class CutResult:
    """A cut norm or cut distance value with its certificate.

    For norms, witness_s/witness_t are the block subsets attaining value
    (re-evaluating the box sum over them reproduces it).  For distances,
    permutation relabels the second graphon's blocks to best match the
    first: value equals the cut norm of subtract(w_m, permute_blocks(u_m,
    permutation)) on the common equal-measure grid, and the witnesses
    index that difference kernel.  When exact is False the value is a
    certified lower bound for norms.  For distances exact=True means the
    permutation search was exhaustive; exact=False marks a hill-climb,
    whose value is an upper bound provided the inner norms were exact.
    """

    value: float
    exact: bool
    witness_s: tuple[int, ...] | None = None
    witness_t: tuple[int, ...] | None = None
    permutation: tuple[int, ...] | None = None


@functools.cache
def _subset_matrix(bits: int) -> np.ndarray:
    """All 2^bits subsets as 0/1 columns; column index bit b selects row b."""
    idx = np.arange(1 << bits, dtype=np.uint32)
    return ((idx[None, :] >> np.arange(bits, dtype=np.uint32)[:, None]) & 1).astype(float)


def _check(restarts: int, seed: int, exact_threshold: int = 0) -> None:
    if restarts < 1:
        raise ValueError("need at least one restart")
    if exact_threshold < 0:
        raise ValueError(f"exact_threshold must be at least 0, got {exact_threshold}")
    streams.check_seed(seed)


def _box_matrix(kernel) -> np.ndarray:
    mu = kernel.measures
    return kernel.weights * np.outer(mu, mu)


def _witness_value(a: np.ndarray, s: tuple[int, ...], t: tuple[int, ...]) -> float:
    return abs(float(a[np.ix_(s, t)].sum()))


def _exact_cut_norms(a: np.ndarray):
    """Exact cut norm of each box-weight matrix in a (P, k, k) stack.

    Every row subset S is enumerated, the low _LO_BITS rows at once through
    one 0/1 matrix and any others one setting hm at a time.  Entry li of
    pos, for S = low rows li plus high rows hm, sums the positive column
    sums of S (the box S x T, T the columns of positive sum); neg, pos
    minus the S-row sum, is the best box of negative sum.  Column sums are
    laid out (k, 2^lo) per matrix, so both reductions are contiguous row
    adds; with high rows the k rows are clipped and added one at a time,
    in sum(axis=1)'s order, so each pass stays in cache.  S-row totals are
    one vector-matrix product per matrix, so no bit of a result depends on
    where its matrix sits in the stack.

    Returns the values and each matrix's first best objective in (hm, pos
    before neg, li) order, coded (2 * hm + is_neg) * 2^lo + li.
    """
    p, k = a.shape[:2]
    lo = min(k, _LO_BITS)
    hi = k - lo
    sm = _subset_matrix(lo)
    low = a[:, :lo]
    base = (low.transpose(0, 2, 1).reshape(p * k, lo) @ sm).reshape(p, k, -1)
    tot = (low.sum(axis=2)[:, None] @ sm)[:, 0]
    rows = np.arange(p)
    if not hi:
        pos = np.maximum(base, 0.0, out=base).sum(axis=1)
        flat = np.concatenate((pos, pos - tot), axis=1)
        where = flat.argmax(axis=1)
        return flat[rows, where], where
    best, where = np.zeros(p), np.zeros(p, dtype=np.intp)
    flat = np.empty((p, 2 << lo))
    pos, neg, row = flat[:, : 1 << lo], flat[:, 1 << lo :], np.empty((p, 1 << lo))
    for hm in range(1 << hi):
        extra = a[:, [lo + b for b in range(hi) if hm >> b & 1]].sum(axis=1)
        pos.fill(0.0)
        for j in range(k):
            pos += np.maximum(np.add(base[:, j], extra[:, j, None], out=row), 0.0, out=row)
        np.subtract(pos, tot + extra.sum(axis=1)[:, None], out=neg)
        i = flat.argmax(axis=1)
        up = flat[rows, i] > best
        best[up] = flat[rows[up], i[up]]
        where[up] = i[up] + (hm << (lo + 1))
    return best, where


def _exact_witness(a: np.ndarray):
    """Exact cut norm of one box-weight matrix with its witness boxes.

    S is the best subset _exact_cut_norms reports; the best T for it takes
    every column whose S-column-sum has the chosen sign.  The value is
    re-evaluated on the witness box.  Returns (value, S, T).
    """
    lo = min(len(a), _LO_BITS)
    code = int(_exact_cut_norms(a[None])[1][0])
    s = tuple(b for b in range(len(a)) if code >> (b + (b >= lo)) & 1)
    sign = -1.0 if code >> lo & 1 else 1.0
    t = tuple(np.flatnonzero(sign * a[list(s)].sum(axis=0) > 0.0).tolist())
    return _witness_value(a, s, t), s, t


def _screen_bound(ww: np.ndarray, uw: np.ndarray, sigs: np.ndarray) -> np.ndarray:
    """Lower bound on the cut norm of ww - uw[sig][:, sig] for each row sig.

    The norm is that of the matrix as box weights (unit measures).  For
    each sign, S starts as the rows whose sum has that sign and takes two
    alternation steps (best T for S, best S for T); the bound is the box
    value of the last S with its best T.  Every box is feasible, so up to
    rounding each bound is at most the norm.  The matrices are never
    built: a product with one is a product with ww minus a relabeled
    product with uw, O(m^2) per permutation.
    """
    p, m = sigs.shape
    # flat positions in a (P, m) array: v.take(gather)[:, i] = v[:, sig[i]],
    # v.take(scatter)[:, sig[i]] = v[:, i]
    offset = m * np.arange(p)[:, None]
    gather = sigs + offset
    scatter = np.empty_like(sigs)
    np.put(scatter, gather, offset + np.arange(m))

    def times(v, wmat, umat):
        # v @ wmat - v @ umat[sig][:, sig] for each row v
        return v @ wmat - (v.take(scatter) @ umat).take(gather)

    rows = ww.sum(axis=1) - uw.sum(axis=1)[sigs]
    best = np.zeros(p)
    for sign in (1.0, -1.0):
        s = (sign * rows > 0.0).astype(float)
        for _ in range(2):
            t = (sign * times(s, ww, uw) > 0.0).astype(float)
            s = (sign * times(t, ww.T, uw.T) > 0.0).astype(float)
        np.maximum(best, np.maximum(sign * times(s, ww, uw), 0.0).sum(axis=1), out=best)
    return best


def _alternating_max(a: np.ndarray, restarts: int, rngs, above: float = np.inf):
    """Heuristic cut norms of a (B, k, k) stack by alternating maximization.

    Each restart draws a random S from its matrix's generator in `rngs`;
    both sign objectives alternate optimal T for S and optimal S for T to
    a fixed point (or for _MAX_ALTERNATIONS steps).  Every (S, T) visited
    is feasible, so the best value is a certified lower bound on the exact
    norm; ties go to the first climb in (restart, sign) order.  Returns one
    (value, S, T) per matrix, or None for one rejected against `above`.

    All B * 2 * restarts climbs run in lockstep, one stacked product per
    half-step, and a matrix leaves the stack when none of its climbs moves.
    Each climb gives what it gives alone with vector-matrix products: a
    k-term sum rounds by less than 4 * k * eps times its sum of magnitudes,
    at most the matching column (row) sum of |a|, so a row with an entry
    closer to zero than that is recomputed alone.
    No climb's box value falls, so once a matrix's best box after an
    alternation exceeds `above` by 2e-9 times its sum of magnitudes, far
    above any rounding, its result would too, and it is rejected there.
    """
    n, k = a.shape[:2]
    mag = np.abs(a)
    size = mag.sum(axis=(1, 2))
    lim = above + 2e-9 * size
    # rounding bounds: 4 * k * eps times the column sums of |a| for v @ a,
    # its row sums for a @ v
    eps = 4 * k * np.finfo(float).eps
    cb, rb = eps * mag.sum(axis=1)[:, None], eps * mag.sum(axis=2)[:, None]
    sign = np.array([1.0, -1.0] * restarts)[:, None]
    live = np.arange(n)
    rejected = np.zeros(n, dtype=bool)

    def best_for(v, mat, bound, lone):
        # the optimal other side for each live climb, as its 0/1 set
        # times its sign, so that v @ a is the climb's own objective
        val = v @ mat
        out = val > 0.0
        for b, i in zip(*np.nonzero((np.abs(val) < bound).any(axis=2))):
            out[b, i] = lone(np.abs(v[b, i]), a[live[b]] * sign[i]) > 0.0
        return out * sign, val

    s = np.repeat(np.array([rng.random((restarts, k)) for rng in rngs]) < 0.5, 2, axis=1) * sign
    t = np.empty_like(s)
    cur, fw, bk = s.copy(), a, a.transpose(0, 2, 1).copy()
    for _ in range(_MAX_ALTERNATIONS):
        t_next = best_for(cur, fw, cb, lambda v, mat: v @ mat)[0]
        s_next, val = best_for(t_next, bk, rb, lambda v, mat: mat @ v)
        s[live], t[live] = s_next, t_next
        # the box (s_next, t_next) is feasible and no climb loses value
        bad = np.maximum(val, 0.0).sum(axis=2).max(axis=1) > lim
        rejected[live[bad]] = True
        keep = (s_next != cur).any(axis=(1, 2)) & ~bad
        cur = s_next
        if not keep.all():
            live, cur, fw, bk, cb, rb, lim = (x[keep] for x in (live, cur, fw, bk, cb, rb, lim))
            if not live.size:
                break
    else:
        t[live] = best_for(cur, fw, cb, lambda v, mat: v @ mat)[0]
    # box values up to rounding; only the climbs near the top, each
    # distinct box once, are re-evaluated exactly as a lone climb would
    approx = np.abs(((s @ a) * t).sum(axis=2))

    def result(b):
        best, seen = (0.0, (), ()), set()
        for r in np.flatnonzero(approx[b] >= approx[b].max() - 1e-9 * size[b]):
            box = (tuple(np.flatnonzero(s[b, r]).tolist()), tuple(np.flatnonzero(t[b, r]).tolist()))
            if box not in seen:
                seen.add(box)
                val = _witness_value(a[b], *box)
                if val > best[0]:
                    best = (val, *box)
        return best

    return [None if rejected[b] else result(b) for b in range(n)]


def cut_norm(
    kernel: Kernel,
    exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
    restarts: int = 20,
    seed: int = 0,
) -> CutResult:
    """Cut norm of a step kernel (a graphon is one).

    Exact (cut_norm_exact) when the kernel has at most exact_threshold
    blocks, otherwise the certified lower bound of cut_norm_heuristic,
    flagged exact=False.  Refuses restarts < 1 in either regime and a
    negative exact_threshold.
    """
    _check(restarts, seed, exact_threshold)
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
    _check(restarts, seed)
    rng = streams.substream(seed, streams.CUT_HEURISTIC)
    value, s, t = _alternating_max(_box_matrix(kernel)[None], restarts, [rng])[0]
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
    exactly that expression.  All m! permutations are tried, with exact
    inner norms, when m <= 10; a certified lower bound first skips every
    permutation that could neither win nor tie.  Otherwise hill-climbing
    on pairwise block swaps runs from `budget` starts: the identity
    alignment first (sampled graphs are label-sorted, so it is usually
    near-optimal), then budget - 1 seeded random permutations, each
    scanning swaps in seeded order until a patience cap of 4m
    non-improving candidates.  Its inner norms are exact when m <=
    exact_threshold, so exact_threshold matters only above 10 blocks.
    Value ties break toward the lexicographically smaller permutation
    (except that the search stops at the first perfect alignment).
    Both searches share one evaluator: a certified lower bound first
    skips each permutation whose norm it proves to exceed the value to
    beat (the running best, or the climb's current value), and the rest
    get exact norms in order.  The climb scores up to 8 swaps at once,
    each as if those before it were rejected, and takes the first below
    its current value, so its result is that of scoring one swap at a
    time; with heuristic inner norms a box reached mid-climb rejects a
    swap instead (see _alternating_max).  exact=True marks the exhaustive
    search.
    """
    if budget < 1:
        raise ValueError("search budget must be at least 1")
    _check(restarts, seed, exact_threshold)
    m = resolution
    ww = equalize(w, m).weights
    uw = equalize(u, m).weights
    scale = 1.0 / (m * m)
    exact = m <= _EXHAUSTIVE_LIMIT
    inner_exact = m <= max(exact_threshold, _EXHAUSTIVE_LIMIT)
    # a scaled screen bound this far above a value proves the norm is too
    slack = 1e-9 * scale * (np.abs(ww).sum() + np.abs(uw).sum())
    # exact norms evaluated together, so their (P, m, 2^m) column sums
    # stay cache-resident; one at a time above 10 blocks
    chunk = max(1, _CHUNK_DOUBLES // (m << m))

    # the search walks sig = pi^-1: relabeling u's blocks by pi compares
    # ww[a, b] against uw[sig[a], sig[b]], and gathering by sig is the
    # cheap inner operation.  The inverse is taken only for the result.
    def aligned(sigs: np.ndarray) -> np.ndarray:
        # the (P, m, m) box weights of the difference for each row sig
        return (ww[None] - uw[sigs[:, :, None], sigs[:, None, :]]) * scale

    def evaluated(sigs: np.ndarray, bound):
        # (index, exact norm) for each row sig in order, except one whose
        # screen bound exceeds bound() by more than `slack`: its exact norm
        # does too.  bound() is re-read before each chunk of survivors.
        lower = _screen_bound(ww, uw, sigs) * scale
        todo = np.arange(len(sigs))
        while (todo := todo[lower[todo] <= bound() + slack]).size:
            sub, todo = todo[:chunk], todo[chunk:]
            yield from zip(sub.tolist(), _exact_cut_norms(aligned(sigs[sub]))[0].tolist())

    def eval_rng(sig) -> np.random.Generator:
        # keyed by the permutation itself, so heuristic norms are a fixed
        # deterministic objective regardless of visiting order
        return streams.substream(seed, streams.CUT_EVAL, *sig)

    def exhaustive():
        # every sig in lexicographic order, a block per prefix: each of
        # the (at most 720) orders of the last `tail` positions completes
        # the prefix, and the block is screened against the running best
        tail = min(m, 6)
        table = np.array(list(itertools.permutations(range(tail))), dtype=np.intp)
        sigs = np.empty((len(table), m), dtype=np.intp)
        for prefix in itertools.permutations(range(m), m - tail):
            sigs[:, : m - tail] = prefix
            sigs[:, m - tail :] = np.array([x for x in range(m) if x not in prefix])[table]
            for i, val in evaluated(sigs, lambda: best[0]):
                if val <= best[0]:
                    yield val, tuple(sigs[i].tolist())

    def first_below(sigs: np.ndarray, above: float):
        # (index, norm) of the first row sig whose norm is below `above`,
        # or None; a swap proved not to be below it is never fully scored
        if inner_exact:
            return next(((i, v) for i, v in evaluated(sigs, lambda: above) if v < above), None)
        found = _alternating_max(aligned(sigs), restarts, [eval_rng(x) for x in sigs.tolist()], above)
        return next(((i, r[0]) for i, r in enumerate(found) if r is not None and r[0] < above), None)

    def climbs():
        pairs = np.array(list(itertools.combinations(range(m), 2)))
        patience = 4 * m
        for start in range(budget):
            rng = streams.substream(seed, streams.CUT_DISTANCE, start)
            # identity first: sample labels are sorted, so it is usually
            # close to the right alignment already
            sig = np.arange(m) if start == 0 else rng.permutation(m)
            val = first_below(sig[None], np.inf)[1]
            # the next `width` swaps are scored together, each built as if
            # all before it were rejected; the first improvement is taken
            # and the rest dropped
            calm, width = 0, 1
            # a sweep holds m(m-1)/2 > 4m candidates at m > 10, so one
            # without an improvement runs out of patience inside it
            for _ in range(_MAX_SWEEPS):
                order = rng.permutation(len(pairs))
                done = 0
                while done < len(order) and val != 0.0 and calm < patience:
                    batch = pairs[order[done : done + min(width, patience - calm)]]
                    rows = np.arange(len(batch))[:, None]
                    sigs = np.repeat(sig[None], len(batch), axis=0)
                    sigs[rows, batch] = sigs[rows, batch[:, ::-1]]
                    hit = first_below(sigs, val)
                    if hit is None:
                        done, calm = done + len(batch), calm + len(batch)
                        width = min(2 * width, _MAX_BATCH)
                    else:
                        i, val = hit
                        sig, done, calm, width = sigs[i], done + i + 1, 0, 1
                if val == 0.0 or calm >= patience:
                    break
            yield val, tuple(sig.tolist())

    # the smallest value wins, ties going to the smaller permutation pi;
    # the first perfect alignment ends the search
    best = (np.inf, (), ())
    for val, sig in exhaustive() if exact else climbs():
        best = min(best, (val, tuple(np.argsort(sig).tolist()), sig))
        if val == 0.0:
            break
    _, perm, sig = best

    # re-derive the witness at the chosen alignment; the per-permutation
    # stream makes this reproduce the tracked value
    a = aligned(np.array([sig]))[0]
    value, s, t = _exact_witness(a) if inner_exact else _alternating_max(a[None], restarts, [eval_rng(sig)])[0]
    return CutResult(value, exact, s, t, perm)


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
