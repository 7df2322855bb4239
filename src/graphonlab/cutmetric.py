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
through one subset-sum kernel.  Its column sums are a product over at
most 10 rows, doubled in place for the rest, so a lone matrix's product
stays on one BLAS thread.  Above 14 blocks it clips and sums them one
row at a time, as the whole (k, 2^14) array (2.9 MB at k = 22) outgrows
a 2 MiB L2, and sweeps only the top rows' settings, and for each chunk
of them the low subsets, that the re-evaluated best box of the
heuristic's climb and the best box so far leave, until none can beat
its best box or its value exceeds the value to beat.
A matrix's value and best box are the same bits wherever it sits in a
stack, so no result depends on how the work is chunked.
Both permutation searches score candidates through one evaluator: a
certified O(m^2) lower bound screens a stack of permutations, skips each
whose bound exceeds the value to beat (its exact norm does too), and
feeds the kernel the survivors in order, in chunks stacked into one
array.  The exhaustive search draws its permutations as integer arrays,
one block per prefix, and beats the running best; an O(m) bound from
the difference's row sums first drops those that cannot reach it (all
but 0.2-21 % of them on ua samples at m = 8-10).  The worst case is a
graphon with twin blocks, where neither bound skips anything (bipartite's
blocks share one degree): ua-limit:10 against bipartite at m = 10 scores
all 10! = 3,628,800 permutations in 1,209,600 kernel calls of 3.
The hill-climb scores one swap at a time, in seeded order, and takes
the first whose norm is below the current value.  With exact inner
norms the evaluator screens the swap and scores it if it survives; with
heuristic ones a box reached while the swap's restarts climb in
lockstep, one vector-matrix product per climb and half-step, rejects
it.  Neither m = 10 nor the climb is refused; README's Caveats give
their measured times.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import streams
from .graphons import Kernel, constant_graphon, equalize, subtract
from .graphs import check_integer

DEFAULT_EXACT_THRESHOLD = 20
_EXHAUSTIVE_LIMIT = 10
_PRODUCT_ROWS = 10  # rows the exact kernel's 0/1 product covers; later low rows double
_LO_BITS = 14
_CHUNK_DOUBLES = 1 << 15
_MAX_SWEEPS = 100
_MAX_ALTERNATIONS = 200


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


def _check(restarts: int, seed: int, exact_threshold: int = 0, budget: int = 1) -> None:
    check_integer(budget, "budget", 1)
    check_integer(restarts, "restarts", 1)
    check_integer(exact_threshold, "exact_threshold", 0)
    streams.check_seed(seed)


def _box_matrix(kernel) -> np.ndarray:
    mu = kernel.measures
    return kernel.weights * np.outer(mu, mu)


def _witness_value(a: np.ndarray, s: tuple[int, ...], t: tuple[int, ...]) -> float:
    return abs(float(a[np.ix_(s, t)].sum()))


def _exact_cut_norms(a: np.ndarray, above: float = np.inf):
    """Exact cut norm of each box-weight matrix in a (P, k, k) stack.

    Every row subset S is enumerated, the low _LO_BITS rows at once and
    any others one setting hm at a time.  Entry li of pos, for S = low
    rows li plus high rows hm, sums the positive column sums of S (the box
    S x T, T the columns of positive sum); neg, pos minus the S-row sum,
    is the best box of negative sum.  Column sums are laid out (k, 2^lo)
    per matrix, so both reductions are contiguous row adds.  A 0/1 product
    fills the columns of the first 10 rows (doubling them too made the
    exhaustive search's stacked calls of 8-10 blocks 1.5-2.3x slower), and
    each later low row b adds itself to columns [0, 2^b) into
    [2^b, 2^(b+1)): a subset's rows add in increasing order, the bits of
    one product over all low rows, which at k >= 14 woke a second BLAS
    thread that then spun after every call.
    With high rows each matrix is walked alone: its high rows' column sums
    e[hm], doubled as the low rows' are, have sum(axis=1)'s bits, and
    _sweep clips and adds the k rows one at a time in that order, so each
    pass stays in cache.  As max(c + e, 0) <= max(c, 0) + max(e, 0), no
    objective under hm beats setting 0's best pos (neg) plus e[hm]'s
    positive (negative) parts, nor one at li setting 0's at li plus the
    largest such part in a group of settings.  A setting bound by over
    1e-9 sum |a| (far above rounding) below inc, the re-evaluated best
    box that _climb (the heuristic's climb) reaches from setting 0's 16
    best boxes and the row-sign sets, is dropped; the rest go by
    decreasing bound, in chunks, until one is below the best value or
    that value (or inc less the margin) exceeds `above`, maybe short of
    the norm.  A setting admits the low subsets that its largest parts
    bring within the margin of the larger of inc and the best value so
    far.  The first setting's admitted subsets size a chunk, cut to fit
    the 2^lo-entry buffer if its own overfill it; it sweeps a compacted
    copy of the columns its settings admit when that drops at least half
    of them, else all columns.  A zero matrix stops at setting 0.  Ties
    go to the smaller code, as in natural order.  S-row totals, one
    vector-matrix product per matrix, tie no bit of a result to its place
    in the stack.

    Returns the values and each matrix's first best objective in (hm, pos
    before neg, li) order, coded (2 * hm + is_neg) * 2^lo + li.
    """
    p, k = a.shape[:2]
    lo = min(k, _LO_BITS)
    hi = k - lo
    c = min(lo, _PRODUCT_ROWS)
    low = a[:, :lo]
    base = np.empty((p, k, 1 << lo))
    np.matmul(low[:, :c].transpose(0, 2, 1).reshape(p * k, c), _subset_matrix(c),
              out=base.reshape(p * k, -1)[:, : 1 << c])
    for b in range(c, lo):
        np.add(base[..., : 1 << b], low[:, b, :, None], out=base[..., 1 << b : 2 << b])
    tot = (low.sum(axis=2)[:, None] @ _subset_matrix(lo))[:, 0]
    if not hi:
        pos = np.maximum(base, 0.0, out=base).sum(axis=1)
        flat = np.concatenate((pos, pos - tot), axis=1)
        where = flat.argmax(axis=1)
        return flat[np.arange(p), where], where
    best, where = np.zeros(p), np.zeros(p, dtype=np.intp)
    # first keeps setting 0's sweep, which bounds every chunk swept into flat
    first, flat, row = np.empty(2 << lo), np.empty(2 << lo), np.empty(1 << lo)
    zeros = np.zeros_like(row)  # an array operand keeps np.maximum off its slower scalar loop
    for i in range(p):
        e = np.zeros((1 << hi, k))  # the high rows' column sums by setting
        for b in range(hi):
            np.add(e[: 1 << b], a[i, lo + b], out=e[1 << b : 2 << b])
        pos, neg = _sweep(base[i], e[:1], tot[i], first, row, zeros)[0]
        best[i], where[i] = first.max(), first.argmax()
        if best[i] > above or not a[i].any():
            continue
        top, rows = np.argpartition(first, -16)[-16:], a[i].sum(axis=1)
        starts = np.vstack(((top[:, None] & (1 << lo) - 1) >> np.arange(k) & 1, rows > 0, rows < 0))
        inc = _climb(a[i], starts, np.append(1.0 - 2 * (top >> lo), (1.0, -1.0)))[0]
        slack = 1e-9 * np.abs(a[i]).sum()
        if inc - slack > above:
            best[i] = inc - slack  # a box certifies it; the norm is at least this
            continue
        up, down = np.maximum(e, 0.0).sum(axis=1), np.maximum(-e, 0.0).sum(axis=1)
        bound = np.maximum(pos.max() + up, neg.max() + down)
        masks = np.flatnonzero(bound[1:] >= inc - slack) + 1
        masks = masks[np.argsort(-bound[masks], kind="stable")]

        def admitted(n):  # the low subsets that the next n settings' largest parts bring within reach of bar
            return np.flatnonzero((pos >= bar - up[masks[:n]].max()) | (neg >= bar - down[masks[:n]].max()))

        while masks.size and best[i] <= above and bound[masks[0]] >= (bar := max(inc, best[i]) - slack):
            n = min(len(masks), len(row) // len(li := admitted(1)))  # the first setting's subsets size the chunk
            if n > 1 and n * len(li := admitted(n)) > len(row):  # its own overfill the buffer: cut it to fit
                li = admitted(n := len(row) // len(li))
            keep = li if 2 * len(li) <= len(row) else slice(None)  # a copy that prunes little costs more
            ms, masks, li = np.sort(masks[:n]), masks[n:], np.arange(len(row))[keep]
            out = _sweep(base[i][:, keep], e[ms], tot[i][keep], flat, row, zeros)
            r, is_neg, col = np.unravel_index(out.argmax(), out.shape)
            val, code = out[r, is_neg, col], ((2 * ms[r] + is_neg) << lo) + li[col]
            if val > best[i] or val == best[i] and code < where[i]:
                best[i], where[i] = val, code
    return best, where


def _sweep(base, extra, tot, flat, row, zeros) -> np.ndarray:
    """One matrix's (pos, neg) for base's columns under each setting whose column sums are a row of extra."""
    n, m = len(extra), base.shape[1]
    out, tmp, zero = flat[: 2 * n * m].reshape(n, 2, m), row[: n * m].reshape(n, m), zeros[: n * m].reshape(n, m)
    (pos := out[:, 0]).fill(0.0)
    for j in range(len(base)):
        pos += np.maximum(np.add(base[j], extra[:, j, None], out=tmp), zero, out=tmp)
    np.subtract(pos, tot + extra.sum(axis=1)[:, None], out=out[:, 1])
    return out


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


def _row_sum_bound(ww: np.ndarray, uw: np.ndarray, sigs: np.ndarray) -> np.ndarray:
    """Lower bound on the cut norm of ww - uw[sig][:, sig] for each row sig, O(m) each.

    The rows of positive (negative) sum by all columns make a box worth the
    sum of those row sums; the negative box is the positive less the total.
    """
    r = ww.sum(axis=1) - uw.sum(axis=1)[sigs]
    return np.maximum(r, 0.0, out=r).sum(axis=1) + max(uw.sum() - ww.sum(), 0.0)


def _alternating_max(a: np.ndarray, restarts: int, rng: np.random.Generator, above: float = np.inf):
    """_climb from `restarts` random S drawn from `rng`, each with both signs."""
    starts = rng.random((restarts, len(a))) < 0.5
    return _climb(a, np.repeat(starts, 2, axis=0), np.array([1.0, -1.0] * restarts), above)


def _climb(a: np.ndarray, starts: np.ndarray, signs: np.ndarray, above: float = np.inf):
    """Heuristic cut norm of one k x k box-weight matrix by alternating maximization.

    Climb r maximizes signs[r] (+1 or -1) times the box sum from the 0/1
    row set starts[r] (starts is (R, k)) by optimal T for S and optimal S
    for T in turn, to a fixed point or _MAX_ALTERNATIONS steps.  Every box
    visited is feasible, so the best, re-evaluated, is a certified lower
    bound on the norm; ties go to the first climb in start order.  Returns
    (value, S, T), or None once `above` rejects the matrix.

    The R climbs run in lockstep and step in place, one stacked matmul per
    half-step, until none moves.  That matmul issues one vector-matrix
    product (gemv) per climb, the BLAS call a lone climb makes, with the
    sign on the set (negation is exact), so each climb gets the bits it
    gets alone.  No climb's box value falls, so once the best box after an
    alternation exceeds `above` by 2e-9 times the sum of magnitudes, far
    above any rounding, the result would too, and the climb stops there.
    """
    size = np.abs(a).sum()
    sign = signs[:, None]
    s = starts * sign
    for step in range(_MAX_ALTERNATIONS + 1):
        t = ((s[:, None] @ a)[:, 0] > 0.0) * sign  # each climb's optimal T, its 0/1 set times its sign
        if step == _MAX_ALTERNATIONS:
            break  # the last pass only takes the final S's best T
        val = (a @ t[..., None])[..., 0]
        # each climb's next box (its rows of positive sum, t) is feasible
        # and no climb loses value
        if np.maximum(val, 0.0).sum(axis=1).max() > above + 2e-9 * size:
            return None
        s_next = (val > 0.0) * sign
        if np.array_equal(s_next, s):
            break
        s = s_next
    # box values up to rounding; only the climbs near the top, each
    # distinct box once, are re-evaluated exactly as a lone climb would
    approx = np.abs(((s @ a) * t).sum(axis=1))
    best, seen = (0.0, (), ()), set()
    for r in np.flatnonzero(approx >= approx.max() - 1e-9 * size):
        box = (tuple(np.flatnonzero(s[r]).tolist()), tuple(np.flatnonzero(t[r]).tolist()))
        if box not in seen:
            seen.add(box)
            val = _witness_value(a, *box)
            if val > best[0]:
                best = (val, *box)
    return best


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
    if kernel.k > check_integer(threshold, "threshold"):
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
    value, s, t = _alternating_max(_box_matrix(kernel), restarts, rng)
    return CutResult(value, False, s, t)


# ───────────────────────── distances ─────────────────────────


def cut_distance(
    w: Kernel,
    u: Kernel,
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
    inner norms, when m <= 10; two certified lower bounds (the row sums
    of the difference, then the screen) first skip every permutation
    that could neither win nor tie.  Otherwise hill-climbing
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
    get exact norms in order.  In both branches the climb scores one
    swap at a time and takes the first below its current value; with
    heuristic inner norms a box reached mid-climb rejects a swap instead
    (see _climb).  exact=True marks the exhaustive search.
    """
    _check(restarts, seed, exact_threshold, budget)
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
            yield from zip(sub.tolist(), _exact_cut_norms(aligned(sigs[sub]), bound())[0].tolist())

    def eval_rng(sig) -> np.random.Generator:
        # keyed by the permutation itself, so heuristic norms are a fixed
        # deterministic objective regardless of visiting order
        return streams.substream(seed, streams.CUT_EVAL, *sig)

    def exhaustive():
        # every sig in lexicographic order, a block per prefix: each of
        # the (at most 720) orders of the last `tail` positions completes
        # the prefix.  Sigs the row-sum bound proves above the running best
        # (which only falls) are dropped; the rest are screened against it
        tail = min(m, 6)
        table = np.array(list(itertools.permutations(range(tail))), dtype=np.intp)
        sigs = np.empty((len(table), m), dtype=np.intp)
        for prefix in itertools.permutations(range(m), m - tail):
            sigs[:, : m - tail] = prefix
            sigs[:, m - tail :] = np.array([x for x in range(m) if x not in prefix])[table]
            kept = sigs[_row_sum_bound(ww, uw, sigs) * scale <= best[0] + slack]
            for i, val in evaluated(kept, lambda: best[0]) if len(kept) else ():
                if val <= best[0]:
                    yield val, tuple(kept[i].tolist())

    def first_below(sig: np.ndarray, above: float):
        # sig's norm if it is below `above`, else None; a swap proved not
        # to be below it is never fully scored
        if inner_exact:
            return next((v for _, v in evaluated(sig[None], lambda: above) if v < above), None)
        found = _alternating_max(aligned(sig[None])[0], restarts, eval_rng(sig.tolist()), above)
        return found[0] if found is not None and found[0] < above else None

    def climbs():
        pairs = np.array(list(itertools.combinations(range(m), 2)))
        for start in range(budget):
            rng = streams.substream(seed, streams.CUT_DISTANCE, start)
            # identity first: sample labels are sorted, so it is usually
            # close to the right alignment already
            sig = np.arange(m) if start == 0 else rng.permutation(m)
            val, calm = first_below(sig, np.inf), 0
            # every sweep takes each swap once, in a fresh seeded order; a
            # zero or 4m swaps in a row that do not improve end the climb,
            # inside one sweep at m > 10, where a sweep holds m(m-1)/2 > 4m
            sweeps = (pairs[rng.permutation(len(pairs))].tolist() for _ in range(_MAX_SWEEPS))
            for swap in itertools.chain.from_iterable(sweeps):
                if val == 0.0 or calm >= 4 * m:
                    break
                sig[swap] = sig[swap[::-1]]
                found = first_below(sig, val)
                if found is None:
                    sig[swap] = sig[swap[::-1]]
                    calm += 1
                else:
                    val, calm = found, 0
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
    value, s, t = _exact_witness(a) if inner_exact else _alternating_max(a, restarts, eval_rng(sig))
    return CutResult(value, exact, s, t, perm)


def distance_to_constant(
    w: Kernel,
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
