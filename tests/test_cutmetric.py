import itertools

import numpy as np
import pytest

from graphonlab import cutmetric
from graphonlab.cutmetric import (
    _alternating_max, _box_matrix, _climb, _exact_cut_norms, _row_sum_bound, _screen_bound
)
from graphonlab import (
    Kernel,
    bipartite_limit,
    complete_bipartite,
    constant_graphon,
    cut_distance,
    cut_norm,
    cut_norm_exact,
    cut_norm_heuristic,
    cycle,
    density_step,
    distance_to_constant,
    equalize,
    erdos_renyi,
    permute_blocks,
    pixel_graphon,
    relabel,
    single_edge,
    subtract,
    uniform_attachment,
    uniform_attachment_limit,
)
import conftest
from conftest import (
    best_t_cut_norm,
    brute_cut_norm,
    interleave_labeling,
    random_kernel,
    random_step_graphon,
    serial_alternating_max,
    serial_climb,
    serial_hill_climb,
)


def box_sum(kernel, s, t) -> float:
    """Re-evaluate a witness box independently of the library code."""
    box = kernel.weights * np.outer(kernel.measures, kernel.measures)
    if not s or not t:
        return 0.0
    return abs(float(box[np.ix_(list(s), list(t))].sum()))


def equal_measure_graphon(rng, m):
    w = rng.random((m, m))
    return Kernel(np.full(m, 1.0 / m), (w + w.T) / 2)


def quarter_graphon(quarters):
    """Four equal blocks with weights given in quarters: every box sum of a
    difference is a multiple of 1/64, so values and ties are exact in float."""
    return Kernel(np.full(4, 0.25), np.array(quarters, dtype=float) / 4)


def random_quarters(rng, m):
    """m equal blocks with random weights in quarters."""
    q = np.triu(rng.integers(0, 5, (m, m)))
    return Kernel(np.full(m, 1.0 / m), (q + np.triu(q, 1).T) / 4)


def random_quarter_graphon(rng):
    q = np.triu(rng.integers(0, 5, (4, 4)))
    return quarter_graphon(q + np.triu(q, 1).T)


def test_half_step_kernel():
    # pixel of a single edge minus the flat 1/2: best box is one off-diagonal
    # block, giving |1/2 * 1/2 * 1/2| = 1/8
    kern = subtract(pixel_graphon(single_edge()), constant_graphon(0.5))
    res = cut_norm_exact(kern)
    assert res.exact
    assert abs(res.value - 0.125) <= 1e-12
    assert box_sum(kern, res.witness_s, res.witness_t) == pytest.approx(res.value, abs=1e-12)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(21)
    for trial in range(40):
        k = int(rng.integers(1, 9))
        kern = random_kernel(rng, k)
        res = cut_norm_exact(kern)
        assert abs(res.value - brute_cut_norm(kern)) <= 1e-12, trial
        assert box_sum(kern, res.witness_s, res.witness_t) == pytest.approx(res.value, abs=1e-12)


def test_exact_bounds_and_permutation_invariance():
    rng = np.random.default_rng(29)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        kern = random_kernel(rng, k)
        v = cut_norm_exact(kern).value
        assert 0.0 <= v <= np.abs(kern.weights).max() + 1e-12
        perm = list(rng.permutation(k))
        kp = permute_blocks(kern, perm)
        assert abs(cut_norm_exact(kp).value - v) <= 1e-12


def test_batched_kernel_matches_brute_force():
    rng = np.random.default_rng(61)
    for k in range(1, 9):
        kernels = [random_kernel(rng, k) for _ in range(5)]
        values = _exact_cut_norms(np.stack([_box_matrix(kern) for kern in kernels]))[0]
        for kern, value in zip(kernels, values):
            assert abs(value - brute_cut_norm(kern)) <= 1e-12, k


@pytest.mark.parametrize("k", [15, 16, 17])
def test_exact_sweeps_high_blocks(k):
    # above 14 blocks the top rows are swept in an outer loop
    kern = random_kernel(np.random.default_rng(100 + k), k)
    res = cut_norm_exact(kern)
    assert abs(res.value - best_t_cut_norm(kern)) <= 1e-12
    assert any(i >= 14 for i in res.witness_s)
    assert box_sum(kern, res.witness_s, res.witness_t) == pytest.approx(res.value, abs=1e-12)


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("k", range(1, 19))
def test_high_row_sweep_matches_one_shot_reduction(k, p):
    # up to 10 blocks the column sums are one 0/1 product; above, those
    # of rows 10..13 are added in by doubling, which must give the
    # one-shot product's bits; above 14 blocks the column-sum rows are
    # clipped and added one at a time, which must be the order
    # sum(axis=1) adds them in, to the bit, and the best box the first
    # best in (hm, pos before neg, li) order
    a = np.random.default_rng(10 * k + p).standard_normal((p, k, k))
    lo = min(k, cutmetric._LO_BITS)
    sm = cutmetric._subset_matrix(lo)
    low = a[:, :lo]
    base = (low.transpose(0, 2, 1).reshape(p * k, lo) @ sm).reshape(p, k, -1)
    # the S-row totals, one vector-matrix product per matrix
    tot = np.stack([low[i].sum(axis=1) @ sm for i in range(p)])
    objectives = []
    for hm in range(1 << (k - lo)):
        extra = a[:, [lo + b for b in range(k - lo) if hm >> b & 1]].sum(axis=1)
        pos = np.maximum(base + extra[:, :, None], 0.0).sum(axis=1)
        objectives += [pos, pos - (tot + extra.sum(axis=1)[:, None])]
    flat = np.concatenate(objectives, axis=1)
    values, where = _exact_cut_norms(a)
    assert np.array_equal(values, flat.max(axis=1))
    assert np.array_equal(where, flat.argmax(axis=1))


@pytest.mark.parametrize("k", [15, 16, 17])
def test_exact_norms_stop_once_above(k):
    # each matrix's walk stops once its own value exceeds `above`: a bar
    # that no value exceeds changes nothing, to the bit; at a bar that one
    # matrix exceeds, a matrix whose norm meets it still gets its full
    # bits, and the other a value in (above, norm]
    rng = np.random.default_rng(400 + k)
    for _ in range(8):
        a = rng.standard_normal((2, k, k))
        values, where = _exact_cut_norms(a)
        got = _exact_cut_norms(a, values.max())
        assert np.array_equal(got[0], values) and np.array_equal(got[1], where)
        above = values.min()
        got = _exact_cut_norms(a, above)
        for i in range(2):
            if values[i] <= above:
                assert (got[0][i], got[1][i]) == (values[i], where[i])
            else:
                assert above < got[0][i] <= values[i]
    # below every value the sweep may stop early, and what it returns
    # still exceeds the bar
    for above in (0.0, 0.9 * values.min()):
        got = _exact_cut_norms(a, above)[0]
        assert (got > above).all() and (got <= values).all()
    # at 0 the first block (S among the low rows) already decides it
    assert (_exact_cut_norms(a, 0.0)[1] >> (cutmetric._LO_BITS + 1) == 0).all()
    # a bar the incumbent box clears returns a value its slack certifies:
    # at ER(18, 1/2) seed 5 that box's re-evaluated value equals the norm
    a = er_half_matrix(18, 5)
    norm = _exact_cut_norms(a[None])[0][0]
    value, at = _exact_cut_norms(a[None], 0.999 * norm)
    assert 0.999 * norm < value[0] <= norm and at[0] >> (cutmetric._LO_BITS + 1) == 0


def natural_sweep(a):
    # every high-row setting of one matrix in natural order, its column
    # sums from sum(axis=0), keeping the first best: the (value, code) that
    # the exact kernel's bounded walk must give to the bit
    k = len(a)
    lo = min(k, cutmetric._LO_BITS)
    sm = cutmetric._subset_matrix(lo)
    base, tot = a[:lo].T @ sm, a[:lo].sum(axis=1) @ sm
    best = (0.0, 0)
    for hm in range(1 << (k - lo)):
        extra = a[[lo + b for b in range(k - lo) if hm >> b & 1]].sum(axis=0)
        pos = np.zeros(1 << lo)
        for j in range(k):
            pos += np.maximum(base[j] + extra[j], 0.0)
        flat = np.concatenate((pos, pos - (tot + extra.sum())))
        i = flat.argmax()
        if flat[i] > best[0]:
            best = (flat[i], i + (hm << (lo + 1)))
    return best


def er_half_matrix(n, seed):
    # box weights of the pixel graphon of ER(n, 1/2) minus 1/2
    return _box_matrix(subtract(pixel_graphon(erdos_renyi(n, 0.5, seed)), constant_graphon(0.5)))


def walk_cases(k):
    # ties (rounded entries, a symmetric matrix, the zero matrix) and
    # matrices that mislead the incumbent, at k blocks
    rng = np.random.default_rng(700 + k)
    sym = rng.standard_normal((k, k))
    # every row sums to 0, so the row-sign starts are empty, and the climbs
    # from mask 0's best boxes stay among the low rows; the best box is
    # every high row on the second half of the columns
    lo, half = cutmetric._LO_BITS, k // 2
    planted = np.zeros((k, k))
    planted[:lo, :half], planted[:lo, half:] = k - half, -half
    planted[lo:, :half], planted[lo:, half:] = -20 * (k - half), 20 * half
    return [
        er_half_matrix(k, k),
        np.round(2 * rng.standard_normal((k, k))) / 4,
        sym + sym.T,
        np.zeros((k, k)),
        np.abs(rng.standard_normal((k, k))),
        _box_matrix(subtract(pixel_graphon(uniform_attachment(k, k)), uniform_attachment_limit(k))),
        # at k = 23 and 24 seed 1's incumbent falls short of the norm
        # (0.04790 against 0.04844 at k = 24), so the best so far, not
        # the incumbent, bounds most chunks
        _box_matrix(subtract(pixel_graphon(uniform_attachment(k, 1)), uniform_attachment_limit(k))),
        planted,
        # at k = 18 the incumbent is a box whose value equals the norm
        er_half_matrix(k, 5),
    ]


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("k", range(15, 25))
def test_bounded_walk_matches_natural_sweep(k):
    # the walk skips settings by bound, gives each chunk only the low
    # subsets its own parts admit and visits the rest out of order; ties
    # must still go to the natural order's first best
    for n, a in enumerate(walk_cases(k)):
        values, where = _exact_cut_norms(a[None])
        assert (values[0], where[0]) == natural_sweep(a), n


def test_bounded_walk_skips_settings(monkeypatch):
    # the incumbent and the best so far bound out most of the (high-row
    # setting, low subset) pairs of ER(22, 1/2) and a random k = 22
    # kernel; at ER seed 0 mask 0's best alone left 213 of the 256
    # settings to sweep in full.  Bounding every chunk by the largest
    # parts of all settings swept 34 % of ER seed 6 and 50 % of the
    # kernel, and a chunk cut to fit the buffer that kept the subsets of
    # the settings cut off swept 15.5 % of the kernel
    swept = []

    def counting(base, extra, *args):
        swept.append(len(extra) * base.shape[1])
        return sweep(base, extra, *args)

    sweep = cutmetric._sweep
    monkeypatch.setattr(cutmetric, "_sweep", counting)
    cases = [(er_half_matrix(22, seed), share) for seed, share in [(0, 0.1), (1, 0.02), (6, 0.1)]]
    cases.append((_box_matrix(random_kernel(np.random.default_rng(51), 22)), 0.12))
    for n, (a, share) in enumerate(cases):
        swept.clear()
        value = _exact_cut_norms(a[None])[0][0]
        assert sum(swept) < share * 2**22, n
        assert value == natural_sweep(a)[0]
    # every bound of the zero matrix ties at 0: it stops after the first
    # setting with the natural sweep's (0.0, 0)
    swept.clear()
    a = np.zeros((22, 22))
    values, where = _exact_cut_norms(a[None])
    assert swept == [2**14] and (values[0], where[0]) == natural_sweep(a)


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("k", range(15, 23))
def test_kernel_incumbent_climbs_as_lone_climbs(k, monkeypatch):
    # the exact kernel climbs its 18 starts (setting 0's 16 best boxes, each
    # with its own sign, then the row-sign sets) in one lockstep call, and
    # gets what climbing each start alone with vector-matrix products gets
    calls = []

    def recording(a, starts, signs, above=np.inf):
        found = climb(a, starts, signs, above)
        calls.append((a, starts, signs, found))
        return found

    climb = cutmetric._climb
    monkeypatch.setattr(cutmetric, "_climb", recording)
    for a in walk_cases(k):
        _exact_cut_norms(a[None])
    assert len(calls) == 8  # every case but the zero matrix
    assert any((signs[::2] == signs[1::2]).any() for _, _, signs, _ in calls)
    for n, (a, starts, signs, found) in enumerate(calls):
        assert starts.shape == (18, k) and signs.shape == (18,)
        assert found == serial_climb(a, starts, signs), n


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("k", range(1, 18))
def test_exact_norms_match_alone_in_any_stack(k):
    # a matrix gives the same value and best box, to the bit, alone and at
    # any place in a stack, so how the exhaustive search chunks its
    # permutations cannot decide a tie-break
    rng = np.random.default_rng(300 + k)
    for p in (2, 3, 9, 36, 85):
        if p * k << min(k, cutmetric._LO_BITS) > 1 << 21:
            continue  # keep the column sums under 16 MB
        a = rng.standard_normal((p, k, k))
        values, where = _exact_cut_norms(a)
        for i in range(p):
            value, at = _exact_cut_norms(a[i : i + 1])
            assert (values[i], where[i]) == (value[0], at[0]), (p, i)


def test_exact_threshold_refusal():
    kern = subtract(uniform_attachment_limit(24), constant_graphon(0.5))
    with pytest.raises(ValueError) as err:
        cut_norm_exact(kern)
    assert "heuristic" in str(err.value)
    # raising the threshold unlocks the computation
    res = cut_norm_exact(kern, threshold=24)
    assert res.exact and res.value > 0.0


def test_cut_norm_exact_up_to_threshold():
    kern = subtract(uniform_attachment_limit(21), constant_graphon(0.5))
    assert cut_norm(kern) == cut_norm_heuristic(kern)
    assert cut_norm(kern, restarts=3, seed=9) == cut_norm_heuristic(kern, restarts=3, seed=9)
    assert cut_norm(kern, exact_threshold=21) == cut_norm_exact(kern, threshold=21)
    small = subtract(uniform_attachment_limit(6), constant_graphon(0.5))
    assert cut_norm(small) == cut_norm_exact(small)
    assert not cut_norm(small, exact_threshold=5).exact


def test_heuristic_lower_bounds_exact():
    rng = np.random.default_rng(33)
    equal = 0
    for i in range(60):
        k = int(rng.integers(1, 11))
        kern = random_kernel(rng, k)
        lo = cut_norm_heuristic(kern, restarts=20, seed=i)
        hi = cut_norm_exact(kern)
        assert not lo.exact and hi.exact
        assert lo.value <= hi.value + 1e-12
        assert box_sum(kern, lo.witness_s, lo.witness_t) == pytest.approx(lo.value, abs=1e-12)
        if abs(lo.value - hi.value) <= 1e-12:
            equal += 1
    assert equal >= 54  # measured: all 60 agree at 20 restarts


def test_heuristic_deterministic():
    rng = np.random.default_rng(37)
    kern = random_kernel(rng, 15)
    a = cut_norm_heuristic(kern, restarts=10, seed=5)
    b = cut_norm_heuristic(kern, restarts=10, seed=5)
    assert a == b


def climb_inputs():
    """Box-weight matrices for the lockstep/serial comparison, with restarts."""
    rng = np.random.default_rng(83)
    for i in range(180):
        yield _box_matrix(random_kernel(rng, 2 + i % 29)), (1, 8, 20)[i % 3]
    # integer weights: many column sums cancel to exactly zero
    for i in range(80):
        k = int(rng.integers(2, 31))
        w = rng.integers(-2, 3, (k, k)).astype(float)
        yield (w + w.T if i % 2 else w), (1, 8, 20)[i % 3]
    # the hill-climb's inner norms at m = 24 and in the paper-scale cell,
    # N = 100, whose products OpenBLAS may split across threads: ua
    # samples against the limit
    for m, seeds, sigs in ((24, range(6), 8), (100, (0, 7), 3)):
        uw = equalize(uniform_attachment_limit(m), m).weights
        for seed in seeds:
            ww = equalize(pixel_graphon(uniform_attachment(m, seed)), m).weights
            for j in range(sigs):
                sig = np.arange(m) if j == 0 else rng.permutation(m)
                yield (ww - uw[np.ix_(sig, sig)]) / (m * m), 8


@pytest.mark.one_blas_thread
def test_lockstep_climb_matches_serial_climb():
    cases = list(climb_inputs())
    assert len(cases) >= 300
    for n, (a, restarts) in enumerate(cases):
        got = _alternating_max(a, restarts, np.random.default_rng(n))
        want = serial_alternating_max(a, restarts, np.random.default_rng(n))
        assert got == want, n


@pytest.mark.one_blas_thread
def test_lockstep_climb_stops_at_alternation_cap(monkeypatch):
    # with a cap of one or two steps most climbs stop before their fixed
    # point and must take the last S reached, as the serial climb does
    rng = np.random.default_rng(89)
    full = cutmetric._MAX_ALTERNATIONS
    for cap in (1, 2):
        monkeypatch.setattr(cutmetric, "_MAX_ALTERNATIONS", cap)
        for n in range(30):
            a = _box_matrix(random_kernel(rng, int(rng.integers(2, 25))))
            got = _alternating_max(a, 8, np.random.default_rng(n))
            want = serial_alternating_max(a, 8, np.random.default_rng(n))
            assert got == want, (cap, n)
    # the climbs of one matrix step in lockstep: at the cap some have
    # settled and some have not, and each must get its serial result.  A
    # settled climb keeps stepping, so its sums near zero must keep their
    # lone bits: a 1e-17 entry beside entries of 1 and 2 decides a sum's
    # sign by summation order, which differs between BLAS kernels
    for cap in (1, 2, 3, full):
        monkeypatch.setattr(cutmetric, "_MAX_ALTERNATIONS", cap)
        for n in range(36):
            size, k, restarts = 2 + n % 7, int(rng.integers(3, 30)), (1, 4, 8)[n % 3]
            if n % 4 == 0:
                stack = np.array([_box_matrix(random_kernel(rng, k)) for _ in range(size)])
            elif n % 4 == 1:
                # integer weights: many column sums cancel to exactly zero
                w = rng.integers(-2, 3, (size, k, k)).astype(float)
                stack = w + w.transpose(0, 2, 1)
            else:
                big = rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], (size, k, k))
                tiny = rng.choice([-1e-17, 1e-17, 3e-17], (size, k, k))
                stack = np.where(rng.random((size, k, k)) < 0.3, tiny, big)
            for i, a in enumerate(stack):
                got = _alternating_max(a, restarts, np.random.default_rng(100 * n + i))
                want = serial_alternating_max(a, restarts, np.random.default_rng(100 * n + i))
                assert got == want, (cap, n, i)


@pytest.mark.one_blas_thread
def test_early_rejection_is_sound():
    # a matrix the climb rejects against a threshold climbs, with no
    # threshold, to a value strictly above it; every other matrix gets the
    # result it gets with no threshold
    rng = np.random.default_rng(103)
    rejected = kept = 0
    for trial in range(48):
        k = 2 + trial % 39
        if trial % 3 == 2:
            # integer weights: many column sums cancel to exactly zero
            w = rng.integers(-2, 3, (8, k, k)).astype(float)
            stack = w + w.transpose(0, 2, 1)
        else:
            stack = np.array([_box_matrix(random_kernel(rng, k)) for _ in range(8)])
        stack = stack[: 1 + trial % 8]
        restarts = (1, 4, 8)[trial % 3]
        lone = [_alternating_max(a, restarts, np.random.default_rng(i)) for i, a in enumerate(stack)]
        values = [v for v, _, _ in lone]
        for above in (*values, *np.nextafter(values, -np.inf), min(values) / 2, np.inf):
            for i, (a, want) in enumerate(zip(stack, lone)):
                got = _alternating_max(a, restarts, np.random.default_rng(i), above)
                if got is None:
                    assert want[0] > above, (trial, above)
                    rejected += 1
                else:
                    assert got == want, (trial, above)
                    kept += 1
    assert rejected > 300 and kept > 300


def hill_climb_cases():
    """(w, u, m, budget, restarts, seed) for the heuristic-inner-norm climb."""
    # the converge grid's cells: a ua sample against its limit
    for i, m in enumerate(range(11, 41)):
        yield pixel_graphon(uniform_attachment(m, i)), uniform_attachment_limit(m), m, 1 + i % 3, (2, 1, 1)[i % 3], i
    # self-distances: the identity start is already zero, or a relabeled
    # copy is matched by swaps and the search stops at its first zero
    w = pixel_graphon(uniform_attachment(14, 3))
    yield w, w, 14, 3, 2, 0
    for swaps in (2, 1):
        perm = list(range(14))
        for i in range(swaps):
            perm[i], perm[13 - i] = perm[13 - i], perm[i]
        yield w, permute_blocks(w, perm), 14, 3, 2, swaps


def test_hill_climb_matches_serial_climb():
    cases = list(hill_climb_cases())
    assert len(cases) >= 30
    for w, u, m, budget, restarts, seed in cases:
        got = cut_distance(w, u, m, budget=budget, restarts=restarts, seed=seed, exact_threshold=10)
        assert got == serial_hill_climb(w, u, m, budget, restarts, seed), (m, seed)
    # the one-swap copy: the identity start is not zero, a swap is
    assert got.value == 0.0 and got.permutation != tuple(range(14))


@pytest.mark.one_blas_thread
def test_hill_climb_scores_no_swap_past_an_improvement(monkeypatch):
    # with heuristic inner norms the climb scores swaps one at a time and
    # stops at the first below its current value: it climbs as many
    # matrices as the serial climb, whatever the batch it builds
    scored = {"climb": 0, "serial": 0}

    def counting(side, norm):
        def recording(a, *args):
            scored[side] += 1
            return norm(a, *args)
        return recording

    monkeypatch.setattr(cutmetric, "_alternating_max", counting("climb", _alternating_max))
    monkeypatch.setattr(conftest, "serial_alternating_max", counting("serial", serial_alternating_max))
    for m in (24, 32, 40, 70):
        scored.update(climb=0, serial=0)
        w, u = pixel_graphon(uniform_attachment(m, 0)), uniform_attachment_limit(m)
        got = cut_distance(w, u, m, budget=2, restarts=1, exact_threshold=10)
        assert got == serial_hill_climb(w, u, m, 2, 1, 0), m
        assert scored["climb"] == scored["serial"], (m, scored)


@pytest.mark.one_blas_thread
def test_hill_climb_stops_at_sweep_cap(monkeypatch):
    # a climb still improving after _MAX_SWEEPS sweeps stops there, as the
    # serial climb (which reads the same constant) does; at one sweep both
    # the heuristic climb of ua(24) and the exact-inner climb of ua(12)
    # stop above their uncapped values (0.05329 against 0.05107 at m = 24)
    cases = [(24, 8, 10), (12, 20, cutmetric.DEFAULT_EXACT_THRESHOLD)]
    pairs = {m: (pixel_graphon(uniform_attachment(m, 0)), uniform_attachment_limit(m)) for m, _, _ in cases}
    uncapped = {m: cut_distance(*pairs[m], m, budget=2, restarts=r, exact_threshold=t).value for m, r, t in cases}
    for cap in (1, 2):
        monkeypatch.setattr(cutmetric, "_MAX_SWEEPS", cap)
        for m, restarts, threshold in cases:
            got = cut_distance(*pairs[m], m, budget=2, restarts=restarts, exact_threshold=threshold)
            assert got == serial_hill_climb(*pairs[m], m, 2, restarts, 0, exact=m <= threshold), (cap, m)
            assert cap > 1 or got.value > uncapped[m], m


def test_hill_climb_at_alternation_cap(monkeypatch):
    cases = list(hill_climb_cases())[::5]
    for cap in (1, 2):
        monkeypatch.setattr(cutmetric, "_MAX_ALTERNATIONS", cap)
        for w, u, m, budget, restarts, seed in cases:
            got = cut_distance(w, u, m, budget=budget, restarts=restarts, seed=seed, exact_threshold=10)
            assert got == serial_hill_climb(w, u, m, budget, restarts, seed), (cap, m, seed)


@pytest.mark.one_blas_thread
def test_exact_hill_climb_matches_serial_climb(monkeypatch):
    # exact inner norms (10 < m <= exact_threshold): the climb, which
    # screens each swap by a box before scoring it, must take the steps
    # of scoring every swap alone and exactly
    calls = []

    def counting(a, above=np.inf):
        calls.append(len(a))
        return _exact_cut_norms(a, above)

    monkeypatch.setattr(cutmetric, "_exact_cut_norms", counting)
    evaluated = {"climb": 0, "serial": 0}
    for i, m in enumerate(range(11, 17)):
        er = pixel_graphon(erdos_renyi(m, 0.5, 2 * i)), pixel_graphon(erdos_renyi(m, 0.5, 2 * i + 1))
        ua = pixel_graphon(uniform_attachment(m, i)), uniform_attachment_limit(m)
        for (w, u), budget in ((er, 1 + i % 2), (ua, 2 - i % 2)):
            calls.clear()
            got = cut_distance(w, u, m, budget=budget, seed=i)
            evaluated["climb"] += sum(calls)
            calls.clear()
            assert got == serial_hill_climb(w, u, m, budget, 20, i, exact=True), (m, i)
            evaluated["serial"] += sum(calls)
            assert not got.exact
    # the screen rejected swaps without computing their norms
    assert evaluated["climb"] < evaluated["serial"]


@pytest.mark.one_blas_thread
def test_exact_hill_climb_screens_no_swap_past_an_improvement(monkeypatch):
    # with exact inner norms the climb screens swaps one at a time, each
    # by a two-start _climb from its row-sign sets (the exact kernel's own
    # climbs have 18 starts), and stops at the first below its current
    # value: it screens exactly the swaps whose norms the serial climb
    # computes
    screened, norms = [], []

    def screening(a, starts, signs, above=np.inf):
        screened.append(len(starts) == 2)
        return _climb(a, starts, signs, above)

    def counting(a, above=np.inf):
        norms.append(len(a))
        return _exact_cut_norms(a, above)

    monkeypatch.setattr(cutmetric, "_climb", screening)
    monkeypatch.setattr(cutmetric, "_exact_cut_norms", counting)
    for i, m in enumerate(range(11, 17)):
        er = pixel_graphon(erdos_renyi(m, 0.5, 2 * i)), pixel_graphon(erdos_renyi(m, 0.5, 2 * i + 1))
        ua = pixel_graphon(uniform_attachment(m, i)), uniform_attachment_limit(m)
        for (w, u), budget in ((er, 1 + i % 2), (ua, 2 - i % 2)):
            screened.clear()
            got = cut_distance(w, u, m, budget=budget, seed=i)
            norms.clear()
            assert got == serial_hill_climb(w, u, m, budget, 20, i, exact=True), (m, i)
            # one norm per swap scored, and one for the final witness
            assert sum(screened) == sum(norms) - 1, (m, i, sum(screened), sum(norms))


def test_screen_bound_is_below_cut_norm():
    rng = np.random.default_rng(97)
    ratios = []
    for m in range(1, 8):
        # every block set as a 0/1 row
        sel = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        for trial in range(6):
            ww = equal_measure_graphon(rng, m).weights
            # the search only meets symmetric weights; the bound must not need them
            uw = equal_measure_graphon(rng, m).weights if trial % 2 else rng.random((m, m))
            sigs = np.array([rng.permutation(m) for _ in range(5)])
            bounds = _screen_bound(ww, uw, sigs)
            for sig, bound in zip(sigs, bounds):
                norm = np.abs(sel @ (ww - uw[np.ix_(sig, sig)]) @ sel.T).max()
                assert bound <= norm + 1e-12
                ratios.append(bound / norm)
    # measured: mean 0.98, so most permutations are bounded tightly
    assert np.mean(ratios) >= 0.9


def test_row_sum_bound_is_below_cut_norm():
    rng = np.random.default_rng(103)
    for m in range(1, 8):
        sel = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(float)
        for trial in range(6):
            ww = equal_measure_graphon(rng, m).weights
            uw = equal_measure_graphon(rng, m).weights if trial % 2 else rng.random((m, m))
            sigs = np.array([rng.permutation(m) for _ in range(5)])
            for sig, bound in zip(sigs, _row_sum_bound(ww, uw, sigs)):
                norm = np.abs(sel @ (ww - uw[np.ix_(sig, sig)]) @ sel.T).max()
                assert bound <= norm + 1e-12


@pytest.mark.one_blas_thread
def test_row_sum_bound_prunes_before_the_screen(monkeypatch):
    # the row-sum bound drops most of 8! sigs before the O(m^2) screen,
    # and what it drops changes no result
    screened = []

    def screening(ww, uw, sigs):
        screened.append(len(sigs))
        return _screen_bound(ww, uw, sigs)

    w, u = pixel_graphon(uniform_attachment(8, 0)), uniform_attachment_limit(8)
    monkeypatch.setattr(cutmetric, "_screen_bound", screening)
    res = cut_distance(w, u, 8)
    # measured: 2,112 of 40,320
    assert sum(screened) <= 0.1 * 40320
    with monkeypatch.context() as patch:
        for name in ("_row_sum_bound", "_screen_bound"):
            patch.setattr(cutmetric, name, lambda ww, uw, sigs: np.zeros(len(sigs)))
        assert cut_distance(w, u, 8) == res


def test_screened_search_matches_brute_force_and_tie_break(monkeypatch):
    # weights in quarters with equal measures: many permutations tie exactly,
    # and at m = 7 the ties cross the search's six-position prefix blocks
    rng = np.random.default_rng(101)
    for m in range(1, 8):
        for trial in range(3):
            if trial:
                w, u = random_quarters(rng, m), random_quarters(rng, m)
            else:
                w, u = equal_measure_graphon(rng, m), equal_measure_graphon(rng, m)
            ww, uw = w.weights, u.weights
            # the value the search computes for each sig = pi^-1
            values = {
                tuple(int(x) for x in np.argsort(sig)): float(
                    _exact_cut_norms(((ww - uw[np.ix_(sig, sig)]) * (1.0 / (m * m)))[None])[0][0]
                )
                for sig in itertools.permutations(range(m))
            }
            best = min(values.values())
            res = cut_distance(w, u, m)
            assert abs(res.value - best) <= 1e-12, (m, trial)
            if best > 0.0:
                assert res.permutation == min(p for p, v in values.items() if v == best)
            with monkeypatch.context() as patch:
                patch.setattr(cutmetric, "_screen_bound", lambda ww, uw, sigs: np.zeros(len(sigs)))
                assert cut_distance(w, u, m) == res, (m, trial)


def test_distance_self_is_zero():
    rng = np.random.default_rng(41)
    w = equal_measure_graphon(rng, 5)
    res = cut_distance(w, w, 5)
    assert res.exact
    assert res.value == 0.0
    assert res.permutation == tuple(range(5))  # lex-smallest optimum wins


def test_distance_checkerboard_relabeling():
    # the two standard labelings of K_{2,2} are the same unlabeled graph,
    # so the exhaustive search must drive the distance to exactly zero
    block = pixel_graphon(complete_bipartite(2, 2))
    alt = pixel_graphon(relabel(complete_bipartite(2, 2), interleave_labeling(2)))
    res = cut_distance(block, alt, 4)
    assert res.exact
    assert res.value == 0.0
    assert res.permutation is not None and res.permutation != tuple(range(4))


def test_distance_between_constants():
    res = cut_distance(constant_graphon(0.2), constant_graphon(0.7), 1)
    assert res.exact
    assert abs(res.value - 0.5) <= 1e-12


def test_distance_to_constant_matches_cut_distance():
    w = bipartite_limit()
    a = distance_to_constant(w, 0.5)
    b = cut_distance(w, constant_graphon(0.5), 2)
    assert a.exact and b.exact
    assert abs(a.value - b.value) <= 1e-12
    # best box is a single off-diagonal block: |1/2| * 1/2 * 1/2
    assert abs(a.value - 0.125) <= 1e-12


def test_distance_pseudometric():
    rng = np.random.default_rng(47)
    m = 4
    for _ in range(12):
        w = equal_measure_graphon(rng, m)
        u = equal_measure_graphon(rng, m)
        v = equal_measure_graphon(rng, m)
        duv = cut_distance(u, v, m).value
        dwu = cut_distance(w, u, m).value
        dwv = cut_distance(w, v, m).value
        assert abs(cut_distance(u, w, m).value - dwu) <= 1e-12  # symmetry
        assert dwv <= dwu + duv + 1e-12  # triangle inequality


def test_distance_zero_implies_equal_densities():
    # refining the block structure changes nothing measurably
    w = bipartite_limit()
    u = equalize(w, 4)
    res = cut_distance(w, u, 4)
    assert res.exact and res.value <= 1e-12
    for pat in (single_edge(), cycle(3), cycle(4)):
        dw = density_step(pat, w).value
        du = density_step(pat, u).value
        assert abs(dw - du) <= 1e-12


def test_distance_hill_climb_path():
    # m = 12 exceeds the exhaustive threshold, so the search is a local one
    rng = np.random.default_rng(53)
    w = equal_measure_graphon(rng, 12)
    u = permute_blocks(w, list(rng.permutation(12)))
    res = cut_distance(w, u, 12, budget=4, restarts=8, seed=1)
    assert not res.exact
    assert res.value >= 0.0
    again = cut_distance(w, u, 12, budget=4, restarts=8, seed=1)
    assert again.value == res.value and again.permutation == res.permutation


def test_distance_witness_reproduces():
    rng = np.random.default_rng(59)
    w = equal_measure_graphon(rng, 5)
    u = equal_measure_graphon(rng, 5)
    res = cut_distance(w, u, 5)
    aligned = subtract(w, permute_blocks(u, res.permutation))
    assert box_sum(aligned, res.witness_s, res.witness_t) == pytest.approx(res.value, abs=1e-12)
    # and the reported value is the exact cut norm at that alignment
    assert abs(cut_norm_exact(aligned).value - res.value) <= 1e-12


def test_exhaustive_distance_is_brute_force_minimum():
    rng = np.random.default_rng(67)
    for m in range(1, 7):
        w = equal_measure_graphon(rng, m)
        u = equal_measure_graphon(rng, m)
        values = {
            perm: cut_norm_exact(subtract(w, permute_blocks(u, perm))).value
            for perm in itertools.permutations(range(m))
        }
        res = cut_distance(w, u, m)
        assert res.exact
        assert abs(res.value - min(values.values())) <= 1e-12, m
        assert abs(values[res.permutation] - res.value) <= 1e-12, m


@pytest.mark.parametrize("m", [7, 8])
def test_exhaustive_distance_ignores_exact_threshold(m):
    # the exhaustive search always scores with exact inner norms: a minimum
    # of heuristic lower bounds would undershoot the distance
    w = pixel_graphon(uniform_attachment(m, 0))
    u = uniform_attachment_limit(m)
    want = cut_distance(w, u, m)
    assert want.exact
    for threshold in (0, m - 1):
        assert cut_distance(w, u, m, exact_threshold=threshold) == want, threshold


# chunk sizes of one permutation, of five (chunks end mid-search) and of all 24
CHUNKS = [1, 5, 24]


@pytest.mark.one_blas_thread
@pytest.mark.parametrize("chunk", CHUNKS)
def test_exhaustive_ties_go_to_smallest_reported(chunk, monkeypatch):
    monkeypatch.setattr(cutmetric, "_CHUNK_DOUBLES", chunk * (4 << 4))
    # six alignments tie; the search meets (2, 3, 0, 1) first, but the
    # lexicographically smallest reported permutation is (1, 3, 2, 0)
    w = quarter_graphon([[0, 0, 3, 1], [0, 1, 2, 4], [3, 2, 0, 3], [1, 4, 3, 2]])
    u = quarter_graphon([[4, 4, 2, 0], [4, 3, 0, 2], [2, 0, 2, 2], [0, 2, 2, 1]])
    res = cut_distance(w, u, 4)
    assert res.value == 0.109375
    assert res.permutation == (1, 3, 2, 0)

    rng = np.random.default_rng(71)
    for _ in range(10):
        w = random_quarter_graphon(rng)
        u = random_quarter_graphon(rng)
        values = {
            perm: brute_cut_norm(subtract(w, permute_blocks(u, perm)))
            for perm in itertools.permutations(range(4))
        }
        best = min(values.values())
        assert best > 0.0
        res = cut_distance(w, u, 4)
        assert res.value == best
        assert res.permutation == min(p for p, v in values.items() if v == best)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_exhaustive_stops_at_first_zero(chunk, monkeypatch):
    monkeypatch.setattr(cutmetric, "_CHUNK_DOUBLES", chunk * (4 << 4))
    evaluated = []

    def counting(a, above=np.inf):
        evaluated.append(len(a))
        return _exact_cut_norms(a, above)

    def search_calls():
        # the last call re-derives the witness at the chosen alignment
        return sum(evaluated[:-1])

    monkeypatch.setattr(cutmetric, "_exact_cut_norms", counting)
    # two relabelings align u with w exactly; the search meets reported
    # (3, 1, 0, 2) first and stops there, before the smaller (1, 3, 2, 0)
    w = quarter_graphon([[2, 0, 2, 2], [0, 2, 2, 1], [2, 2, 2, 0], [2, 1, 0, 2]])
    u = permute_blocks(w, [2, 1, 3, 0])
    # the search visits sig = pi^-1 in lexicographic order
    visits = [tuple(int(x) for x in np.argsort(sig)) for sig in itertools.permutations(range(4))]
    first = visits.index((3, 1, 0, 2))
    unscreened = min(24, -(-(first + 1) // chunk) * chunk)

    # with a screen that prunes nothing, every permutation up to the
    # chunk holding the first zero is evaluated exactly
    with monkeypatch.context() as patch:
        patch.setattr(cutmetric, "_screen_bound", lambda ww, uw, sigs: np.zeros(len(sigs)))
        res = cut_distance(w, u, 4)
    assert res.value == 0.0
    assert res.permutation == (3, 1, 0, 2)
    assert search_calls() == unscreened

    evaluated.clear()
    res = cut_distance(w, u, 4)
    assert res.value == 0.0
    assert res.permutation == (3, 1, 0, 2)
    assert search_calls() <= unscreened


def test_distance_resolution_mismatch():
    with pytest.raises(ValueError):
        cut_distance(bipartite_limit(), uniform_attachment_limit(3), 2)


def test_non_integer_arguments_refused():
    kern = subtract(constant_graphon(0.5), bipartite_limit())
    w, u = constant_graphon(0.5), bipartite_limit()
    for call, name in (
        (lambda: cut_norm(kern, restarts=2.5), "restarts"),
        (lambda: cut_norm(kern, exact_threshold=1.5), "exact_threshold"),
        (lambda: cut_norm_heuristic(kern, restarts=2.5), "restarts"),
        (lambda: cut_distance(w, u, 2, budget=2.5), "budget"),
        (lambda: cut_distance(w, u, 12, restarts=2.0, exact_threshold=10), "restarts"),
        (lambda: cut_distance(w, u, 2, exact_threshold=20.0), "exact_threshold"),
        (lambda: cut_norm_exact(kern, threshold=2.5), "threshold"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got float$"):
            call()
    # a bool is no seed, as np.True_ is not
    for call in (
        lambda: cut_norm(kern, seed=True),
        lambda: cut_norm_heuristic(kern, seed=True),
        lambda: cut_distance(w, u, 2, seed=True),
        lambda: cut_distance(w, u, 12, seed=True),
    ):
        with pytest.raises(ValueError, match="^seed must be an integer, got bool$"):
            call()
    # numpy integers are integers
    assert cut_norm_heuristic(kern, restarts=np.int64(2)) == cut_norm_heuristic(kern, restarts=2)


@pytest.mark.parametrize("resolution", [2.5, True, "3"])
def test_non_integer_resolution_refused(resolution):
    w, u = constant_graphon(0.5), bipartite_limit()
    message = f"^block count m must be an integer, got {type(resolution).__name__}$"
    with pytest.raises(ValueError, match=message):
        equalize(u, resolution)
    with pytest.raises(ValueError, match=message):
        cut_distance(w, u, resolution)
    assert equalize(u, np.int64(2)).weights.tolist() == equalize(u, 2).weights.tolist()
