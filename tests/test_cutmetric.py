import itertools

import numpy as np
import pytest

from graphonlab import cutmetric
from graphonlab.cutmetric import _box_matrix, _exact_cut_norms
from graphonlab import (
    StepGraphon,
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
    permute_blocks,
    pixel_graphon,
    relabel,
    single_edge,
    subtract,
    uniform_attachment_limit,
)
from conftest import (
    best_t_cut_norm,
    brute_cut_norm,
    interleave_labeling,
    random_kernel,
    random_step_graphon,
)


def box_sum(kernel, s, t) -> float:
    """Re-evaluate a witness box independently of the library code."""
    box = kernel.weights * np.outer(kernel.measures, kernel.measures)
    if not s or not t:
        return 0.0
    return abs(float(box[np.ix_(list(s), list(t))].sum()))


def equal_measure_graphon(rng, m):
    w = rng.random((m, m))
    return StepGraphon(np.full(m, 1.0 / m), (w + w.T) / 2)


def quarter_graphon(quarters):
    """Four equal blocks with weights given in quarters: every box sum of a
    difference is a multiple of 1/64, so values and ties are exact in float."""
    return StepGraphon(np.full(4, 0.25), np.array(quarters, dtype=float) / 4)


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
        values = _exact_cut_norms(np.stack([_box_matrix(kern) for kern in kernels]))
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


# chunk sizes of one permutation, of five (chunks end mid-search) and of all 24
CHUNKS = [1, 5, 24]


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

    def counting(a):
        evaluated.append(len(a))
        return _exact_cut_norms(a)

    monkeypatch.setattr(cutmetric, "_exact_cut_norms", counting)
    # two relabelings align u with w exactly; the search meets reported
    # (3, 1, 0, 2) first and stops there, before the smaller (1, 3, 2, 0)
    w = quarter_graphon([[2, 0, 2, 2], [0, 2, 2, 1], [2, 2, 2, 0], [2, 1, 0, 2]])
    u = permute_blocks(w, [2, 1, 3, 0])
    res = cut_distance(w, u, 4)
    assert res.value == 0.0
    assert res.permutation == (3, 1, 0, 2)
    # the search visits sig = pi^-1 in lexicographic order
    visits = [tuple(int(x) for x in np.argsort(sig)) for sig in itertools.permutations(range(4))]
    first = visits.index((3, 1, 0, 2))
    assert sum(evaluated) == min(24, -(-(first + 1) // chunk) * chunk)


def test_distance_resolution_mismatch():
    with pytest.raises(ValueError):
        cut_distance(bipartite_limit(), uniform_attachment_limit(3), 2)
