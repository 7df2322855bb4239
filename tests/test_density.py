import numpy as np
import pytest

from graphonlab import (
    Graph,
    WorkLimitExceeded,
    complete,
    constant_graphon,
    cycle,
    density_graph,
    density_mc,
    density_step,
    permute_blocks,
    pixel_graphon,
    single_edge,
    single_vertex,
    subtract,
    uniform_attachment_limit,
)
from conftest import all_graphs, random_graph, random_step_graphon

EDGE = single_edge()
TRIANGLE = complete(3)
C4 = cycle(4)


def test_constant_half_values():
    w = constant_graphon(0.5)
    assert abs(density_step(C4, w).value - 1.0 / 16.0) <= 1e-12
    assert abs(density_step(EDGE, w).value - 0.5) <= 1e-12
    assert abs(density_step(TRIANGLE, w).value - 0.125) <= 1e-12


def test_density_graph_values():
    r = density_graph(EDGE, complete(4))
    assert r.value == 12 / 16 and r.method == "exact" and r.std_error == 0.0
    assert density_graph(single_vertex(), complete(4)).value == 1.0
    assert density_graph(TRIANGLE, cycle(5)).value == 0.0


def test_pixel_consistency_sample():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(1, 7)), float(rng.random()))
        w = pixel_graphon(g)
        for pat in (EDGE, TRIANGLE, C4):
            a = density_graph(pat, g).value
            b = density_step(pat, w).value
            assert abs(a - b) <= 1e-12, (pat.n, g.n)


def test_four_cycle_inequality_on_graphs():
    rng = np.random.default_rng(6)
    for _ in range(300):
        g = random_graph(rng, int(rng.integers(1, 9)), float(rng.random()))
        t4 = density_graph(C4, g).value
        te = density_graph(EDGE, g).value
        assert t4 >= te**4 - 1e-12


def test_four_cycle_inequality_on_step_graphons():
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = random_step_graphon(rng, int(rng.integers(1, 6)))
        t4 = density_step(C4, w).value
        te = density_step(EDGE, w).value
        assert t4 >= te**4 - 1e-12


def test_block_permutation_invariance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = random_step_graphon(rng, int(rng.integers(2, 6)))
        perm = list(rng.permutation(w.k))
        wp = permute_blocks(w, perm)
        for pat in (EDGE, TRIANGLE, C4):
            assert abs(density_step(pat, w).value - density_step(pat, wp).value) <= 1e-12


def test_work_limit_refusal():
    w = uniform_attachment_limit(64)
    with pytest.raises(WorkLimitExceeded) as err:
        density_step(TRIANGLE, w, work_limit=10_000)
    assert err.value.needed > err.value.limit == 10_000
    assert "density_mc" in str(err.value)
    # the default limit admits the same call (64^3 maps)
    assert density_step(TRIANGLE, w).value > 0.0
    # c4 at 64 blocks exceeds even the default
    with pytest.raises(WorkLimitExceeded):
        density_step(C4, w)


def test_signed_kernel_density_not_clamped():
    # a difference of graphons is a signed kernel: its edge density is
    # 0.2 - 0.7, and the exact sum must agree with Monte Carlo
    kern = subtract(constant_graphon(0.2), constant_graphon(0.7))
    exact = density_step(EDGE, kern).value
    assert abs(exact - (-0.5)) <= 1e-12
    assert abs(exact - density_mc(EDGE, kern, samples=100, seed=0).value) <= 1e-12


def test_mc_zero_variance_shortcut():
    # constant graphon: every sample's weight product is identical, so the
    # estimate is exact and the reported error collapses to zero
    w = constant_graphon(0.5)
    est = density_mc(EDGE, w, samples=500, seed=0)
    assert est.value == 0.5
    assert est.std_error == 0.0
    assert est.method == "monte-carlo"
    est = density_mc(C4, w, samples=500, seed=0)
    assert est.value == 0.0625
    assert est.std_error == 0.0


def test_mc_matches_exact_within_error():
    # coverage at three sample scales, fixed seeds, so this never flakes
    w = uniform_attachment_limit(6)
    exact = density_step(TRIANGLE, w).value
    for samples in (10**3, 10**4, 10**5):
        good = 0
        for seed in range(100):
            est = density_mc(TRIANGLE, w, samples=samples, seed=seed)
            assert est.method == "monte-carlo"
            assert est.samples == samples
            if est.std_error == 0.0:
                good += abs(est.value - exact) <= 1e-12
            else:
                good += abs(est.value - exact) <= 4 * est.std_error
        assert good >= 95, samples  # measured 100/100 for each scale


def test_mc_determinism():
    w = uniform_attachment_limit(5)
    a = density_mc(C4, w, samples=4000, seed=42)
    b = density_mc(C4, w, samples=4000, seed=42)
    assert a == b
    c = density_mc(C4, w, samples=4000, seed=43)
    assert c.value != a.value


def test_mc_validation():
    w = constant_graphon(0.5)
    with pytest.raises(ValueError):
        density_mc(EDGE, w, samples=1, seed=0)


def test_exhaustive_small_pixel_consistency():
    # every graph on up to 3 vertices, all three patterns
    for n in (1, 2, 3):
        for g in all_graphs(n):
            w = pixel_graphon(g)
            for pat in (EDGE, TRIANGLE, C4):
                assert abs(density_graph(pat, g).value - density_step(pat, w).value) <= 1e-12
