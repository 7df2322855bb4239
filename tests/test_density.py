import numpy as np
import pytest

from graphonlab import (
    Graph,
    Kernel,
    WorkLimitExceeded,
    complete,
    constant_graphon,
    cycle,
    density_graph,
    density_mc,
    density_step,
    hom_count,
    permute_blocks,
    pixel_graphon,
    single_edge,
    single_vertex,
    subtract,
    uniform_attachment_limit,
)
from graphonlab import density, streams
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
    with pytest.raises(ValueError, match="^host graph must have at least one vertex$"):
        density_graph(EDGE, Graph(0, []))
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
    # the default limit admits the same call (64^3 + 64^2 + 64 multiply-adds)
    assert density_step(TRIANGLE, w).value > 0.0
    # k5 at 64 blocks (about 1.09e9) exceeds even the default
    with pytest.raises(WorkLimitExceeded):
        density_step(complete(5), w)


def test_work_limit_counts_contraction_steps():
    # c4 eliminates vertex 0 (scope 3), then 1 (scope 3), 2 and 3
    with pytest.raises(WorkLimitExceeded) as err:
        density_step(C4, uniform_attachment_limit(64), work_limit=0)
    assert err.value.needed == 2 * 64**3 + 64**2 + 64
    # never costlier than visiting every block map once per factor
    rng = np.random.default_rng(12)
    for _ in range(200):
        pat = random_graph(rng, int(rng.integers(1, 8)), float(rng.random()))
        k = int(rng.integers(1, 6))
        with pytest.raises(WorkLimitExceeded) as err:
            density_step(pat, uniform_attachment_limit(k), work_limit=0)
        assert err.value.needed <= k**pat.n * (pat.n + pat.edge_count)


def test_negative_work_limit_is_bad_input():
    # every contraction entry point refuses it as input; 0 still refuses
    # every contraction as over the limit
    host = Graph(3, frozenset())
    for call in (
        lambda limit: density_step(C4, uniform_attachment_limit(4), limit),
        lambda limit: density_graph(C4, host, limit),
        lambda limit: hom_count(C4, host, limit),
    ):
        with pytest.raises(ValueError, match="work_limit must be at least 0, got -1"):
            call(-1)
        with pytest.raises(WorkLimitExceeded):
            call(0)


def test_non_integer_work_limit_is_bad_input():
    # NaN would compare False with every price and switch the guard off
    host = Graph(3, frozenset())
    for call in (
        lambda limit: density_step(C4, uniform_attachment_limit(4), limit),
        lambda limit: density_graph(C4, host, limit),
        lambda limit: hom_count(C4, host, limit),
    ):
        for bad in (float("nan"), 2.5, True):
            with pytest.raises(ValueError, match="^work_limit must be an integer"):
                call(bad)
        call(np.int64(10**4))  # a numpy integer is an integer


def test_signed_kernel_density_not_clamped():
    # a difference of graphons is a signed kernel: its edge density is
    # 0.2 - 0.7, and the exact sum must agree with Monte Carlo
    kern = subtract(constant_graphon(0.2), constant_graphon(0.7))
    exact = density_step(EDGE, kern).value
    assert abs(exact - (-0.5)) <= 1e-12
    assert abs(exact - density_mc(EDGE, kern, samples=100, seed=0).value) <= 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_clamp_rule_for_every_kernel(sign):
    # measures summing to 1 + 8e-13, inside the tolerance: the raw sums read
    # sign * 1.0000000000016 and 1.0000000000032, past a kernel's range
    kern = Kernel(np.full(2, 0.5 + 4e-13), np.full((2, 2), sign))
    assert density_step(EDGE, kern).value == sign
    assert density_step(C4, kern).value == 1.0


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
    with pytest.raises(ValueError, match="^samples must be at least 2, got 1$"):
        density_mc(EDGE, w, samples=1, seed=0)
    with pytest.raises(ValueError, match="^samples must be an integer, got float$"):
        density_mc(EDGE, w, samples=float("nan"), seed=0)
    with pytest.raises(ValueError, match="^pattern graph must have at least one vertex$"):
        density_mc(Graph(0, []), w, samples=2, seed=0)


def test_mc_samples_must_be_an_integer():
    w = constant_graphon(0.5)
    for bad in (2.5, 1e3):
        with pytest.raises(ValueError, match="^samples must be an integer, got float$"):
            density_mc(C4, w, bad, 0)
    for bad, kind in ((True, "bool"), ("3", "str")):  # True read as 1 sample before
        with pytest.raises(ValueError, match=f"^samples must be an integer, got {kind}$"):
            density_mc(C4, w, bad, 0)
    est = density_mc(C4, w, np.int64(1000), 0)
    assert type(est.samples) is int and est == density_mc(C4, w, 1000, 0)


def _mc_oracle(pattern, w, samples, seed):
    """density_mc's draws and shards, with a binary search per coordinate
    and a 2-D gather per edge factor."""
    vals = np.ones(samples)
    for shard, start in enumerate(range(0, samples, density._MC_SHARD)):
        part = vals[start : start + density._MC_SHARD]
        rng = streams.substream(seed, streams.MONTE_CARLO, shard)
        idx = np.searchsorted(w.boundaries, rng.random((part.size, pattern.n)), side="right")
        for u, v in pattern._pairs.tolist():
            part *= w.weights[idx[:, u], idx[:, v]]
    return float(vals.mean()), float(vals.std(ddof=1)) / np.sqrt(samples)


def test_mc_matches_searchsorted_gather_oracle():
    # ua-limit:64 is a dyadic equal partition, where no bucket of
    # block_indices holds a boundary; ua-limit:48 has split buckets
    samples = density._MC_SHARD + 1000
    for w in (uniform_attachment_limit(64), uniform_attachment_limit(48)):
        for pattern, seed in ((C4, 0), (TRIANGLE, 7)):
            est = density_mc(pattern, w, samples, seed)
            assert (est.value, est.std_error) == _mc_oracle(pattern, w, samples, seed)


def test_exhaustive_small_pixel_consistency():
    # every graph on up to 3 vertices; disconnected patterns and isolated
    # vertices too, which the contraction finishes as separate scalars
    patterns = (
        EDGE, TRIANGLE, C4,
        Graph(3, frozenset({(0, 1)})),
        Graph(4, frozenset({(0, 1), (2, 3)})),
        Graph(2, frozenset()),
        Graph(5, frozenset({(1, 2), (1, 3), (2, 3)})),
    )
    for n in (1, 2, 3):
        for g in all_graphs(n):
            w = pixel_graphon(g)
            for pat in patterns:
                assert abs(density_graph(pat, g).value - density_step(pat, w).value) <= 1e-12
