import numpy as np
import pytest

from graphonlab import (
    bipartite_limit,
    complete,
    constant_graphon,
    cut_distance,
    erdos_renyi,
    pixel_graphon,
    sample_graph,
    serialize_edge_list,
    subtract,
    uniform_attachment,
    w_random_graph,
)
from graphonlab import streams
from graphonlab.graphs import complete_bipartite


def test_er_determinism():
    a = erdos_renyi(30, 0.4, seed=9)
    b = erdos_renyi(30, 0.4, seed=9)
    assert a == b
    assert serialize_edge_list(a) == serialize_edge_list(b)
    assert erdos_renyi(30, 0.4, seed=10) != a


def test_er_extremes():
    assert erdos_renyi(12, 0.0, seed=1).edge_count == 0
    assert erdos_renyi(12, 1.0, seed=1) == complete(12)
    with pytest.raises(ValueError):
        erdos_renyi(5, 1.5, seed=0)


def test_er_mean_density():
    # fixed seeds, so the 4-sigma band is a frozen deterministic check
    n, p = 100, 0.3
    dens = np.array(
        [2 * erdos_renyi(n, p, seed).edge_count / (n * (n - 1)) for seed in range(200)]
    )
    se = dens.std(ddof=1) / np.sqrt(len(dens))
    assert abs(dens.mean() - p) <= 4 * se  # measured dev 0.0011, 4*se 0.0018


def test_w_random_extremes():
    assert w_random_graph(constant_graphon(1.0), 8, seed=3) == complete(8)
    assert w_random_graph(constant_graphon(0.0), 8, seed=3).edge_count == 0


def test_w_random_refuses_weights_outside_unit_interval():
    kern = subtract(constant_graphon(0.2), constant_graphon(0.7))  # weight -0.5
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        w_random_graph(kern, 5, seed=0)


def test_w_random_determinism():
    w = bipartite_limit()
    assert w_random_graph(w, 20, seed=5) == w_random_graph(w, 20, seed=5)
    assert w_random_graph(w, 20, seed=6) != w_random_graph(w, 20, seed=5)


def test_w_random_sorted_labels():
    # sample points are sorted before labeling, so a 0/1 two-block graphon
    # always yields a complete bipartite graph in block form
    w = bipartite_limit()
    for seed in range(25):
        g = w_random_graph(w, 11, seed=seed)
        degs = g.adjacency.sum(axis=0)
        a = 11 - int(degs[0])  # vertex 0 lands in the first block
        assert g == complete_bipartite(a, 11 - a), seed


def test_w_random_mean_density():
    w = pixel_graphon(complete_bipartite(2, 3))
    target = 12 / 25  # edge weight mass of the pixel picture
    n = 5
    vals = np.array(
        [
            2 * w_random_graph(w, n, seed).edge_count / (n * (n - 1))
            for seed in range(200)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 4 * se


def test_uniform_attachment_small():
    g = uniform_attachment(1, seed=0)
    assert g.n == 1 and g.edge_count == 0
    # at n=2 the single pair appears with probability 1/2
    hits = sum(uniform_attachment(2, seed).edge_count for seed in range(400))
    assert abs(hits / 400 - 0.5) <= 0.1  # 4 binomial std errors


def test_uniform_attachment_edge_density():
    # edge density tends to 1/3 as n grows
    for seed in (0, 1):
        g = uniform_attachment(150, seed=seed)
        d = 2 * g.edge_count / (150 * 150)
        assert abs(d - 1 / 3) <= 0.05, seed


def test_uniform_attachment_determinism():
    assert uniform_attachment(40, seed=2) == uniform_attachment(40, seed=2)
    assert uniform_attachment(40, seed=3) != uniform_attachment(40, seed=2)


def test_sample_config_dispatch():
    er = sample_graph(model="erdos-renyi", n=15, seed=4, p=0.25)
    assert er == erdos_renyi(15, 0.25, seed=4)
    ua = sample_graph(model="uniform-attachment", n=15, seed=4)
    assert ua == uniform_attachment(15, seed=4)
    wr = sample_graph(model="w-random", n=15, seed=4, graphon=bipartite_limit())
    assert wr == w_random_graph(bipartite_limit(), 15, seed=4)


def test_sample_config_validation():
    with pytest.raises(ValueError):
        sample_graph(model="erdos-renyi", n=5, seed=0)  # p missing
    with pytest.raises(ValueError):
        sample_graph(model="w-random", n=5, seed=0)  # graphon missing
    with pytest.raises(ValueError):
        sample_graph(model="unknown", n=5, seed=0)
    with pytest.raises(ValueError):
        sample_graph(model="uniform-attachment", n=0, seed=0)
    with pytest.raises(ValueError):
        sample_graph(model="uniform-attachment", n=5, seed=-1)
    # p and graphon only go with the model that uses them
    for model, extra in (
        ("erdos-renyi", {"p": 0.5, "graphon": bipartite_limit()}),
        ("uniform-attachment", {"p": 0.3}),
        ("uniform-attachment", {"graphon": bipartite_limit()}),
        ("w-random", {"p": 0.3, "graphon": bipartite_limit()}),
    ):
        with pytest.raises(ValueError, match="only .* takes"):
            sample_graph(model=model, n=4, seed=0, **extra)


@pytest.mark.parametrize(
    "sample",
    [
        lambda n: erdos_renyi(n, 0.5, 0),
        lambda n: uniform_attachment(n, 0),
        lambda n: w_random_graph(bipartite_limit(), n, 0),
    ],
    ids=["erdos_renyi", "uniform_attachment", "w_random_graph"],
)
def test_sample_size_must_be_an_integer(sample):
    for bad in (2.5, 3.0, True, float("nan")):
        with pytest.raises(ValueError, match=r"^(sample|graph) size n must be an integer"):
            sample(bad)
    assert sample(np.int64(5)) == sample(5)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        erdos_renyi(5, 0.5, seed=-1)
    with pytest.raises(ValueError):
        uniform_attachment(5, seed=1 << 64)
    # a bool is refused, not run as seed 0 or 1
    for call in (
        lambda: erdos_renyi(5, 0.5, seed=True),
        lambda: uniform_attachment(5, seed=False),
        lambda: w_random_graph(bipartite_limit(), 5, seed=True),
        lambda: streams.substream(True, streams.MONTE_CARLO),
    ):
        with pytest.raises(ValueError, match="^seed must be an integer, got bool$"):
            call()


def test_substream_is_the_seed_sequence_of_its_key():
    # substream hands SeedSequence the 32-bit words of (seed, *key) as one
    # array; the stream must be the one SeedSequence makes of the list
    keys = [(), (streams.CUT_EVAL,), (8, *range(100)), (1 << 32, (1 << 40) + 7, 0, (1 << 64) + 5)]
    for seed in (0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1):
        for key in keys:
            want = np.random.default_rng([seed, *key]).random(4)
            assert np.array_equal(streams.substream(seed, *key).random(4), want), (seed, key)
    with pytest.raises(ValueError):
        streams.substream(0, 3, -1)


def test_sampled_graphs_approach_their_limit():
    # medians of the permutation-aligned distance shrink as n grows
    lim = bipartite_limit()

    def median_distance(n, **kw):
        vals = []
        for seed in range(10):
            g = w_random_graph(lim, n, seed=seed)
            vals.append(cut_distance(pixel_graphon(g), lim, n, seed=seed, **kw).value)
        return float(np.median(vals))

    small = median_distance(8, exact_threshold=8)
    large = median_distance(64, exact_threshold=8, budget=2, restarts=8)
    # measured: 0.125 at n=8, 0.047 at n=64 for these exact seeds
    assert large < small
    assert large <= 0.08
