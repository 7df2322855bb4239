import numpy as np
import pytest

from graphonlab import (
    Graph,
    Kernel,
    ParseError,
    bipartite_limit,
    common_refinement,
    complete_bipartite,
    constant_graphon,
    cycle,
    equalize,
    evaluate,
    parse_graphon,
    permute_blocks,
    pixel_graphon,
    relabel,
    render_pgm,
    serialize_graphon,
    single_edge,
    subtract,
    uniform_attachment_limit,
)
from graphonlab.graphons import block_indices
from conftest import random_graph, random_measures, random_step_graphon


def test_constant():
    w = constant_graphon(0.3)
    assert w.k == 1
    assert evaluate(w, 0.99, 0.01) == 0.3
    with pytest.raises(ValueError):
        constant_graphon(1.5)


def test_pixel():
    w = pixel_graphon(single_edge())
    assert w.k == 2
    assert np.array_equal(w.weights, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(w.measures, [0.5, 0.5])
    with pytest.raises(ValueError):
        pixel_graphon(Graph.from_edges(0, []))


def test_pixel_alternating_pattern():
    # K_{2,2} with interleaved labels gives the 4x4 checkerboard
    g = relabel(complete_bipartite(2, 2), [0, 2, 1, 3])
    w = pixel_graphon(g)
    expect = np.array(
        [
            [0, 1, 0, 1],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [1, 0, 1, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(w.weights, expect)


def test_bipartite_limit():
    w = bipartite_limit()
    assert np.array_equal(w.weights, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(w.measures, [0.5, 0.5])


def test_validation():
    with pytest.raises(ValueError, match="^block measures must sum to 1, got 1.1$"):
        Kernel(np.array([0.5, 0.6]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Kernel(np.array([1.0]), np.array([[1.5]]))  # weight out of range
    with pytest.raises(ValueError):
        Kernel(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        Kernel(np.array([1.0, 0.0]), np.array([[0.0, 0.0], [0.0, 0.0]]))
    assert Kernel(np.array([1.0]), np.array([[-0.5]])).weights[0, 0] == -0.5
    with pytest.raises(ValueError, match=r"kernel weights must lie in \[-1.0, 1.0\]"):
        Kernel(np.array([1.0]), np.array([[1.5]]))
    for measures, weights, message in (
        ([], np.zeros((0, 0)), "^kernel needs at least one block$"),
        ([0.5, 0.5], np.zeros((2, 3)), r"^weight matrix must be 2x2, got \(2, 3\)$"),
        ([1.0], [[np.nan]], "^weights must be finite$"),
    ):
        with pytest.raises(ValueError, match=message):
            Kernel(np.array(measures, dtype=float), np.array(weights, dtype=float))


def test_evaluate_block_semantics():
    w = Kernel(np.array([0.25, 0.75]), np.array([[0.1, 0.2], [0.2, 0.3]]))
    # blocks are [0, 0.25) and [0.25, 1)
    assert evaluate(w, 0.0, 0.0) == 0.1
    assert evaluate(w, 0.25, 0.1) == 0.2
    assert evaluate(w, 0.9999, 0.9999) == 0.3
    with pytest.raises(ValueError):
        evaluate(w, 1.0, 0.5)
    with pytest.raises(ValueError):
        evaluate(w, -0.1, 0.5)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 64, 100, 512, 513, 1000])
def test_block_indices_match_searchsorted(k):
    rng = np.random.default_rng(k)
    dyadic = np.arange(1 << 14) / (1 << 14)  # every bucket edge for k <= 2048
    crowded = np.concatenate(([0.3], np.full(k - 1, 1e-9)))  # k - 1 blocks in one bucket
    crowded[-1] = 1.0 - crowded[:-1].sum()
    for measures in (np.full(k, 1.0 / k), random_measures(rng, k), crowded):
        w = Kernel(measures, np.zeros((k, k)))
        b = w.boundaries
        keys = np.concatenate((
            rng.random(4096),
            b[:-1],
            np.nextafter(b, 0.0),
            np.nextafter(b[:-1], 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
            dyadic,
            np.nextafter(dyadic[1:], 0.0),
        ))
        for xs in (keys, keys[: keys.size // 4 * 4].reshape(-1, 4), keys[:0], np.zeros((0, 3))):
            got = block_indices(w, xs)
            assert got.shape == xs.shape
            assert np.array_equal(got, np.searchsorted(b, xs, side="right"))


def test_nan_coordinates_refused():
    w = uniform_attachment_limit(4)
    with pytest.raises(ValueError, match=r"coordinates must lie in \[0, 1\)"):
        block_indices(w, [np.nan])
    with pytest.raises(ValueError, match=r"coordinates must lie in \[0, 1\)"):
        block_indices(w, [0.5, np.nan, 0.25])
    with pytest.raises(ValueError, match=r"coordinates must lie in \[0, 1\)"):
        evaluate(w, np.nan, 0.5)


def test_evaluate_symmetric():
    rng = np.random.default_rng(3)
    w = random_step_graphon(rng, 5)
    for _ in range(200):
        x, y = rng.random(2)
        assert evaluate(w, x, y) == evaluate(w, y, x)


def test_common_refinement_preserves_values():
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = random_step_graphon(rng, int(rng.integers(1, 6)))
        u = random_step_graphon(rng, int(rng.integers(1, 6)))
        rw, ru = common_refinement(w, u)
        assert rw.k == ru.k
        assert np.allclose(rw.boundaries, ru.boundaries, atol=1e-12)
        for _ in range(100):
            x, y = rng.random(2)
            assert evaluate(rw, x, y) == evaluate(w, x, y)
            assert evaluate(ru, x, y) == evaluate(u, x, y)


def test_equalize_preserves_values():
    rng = np.random.default_rng(9)
    w = pixel_graphon(random_graph(rng, 4))
    for m in (4, 8, 12):
        e = equalize(w, m)
        assert e.k == m
        assert np.allclose(e.measures, 1.0 / m)
        for _ in range(200):
            x, y = rng.random(2)
            assert evaluate(e, x, y) == evaluate(w, x, y)


def test_equalize_rejects_incompatible():
    w = Kernel(np.array([0.25, 0.75]), np.zeros((2, 2)))
    with pytest.raises(ValueError) as err:
        equalize(w, 3)  # 0.25 is not a multiple of 1/3
    assert str(err.value) == "block boundary 0.25 is not an integer multiple of 1/3"
    e = equalize(w, 4)
    assert e.k == 4


def test_permute_blocks_matches_relabel():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(2, 7)))
        perm = list(rng.permutation(g.n))
        a = pixel_graphon(relabel(g, perm))
        b = permute_blocks(pixel_graphon(g), perm)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.measures, b.measures)


def test_permute_blocks_validation():
    w = pixel_graphon(cycle(3))
    for perm in ([0, 0, 1], [1.0, 0.0, 2.0], [True, False, 2]):
        with pytest.raises(ValueError):
            permute_blocks(w, perm)


def test_subtract():
    k = subtract(pixel_graphon(single_edge()), constant_graphon(0.5))
    assert k.k == 2
    assert np.allclose(k.weights, [[-0.5, 0.5], [0.5, -0.5]])
    assert k.weights.min() >= -1.0 and k.weights.max() <= 1.0


def test_kernels_stay_kernels_through_the_partition_algebra():
    kern = subtract(constant_graphon(0.2), constant_graphon(0.7))
    e = equalize(kern, 2)
    assert np.array_equal(e.measures, [0.5, 0.5])
    assert np.array_equal(e.weights, np.full((2, 2), 0.2 - 0.7))
    rk, rb = common_refinement(kern, bipartite_limit())
    assert np.array_equal(rk.weights, np.full((2, 2), 0.2 - 0.7))
    assert np.array_equal(rb.weights, bipartite_limit().weights)
    assert np.array_equal(permute_blocks(e, [1, 0]).weights, e.weights)


def test_uniform_attachment_limit_closed_form():
    # block averages of 1 - max(x, y) over an m-grid, checked by quadrature
    scipy = pytest.importorskip("scipy")
    from scipy.integrate import dblquad

    for m in (1, 2, 3, 5):
        w = uniform_attachment_limit(m)
        assert w.k == m
        assert np.allclose(w.measures, 1.0 / m)
        for i in range(m):
            for j in range(i, m):
                val, err = dblquad(
                    lambda y, x: 1.0 - max(x, y),
                    i / m, (i + 1) / m,
                    j / m, (j + 1) / m,
                )
                cell = val * m * m
                # 1e-7 absorbs dblquad's own error on the kinked diagonal cells
                assert abs(w.weights[i, j] - cell) <= 1e-7, (m, i, j)


def test_uniform_attachment_limit_monotone():
    w = uniform_attachment_limit(8)
    d = np.diag(w.weights)
    assert np.all(np.diff(d) < 0)  # later blocks sit higher, so 1-max is smaller
    assert w.weights.max() <= 1.0 and w.weights.min() >= 0.0


def test_render_pgm():
    data = render_pgm(constant_graphon(0.5), 4)
    assert data.startswith(b"P5\n4 4\n255\n")
    body = data[len(b"P5\n4 4\n255\n"):]
    assert len(body) == 16
    assert set(body) == {128}  # 255 * 0.5 rounds half away from zero

    # single edge: 1s render black (0), 0s render white (255)
    data = render_pgm(pixel_graphon(single_edge()), 2)
    assert data[-4:] == bytes([255, 0, 0, 255])


def test_render_pgm_refuses_weights_without_a_gray():
    # weight -1 would wrap through uint8 to gray 254, next to weight 0's 255
    with pytest.raises(ValueError):
        render_pgm(subtract(constant_graphon(0), constant_graphon(1)), 2)
    # a kernel whose weights stay in [0, 1] still renders
    assert render_pgm(subtract(constant_graphon(1), constant_graphon(0)), 1).endswith(b"\x00")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: uniform_attachment_limit(2.5), "block count m must be an integer, got float"),
        (lambda: uniform_attachment_limit(True), "block count m must be an integer, got bool"),
        (lambda: uniform_attachment_limit(0), "block count m must be at least 1, got 0"),
        (lambda: render_pgm(bipartite_limit(), 2.5), "image size px must be an integer, got float"),
        (lambda: render_pgm(bipartite_limit(), True), "image size px must be an integer, got bool"),
        (lambda: render_pgm(bipartite_limit(), 0), "image size px must be at least 1, got 0"),
        (lambda: cycle(True), "cycle length n must be an integer, got bool"),
        (lambda: complete_bipartite(True, 1), "class size a must be an integer, got bool"),
    ],
    ids=["ua-limit-float", "ua-limit-bool", "ua-limit-0", "pgm-float", "pgm-bool", "pgm-0",
         "cycle-bool", "bipartite-bool"],
)
def test_bad_counts_refused_by_name(call, message):
    # a bool is no count, and the refusal names the argument
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_render_pgm_resolution():
    w = pixel_graphon(cycle(3))
    data = render_pgm(w, 9)
    assert data.startswith(b"P5\n9 9\n255\n")
    header = len(b"P5\n9 9\n255\n")
    img = np.frombuffer(data[header:], dtype=np.uint8).reshape(9, 9)
    # pixel centers sample the graphon: 3x3 block structure repeats every 3 px
    assert np.array_equal(img[0:3, 0:3], np.full((3, 3), img[0, 0]))
    assert np.array_equal(img, img.T)


def test_graphon_text_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(10):
        w = random_step_graphon(rng, int(rng.integers(1, 7)))
        back = parse_graphon(serialize_graphon(w))
        assert back.k == w.k
        assert np.allclose(back.measures, w.measures, atol=1e-15)
        assert np.allclose(back.weights, w.weights, atol=1e-15)


def test_graphon_text_skips_blank_lines():
    text = serialize_graphon(uniform_attachment_limit(3))
    spaced = "\n \n".join(text.splitlines()) + "\n\n"
    w, back = parse_graphon(text), parse_graphon(spaced)
    assert np.array_equal(w.measures, back.measures)
    assert np.array_equal(w.weights, back.weights)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("2\n0.5 0.5\n0 1\n", 4),  # missing a weight row
        ("2\n0.5 0.4\n0 1\n1 0\n", 2),  # mass != 1
        ("2\n0.5 0.5\n0 1\n0.5 0\n", 4),  # asymmetric beyond tolerance
        ("1\n1.0\n2.0\n", 3),  # weight out of range
        ("x\n", 1),  # non-integer block count
        ("0\n", 1),  # no blocks
        ("2 3\n0.5 0.5\n0 1\n1 0\n", 1),  # two numbers for the block count
        ("2\n0.5\n0 1\n1 0\n", 2),  # one measure for two blocks
        ("2\n0.5 0.5\n0 y\ny 0\n", 3),  # non-numeric weight
        ("1\n1.0\ninf\n", 3),  # infinite weight
        ("1\n1.0\nnan\n", 3),  # NaN weight
        ("1\nnan\n1.0\n", 2),  # NaN measure
        ("1\n1.0\n1.0\n\n0.5\n", 5),  # one data line too many
        ("2\n0.5 0.5\n2 1\n1 y\n", 4),  # format errors come before value errors
    ],
)
def test_parse_graphon_errors(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_graphon(text)
    assert err.value.line == lineno
    assert "np." not in str(err.value)  # a measure sum of 0.9 prints as 0.9
