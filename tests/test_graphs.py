import tracemalloc

import numpy as np
import pytest

from graphonlab import (
    Graph,
    ParseError,
    WorkLimitExceeded,
    complete,
    complete_bipartite,
    cycle,
    hom_count,
    parse_edge_list,
    relabel,
    serialize_edge_list,
    single_edge,
    single_vertex,
)
from conftest import (
    brute_force_hom,
    brute_triangle_count,
    disjoint_union,
    random_graph,
)


def test_constructors():
    g = complete(4)
    assert g.n == 4 and g.edge_count == 6
    b = complete_bipartite(2, 3)
    assert b.n == 5 and b.edge_count == 6
    assert b.has_edge(0, 2) and not b.has_edge(0, 1)
    c = cycle(5)
    assert c.edge_count == 5 and c.has_edge(0, 4)
    assert single_vertex().n == 1 and single_vertex().edge_count == 0
    assert single_edge().edge_count == 1


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])  # loop
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])  # out of range
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    # duplicate edges collapse
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_adjacency_matrix():
    g = cycle(4)
    a = g.adjacency
    assert a.dtype == bool
    assert np.array_equal(a, a.T)
    assert not a.diagonal().any()
    assert a.sum() == 2 * g.edge_count
    with pytest.raises(ValueError):
        a[0, 0] = True  # read-only


def test_parse_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 9)))
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_parse_format():
    g = parse_edge_list("3 2\n0 1\n\n1 2\n")
    assert g.n == 3 and g.edge_count == 2
    # duplicate rows are tolerated
    g = parse_edge_list("2 2\n0 1\n0 1\n")
    assert g.edge_count == 1


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("", 1),
        ("3\n", 1),
        ("x y\n", 1),
        ("2 1\n0 2\n", 2),
        ("2 1\n0 0\n", 2),
        ("2 1\n0 1\n0\n", 3),
        ("2 2\n0 1\n", 3),  # fewer edges than promised
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


def test_relabel():
    g = Graph.from_edges(3, [(0, 1)])
    h = relabel(g, [2, 0, 1])
    assert h.edges == frozenset({(0, 2)})
    with pytest.raises(ValueError):
        relabel(g, [0, 0, 1])


def test_hom_identities():
    vertex = single_vertex()
    edge = single_edge()
    triangle = complete(3)
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 8)))
        assert hom_count(vertex, g) == g.n
        assert hom_count(edge, g) == 2 * g.edge_count
        assert hom_count(triangle, g) == 6 * brute_triangle_count(g)


def test_hom_small_closed_forms():
    # maps from C4 into C4: 4 rotations x 2 orientations x ... enumerate by hand
    assert hom_count(cycle(4), cycle(4)) == 32
    assert hom_count(complete(3), complete(3)) == 6
    assert hom_count(single_edge(), complete_bipartite(2, 2)) == 8
    # no triangle maps into a bipartite host
    assert hom_count(complete(3), complete_bipartite(3, 3)) == 0


def test_hom_against_brute_force():
    patterns = [
        single_vertex(),
        single_edge(),
        Graph.from_edges(3, [(0, 1), (1, 2)]),
        complete(3),
        cycle(4),
        complete(4),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        Graph.from_edges(4, []),
    ]
    rng = np.random.default_rng(23)
    hosts = [random_graph(rng, int(rng.integers(1, 6)), float(rng.random()))
             for _ in range(12)]
    for h in patterns:
        for g in hosts:
            assert hom_count(h, g) == brute_force_hom(h, g)


def test_hom_exact_above_int64():
    # 3^41 and 3^40 exceed 2^63, so both counts take the Python-integer path
    path = Graph.from_edges(41, ((i, i + 1) for i in range(40)))
    count = hom_count(path, complete(3))
    assert type(count) is int and count == 3 * 2**40
    count = hom_count(Graph(40, frozenset()), complete(3))
    assert type(count) is int and count == 3**40


def test_hom_refused_before_allocating():
    # K5 on 300 vertices: its first step alone would build a 300^4 int64
    # array (about 65 GB)
    host = Graph(300, frozenset())
    tracemalloc.start()
    with pytest.raises(WorkLimitExceeded) as err:
        hom_count(complete(5), host)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert err.value.needed == sum(300**s for s in range(1, 6))
    assert peak < 1 << 20
    # the largest triangle host under the default limit of 10^8
    assert hom_count(complete(3), Graph(463, frozenset())) == 0
    with pytest.raises(WorkLimitExceeded):
        hom_count(complete(3), Graph(464, frozenset()))
    assert hom_count(complete(3), Graph(464, frozenset()), work_limit=2 * 10**8) == 0
    with pytest.raises(WorkLimitExceeded):
        hom_count(single_edge(), Graph(2, frozenset()), work_limit=1)


def test_hom_empty_host_and_pattern():
    assert hom_count(single_edge(), Graph.from_edges(0, [])) == 0
    with pytest.raises(ValueError):
        hom_count(Graph.from_edges(0, []), complete(3))


def test_hom_disjoint_union_multiplicative():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h1 = random_graph(rng, int(rng.integers(1, 4)))
        h2 = random_graph(rng, int(rng.integers(1, 4)))
        g = random_graph(rng, int(rng.integers(1, 6)))
        assert hom_count(disjoint_union(h1, h2), g) == hom_count(h1, g) * hom_count(h2, g)


def test_hom_relabel_invariant():
    rng = np.random.default_rng(43)
    for _ in range(20):
        h = random_graph(rng, int(rng.integers(1, 5)))
        g = random_graph(rng, int(rng.integers(2, 7)))
        perm = rng.permutation(g.n)
        assert hom_count(h, relabel(g, perm)) == hom_count(h, g)
