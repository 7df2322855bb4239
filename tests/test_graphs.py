import random
import re
import tracemalloc

import numpy as np
import pytest

from graphonlab import (
    Graph,
    erdos_renyi,
    ParseError,
    WorkLimitExceeded,
    bipartite_limit,
    complete,
    complete_bipartite,
    constant_graphon,
    cycle,
    hom_count,
    parse_edge_list,
    parse_graphon,
    relabel,
    serialize_edge_list,
    serialize_graphon,
    single_edge,
    single_vertex,
    uniform_attachment_limit,
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
    # out-of-range endpoints are not edges; -1 must not wrap to the last vertex
    for g in (b, c):
        assert not g.has_edge(-1, 0) and not g.has_edge(0, -1)
        assert not g.has_edge(0, g.n) and not g.has_edge(g.n, 0)
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
    # ... in the plain constructor too: one edge to every reader, one value
    g = Graph(3, [(0, 1), (0, 1)])
    one = Graph.from_edges(3, [(0, 1)])
    assert g.edge_count == 1 and hom_count(single_edge(), g) == 2
    assert serialize_edge_list(g) == "3 1\n0 1\n"
    assert g == one and hash(g) == hash(one)
    # pairs are unordered, whatever container holds them
    assert Graph(3, frozenset({(1, 0)})) == one
    assert Graph(3, np.array([[1, 0]])) == one
    # messages name the offending pair, oriented
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [(0, 1), (2, 2)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range for n=3"):
        Graph(3, [(0, -1)])
    # the first refused pair in row order, whichever rule refuses it
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range for n=3"):
        Graph(3, [(0, -1), (2, 2)])
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph(3, [(2, 2), (0, -1)])
    # non-integer endpoints are refused, not truncated
    for bad in ([(0.5, 1)], [(0, 1.0)], np.array([[0.0, 1.0]]), [("0", "1")]):
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(3, bad)
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])


def test_graph_vertex_count_must_be_an_integer():
    for bad in (2.5, 3.0, True, float("nan")):
        with pytest.raises(ValueError, match="^vertex count n must be an integer"):
            Graph(bad, [])
    g = Graph(np.int64(3), [(0, 1)])
    assert type(g.n) is int and g == Graph(3, [(0, 1)])


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


def test_serialize_matches_per_edge_format():
    def per_edge(g):
        lines = [f"{g.n} {g.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in zip(*g._pairs.T.tolist()))
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(11)
    graphs = [
        Graph(0, []),
        single_vertex(),
        Graph(5, []),
        complete(7),
        Graph(6, [(0, 1), (1, 2)]),  # isolated last vertices
        Graph(4, [(0, 3), (1, 2)]),
    ]
    graphs += [random_graph(rng, n, p) for n in (2, 9, 40) for p in (0.1, 0.5, 0.9)]
    for g in graphs:
        assert serialize_edge_list(g) == per_edge(g)


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
        ("-1 0\n", 1),  # negative vertex count
        ("3 1\n0 1 2\n", 2),  # three fields in an edge row
        ("3 1\n0 x\n", 2),  # non-integer endpoint
        ("3 1\n0 99999999999999999999\n", 2),  # beyond int64
        # well-formed rows that Graph refuses: the first refused row's line
        ("3 2\n0 1\n2 -1\n", 3),
        ("3 2\n0 1\n1 1\n", 3),
        ("3 2\n1 1\n0 x\n", 3),  # format errors come before value errors
        ("3 1\n0 1\n\n1 2\n", 4),  # one row too many
        ("3 99999999999999999999\n0 1\n", 3),  # rows missing: the end of the text
        # no graph on n vertices fits; numpy refuses before allocating
        ("99999999999999999999 0\n", 1),
        ("3037000500 0\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == lineno
    assert f"line {lineno}" in str(err.value)


def test_mutated_text_parses_or_names_a_line():
    """Insert, replace or delete tokens in serialized graphs and graphons:
    each text parses, or raises ParseError naming a line of it or its end."""
    rng = random.Random(0)
    tokens = ["x", "nan", "inf", "-1", "0", "1", "2", "0.5", "99999999999999999999", ""]
    texts = [(parse_edge_list, serialize_edge_list(g))
             for g in (Graph(0, []), single_edge(), complete(3), cycle(4), Graph(6, [(0, 5)]))]
    texts += [(parse_graphon, serialize_graphon(w))
              for w in (constant_graphon(0.5), bipartite_limit(), uniform_attachment_limit(3))]
    for _ in range(6000):
        parse, text = rng.choice(texts)
        pieces = re.split(r"(\s)", text)  # fields and single whitespace characters
        for _ in range(rng.randint(1, 2)):  # two at most: every vertex count stays small
            i = rng.randrange(len(pieces))
            op = rng.randrange(3)
            if op == 0:
                pieces.insert(i, rng.choice(tokens) + rng.choice(" \n"))
            elif op == 1:
                pieces[i] = rng.choice(tokens)
            else:
                del pieces[i]
        mutated = "".join(pieces)
        try:
            parse(mutated)
        except ParseError as exc:
            assert 1 <= exc.line <= len(mutated.splitlines()) + 1, (mutated, exc)


def test_relabel():
    g = Graph.from_edges(3, [(0, 1)])
    h = relabel(g, [2, 0, 1])
    assert h.edges == frozenset({(0, 2)})
    for perm in ([0, 0, 1], [2.0, 0.0, 1.0], [True, False, 2]):
        with pytest.raises(ValueError):
            relabel(g, perm)


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


@pytest.mark.one_blas_thread
def test_hom_count_tiers_match_star_oracle():
    # hom(K_{1,16}, G) = sum of deg(v)^16: 8^17 = 2^51 keeps n = 8 in
    # float64 and 9^17 puts n = 9 in int64, both beside a Python-int oracle
    star = Graph(17, [(0, leaf) for leaf in range(1, 17)])
    assert 8**17 < 2**53 <= 9**17 < 2**63
    rng = np.random.default_rng(17)
    for n in (8, 9):
        for _ in range(5):
            host = random_graph(rng, n, 0.8)
            degrees = host.adjacency.sum(axis=1).tolist()
            count = hom_count(star, host)
            assert type(count) is int and count == sum(d**16 for d in degrees)


@pytest.mark.one_blas_thread
def test_hom_blas_steps_match_matrix_power_traces(monkeypatch):
    # at n = 300 the k^3 steps of triangle and C4 take einsum's pairwise
    # (BLAS) path; the counts are the traces of int64 matrix powers
    optimize = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        optimize.append(kwargs.get("optimize", False))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    for seed in (0, 1):
        host = erdos_renyi(300, 0.5, seed)
        a = host.adjacency.astype(np.int64)
        a2 = a @ a
        assert hom_count(complete(3), host) == int(np.trace(a2 @ a))
        assert hom_count(cycle(4), host) == int(np.trace(a2 @ a2))
    assert any(optimize)
    # small hosts keep numpy's C loop for every step
    optimize.clear()
    # closed 4-walks in K8: the eigenvalues of J - I are 7 once and -1 seven times
    assert hom_count(cycle(4), complete(8)) == 7**4 + 7
    assert not any(optimize)


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
