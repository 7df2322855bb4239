"""Top-level acceptance suite.

One test per headline guarantee.  Each prints a single PASS/FAIL line
(visible under pytest -s) and then asserts, so a red run still reports
which guarantee broke.  Statistical checks use fixed seeds and bounds
calibrated against pre-freeze simulation runs; the measured values are
recorded next to each bound.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from graphonlab import (
    Kernel,
    bipartite_limit,
    complete,
    complete_bipartite,
    constant_graphon,
    cut_distance,
    cut_norm_exact,
    cut_norm_heuristic,
    cycle,
    density_graph,
    density_step,
    distance_to_constant,
    erdos_renyi,
    hom_count,
    pixel_graphon,
    relabel,
    single_edge,
    single_vertex,
    uniform_attachment,
    uniform_attachment_limit,
)
from conftest import (
    all_graphs,
    brute_cut_norm,
    brute_force_hom,
    brute_triangle_count,
    interleave_labeling,
    random_graph,
    random_kernel,
)

EDGE = single_edge()
TRIANGLE = complete(3)
C4 = cycle(4)

# frozen output of density_step(TRIANGLE, uniform_attachment_limit(64)),
# cross-checked before freezing against a 2e7-point Monte Carlo quadrature
# of the continuum surface (deviation 1.29 standard errors) and against
# the continuum value 1/15 (discretization gap ~1e-3, shrinking in m)
T3 = 0.06665649512972409


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_constant_half_densities_and_hom_identities():
    d4 = density_step(C4, constant_graphon(0.5)).value
    de = density_step(EDGE, constant_graphon(0.5)).value
    ok = abs(d4 - 1 / 16) <= 1e-12 and abs(de - 0.5) <= 1e-12

    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(1, 8)), float(rng.random()))
        idents = (
            hom_count(single_vertex(), g) == brute_force_hom(single_vertex(), g) == g.n
            and hom_count(EDGE, g) == brute_force_hom(EDGE, g) == 2 * g.edge_count
            and hom_count(TRIANGLE, g)
            == brute_force_hom(TRIANGLE, g)
            == 6 * brute_triangle_count(g)
        )
        ok = ok and idents
        checked += 1
    report(
        "constant-half densities and map-count identities",
        ok,
        f"t(c4)={d4}, t(edge)={de}, {checked} random graphs vs brute force",
    )
    assert ok


def test_four_cycle_edge_inequality():
    rng = np.random.default_rng(202)
    graph_violations = 0
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(1, 9)), float(rng.random()))
        h4 = hom_count(C4, g)
        he = hom_count(EDGE, g)
        # integer arithmetic: t(c4) >= t(edge)^4  <=>  h4 * n^4 >= he^4
        if h4 * g.n**4 < he**4:
            graph_violations += 1

    graphon_violations = 0
    for _ in range(200):
        k = int(rng.integers(1, 6))
        raw = rng.random(k) + 0.05
        w = rng.random((k, k))
        grf = Kernel(raw / raw.sum(), (w + w.T) / 2)
        t4 = density_step(C4, grf).value
        te = density_step(EDGE, grf).value
        if t4 < te**4 - 1e-12:
            graphon_violations += 1

    ok = graph_violations == 0 and graphon_violations == 0
    report(
        "four-cycle density dominates fourth power of edge density",
        ok,
        f"1000 graphs: {graph_violations} violations; "
        f"200 step graphons: {graphon_violations} violations",
    )
    assert ok


def test_pixel_picture_consistency():
    worst = 0.0
    count = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            w = pixel_graphon(g)
            for pat in (EDGE, TRIANGLE, C4):
                gap = abs(density_graph(pat, g).value - density_step(pat, w).value)
                worst = max(worst, gap)
            count += 1
    ok = worst <= 1e-12
    report(
        "graph densities equal pixel-picture densities",
        ok,
        f"all {count} graphs on up to 5 vertices, 3 patterns, worst gap {worst:.2e}",
    )
    assert ok


def test_cut_norm_oracle_agreement():
    rng = np.random.default_rng(4242)
    worst = 0.0
    above = 0
    matched = 0
    for i in range(100):
        k = int(rng.integers(1, 11))
        kern = random_kernel(rng, k)
        exact = cut_norm_exact(kern).value
        worst = max(worst, abs(exact - brute_cut_norm(kern)))
        heur = cut_norm_heuristic(kern, restarts=20, seed=i).value
        if heur > exact + 1e-12:
            above += 1
        if abs(heur - exact) <= 1e-12:
            matched += 1
    ok = worst <= 1e-12 and above == 0 and matched >= 90
    report(
        "cut norm matches double-enumeration oracle",
        ok,
        f"100 kernels, worst oracle gap {worst:.2e}, heuristic above exact {above}x, "
        f"heuristic tight {matched}/100 (calibrated floor 90)",
    )
    assert ok


def test_bipartite_labeling_distance_zero():
    worst = 0.0
    all_exact = True
    for n in (2, 3, 4):
        g = relabel(complete_bipartite(n, n), interleave_labeling(n))
        res = cut_distance(pixel_graphon(g), bipartite_limit(), 2 * n)
        worst = max(worst, res.value)
        all_exact = all_exact and res.exact
    ok = worst <= 1e-12 and all_exact
    report(
        "alternating bipartite labelings reach the two-block limit",
        ok,
        f"n in (2,3,4), exhaustive search, worst distance {worst:.2e}",
    )
    assert ok


def test_er_distance_to_half_shrinks():
    # calibrated medians for seeds 0..4: 0.152778 (n=6), 0.125000 (n=12),
    # 0.084201 (n=24); the bound below keeps headroom over the last one
    medians = []
    for n in (6, 12, 24):
        vals = [
            distance_to_constant(
                pixel_graphon(erdos_renyi(n, 0.5, seed)), 0.5, exact_threshold=24
            ).value
            for seed in range(5)
        ]
        medians.append(float(np.median(vals)))
    decreasing = medians[0] > medians[1] > medians[2]
    ok = decreasing and medians[2] <= 0.13 <= 0.2
    report(
        "random-graph distance to the flat graphon shrinks",
        ok,
        f"medians {[round(m, 6) for m in medians]}, exact norms, bound 0.13",
    )
    assert ok


def test_uniform_attachment_densities_converge():
    t3_now = density_step(TRIANGLE, uniform_attachment_limit(64)).value
    frozen_ok = abs(t3_now - T3) <= 1e-12

    edge_devs = []
    tri_devs = []
    for seed in range(5):
        g = uniform_attachment(400, seed)
        edge_devs.append(abs(density_graph(EDGE, g).value - 1 / 3))
        tri_devs.append(abs(density_graph(TRIANGLE, g).value - T3))
    mean_edge = float(np.mean(edge_devs))
    mean_tri = float(np.mean(tri_devs))
    # measured 0.00134 and 0.00071 for these seeds
    ok = frozen_ok and mean_edge <= 0.05 and mean_tri <= 0.05
    report(
        "growing attachment graphs approach their limit densities",
        ok,
        f"n=400, 5 seeds: mean |edge - 1/3| = {mean_edge:.5f}, "
        f"mean |triangle - {T3:.6f}| = {mean_tri:.5f}",
    )
    assert ok


def test_density_difference_bounded_by_cut_distance():
    rng = np.random.default_rng(808)
    violations = 0
    pairs = 0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        mu = np.full(m, 1.0 / m)
        a = rng.random((m, m))
        b = rng.random((m, m))
        w = Kernel(mu, (a + a.T) / 2)
        u = Kernel(mu, (b + b.T) / 2)
        dist = cut_distance(w, u, m).value
        for pat in (EDGE, TRIANGLE, C4):
            gap = abs(density_step(pat, w).value - density_step(pat, u).value)
            if gap > len(pat.edges) * dist + 1e-12:
                violations += 1
        pairs += 1
    ok = violations == 0
    report(
        "density differences obey the edge-count times distance bound",
        ok,
        f"{pairs} random pairs at up to 6 blocks, exhaustive search, "
        f"{violations} violations",
    )
    assert ok


def test_cli_byte_identical_reruns(tmp_path):
    import os

    def run(kind, out_dir, blas_threads):
        env = os.environ.copy()
        env["OPENBLAS_NUM_THREADS"] = blas_threads
        extra = ["--p", "0.5"] if kind == "er" else ["--exact-threshold", "8"]
        proc = subprocess.run(
            [
                sys.executable, "-m", "graphonlab", "converge",
                "--kind", kind, "--sizes", "4,8", "--seeds", "0,1",
                "--pgm-px", "16", *extra, "--out-dir", str(out_dir),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}
        return files

    ok = True
    for kind in ("er", "ua"):
        first = run(kind, tmp_path / f"{kind}1", blas_threads="1")
        again = run(kind, tmp_path / f"{kind}1again", blas_threads="1")
        threaded = run(kind, tmp_path / f"{kind}2", blas_threads="2")
        ok = ok and first == again == threaded and "trace.csv" in first
    report(
        "experiment outputs are byte-identical across reruns and BLAS thread counts",
        ok,
        "er and ua grids, 1 vs 2 BLAS threads, csv and pgm compared",
    )
    assert ok
