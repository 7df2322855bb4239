"""End-to-end checks of the command line interface via subprocess."""

import subprocess
import sys

import pytest

from graphonlab import (
    bipartite_limit,
    complete_bipartite,
    constant_graphon,
    cut_distance,
    cut_norm,
    cut_norm_heuristic,
    cycle,
    erdos_renyi,
    parse_edge_list,
    pixel_graphon,
    relabel,
    render_pgm,
    serialize_edge_list,
    serialize_graphon,
    single_edge,
    subtract,
    uniform_attachment_limit,
)
from conftest import brute_triangle_count


def run_cli(*argv, env_extra=None, cwd=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "graphonlab", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n0 1\n")
    return path


def test_density_constant_half_examples():
    r = run_cli("density", "--pattern", "c4", "--graphon", "constant:0.5")
    assert r.returncode == 0
    assert r.stdout.strip() == "0.0625 exact 0"
    r = run_cli("density", "--pattern", "edge", "--graphon", "constant:0.5")
    assert r.stdout.strip() == "0.5 exact 0"


def test_density_graph_file(k2_file):
    r = run_cli("density", "--pattern", "vertex", "--graph", k2_file)
    assert r.returncode == 0
    assert r.stdout.strip() == "1 exact 0"


def test_density_monte_carlo_flag():
    r = run_cli(
        "density", "--pattern", "triangle", "--graphon", "ua-limit:8",
        "--mc", "5000", "--seed", "3",
    )
    assert r.returncode == 0
    value, method, stderr_col = r.stdout.split()
    assert method == "monte-carlo"
    assert abs(float(value) - 1 / 15) < 0.05
    assert float(stderr_col) > 0.0


def test_density_mc_with_graph_refused(k2_file):
    r = run_cli("density", "--pattern", "c4", "--graph", k2_file, "--mc", "1000", "--seed", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "--graphon pixel:FILE --mc N" in r.stderr


def test_density_work_limit_refusal_exit_3(tmp_path):
    k5 = tmp_path / "k5.txt"
    k5.write_text("5 10\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    host = tmp_path / "host.txt"
    host.write_text("300 1\n0 1\n")
    # c4 on 1024 blocks costs about 2.1e9; k5 on 300 vertices about 2.4e12
    for argv in (
        ["--pattern", "c4", "--graphon", "ua-limit:1024"],
        ["--pattern", k5, "--graph", host],
    ):
        r = run_cli("density", *argv)
        assert r.returncode == 3
        assert r.stderr.startswith("refused:")
        assert "density_mc" in r.stderr


def test_density_graph_honours_work_limit(tmp_path):
    small = tmp_path / "c5.txt"
    small.write_text(serialize_edge_list(cycle(5)))
    r = run_cli("density", "--pattern", "c4", "--graph", small, "--work-limit", "1")
    assert r.returncode == 3
    assert r.stderr.startswith("refused:") and "(limit 1)" in r.stderr
    # a triangle on 464 host vertices costs 464^3 + 464^2 + 464, just over 1e8
    host = erdos_renyi(464, 0.05, seed=3)
    big = tmp_path / "big.txt"
    big.write_text(serialize_edge_list(host))
    r = run_cli("density", "--pattern", "triangle", "--graph", big)
    assert r.returncode == 3
    r = run_cli("density", "--pattern", "triangle", "--graph", big, "--work-limit", "200000000")
    assert r.returncode == 0
    value, method, _ = r.stdout.split()
    assert method == "exact"
    assert float(value) == 6 * brute_triangle_count(host) / 464**3


def test_missing_file_exit_2(tmp_path):
    r = run_cli("density", "--pattern", "edge", "--graph", tmp_path / "absent.txt")
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


def test_malformed_graphon_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.5 0.5\n0 1\n0.5 0\n")
    r = run_cli("cutnorm", bad, "constant:0.5")
    assert r.returncode == 2
    assert "line 4" in r.stderr


@pytest.mark.parametrize(
    "bad", [["--p", "2"], ["--seeds", "-1"], ["--pgm-px", "0"], ["--kind", "ua", "--p", "0.3"]]
)
def test_refused_converge_leaves_no_out_dir(tmp_path, bad):
    # the last of a repeated option wins, so bad replaces the valid value
    r = run_cli(
        "converge", "--kind", "er", "--sizes", "4", "--seeds", "0", "--pgm-px", "8",
        *bad, "--out-dir", tmp_path / "out",
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_cutnorm_example(tmp_path):
    pix = tmp_path / "edge_pix.txt"
    pix.write_text(serialize_graphon(pixel_graphon(single_edge())))
    r = run_cli("cutnorm", pix, "constant:0.5")
    assert r.returncode == 0
    assert r.stdout.strip() == "0.125 exact S=0 T=1"


def test_cutnorm_heuristic_above_threshold():
    r = run_cli("cutnorm", "ua-limit:24", "constant:0.5")
    assert r.returncode == 0
    value, mode = r.stdout.split()[:2]
    assert mode == "lower-bound"
    r2 = run_cli("cutnorm", "ua-limit:24", "constant:0.5", "--exact-threshold", "24")
    value2, mode2 = r2.stdout.split()[:2]
    assert mode2 == "exact"
    # full-square box: |mean(1 - max) - 1/2| = 1/6, and the heuristic finds it
    assert abs(float(value2) - 1 / 6) < 1e-12
    assert float(value) <= float(value2) + 1e-12


def test_cutnorm_unequal_blocks():
    # subtract compares the two partitions on their common refinement
    r = run_cli("cutnorm", "bipartite", "ua-limit:2")
    assert r.returncode == 0
    assert r.stdout == "0.1875 exact S=0 T=1\n"


def test_removed_flags_refused(k2_file, tmp_path):
    for argv in (
        ["cutnorm", "bipartite", "ua-limit:2", "--resolution", "4"],
        ["render", "--graph", k2_file, "--out", tmp_path / "k2.pgm"],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
    assert not (tmp_path / "k2.pgm").exists()


def test_restarts_below_one_refused_in_every_regime(tmp_path):
    kern = subtract(constant_graphon(0.5), bipartite_limit())
    calls = [
        lambda: cut_norm(kern, restarts=0),
        lambda: cut_norm(kern, exact_threshold=1, restarts=0),
        lambda: cut_norm_heuristic(kern, restarts=0),
        lambda: cut_distance(constant_graphon(0.5), bipartite_limit(), 2, restarts=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need at least one restart"):
            call()
    for argv in (
        ["cutnorm", "constant:0.5", "bipartite", "--restarts", "0"],
        ["cutnorm", "constant:0.5", "bipartite", "--restarts", "0", "--exact-threshold", "1"],
        ["cutdist", "constant:0.5", "bipartite", "--resolution", "2", "--restarts", "0"],
        ["converge", "--kind", "er", "--sizes", "4", "--seeds", "0", "--restarts", "0",
         "--out-dir", tmp_path / "er"],
        ["converge", "--kind", "ua", "--sizes", "4", "--seeds", "0", "--restarts", "0",
         "--out-dir", tmp_path / "ua"],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stderr == "error: need at least one restart\n"


def test_negative_limits_refused(tmp_path):
    kern = subtract(constant_graphon(0.5), bipartite_limit())
    message = "exact_threshold must be at least 0, got -1"
    for call in (
        lambda: cut_norm(kern, exact_threshold=-1),
        lambda: cut_distance(constant_graphon(0.5), bipartite_limit(), 4, exact_threshold=-1),
        lambda: cut_distance(constant_graphon(0.5), bipartite_limit(), 12, exact_threshold=-1),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    for argv, message in (
        (["cutnorm", "bipartite", "ua-limit:2", "--exact-threshold", "-1"], message),
        (["cutdist", "bipartite", "ua-limit:2", "--resolution", "4", "--exact-threshold", "-5"],
         "exact_threshold must be at least 0, got -5"),
        (["converge", "--kind", "ua", "--sizes", "4", "--seeds", "0", "--exact-threshold", "-1",
          "--out-dir", tmp_path / "ua"], message),
        (["bipartite", "--sizes", "2", "--exact-threshold", "-1"], message),
        (["density", "--pattern", "c4", "--graphon", "ua-limit:4", "--work-limit", "-1"],
         "work_limit must be at least 0, got -1"),
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"
    assert not (tmp_path / "ua").exists()
    # a limit of 0 still refuses every contraction
    r = run_cli("density", "--pattern", "c4", "--graphon", "ua-limit:4", "--work-limit", "0")
    assert r.returncode == 3
    assert r.stderr.startswith("refused:") and "(limit 0)" in r.stderr


def test_empty_int_lists_refused(tmp_path):
    for argv, flag in (
        (["converge", "--kind", "er", "--sizes", ",", "--seeds", "0", "--out-dir", tmp_path / "a"],
         "--sizes"),
        (["converge", "--kind", "er", "--sizes", "4", "--seeds", "", "--out-dir", tmp_path / "b"],
         "--seeds"),
        (["bipartite", "--sizes", ""], "--sizes"),
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert f"argument {flag}: expected a comma-separated integer list" in r.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_bad_seed_refused_in_every_regime(seed):
    kern = subtract(constant_graphon(0.5), bipartite_limit())
    message = f"seed must fit in an unsigned 64-bit integer, got {seed}"
    calls = [
        lambda: cut_norm(kern, seed=seed),
        lambda: cut_norm(kern, exact_threshold=1, seed=seed),
        lambda: cut_norm_heuristic(kern, seed=seed),
        lambda: cut_distance(constant_graphon(0.5), bipartite_limit(), 4, seed=seed),
        lambda: cut_distance(constant_graphon(0.5), bipartite_limit(), 12, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    for argv in (
        ["cutnorm", "constant:0.5", "bipartite", "--seed", seed],
        ["cutnorm", "constant:0.5", "bipartite", "--seed", seed, "--exact-threshold", "1"],
        ["cutdist", "constant:0.5", "bipartite", "--resolution", "4", "--seed", seed],
        ["cutdist", "constant:0.5", "bipartite", "--resolution", "12", "--seed", seed],
        ["bipartite", "--sizes", "2", "--seed", seed],
    ):
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"


def test_cutdist_checkerboard(tmp_path):
    block = tmp_path / "block.txt"
    alt = tmp_path / "alt.txt"
    block.write_text(serialize_graphon(pixel_graphon(complete_bipartite(2, 2))))
    alt.write_text(
        serialize_graphon(pixel_graphon(relabel(complete_bipartite(2, 2), [0, 2, 1, 3])))
    )
    r = run_cli("cutdist", block, alt, "--resolution", "4")
    assert r.returncode == 0
    assert r.stdout.strip() == "0 exact perm=0,2,1,3"


def test_cutdist_estimate_mode():
    r = run_cli("cutdist", "ua-limit:12", "ua-limit:12", "--resolution", "12")
    assert r.returncode == 0
    value, mode, perm = r.stdout.split()
    assert value == "0" and mode == "estimate"


def test_sample_deterministic_and_out(tmp_path):
    a = run_cli("sample", "--model", "erdos-renyi", "--n", "12", "--p", "0.3", "--seed", "7")
    b = run_cli("sample", "--model", "erdos-renyi", "--n", "12", "--p", "0.3", "--seed", "7")
    assert a.returncode == 0 and a.stdout == b.stdout
    out = tmp_path / "g.txt"
    c = run_cli("sample", "--model", "erdos-renyi", "--n", "12", "--p", "0.3",
                "--seed", "7", "--out", out)
    assert c.returncode == 0
    assert out.read_text() == a.stdout


def test_sample_ua_model():
    r = run_cli("sample", "--model", "uniform-attachment", "--n", "9", "--seed", "0")
    assert r.returncode == 0
    header = r.stdout.splitlines()[0].split()
    assert header[0] == "9"


def test_sample_refuses_unused_inputs():
    for argv in (
        ["--model", "erdos-renyi", "--p", "0.5", "--graphon", "bipartite"],
        ["--model", "uniform-attachment", "--p", "0.3"],
    ):
        r = run_cli("sample", "--n", "4", *argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert r.stderr.startswith("error: only ")


def test_render_matches_library(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text(serialize_edge_list(erdos_renyi(9, 0.4, seed=2)))
    for literal, w in (
        ("ua-limit:5", uniform_attachment_limit(5)),
        (f"pixel:{edges}", pixel_graphon(parse_edge_list(edges.read_text()))),
    ):
        out = tmp_path / "w.pgm"
        r = run_cli("render", "--graphon", literal, "--px", "20", "--out", out)
        assert r.returncode == 0
        assert out.read_bytes() == render_pgm(w, 20)


def test_render_constant_gray(tmp_path):
    out = tmp_path / "c.pgm"
    run_cli("render", "--graphon", "constant:0.5", "--px", "4", "--out", out)
    data = out.read_bytes()
    assert data == b"P5\n4 4\n255\n" + bytes([128]) * 16


def test_converge_er_schema_and_determinism(tmp_path):
    args = (
        "converge", "--kind", "er", "--sizes", "4,6", "--seeds", "0,1",
        "--p", "0.5", "--pgm-px", "8",
    )
    r1 = run_cli(*args, "--out-dir", tmp_path / "a")
    assert r1.returncode == 0, r1.stderr
    trace = (tmp_path / "a" / "trace.csv").read_text()
    lines = trace.splitlines()
    assert lines[0] == "n,seed,edge_density,triangle_density,c4_density,cut_stat"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        float(fields[-1])  # parses
    # grid order: n varies slowest
    assert [tuple(l.split(",")[:2]) for l in lines[1:]] == [
        ("4", "0"), ("4", "1"), ("6", "0"), ("6", "1")
    ]
    pgms = sorted(p.name for p in (tmp_path / "a").glob("*.pgm"))
    assert pgms == [
        "er_n4_seed0_px8.pgm", "er_n4_seed1_px8.pgm",
        "er_n6_seed0_px8.pgm", "er_n6_seed1_px8.pgm",
    ]

    r2 = run_cli(*args, "--out-dir", tmp_path / "b")
    assert (tmp_path / "b" / "trace.csv").read_text() == trace
    for name in pgms:
        assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def converge_by_blas_threads(out, *args):
    """Out-dir contents of one converge run at 1 and at 2 BLAS threads."""
    runs = []
    for threads in ("1", "2"):
        r = run_cli(
            "converge", *args, "--out-dir", out / threads,
            env_extra={"OPENBLAS_NUM_THREADS": threads},
        )
        assert r.returncode == 0, r.stderr
        runs.append({p.name: p.read_bytes() for p in (out / threads).iterdir()})
    return runs


def test_converge_parallel_identical(tmp_path):
    one, two = converge_by_blas_threads(
        tmp_path, "--kind", "ua", "--sizes", "6,8", "--seeds", "0,1,2",
        "--pgm-px", "8", "--exact-threshold", "8",
    )
    assert "trace.csv" in one and len(one) == 7
    assert one == two


def test_converge_blas_threads_identical(tmp_path):
    # the cut-metric kernels batch their matrix products, whose rounding
    # may depend on how BLAS splits them over threads; the output may not.
    # ua runs the exhaustive search and the hill-climb, er the exact norm
    # at 16 and 20 blocks, where the high rows are swept one at a time
    grids = {
        "ua": ("--kind", "ua", "--sizes", "8,24", "--seeds", "0,1"),
        "er": ("--kind", "er", "--sizes", "16,20", "--seeds", "0,1"),
    }
    for name, args in grids.items():
        one, two = converge_by_blas_threads(tmp_path / name, *args)
        assert "trace.csv" in one and len(one) == 5, name
        assert one == two, name


def test_extremal_report():
    r = run_cli("extremal", "--trials", "60", "--max-n", "6", "--seed", "0")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("inequality trials=60 max_n=6 violations=0")
    assert lines[1].startswith("dense n=6")
    assert "target=0.0625" in lines[1]


def test_extremal_refuses_bad_arguments():
    for argv, message in (
        (["--trials", "-3"], "--trials must be at least 0, got -3"),
        (["--max-n", "0"], "--max-n must be at least 1, got 0"),
        (["--trials", "0", "--seed", "-1"],
         "seed must fit in an unsigned 64-bit integer, got -1"),
    ):
        r = run_cli("extremal", *argv)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"


def test_bipartite_report():
    r = run_cli("bipartite", "--sizes", "2,3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "n=2 labeling=block distance=0 exact" in lines
    assert "n=2 labeling=alternating distance=0 exact" in lines
    assert any(line.startswith("n=3 densities") and line.endswith("agree=yes") for line in lines)


def test_unknown_subcommand_usage():
    r = run_cli("frobnicate")
    assert r.returncode == 2
    assert "usage" in r.stderr.lower()
