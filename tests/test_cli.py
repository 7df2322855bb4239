"""End-to-end checks of the command line interface via subprocess."""

import subprocess
import sys

import pytest

from graphonlab import (
    complete_bipartite,
    cycle,
    erdos_renyi,
    pixel_graphon,
    relabel,
    render_pgm,
    serialize_edge_list,
    serialize_graphon,
    single_edge,
    uniform_attachment_limit,
)
from conftest import brute_triangle_count


def run_cli(*argv, env_extra=None, cwd=None):
    import os

    env = os.environ.copy()
    env.setdefault("GRAPHONLAB_THREADS", "1")
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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_worker_count_below_one_exit_2(tmp_path, threads):
    r = run_cli(
        "converge", "--kind", "er", "--sizes", "4", "--seeds", "0",
        "--out-dir", tmp_path / "out", env_extra={"GRAPHONLAB_THREADS": threads},
    )
    assert r.returncode == 2
    assert r.stderr.startswith("error:") and "GRAPHONLAB_THREADS" in r.stderr
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


def test_cutnorm_resolution_flag(tmp_path):
    # equalizing to a common grid lets graphons with unequal blocks compare
    r = run_cli("cutnorm", "bipartite", "ua-limit:2", "--resolution", "4")
    assert r.returncode == 0
    assert float(r.stdout.split()[0]) > 0.0


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


def test_render_matches_library(tmp_path):
    out = tmp_path / "w.pgm"
    r = run_cli("render", "--graphon", "ua-limit:5", "--px", "20", "--out", out)
    assert r.returncode == 0
    assert out.read_bytes() == render_pgm(uniform_attachment_limit(5), 20)


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


def test_converge_parallel_identical(tmp_path):
    args = (
        "converge", "--kind", "ua", "--sizes", "6,8", "--seeds", "0,1,2",
        "--pgm-px", "8", "--exact-threshold", "8",
    )
    seq = run_cli(*args, "--out-dir", tmp_path / "s", env_extra={"GRAPHONLAB_THREADS": "1"})
    par = run_cli(*args, "--out-dir", tmp_path / "p", env_extra={"GRAPHONLAB_THREADS": "4"})
    assert seq.returncode == 0 and par.returncode == 0
    assert (tmp_path / "s" / "trace.csv").read_bytes() == (tmp_path / "p" / "trace.csv").read_bytes()
    for p in sorted((tmp_path / "s").glob("*.pgm")):
        assert (tmp_path / "p" / p.name).read_bytes() == p.read_bytes()


def test_extremal_report():
    r = run_cli("extremal", "--trials", "60", "--max-n", "6", "--seed", "0")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("inequality trials=60 max_n=6 violations=0")
    assert lines[1].startswith("dense n=6")
    assert "target=0.0625" in lines[1]


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
