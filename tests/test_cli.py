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
from graphonlab import cli
from conftest import brute_triangle_count


def run_cli(*argv, env_extra=None, cwd=None, preexec_fn=None):
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
        preexec_fn=preexec_fn,
    )


def _cap_address_space():  # in a child only: 4 GiB of address space
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


# RLIMIT_AS caps allocations on Linux
_CAP = _cap_address_space if sys.platform == "linux" else None


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
    # a sample count with no standard error is refused by its flag's name,
    # before any load: ua-limit:100000 would ask for 75 GiB (exit 3)
    for graphon, mc in (("ua-limit:8", "1"), ("ua-limit:8", "-5"), ("ua-limit:100000", "1")):
        r = run_cli("density", "--pattern", "edge", "--graphon", graphon, "--mc", mc, preexec_fn=_CAP)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == f"error: --mc must be 0 (exact) or at least 2, got {mc}\n"


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


@pytest.mark.skipif(_CAP is None, reason="RLIMIT_AS caps allocations on Linux")
def test_memory_exhaustion_exit_3(tmp_path):
    # each asks for one array of 75-931 GiB
    for argv in (
        ["render", "--graphon", "constant:0.5", "--px", "200000", "--out", tmp_path / "w.pgm"],
        ["sample", "--model", "erdos-renyi", "--n", "1000000", "--p", "0.5"],
        ["density", "--graphon", "ua-limit:100000", "--pattern", "edge"],
    ):
        r = run_cli(*argv, preexec_fn=_CAP)
        assert r.returncode == 3, argv
        assert r.stdout == ""
        assert r.stderr.startswith("refused: ") and r.stderr.count("\n") == 1, r.stderr
        assert "Traceback" not in r.stderr
    assert not (tmp_path / "w.pgm").exists()


@pytest.mark.skipif(_CAP is None, reason="RLIMIT_AS caps allocations on Linux")
def test_sample_refuses_an_unused_argument_before_building_the_graphon():
    # ua-limit:100000 would ask for 75 GiB (exit 3) if it were built first
    for argv, message in (
        (["--model", "erdos-renyi", "--p", "0.5"], "only w-random takes a graphon"),
        (["--model", "uniform-attachment"], "only w-random takes a graphon"),
        (["--model", "w-random", "--p", "0.5"], "only erdos-renyi takes an edge probability p"),
    ):
        r = run_cli("sample", *argv, "--n", "5", "--graphon", "ua-limit:100000", preexec_fn=_CAP)
        assert r.returncode == 2, argv
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"


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
    # the one error line names the refused argument, whichever it is
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.5 0.5\n0 1\n0.5 0\n")
    loop = tmp_path / "loop.txt"
    loop.write_text("3 2\n0 1\n1 1\n")
    cases = [
        (["cutnorm", bad, "constant:0.5"], f"{bad}: line 4: "),
        (["cutnorm", "constant:0.5", bad], f"{bad}: line 4: "),
        (["density", "--pattern", loop, "--graphon", "constant:0.5"], f"{loop}: line 3: "),
        (["density", "--pattern", "triangle", "--graph", loop], f"{loop}: line 3: "),
        (["cutnorm", "ua-limit:0", "bipartite"], "ua-limit:0: block count m must be at least 1, got 0"),
        (["cutnorm", "bipartite", "ua-limit:5.0"], "ua-limit:5.0: invalid literal"),
        (["cutdist", "constant:abc", "bipartite", "--resolution", "2"], "constant:abc: could not convert"),
    ]
    for argv, named in cases:
        r = run_cli(*argv)
        assert r.returncode == 2, argv
        assert r.stderr.startswith(f"error: {named}") and r.stderr.count("\n") == 1, argv


@pytest.mark.parametrize(
    "bad",
    [["--p", "2"], ["--seeds", "-1"], ["--pgm-px", "0"], ["--kind", "ua", "--p", "0.3"],
     ["--kind", "ua", "--pgm-px", "8", "0"], ["--sizes", "4,0"], ["--seeds", "0,-1"],
     ["--sizes", "4,4"], ["--seeds", "0,1,0"], ["--pgm-px", "8", "8"]],
)
def test_refused_converge_leaves_no_out_dir(tmp_path, bad, monkeypatch):
    # the last of a repeated option wins, so bad replaces the valid value
    argv = [
        "converge", "--kind", "er", "--sizes", "4", "--seeds", "0", "--pgm-px", "8",
        *bad, "--out-dir", str(tmp_path / "out"),
    ]
    r = run_cli(*argv)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")
    assert not (tmp_path / "out").exists()
    # refused before any cell computes its distance
    calls = []
    for name in ("cut_distance", "distance_to_constant"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    assert cli.main(argv) == 2
    assert calls == []


def test_bipartite_refuses_a_bad_size_before_printing():
    for sizes, message in (("2,0", "--sizes must be at least 1, got 0"), ("2,3,2", "--sizes repeats 2")):
        r = run_cli("bipartite", "--sizes", sizes)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == f"error: {message}\n"


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
        with pytest.raises(ValueError, match="restarts must be at least 1, got 0"):
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
        assert r.stderr == "error: --restarts must be at least 1, got 0\n"


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
    flagged = "--exact-threshold must be at least 0, got -1"
    for argv, message in (
        (["cutnorm", "bipartite", "ua-limit:2", "--exact-threshold", "-1"], flagged),
        (["cutdist", "bipartite", "ua-limit:2", "--resolution", "4", "--exact-threshold", "-5"],
         "--exact-threshold must be at least 0, got -5"),
        (["converge", "--kind", "ua", "--sizes", "4", "--seeds", "0", "--exact-threshold", "-1",
          "--out-dir", tmp_path / "ua"], flagged),
        (["bipartite", "--sizes", "2", "--exact-threshold", "-1"], flagged),
        (["density", "--pattern", "c4", "--graphon", "ua-limit:4", "--work-limit", "-1"],
         "--work-limit must be at least 0, got -1"),
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


SEARCH = {"budget": 8, "restarts": 20, "seed": 0, "exact_threshold": cli.DEFAULT_EXACT_THRESHOLD}

PARSED_DEFAULTS = {
    "density": (
        ["--pattern", "edge", "--graphon", "bipartite"],
        {"pattern": "edge", "graph": None, "graphon": "bipartite", "mc": 0, "seed": 0,
         "work_limit": cli.DEFAULT_WORK_LIMIT},
    ),
    "cutnorm": (
        ["a", "b"],
        {"graphon_a": "a", "graphon_b": "b", "restarts": 20, "seed": 0,
         "exact_threshold": cli.DEFAULT_EXACT_THRESHOLD},
    ),
    "cutdist": (
        ["a", "b", "--resolution", "3"],
        {"graphon_a": "a", "graphon_b": "b", "resolution": 3, **SEARCH},
    ),
    "sample": (
        ["--model", "erdos-renyi", "--n", "5"],
        {"model": "erdos-renyi", "n": 5, "p": None, "graphon": None, "seed": 0, "out": None},
    ),
    "converge": (
        ["--kind", "er", "--sizes", "4", "--seeds", "0", "--out-dir", "o"],
        {"kind": "er", "sizes": [4], "seeds": [0], "out_dir": "o", "p": None, "pgm_px": [128],
         "budget": 2, "restarts": 8, "exact_threshold": cli.DEFAULT_EXACT_THRESHOLD},
    ),
    "extremal": ([], {"trials": 1000, "max_n": 8, "seed": 0}),
    "bipartite": ([], {"sizes": [2, 3, 4], **SEARCH}),
    "render": (
        ["--graphon", "bipartite", "--out", "w.pgm"],
        {"graphon": "bipartite", "px": 128, "out": "w.pgm"},
    ),
}


@pytest.mark.parametrize("sub", sorted(PARSED_DEFAULTS))
def test_parsed_defaults(sub):
    # one parser for all: a default shared among subcommands shows here
    parser = cli.build_parser()
    argv, expected = PARSED_DEFAULTS[sub]
    parsed = vars(parser.parse_args([sub, *argv]))
    assert parsed.pop("func") is getattr(cli, f"cmd_{sub}")
    assert parsed == {"command": sub, **expected}


@pytest.mark.parametrize("sub", sorted(PARSED_DEFAULTS))
def test_subcommand_help_formats(sub, capsys):
    # argparse formats help only when asked, so a bad help string hides until then
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([sub, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: graphonlab {sub} ")


def _int_dests(parsed: dict) -> list[str]:
    return [
        dest for dest, value in parsed.items()
        if isinstance(value, int) or (isinstance(value, list) and all(isinstance(v, int) for v in value))
    ]


def test_every_integer_flag_has_a_least_value():
    # cli.main checks a flag only if it is in cli._LEAST (or is a seed, or --mc)
    parser = cli.build_parser()
    seen = set()
    for sub, (argv, _) in PARSED_DEFAULTS.items():
        for dest in _int_dests(vars(parser.parse_args([sub, *argv]))):
            assert dest in cli._LEAST or dest in ("seed", "seeds", "mc"), (sub, dest)
            seen.add(dest)
    assert set(cli._LEAST) <= seen


_BIG = "ua-limit:100000"  # 75 GiB of weights: built only if a flag is checked too late

# every case in one capped child: argv -> [exit code, stdout, stderr]
_MAIN_EACH = """
import contextlib, io, json, sys, traceback
from graphonlab import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except BaseException:
            traceback.print_exc()
            code = None
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def test_every_integer_flag_refused_by_name_before_any_work(tmp_path):
    import json

    bases = {
        "density": ["--pattern", "c4", "--graphon", _BIG],
        "cutnorm": [_BIG, _BIG],
        "cutdist": [_BIG, _BIG, "--resolution", "1"],
        "sample": ["--model", "w-random", "--graphon", _BIG, "--n", "1"],
        "converge": ["--kind", "er", "--sizes", "4", "--seeds", "0", "--out-dir", str(tmp_path / "o")],
        "extremal": [],
        "bipartite": [],
        "render": ["--graphon", _BIG, "--out", str(tmp_path / "w.pgm")],
    }
    assert sorted(bases) == sorted(PARSED_DEFAULTS)
    parser = cli.build_parser()
    cases = []  # (argv, the name the message must contain)
    for sub, base in bases.items():
        for dest in _int_dests(vars(parser.parse_args([sub, *base]))):
            flag = "--" + dest.replace("_", "-")
            if dest in ("seed", "seeds"):
                name = "seed" if dest == "seed" else flag  # --seeds names its flag
                cases += [([sub, *base, flag, str(bad)],
                           f"error: {name} must fit in an unsigned 64-bit integer, got {bad}\n")
                          for bad in (-1, 2**64)]
            else:
                cases.append(([sub, *base, flag, str(cli._LEAST.get(dest, 0) - 1)], flag))  # --mc -1
    converge = ["converge", *bases["converge"]]
    cases += [
        ([*converge, "--sizes", "4,5,4"], "--sizes repeats 4"),
        ([*converge, "--seeds", "3,3"], "--seeds repeats 3"),
        ([*converge, "--pgm-px", "8", "16", "8"], "--pgm-px repeats 8"),
        (["bipartite", "--sizes", "2,2"], "--sizes repeats 2"),
    ]
    r = subprocess.run(
        [sys.executable, "-c", _MAIN_EACH], input=json.dumps([argv for argv, _ in cases]),
        capture_output=True, text=True, preexec_fn=_CAP,
    )
    assert r.returncode == 0, r.stderr
    for (argv, name), (code, out, err) in zip(cases, json.loads(r.stdout), strict=True):
        assert code == 2 and out == "", (argv, code, out, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err, (argv, err)
        assert "Traceback" not in err
    assert not any(tmp_path.iterdir())
