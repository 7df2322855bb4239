"""Correctness gate for the outputs of graphonlab CLI calls.

Two kinds of check:

* `compare_to_ref`: against reference outputs stored for the default and
  the held-out seed.  Every printed number must agree within 1e-12
  absolute; PGM and edge-list files must agree byte for byte (by sha256).
* `check_call`: independent numpy checks that hold for any seed.  They
  recompute densities from the written graphs (trace of A^4 and friends),
  `density_step` by a direct contraction, the Monte Carlo estimate
  against the exact value, and the schema, grid order and PGM pictures of
  `converge`.  Cut statistics are held between bounds computed here.

Every function returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

import numpy as np

from tracer import EXHAUSTIVE_MAX

TOL = 1e-12
MC_SIGMAS = 5.0  # Monte Carlo estimate must lie this many standard errors from exact
SAMPLE_SIGMAS = 6.0  # sampled edge counts must lie this many standard deviations from the mean
ENUM_MAX = 16  # largest block count whose cut norm is enumerated here exactly
TRACE_HEADER = "n,seed,edge_density,triangle_density,c4_density,cut_stat"
_SEP = re.compile(r"([\s,]+)")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def numbers_match(actual: str, expected: str, tol: float = TOL) -> bool:
    """Texts agree token by token, numbers within tol absolute, the rest exactly."""
    a = _SEP.split(actual)
    b = _SEP.split(expected)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            return False
        if not abs(fx - fy) <= tol:
            return False
    return True


def ref_entry(stdout: str, files: dict[str, bytes]) -> dict:
    """Reference record of one call: printed text kept, other files by digest."""
    return {
        "stdout": stdout,
        "files": {
            name: {"text": data.decode()} if name.endswith(".csv") else {"sha256": digest(data)}
            for name, data in sorted(files.items())
        },
    }


def compare_to_ref(stdout: str, files: dict[str, bytes], ref: dict) -> list[str]:
    problems = []
    if not numbers_match(stdout, ref["stdout"]):
        problems.append(f"stdout {stdout!r} differs from reference {ref['stdout']!r}")
    if sorted(files) != sorted(ref["files"]):
        problems.append(f"output files {sorted(files)} differ from reference {sorted(ref['files'])}")
    for name, want in ref["files"].items():
        data = files.get(name)
        if data is None:
            continue
        if "text" in want and not numbers_match(data.decode(), want["text"]):
            problems.append(f"{name}: numbers differ from reference by more than {TOL}")
        if "sha256" in want and digest(data) != want["sha256"]:
            problems.append(f"{name}: bytes differ from reference")
    return problems


# ───────────────────────── independent references ─────────────────────────


def ua_limit(m: int) -> np.ndarray:
    """Weights of 1 - max(x, y) averaged over an m x m grid of equal blocks."""
    i = np.arange(m, dtype=float)
    w = 1.0 - (np.maximum.outer(i, i) + 0.5) / m
    w[np.diag_indices(m)] = 1.0 - (i + 2.0 / 3.0) / m
    return w


def graphon_weights(literal: str) -> np.ndarray:
    kind, _, arg = literal.partition(":")
    if kind != "ua-limit":
        raise ValueError(f"no independent check for graphon {literal!r}")
    return ua_limit(int(arg))


def c4_density(w: np.ndarray) -> float:
    """t(C4, W) for equal block measures: trace((W D)^4) by matrix products."""
    wd = w / w.shape[0]
    return float(np.trace(np.linalg.matrix_power(wd, 4)))


def _cut_norm_enum(b: np.ndarray) -> float:
    """Exact cut norm of a box matrix by enumerating every row subset."""
    k = b.shape[0]
    rows = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    cols = rows @ b
    return float(max(np.maximum(cols, 0).sum(axis=1).max(), -np.minimum(cols, 0).sum(axis=1).min()))


def _cut_norm_lower(b: np.ndarray, restarts: int = 16) -> float:
    """A value |sum over S x T| attained by some S, T: a lower bound on the cut norm."""
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(restarts):
        s0 = rng.random(b.shape[0]) < 0.5
        for mat in (b, -b):
            s = s0
            for _ in range(100):
                t = s @ mat > 0
                s_next = mat @ t > 0
                if np.array_equal(s_next, s):
                    break
                s = s_next
            best = max(best, float(s @ mat @ (s @ mat > 0)))
    return best


def _cut_norm_upper(b: np.ndarray) -> float:
    return float(max(b[b > 0].sum(), -b[b < 0].sum()))


def read_pgm(data: bytes) -> np.ndarray:
    head = data.split(b"\n", 3)
    if len(head) != 4 or head[0] != b"P5" or head[2] != b"255":
        raise ValueError("not a binary 8-bit PGM")
    w, h = (int(x) for x in head[1].split())
    img = np.frombuffer(head[3], dtype=np.uint8)
    if img.size != w * h:
        raise ValueError(f"PGM holds {img.size} pixels, header says {w}x{h}")
    return img.reshape(h, w)


def adjacency_from_pgm(img: np.ndarray, n: int) -> np.ndarray:
    """Recover the n-vertex adjacency behind a pixel picture and check every pixel."""
    px = img.shape[0]
    centers = ((np.arange(n) + 0.5) / n * px).astype(int)
    cell = img[np.ix_(centers, centers)]
    if not np.all((cell == 0) | (cell == 255)):
        raise ValueError("pixel picture of a graph has gray levels other than 0 and 255")
    adj = (cell == 0).astype(float)
    if not np.array_equal(adj, adj.T) or adj.diagonal().any():
        raise ValueError("pixel picture is not a simple undirected graph")
    block = ((np.arange(px) + 0.5) / px * n).astype(int)
    if not np.array_equal(img, (255 * (1 - adj[np.ix_(block, block)])).astype(np.uint8)):
        raise ValueError("pixel picture does not match its block adjacency")
    return adj


def parse_edges(text: str) -> tuple[int, np.ndarray]:
    """Parse a serialized edge list and check it is canonical (sorted, u < v, unique)."""
    head, _, body = text.partition("\n")
    n, m = (int(x) for x in head.split())
    pairs = np.array(body.split(), dtype=np.int64).reshape(-1, 2)
    if len(pairs) != m:
        raise ValueError(f"header announces {m} edges, file has {len(pairs)}")
    u, v = pairs[:, 0], pairs[:, 1]
    if m and not (u.min() >= 0 and v.max() < n and np.all(u < v)):
        raise ValueError("edge endpoints out of range or not ordered u < v")
    if np.any(np.diff(u * n + v) <= 0):
        raise ValueError("edges not in strictly increasing lexicographic order")
    return n, pairs


def _dense(n: int, pairs: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n))
    adj[pairs[:, 0], pairs[:, 1]] = adj[pairs[:, 1], pairs[:, 0]] = 1.0
    return adj


def _close(label: str, got: float, want: float, tol: float = TOL) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label} = {got!r}, independent check gives {want!r}"]


# ───────────────────────── per-call checks ─────────────────────────


def _check_converge(opts: dict, files: dict[str, bytes]) -> list[str]:
    kind = opts["--kind"]
    sizes = [int(x) for x in opts["--sizes"].split(",")]
    seeds = [int(x) for x in opts["--seeds"].split(",")]
    p = float(opts.get("--p", 0.5))
    px = 128  # converge's default --pgm-px
    grid = [(n, s) for n in sizes for s in seeds]
    names = {"trace.csv"} | {f"{kind}_n{n}_seed{s}_px{px}.pgm" for n, s in grid}
    if set(files) != names:
        return [f"out-dir holds {sorted(files)}, expected {sorted(names)}"]
    lines = files["trace.csv"].decode().split("\n")
    if lines[0] != TRACE_HEADER or lines[-1] != "" or len(lines) != len(grid) + 2:
        return ["trace.csv schema or row count is wrong"]
    problems = []
    for (n, s), line in zip(grid, lines[1:-1]):
        fields = line.split(",")
        if len(fields) != 6 or fields[:2] != [str(n), str(s)]:
            problems.append(f"trace.csv row {line!r} is out of grid order at n={n} seed={s}")
            continue
        edge, tri, c4, stat = (float(x) for x in fields[2:])
        try:
            adj = adjacency_from_pgm(read_pgm(files[f"{kind}_n{n}_seed{s}_px{px}.pgm"]), n)
        except ValueError as exc:
            problems.append(f"n={n} seed={s}: {exc}")
            continue
        a2 = adj @ adj
        problems += _close(f"n={n} seed={s} edge_density", edge, adj.sum() / n**2)
        problems += _close(f"n={n} seed={s} triangle_density", tri, np.trace(a2 @ adj) / n**3)
        problems += _close(f"n={n} seed={s} c4_density", c4, np.trace(a2 @ a2) / n**4)
        if kind == "er":
            # distance to a constant is the cut norm of (A - p) / n^2
            box = (adj - p) / n**2
            lo, hi = _cut_norm_lower(box), _cut_norm_upper(box)
            if n <= ENUM_MAX:
                problems += _close(f"n={n} seed={s} cut_stat", stat, _cut_norm_enum(box))
        else:
            box = (adj - ua_limit(n)) / n**2
            if n <= EXHAUSTIVE_MAX:
                # exhaustive search: at most the identity alignment, at least
                # the edge-density gap, which no block permutation changes
                lo, hi = abs(box.sum()), _cut_norm_enum(box)
            else:
                # hill-climb estimate: starts from the identity alignment
                lo, hi = 0.0, _cut_norm_upper(box)
        if not lo - TOL <= stat <= hi + TOL:
            problems.append(f"n={n} seed={s} cut_stat {stat!r} outside [{lo!r}, {hi!r}]")
    return problems


def _check_sample(opts: dict, text: str) -> list[str]:
    n, pairs = parse_edges(text)
    if n != int(opts["--n"]):
        return [f"sample has {n} vertices, asked for {opts['--n']}"]
    pair_count = n * (n - 1) / 2
    if opts["--model"] == "erdos-renyi":
        t = float(opts["--p"])
        sd = math.sqrt(t * (1 - t) / pair_count)
    elif opts["--model"] == "w-random":
        w = graphon_weights(opts["--graphon"])
        t = float(w.mean())
        # U-statistic: spread of the sample points plus the edge coin flips
        sd = math.sqrt(4 * w.mean(axis=1).var() / n + t * (1 - t) / pair_count)
    else:
        return [f"no independent check for model {opts['--model']!r}"]
    got = len(pairs) / pair_count
    if abs(got - t) > SAMPLE_SIGMAS * sd:
        return [f"edge share {got!r} is more than {SAMPLE_SIGMAS} sd from {t!r}"]
    return []


def _check_density(opts: dict, stdout: str, cwd: Path) -> list[str]:
    if opts["--pattern"] != "c4":
        return [f"no independent check for pattern {opts['--pattern']!r}"]
    fields = stdout.split()
    if len(fields) != 3 or not stdout.endswith("\n") or stdout.count("\n") != 1:
        return [f"density output {stdout!r} is not 'value method std_error'"]
    value, method, se = float(fields[0]), fields[1], float(fields[2])
    if "--graph" in opts:
        n, pairs = parse_edges((cwd / opts["--graph"]).read_text())
        adj = _dense(n, pairs)
        a2 = adj @ adj
        want, want_method = float(np.trace(a2 @ a2)) / n**4, "exact"
    else:
        want = c4_density(graphon_weights(opts["--graphon"]))
        want_method = "monte-carlo" if int(opts.get("--mc", 0)) else "exact"
    if method != want_method:
        return [f"density method {method!r}, expected {want_method!r}"]
    if method == "exact":
        return _close("density", value, want) + _close("std_error", se, 0.0, 0.0)
    if not (se > 0 and abs(value - want) <= MC_SIGMAS * se):
        return [f"Monte Carlo density {value!r} +- {se!r} is more than {MC_SIGMAS} se from {want!r}"]
    return []


def check_call(argv: list[str], stdout: str, files: dict[str, bytes], cwd: Path) -> list[str]:
    """Independent checks of one CLI call's outputs, for any seed."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    try:
        if argv[0] == "converge":
            return _check_converge(opts, files)
        if argv[0] == "sample":
            return _check_sample(opts, files[opts["--out"]].decode())
        if argv[0] == "density":
            return _check_density(opts, stdout, cwd)
    except (KeyError, ValueError, OSError, UnicodeDecodeError) as exc:
        return [f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"]
    return [f"no independent check for subcommand {argv[0]!r}"]
