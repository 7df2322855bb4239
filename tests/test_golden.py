"""Golden outputs: a fixed set of CLI calls checked against recorded results.

The other CLI tests compare a run against another run of the same code, so
a change that moves every number would still pass them.  These cases pin
the numbers themselves.  Every numeric token must lie within 1e-12 of the
recorded value; every other token, and the bytes of every PGM file (by
sha256), must match exactly.

The recorded results live in golden.json next to this file.
`PYTHONPATH=src python tests/test_golden.py NAME ...` records the named
cases and leaves every other entry as it is; use it to add a case.  With
no names it re-records every case.  Re-record an existing case only when
a change is meant to move its output, and list each moved value with its
largest absolute change in CHANGES.md; a move above 1e-12 is a bug.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
from pathlib import Path

import pytest

from graphonlab.cli import main

pytestmark = pytest.mark.one_blas_thread

GOLDEN = Path(__file__).with_name("golden.json")
TOL = 1e-12

CASES = {
    "converge-ua": ["converge", "--kind", "ua", "--sizes", "6,7", "--seeds", "0,1", "--out-dir", "out"],
    "converge-ua-10": ["converge", "--kind", "ua", "--sizes", "9,10", "--seeds", "0", "--out-dir", "out"],
    "converge-ua-24": ["converge", "--kind", "ua", "--sizes", "8,24", "--seeds", "0,1", "--out-dir", "out"],
    "converge-ua-100": ["converge", "--kind", "ua", "--sizes", "100", "--seeds", "7", "--out-dir", "out"],
    "converge-ua-32": ["converge", "--kind", "ua", "--sizes", "32", "--seeds", "1", "--out-dir", "out"],
    "converge-er": ["converge", "--kind", "er", "--sizes", "8,16", "--seeds", "0,1", "--out-dir", "out"],
    "cutnorm": ["cutnorm", "ua-limit:16", "constant:0.25"],
    "cutdist": ["cutdist", "ua-limit:6", "bipartite", "--resolution", "6"],
    "cutdist-8": ["cutdist", "ua-limit:8", "bipartite", "--resolution", "8"],
    "cutdist-climb": ["cutdist", "ua-limit:12", "bipartite", "--resolution", "12"],
    "cutdist-climb-heuristic": [
        "cutdist", "ua-limit:12", "bipartite", "--resolution", "12", "--exact-threshold", "11"
    ],
    "density": ["density", "--pattern", "c4", "--graphon", "ua-limit:16"],
    "density-mc": [
        "density", "--pattern", "c4", "--graphon", "ua-limit:48", "--mc", "200000", "--seed", "3"
    ],
    "sample": ["sample", "--model", "w-random", "--graphon", "ua-limit:8", "--n", "12", "--seed", "3"],
    "sample-er": ["sample", "--model", "erdos-renyi", "--n", "40", "--p", "0.3", "--seed", "5"],
    "sample-ua": ["sample", "--model", "uniform-attachment", "--n", "30", "--seed", "2"],
    "render": ["render", "--graphon", "ua-limit:8", "--px", "24", "--out", "w.pgm"],
    "bipartite": ["bipartite", "--sizes", "2,3"],
    "extremal": ["extremal", "--trials", "50", "--max-n", "6"],
}


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one CLI call in workdir; return its exit code, stdout and files.

    Text files are kept whole; PGM files are kept as a sha256 of their bytes.
    """
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = path.relative_to(workdir).as_posix()
        if path.suffix == ".pgm":
            files[name] = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            files[name] = path.read_text()
    return {"code": code, "stdout": out.getvalue(), "files": files}


def _tokens(text: str) -> list[str]:
    return [t for t in re.split(r"([\s,=()]+)", text) if t]


def _number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def assert_text_close(got: str, want: str, where: str) -> None:
    got_tokens, want_tokens = _tokens(got), _tokens(want)
    assert len(got_tokens) == len(want_tokens), f"{where}: token count differs"
    for i, (g, w) in enumerate(zip(got_tokens, want_tokens)):
        gv, wv = _number(g), _number(w)
        if gv is not None and wv is not None:
            assert abs(gv - wv) <= TOL, f"{where}: token {i}: {g} vs recorded {w}"
        else:
            assert g == w, f"{where}: token {i}: {g!r} vs recorded {w!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, golden, tmp_path):
    got = run_case(CASES[name], tmp_path)
    want = golden[name]
    assert got["code"] == want["code"]
    assert_text_close(got["stdout"], want["stdout"], f"{name} stdout")
    assert sorted(got["files"]) == sorted(want["files"])
    for fname, content in want["files"].items():
        if content.startswith("sha256:"):
            assert got["files"][fname] == content, f"{name}: {fname} bytes differ"
        else:
            assert_text_close(got["files"][fname], content, f"{name}: {fname}")


if __name__ == "__main__":
    import tempfile

    names = sys.argv[1:] or list(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    recorded = json.loads(GOLDEN.read_text()) if sys.argv[1:] else {}
    for case in names:
        with tempfile.TemporaryDirectory() as tmp:
            recorded[case] = run_case(CASES[case], Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
