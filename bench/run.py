"""graphonlab benchmark: CLI workloads timed end to end and traced per module.

Usage (from the repository root):

  python3 bench/run.py --workload ua-search [--seed 0] [--seconds 30] [--trace 0|1]

Each workload is a fixed list of `python -m graphonlab` calls built from
the seed.  A run first times `python -m graphonlab --help` a few times
(setup_s), then repeats the workload's calls back to back, each in a
fresh process, until --seconds of measurement are used.  Every output is
checked by the correctness gate (gate.py); a call fails on a nonzero
exit, on a gate problem, or when its bytes differ from the first
repetition in the run.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 the run then repeats the calls once more under the span tracer
(traced.py, tracer.py) and reports the per-module metrics instead.  The
lines before it print every metric with its unit and a record of the
machine and the code measured.

Exit status 2, with no result line, when graphonlab cannot be started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate
from tracer import LayerStats, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs"

DEFAULT_SEED = 0
HELD_OUT_SEED = 7
SETUP_RUNS = 7
RUN_LIMIT_S = 170.0  # the whole run, set-up and trace included, must end within this
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    threads: int  # GRAPHONLAB_THREADS for every call
    calls: Callable[[int], list[list[str]]]  # seed -> CLI argument lists


# Why each workload was chosen is in README.md.  ua-search runs one worker
# because threads slow its small-array search; er-exactnorm runs two, the
# grid where the thread pool pays.
WORKLOADS = {
    "ua-search": Workload(
        1,
        lambda s: [
            ["converge", "--kind", "ua", "--sizes", "6,7,8,24", "--seeds", f"{s},{s + 1}",
             "--out-dir", "out"],
        ],
    ),
    "er-exactnorm": Workload(
        2,
        lambda s: [
            ["converge", "--kind", "er", "--sizes", "16,20,22",
             "--seeds", ",".join(str(s + i) for i in range(4)), "--exact-threshold", "22",
             "--out-dir", "out"],
        ],
    ),
    "density-mix": Workload(
        1,
        lambda s: [
            ["sample", "--model", "erdos-renyi", "--n", "1200", "--p", "0.5", "--seed", str(s),
             "--out", "big.txt"],
            ["sample", "--model", "w-random", "--graphon", "ua-limit:64", "--n", "300",
             "--seed", str(s), "--out", "small.txt"],
            ["density", "--pattern", "c4", "--graph", "small.txt"],
            ["density", "--pattern", "c4", "--graphon", "ua-limit:64", "--work-limit", "1000000000"],
            ["density", "--pattern", "c4", "--graphon", "ua-limit:512", "--mc", "2000000",
             "--seed", str(s)],
        ],
    ),
}


class SetupError(RuntimeError):
    """graphonlab could not be started at all."""


@dataclass
class CallResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]
    wall_s: float
    cpu_s: float
    rss_mb: float

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.code}\0{self.stdout}\0".encode())
        for name, data in sorted(self.files.items()):
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["GRAPHONLAB_THREADS"] = str(threads)
    return env


def run_process(cmd, cwd: Path, env, io_dir: Path, deadline: float):
    """Run cmd to completion; return (exit code, wall s, cpu s, max rss MB, stdout, stderr).

    stdout and stderr go to files in io_dir, so the child never blocks on
    a pipe while this process waits for it.  The child is killed at the
    deadline.
    """
    with open(io_dir / "stdout", "w+b") as out, open(io_dir / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            proc.returncode,
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
        )


def _outputs(argv: list[str], cwd: Path) -> dict[str, bytes]:
    """Files a call wrote: everything under --out-dir, or the --out file."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--out-dir" in opts:
        out = cwd / opts["--out-dir"]
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    if "--out" in opts and (cwd / opts["--out"]).is_file():
        return {opts["--out"]: (cwd / opts["--out"]).read_bytes()}
    return {}


def run_calls(calls, cwd: Path, env, io_dir: Path, deadline: float, prefix) -> list[CallResult]:
    """Run each call back to back in cwd; prefix(i) gives the command before the CLI arguments."""
    results = []
    for i, argv in enumerate(calls):
        code, wall, cpu, rss, stdout, stderr = run_process(
            [*prefix(i), *argv], cwd, env, io_dir, deadline
        )
        results.append(CallResult(argv, code, stdout, stderr, _outputs(argv, cwd), wall, cpu, rss))
    return results


class Gate:
    """Decides which calls failed; keeps the first digest of each call in the run."""

    def __init__(self, workload: str, seed: int):
        path = REFS / f"{workload}.json"
        refs = json.loads(path.read_text()) if path.is_file() else {}
        self.refs = refs.get(str(seed))
        self.first: dict[int, str] = {}
        self.bad: set[int] = set()
        self.problems: list[str] = []

    def passes(self, index: int, res: CallResult, cwd: Path) -> bool:
        digest = res.digest()
        if index in self.first:
            if digest != self.first[index]:
                self.problems.append(f"call {index}: output differs from its first run")
                return False
            return index not in self.bad
        self.first[index] = digest
        problems = [] if res.code == 0 else [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
        if res.code == 0:
            problems += gate.check_call(res.argv, res.stdout, res.files, cwd)
            if self.refs is not None:
                problems += gate.compare_to_ref(res.stdout, res.files, self.refs[index])
        if problems:
            self.bad.add(index)
            self.problems.extend(f"call {index} ({' '.join(res.argv)}): {p}" for p in problems)
        return not problems


def measure_setup(env, work: Path, deadline: float) -> list[float]:
    """Wall times of `python -m graphonlab --help`; the first, which compiles bytecode, is dropped."""
    if not (ROOT / "src" / "graphonlab").is_dir():
        raise SetupError(f"no graphonlab sources under {ROOT / 'src'}")
    walls = []
    for _ in range(SETUP_RUNS + 1):
        code, wall, _, _, _, stderr = run_process(
            [sys.executable, "-m", "graphonlab", "--help"], work, env, work, deadline
        )
        if code != 0:
            raise SetupError(f"`python -m graphonlab --help` exited {code}: {stderr.strip()[-500:]}")
        walls.append(wall)
    return walls[1:]


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, workload: Workload, samples: dict, skipped) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "graphonlab_threads": workload.threads,
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "l2_cache_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_cache_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "samples": samples,
        "skipped_spans": sorted(skipped),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def benchmark(args, work: Path) -> tuple[dict, dict, int, int]:
    """Run one workload; return (metrics, record, attempted, failed)."""
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env(workload.threads)
    calls = workload.calls(args.seed)
    check = Gate(args.workload, args.seed)
    attempted = failed = 0

    def tally(results, cwd):
        nonlocal attempted, failed
        for i, res in enumerate(results):
            attempted += 1
            failed += not check.passes(i, res, cwd)

    setup = measure_setup(env, work, deadline)
    python = [sys.executable, "-m", "graphonlab"]
    walls, cpus, rsss = [], [], []
    while True:
        cwd = work / f"rep{len(walls)}"
        cwd.mkdir()
        results = run_calls(calls, cwd, env, work, deadline, lambda i: python)
        walls.append(sum(r.wall_s for r in results))
        cpus.append(sum(r.cpu_s for r in results))
        rsss.append(max(r.rss_mb for r in results))
        tally(results, cwd)
        shutil.rmtree(cwd)
        left = deadline - time.monotonic()
        if sum(walls) + walls[-1] > args.seconds or walls[-1] * (3 if args.trace else 1) > left:
            break
    wall = statistics.median(walls)
    samples = {"setup_s": setup, "wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss}
    skipped: set[str] = set()
    if args.trace:
        cwd = work / "traced"
        cwd.mkdir()
        spans = [work / f"spans{i}.json" for i in range(len(calls))]
        traced = [sys.executable, str(BENCH / "traced.py")]
        results = run_calls(calls, cwd, env, work, deadline, lambda i: [*traced, str(spans[i]), "--"])
        tally(results, cwd)
        stats = LayerStats()
        for path in spans:
            if path.is_file():
                dumped = json.loads(path.read_text())
                stats.add(dumped["spans"])
                skipped.update(dumped["skipped"])
        metrics = layer_metrics(stats, sum(r.wall_s for r in results) - wall)
    else:
        metrics = {
            "wall_s": _metric(wall, "s"),
            "cpu_s": _metric(statistics.median(cpus), "s"),
            "peak_rss_mb": _metric(statistics.median(rsss), "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
        }
    for problem in check.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    return metrics, run_record(args, workload, samples, skipped), attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < (1 << 64) - 8:
        parser.error("--seed must be a nonnegative 64-bit integer")

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, record, attempted, failed = benchmark(args, work)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    for name, m in metrics.items():
        count = len(record["samples"].get(name, ()))
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']:<6}"
              + (f" median of {count}" if count else ""))
    print(f"{'fail_frac':<48} {failed / attempted:>14.6g} ratio  {failed} of {attempted} calls")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
