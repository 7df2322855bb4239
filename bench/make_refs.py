"""Regenerate the reference outputs in refs/ with one graphonlab worker.

Usage (from the repository root): python3 bench/make_refs.py

References pin the outputs for the default and the held-out seed.
Regenerate them only together with a CHANGES.md note that lists each
changed output and its largest absolute numeric change.  Every output is
checked by the independent numpy checks before it is written.
"""

import json
import os
import shutil
import sys
import time

import gate
from run import DEFAULT_SEED, HELD_OUT_SEED, REFS, ROOT, WORKLOADS, child_env, run_calls


def main() -> int:
    work = ROOT / ".bench_work" / f"refs-{os.getpid()}"
    python = [sys.executable, "-m", "graphonlab"]
    try:
        for name, workload in WORKLOADS.items():
            refs = {}
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                cwd = work / f"{name}-{seed}"
                cwd.mkdir(parents=True)
                deadline = time.monotonic() + 600
                results = run_calls(workload.calls(seed), cwd, child_env(1), work, deadline,
                                    lambda i: python)
                for res in results:
                    problems = [f"exit code {res.code}"] if res.code else []
                    problems += gate.check_call(res.argv, res.stdout, res.files, cwd)
                    if problems:
                        print(f"{name} seed {seed} {' '.join(res.argv)}: {problems}", file=sys.stderr)
                        return 1
                refs[str(seed)] = [gate.ref_entry(r.stdout, r.files) for r in results]
            REFS.mkdir(exist_ok=True)
            (REFS / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"wrote {REFS / name}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
