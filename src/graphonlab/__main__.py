"""Entry point of `python -m graphonlab` and of the `graphonlab` command.

Unless one of BLAS_THREAD_VARS is set, the CLI runs on one BLAS thread:
at its matrix sizes a second OpenBLAS thread adds CPU time (the worker
spins between products) but no measured wall time, and every output is
the same bytes at any thread count.  The variables must be set before
numpy is imported, so the CLI is imported only in main(); library
callers, who do not come through here, keep the BLAS default.
"""

import os
import sys

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def default_to_one_blas_thread(environ=os.environ) -> None:
    """Set every BLAS thread variable to 1, unless any of them is set (non-empty)."""
    if not any(environ.get(name) for name in BLAS_THREAD_VARS):
        environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))


def main(argv=None) -> int:
    default_to_one_blas_thread()
    from . import cli

    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
