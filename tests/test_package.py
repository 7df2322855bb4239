"""The package imports lazily, and the CLI entry defaults to one BLAS thread."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphonlab
from graphonlab.__main__ import BLAS_THREAD_VARS, default_to_one_blas_thread


def run_python(code, env):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_numpy():
    out = run_python("import sys, graphonlab; print('numpy' in sys.modules)", os.environ.copy())
    assert out == "False\n"


@pytest.mark.parametrize("name", graphonlab.__all__)
def test_public_names_resolve_to_their_definitions(name):
    value = getattr(graphonlab, name)
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_public_names_and_unknown_names_raise():
    assert set(graphonlab.__all__) <= set(dir(graphonlab))
    assert graphonlab.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        graphonlab.no_such_name
    assert graphonlab.streams is importlib.import_module("graphonlab.streams")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_entry_defaults_to_one_blas_thread():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    out = run_python(
        "import os\n"
        "from graphonlab.__main__ import default_to_one_blas_thread\n"
        "default_to_one_blas_thread()\n"
        "import numpy\n"
        "print(len(os.listdir('/proc/self/task')))",
        env,
    )
    assert out == "1\n"


@pytest.mark.parametrize("name", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
def test_entry_leaves_a_user_setting_alone(name):
    environ = {name: "2"}
    default_to_one_blas_thread(environ)
    assert environ == {name: "2"}


@pytest.mark.parametrize("given", [{}, {"OMP_NUM_THREADS": ""}])
def test_entry_sets_every_variable_when_none_is_set(given):
    environ = {"PATH": "/bin", **given}
    default_to_one_blas_thread(environ)
    assert environ == {"PATH": "/bin", **dict.fromkeys(BLAS_THREAD_VARS, "1")}
