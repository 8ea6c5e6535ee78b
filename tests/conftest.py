"""Helpers shared by the test modules: the OpenBLAS skip marker and runs in
new interpreters at a chosen BLAS start-up thread count."""

import os
import subprocess
import sys

import pytest

import ntklab
from ntklab import pool

needs_openblas_hooks = pytest.mark.skipif(
    pool._openblas_threads() is None,
    reason="no bundled OpenBLAS: every pool call runs serially")

# ntklab's source directory and this one, for the path of a new interpreter
PATHS = [os.path.dirname(os.path.dirname(os.path.abspath(ntklab.__file__))),
         os.path.dirname(os.path.abspath(__file__))]


def csv_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


def same_csvs_at_one_and_two_blas_threads(code, tmp_path):
    """Run the Python source ``code(out)`` in two new interpreters whose
    OpenBLAS starts at one and at two threads (pools of width 1 and, on two
    cores, 2), each with its own ``out`` directory.  Check that both wrote
    the same CSV bytes, and return the first directory."""
    outs = [tmp_path / f"blas{count}" for count in (1, 2)]
    for count, out in zip((1, 2), outs):
        subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path[:0] = {PATHS!r}\n{code(str(out))}"],
            timeout=120, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=str(count)))
    first, second = (csv_bytes(out) for out in outs)
    assert first
    assert second == first
    return outs[0]
