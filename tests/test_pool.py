"""The block thread pool and the process's BLAS policy: one OpenBLAS thread
from import on, the start-up count as the cap on the pool width, and serial
runs on the pool's own threads."""

import os
import subprocess
import sys
import threading

import pytest

from conftest import PATHS, needs_openblas_hooks
from ntklab import pool


@needs_openblas_hooks
@pytest.mark.parametrize("start", [1, 2])
def test_import_pins_blas_to_one_thread_and_caps_the_width_at_the_start_count(
        start):
    code = (f"import os, sys; sys.path[:0] = {PATHS!r}\n"
            "import ntklab\n"
            "from ntklab import pool\n"
            "print(pool._openblas_threads()[0](), pool._block_threads(),\n"
            "      len(os.sched_getaffinity(0)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True,
                          env=dict(os.environ, OPENBLAS_NUM_THREADS=str(start)))
    count, width, cores = map(int, done.stdout.split())
    assert count == 1
    assert width == min(cores, start)


@needs_openblas_hooks
def test_a_pool_thread_runs_its_own_blocks_in_order(monkeypatch):
    # each outer block runs on a pool thread and calls _run_blocks again;
    # it must get the serial result on its own thread instead of submitting
    # to a pool.  (The inner width is 3, another pool: a submit to the
    # outer's own full pool of 2 would hang instead of failing.)
    monkeypatch.setattr(pool, "_block_threads", lambda: (
        2 if threading.current_thread() is threading.main_thread() else 3))

    def inner(j):
        return j * j, threading.current_thread()

    def outer(i):
        here = threading.current_thread()
        got = pool._run_blocks(inner, list(range(i, i + 4)))
        assert all(thread is here for _, thread in got)
        return here, [value for value, _ in got]

    done = pool._run_blocks(outer, [0, 10])
    assert [values for _, values in done] == [[0, 1, 4, 9],
                                             [100, 121, 144, 169]]
    assert threading.main_thread() not in [thread for thread, _ in done]
