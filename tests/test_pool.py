"""The block thread pool and the process's BLAS policy: one OpenBLAS thread
from import on, the start-up count as the cap on the pool width, and nested
calls that share the pool without waiting on it."""

import concurrent.futures
import os
import subprocess
import sys
import threading
import time

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
    # each outer block, on this thread or a pool helper, calls _run_blocks
    # again, at a width of 2 on the main thread and of 3 on the others; the
    # nested calls share the pools with the outer one and return their
    # results in span order
    monkeypatch.setattr(pool, "_block_threads", lambda: (
        2 if threading.current_thread() is threading.main_thread() else 3))

    def inner(j):
        time.sleep(0.01)
        return j * j

    def outer(i):
        return threading.current_thread(), pool._run_blocks(inner, range(i, i + 4))

    done = pool._run_blocks(outer, [0, 10])
    assert [values for _, values in done] == [[0, 1, 4, 9],
                                             [100, 121, 144, 169]]
    assert any(thread is not threading.main_thread() for thread, _ in done)


@needs_openblas_hooks
@pytest.mark.parametrize("width", [2, 3])
def test_nested_calls_finish_while_every_pool_thread_is_busy(monkeypatch, width):
    # every helper thread of the pool waits on `release`, so no helper of
    # the calls below can start: a call that waited for a queued helper
    # would hang, and it must instead run its spans on its own thread
    monkeypatch.setattr(pool, "_block_threads", lambda: width)
    running, release = threading.Semaphore(0), threading.Event()

    def hold():
        running.release()
        release.wait()

    held = [pool._pool(width - 1).submit(hold) for _ in range(width - 1)]
    try:
        for _ in held:
            assert running.acquire(timeout=10)
        done = []

        def outer(i):
            return pool._run_blocks(lambda j: 10 * i + j, range(3))

        caller = threading.Thread(
            target=lambda: done.append(pool._run_blocks(outer, range(4))),
            daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert done == [[[0, 1, 2], [10, 11, 12], [20, 21, 22], [30, 31, 32]]]
    finally:
        release.set()
        concurrent.futures.wait(held)


@needs_openblas_hooks
def test_every_span_runs_once_under_fast_thread_switches(monkeypatch):
    # four threads on the shared claim counter, switching every microsecond:
    # a span claimed twice or never would show in the list of runs
    monkeypatch.setattr(pool, "_block_threads", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs = []

            def block(i):
                runs.append(i)
                return -i

            assert pool._run_blocks(block, range(500)) == [-i for i in range(500)]
            assert sorted(runs) == list(range(500))
    finally:
        sys.setswitchinterval(interval)
