"""One thread pool for the numpy work of a single call, each thread on one
OpenBLAS thread.

``kernels.gnn_kernel_function`` runs its sample blocks here, the
sum-rate nets in ``nets`` run their sample tiles and their independent
whole-array reductions here, and ntk-regime runs its width cells here,
widest first.  A call first enters :func:`one_blas_thread`,
which holds OpenBLAS's process-wide thread count at 1 for its length and
gives the width of the pool the call may use; the pool's threads hold their
own count at 1 as well.  Without that, each small gemm woke OpenBLAS's
spinning worker threads, and two pool threads were slower than one serial
thread.

Each task writes only its own slices of preallocated arrays, or returns a
whole-array result (a whole ntk-regime cell returns its own rows), so
neither the schedule nor the pool width moves a bit.
The OpenBLAS library is looked up and the pool built on first use, never at
import.  Without numpy's bundled OpenBLAS every call runs serially.

Holds are re-entrant and may be taken from several threads at once: the
outermost one sets and restores OpenBLAS's count and reads the pool width,
and the others only count.  A pool thread runs the :func:`_run_blocks`
calls of its own task serially, so a task that reaches a tiled pass or the
GNN kernel never waits on the pool it runs in.

The process's malloc policy lives here too (:func:`_keep_heap_mapped`, set
by the command-line entry point), since the pool's threads allocate from
the heap it keeps.
"""

import concurrent.futures
import ctypes
import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["one_blas_thread"]


@functools.cache
def _openblas_threads():
    """(get_num_threads, set_num_threads, set_num_threads_local) of numpy's
    bundled OpenBLAS as ctypes functions, or None where there is no such
    library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    try:
        name = min(f for f in os.listdir(libs) if "openblas" in f)
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_all = lib.scipy_openblas_set_num_threads64_
        set_local = lib.openblas_set_num_threads_local
    except (OSError, ValueError, AttributeError):
        # no numpy.libs directory, no OpenBLAS in it, or other symbol names
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_all.argtypes, set_all.restype = (ctypes.c_int,), None
    set_local.argtypes, set_local.restype = (ctypes.c_int,), ctypes.c_int
    return get, set_all, set_local


def _block_threads():
    """The pool width: the cores this process may run on (``taskset``
    narrows them), capped at OpenBLAS's own thread count (which
    ``OPENBLAS_NUM_THREADS`` sets at start-up); 1, a serial run, without the
    OpenBLAS hooks that hold each pool thread to one BLAS thread."""
    hooks = _openblas_threads()
    if hooks is None:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), hooks[0]()))


_local = threading.local()        # .in_pool: set on the pool's threads
_hold_lock = threading.Lock()
# the open holds across all threads, and the outermost one's pool width and
# (set_num_threads, the count to restore)
_hold = {"depth": 0, "width": 1, "restore": None}


def _init_pool_thread():
    """Mark this thread as a pool thread and hold it to one OpenBLAS
    thread."""
    _local.in_pool = True
    _openblas_threads()[2](1)


@functools.cache
def _pool(threads):
    """The persistent pool of ``threads`` threads, each held to one OpenBLAS
    thread; built on its first use."""
    return concurrent.futures.ThreadPoolExecutor(
        threads, initializer=_init_pool_thread)


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS's process-wide thread count at 1 for the body, and
    give the body the pool width :func:`_block_threads` read before it.

    Only the outermost hold, across all threads, sets the count and reads
    the width; it restores the count when the last hold exits, also when
    the body raises (a pool thread's BLAS call at its own count of 1 sets
    the process's count too).  Nested and concurrent holds give the width
    the outermost one read."""
    with _hold_lock:
        if _hold["depth"] == 0:
            _hold["width"] = _block_threads()
            hooks = _openblas_threads()
            if hooks is not None:
                get, set_all, _ = hooks
                _hold["restore"] = (set_all, get())
                set_all(1)
        _hold["depth"] += 1
        threads = _hold["width"]
    try:
        yield threads
    finally:
        with _hold_lock:
            _hold["depth"] -= 1
            if _hold["depth"] == 0 and _hold["restore"] is not None:
                set_all, blas = _hold["restore"]
                set_all(blas)
                _hold["restore"] = None


def _run_blocks(block, spans, threads):
    """[block(span) for span in spans], on the pool when ``threads`` and
    the spans are both at least 2, else in order on this thread.  Call it
    inside :func:`one_blas_thread`.  Every block has finished when it
    returns or raises the first block's exception, so no pool thread still
    writes to the caller's arrays or resets OpenBLAS's count.  On a pool
    thread it runs in order, whatever ``threads`` is: a nested submit could
    wait for a thread that waits for it."""
    if min(threads, len(spans)) <= 1 or getattr(_local, "in_pool", False):
        return [block(span) for span in spans]
    pool = _pool(min(threads, len(spans)))
    futures = [pool.submit(block, span) for span in spans]
    concurrent.futures.wait(futures)
    return [future.result() for future in futures]


def _keep_heap_mapped():
    """Set this process's malloc policy so that freed numpy buffers stay
    mapped for the next training step.

    glibc's default serves each large block with its own mmap and trims the
    freed top of the heap after every burst of temporaries, so each step
    faults its working set in again.  Blocks under 32 MiB (every hot-path
    array; the largest, a 256 x 380 x 32 snapshot chunk, is 24.9 MB) now
    come from the heap, which is trimmed only once 1 GiB is free at its
    top; larger one-off arrays still go back to the kernel.  Both
    thresholds must be set: setting either one turns off glibc's dynamic
    thresholds, and the other then stays fixed, usually at its 128 KiB
    default.  Every thread allocates from the one main arena, so the
    pool's threads (the GNN kernel's blocks, the net passes' tiles,
    ntk-regime's cells) reuse the heap that training freed instead of
    faulting in arenas of their own.  Does nothing without glibc's
    ``mallopt``; changes no arithmetic.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        # no process-wide symbol table (TypeError on Windows) or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)           # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)            # M_TRIM_THRESHOLD
    mallopt(-8, 1)                  # M_ARENA_MAX
