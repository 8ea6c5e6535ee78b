"""One thread pool for the numpy work of a single call, and the process's
BLAS policy: one OpenBLAS thread for the whole process.

Importing this module reads OpenBLAS's start-up thread count (which
``OPENBLAS_NUM_THREADS`` sets), keeps it as the cap on the pool width, and
then sets OpenBLAS's process-wide count to 1 for good.  Every BLAS and
LAPACK call, on any thread, then runs on one BLAS thread, so no output
depends on the environment's BLAS count: OpenBLAS rounds some gemms and
eigensolves differently at one and at two threads.  Small gemms then do
not wake OpenBLAS's spinning worker threads either, which would make two
pool threads slower than one serial thread.  Without numpy's bundled
OpenBLAS nothing is set and every pool call runs serially.

``kernels.gnn_kernel_function`` runs its sample blocks here,
``kernels.mc_ntk`` its Monte Carlo draws, the sum-rate nets in ``nets``
their sample tiles and their independent whole-array reductions,
ntk-regime its width cells, widest first, and fig3 its lambda_min
eigensolves, largest first.  Each task writes only its own slices of
preallocated arrays, or returns a whole-array result (a whole ntk-regime
cell returns its own rows), so neither the schedule nor the pool width
moves a bit.  The calling thread runs tasks too (:func:`_run_blocks`)
and waits only for tasks already running, so a task may itself reach a
tiled pass or the GNN kernel: a nested call never waits for a pool thread
that is not yet working on it.

The process's malloc policy lives here too (:func:`_keep_heap_mapped`, set
by the command-line entry point), since the pool's threads allocate from
the heap it keeps.
"""

import concurrent.futures
import ctypes
import functools
import itertools
import os

import numpy as np


@functools.cache
def _openblas_threads():
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS as
    ctypes functions, or None where there is no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    try:
        name = min(f for f in os.listdir(libs) if "openblas" in f)
        lib = ctypes.CDLL(os.path.join(libs, name))
        get = lib.scipy_openblas_get_num_threads64_
        set_all = lib.scipy_openblas_set_num_threads64_
    except (OSError, ValueError, AttributeError):
        # no numpy.libs directory, no OpenBLAS in it, or other symbol names
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_all.argtypes, set_all.restype = (ctypes.c_int,), None
    return get, set_all


def _pin_blas_to_one_thread():
    """OpenBLAS's start-up thread count, after setting the process's count
    to 1; None without the OpenBLAS hooks."""
    hooks = _openblas_threads()
    if hooks is None:
        return None
    get, set_all = hooks
    start = get()
    set_all(1)
    return start


_START_BLAS_THREADS = _pin_blas_to_one_thread()


def _block_threads():
    """The pool width: the cores this process may run on (``taskset``
    narrows them), capped at OpenBLAS's start-up thread count; 1, a serial
    run, without the OpenBLAS hooks."""
    if _openblas_threads() is None:
        return 1
    return min(len(os.sched_getaffinity(0)), _START_BLAS_THREADS)


@functools.cache
def _pool(threads):
    """The persistent pool of ``threads`` helper threads, built on its
    first use."""
    return concurrent.futures.ThreadPoolExecutor(threads)


def _run_blocks(block, spans):
    """[block(span) for span in spans], run by this thread and, when the
    width :func:`_block_threads` gives and the spans are both at least 2,
    by up to width - 1 pool helpers, each claiming the next unclaimed span.
    Once no span is left, helpers that have not started are cancelled; the
    call waits only for spans already running, so every block has finished
    when it returns or raises the first block's exception (in span order),
    and no pool thread still writes to the caller's arrays.  A nested call,
    from a block on a pool thread, cannot deadlock: when every pool thread
    is busy its caller runs all of its spans alone."""
    threads = min(_block_threads(), len(spans))
    if threads <= 1:
        return [block(span) for span in spans]
    results, errors = [None] * len(spans), [None] * len(spans)
    claims = itertools.count()    # next() on it is atomic under the GIL
    job = [block, spans, results, errors]    # all of the call a helper sees

    def work():
        block, spans, results, errors = job
        for i in claims:
            if i >= len(spans):
                return
            try:
                results[i] = block(spans[i])
            except Exception as exc:
                errors[i] = exc

    helpers = [_pool(threads - 1).submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        # a cancelled helper counts as done only once a pool thread has
        # dequeued it, so wait for the running ones alone; until then it
        # keeps `work` alive, and through it only the emptied job
        running = [helper for helper in helpers if not helper.cancel()]
        concurrent.futures.wait(running)
        job.clear()
    for helper in running:
        helper.result()       # what a helper's block raised past Exception
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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
    pool's threads (the GNN kernel's blocks and Monte Carlo draws, the net
    passes' tiles, ntk-regime's cells) reuse the heap that training freed
    instead of faulting in arenas of their own.  Does nothing without glibc's
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
