"""The block thread pool: re-entrant one-BLAS-thread holds and serial runs
on its own threads."""

import threading

import pytest

from ntklab import pool

needs_openblas_hooks = pytest.mark.skipif(
    pool._openblas_threads() is None,
    reason="no bundled OpenBLAS to hold a pool thread to one BLAS thread")


@needs_openblas_hooks
def test_interleaved_holds_from_two_threads_restore_the_count(monkeypatch):
    # A enters, B enters, A exits, B exits: only B's exit, the last one,
    # restores the count, and B gets the width that A's hold read
    get, set_all, _ = pool._openblas_threads()
    before = get()
    width = [3]
    monkeypatch.setattr(pool, "_block_threads", lambda: width[0])
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def a():
        with pool.one_blas_thread() as threads:
            seen["a"] = threads
            a_in.set()
            b_in.wait()
        seen["after a"] = get()
        a_out.set()

    def b():
        a_in.wait()
        width[0] = 5
        with pool.one_blas_thread() as threads:
            seen["b"] = threads
            b_in.set()
            a_out.wait()
            with pool.one_blas_thread() as nested:
                seen["nested"] = nested
            seen["in b"] = get()

    set_all(2)
    try:
        workers = [threading.Thread(target=f) for f in (a, b)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
        assert seen == {"a": 3, "b": 3, "nested": 3, "after a": 1, "in b": 1}
        assert get() == 2
        # the next outermost hold reads the width afresh
        with pool.one_blas_thread() as threads:
            assert threads == 5
    finally:
        set_all(before)


@needs_openblas_hooks
def test_a_nested_hold_that_raises_keeps_the_outer_hold():
    get, set_all, _ = pool._openblas_threads()
    before = get()
    set_all(2)
    try:
        with pool.one_blas_thread():
            with pytest.raises(FloatingPointError):
                with pool.one_blas_thread():
                    raise FloatingPointError("body")
            assert get() == 1
        assert get() == 2
    finally:
        set_all(before)


@needs_openblas_hooks
def test_a_pool_thread_runs_its_own_blocks_in_order():
    # each outer block runs on a pool thread and calls _run_blocks again;
    # it must get the serial result on its own thread instead of submitting
    # to a pool.  (The inner width is 3, another pool: a submit to the
    # outer's own full pool of 2 would hang instead of failing.)
    def inner(j):
        return j * j, threading.current_thread()

    def outer(i):
        here = threading.current_thread()
        got = pool._run_blocks(inner, list(range(i, i + 4)), 3)
        assert all(thread is here for _, thread in got)
        return here, [value for value, _ in got]

    with pool.one_blas_thread():
        done = pool._run_blocks(outer, [0, 10], 2)
    assert [values for _, values in done] == [[0, 1, 4, 9],
                                             [100, 121, 144, 169]]
    assert threading.main_thread() not in [thread for thread, _ in done]
