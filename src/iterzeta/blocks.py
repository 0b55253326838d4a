"""A pass's independent blocks on every CPU the process may run on.

A pass over an array in cache-sized blocks, whose blocks share nothing
but what the caller carries between them, maps its per-block function
over the block starts with map_blocks.  The blocks run on one worker
per CPU of the process's affinity mask, at most one per block: the
calling thread and the threads of one pool, made on first use with one
thread fewer than the CPUs, so that one CPU's worth of the blocks' own
buffers stays on the caller's heap.  One block, or one CPU, runs
inline.  NumPy releases the interpreter lock inside its loops, where the
blocks spend their time.  The results come back in block order, so a
caller that adds them up in that order gets the same bits on any number
of CPUs.

A block function must not call a public iterzeta entry point, which a
caller may wrap with per-process state (the benchmark's tracer keeps
one span stack), nor BLAS, whose own threads would contend with the
pool's, nor map_blocks, whose pool it would wait on from inside.
"""

from __future__ import annotations

import os
import queue
import threading

_LOCK = threading.Lock()
_POOL = None


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool() -> queue.SimpleQueue:
    """The pool's task queue, its threads started on first use.  Plain
    threads on one queue, whose module is imported with this one: an
    import on first use, in the middle of a construction's arrays, left
    objects there that raised prime_pipeline's peak RSS by about 8 MB,
    and concurrent.futures would also import logging."""
    global _POOL
    with _LOCK:
        if _POOL is None:
            _POOL = queue.SimpleQueue()
            for _ in range(max(_cpus() - 1, 1)):
                threading.Thread(target=_serve, args=(_POOL,), daemon=True,
                                 name="iterzeta-block").start()
        return _POOL


def _serve(tasks) -> None:
    while True:
        tasks.get()()


def _forget_pool() -> None:
    # a forked child has none of the parent's threads: it makes its own
    global _POOL, _LOCK
    _POOL, _LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, starts) -> list:
    """[fn(s) for s in starts], the blocks run concurrently on
    min(CPUs, blocks) workers, the caller one of them, that take them in
    order, each as the last is done.  Returns only when every block
    taken has finished.  If blocks raise, no worker takes a further
    block, and the exception of the first of them in block order is
    raised: the one an inline run raises, since every block before it
    was taken, and so run, before it."""
    starts = list(starts)
    workers = min(_cpus(), len(starts))
    if workers <= 1:
        return [fn(s) for s in starts]
    results = [None] * len(starts)
    errors = []
    # next() on a range iterator holds the interpreter lock: each block
    # goes to one worker, and a block taken is run
    todo = iter(range(len(starts)))

    def work():
        while not errors:
            i = next(todo, None)
            if i is None:
                return
            try:
                results[i] = fn(starts[i])
            except BaseException as exc:
                errors.append((i, exc))

    finished = threading.Semaphore(0)

    def helper():
        work()
        finished.release()

    tasks = _pool()
    for _ in range(workers - 1):
        tasks.put(helper)
    work()
    for _ in range(workers - 1):
        finished.acquire()
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return results
