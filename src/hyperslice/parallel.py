"""Worker-pool sizing and the one pool for the Monte Carlo batches.

The HYPERSLICE_THREADS environment variable bounds parallelism; when unset,
a small pool sized to the machine is used.  A value above _MAX_THREADS is
refused before any pool exists: ordered_map submits every batch at once,
and the pool starts one thread per submission up to its size.  The
batches' NumPy kernels release the interpreter lock, so threads help there;
the results are reduced as exact integer counts in a fixed order, so
thread scheduling never changes an output bit.

The pool lives for the whole process.  It is built on the first call that
runs threaded (importing this module starts no thread and does not import
concurrent.futures) and rebuilt only when worker_count() changes between
calls; the old pool finishes the tasks already given to it.  A child
process made by fork starts without a pool, since the parent's worker
threads do not exist in it.
"""

from __future__ import annotations

import os
import threading

from .errors import InvalidInputError

#: concurrent.futures' pool class, imported by the first threaded call:
#: that module loads logging, queue and traceback, which a process that
#: never runs threaded does not need.
ThreadPoolExecutor = None

_lock = threading.Lock()
_pool = None
_pool_threads = 0
_MAX_THREADS = 256


def worker_count() -> int:
    """Threads for ordered_map: HYPERSLICE_THREADS, an integer from 1 to
    _MAX_THREADS, or min(4, cpu count) when it is unset."""
    raw = os.environ.get("HYPERSLICE_THREADS")
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if not 1 <= threads <= _MAX_THREADS:
        raise InvalidInputError(
            f"HYPERSLICE_THREADS must be an integer from 1 to {_MAX_THREADS}, got {raw!r}")
    return threads


def _forget_pool() -> None:
    global _lock, _pool, _pool_threads
    _lock, _pool, _pool_threads = threading.Lock(), None, 0


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def ordered_map(fn, items):
    """Map preserving input order, threaded when the pool allows it."""
    global ThreadPoolExecutor, _pool, _pool_threads
    items = list(items)
    threads = worker_count()
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with _lock:
        if _pool_threads != threads:
            if ThreadPoolExecutor is None:
                from concurrent.futures import ThreadPoolExecutor
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool, _pool_threads = ThreadPoolExecutor(max_workers=threads), threads
        futures = [_pool.submit(fn, x) for x in items]
    return [f.result() for f in futures]
