"""Worker-pool sizing for the Monte Carlo batches.

The HYPERSLICE_THREADS environment variable bounds parallelism; when unset,
a small pool sized to the machine is used.  The batches' NumPy kernels
release the interpreter lock, so threads help there; the results are
reduced as exact integer counts in a fixed order, so thread scheduling
never changes an output bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count() -> int:
    raw = os.environ.get("HYPERSLICE_THREADS")
    if raw is not None:
        try:
            return max(int(raw), 1)
        except ValueError:
            return 1
    return min(4, os.cpu_count() or 1)


def ordered_map(fn, items):
    """Map preserving input order, threaded when the pool allows it."""
    items = list(items)
    threads = worker_count()
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
