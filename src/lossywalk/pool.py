"""The one process pool: sweep rows and dense solves, fanned out the same way.

``_run_rows`` maps a module-level function over a list of argument tuples
and yields the results in list order, so a caller that stores each result
in its own slot gets the same output at every worker count.  It starts a
``ProcessPoolExecutor`` only for two or more tasks and more than one
worker.  On Linux (up to Python 3.13) the pool forks: workers inherit the
parent's module globals, including any wrapper installed on them, and its
BLAS thread count.

Dense solves (``lattice``, ``cli``) go through ``_run_dense``.  It pins
BLAS to one thread for the process (``linalg.pin_one_blas_thread``) before
the workers fork, so they inherit the count, and pools only where that pin
found a library: forked children at the default BLAS threads compete for
the same cores and run slower than one serial solve at a time.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from . import linalg


def _workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _run_dense(row_fn, args_list, workers: int | None) -> list:
    """All rows of ``_run_rows`` for dense solves: serial where ``linalg`` found no BLAS to pin."""
    return list(_run_rows(row_fn, args_list, _workers(workers) if linalg.pin_one_blas_thread() else 1))


def _run_rows(row_fn, args_list, workers: int):
    """Yield row_fn over args_list in order, each as soon as it is done; pool only if it pays."""
    if workers <= 1 or len(args_list) <= 1:
        yield from map(row_fn, args_list)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        yield from pool.map(row_fn, args_list, chunksize=1)
