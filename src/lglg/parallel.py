"""Cores and BLAS threads: the one module that decides how many of each
extraction uses.

Importing this module sets numpy's bundled OpenBLAS to one thread, once,
for the whole process. A fitted model's bytes then do not depend on the
machine's core count or on ``OPENBLAS_NUM_THREADS``, and OpenBLAS's own
threads neither compete with the helper threads of :func:`split` nor
stall the tiny LAPACK calls of a block stack. Where that OpenBLAS cannot
be found, :data:`CORES` is 1 and extraction runs on one thread, as it does
in process-pool workers.

One image's extraction splits its Gabor subbands, and then its block list,
across the cores of the process's CPU affinity with :func:`split`: one
split per stage. The work is numpy FFT and LAPACK code that releases the
interpreter lock, and each part writes its own output rows, so the result
is bitwise that of one thread. Helper threads live for one split only:
none is alive when a process pool forks. Process pools run at most
:data:`AFFINITY` workers.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections.abc import Callable
from typing import TypeVar

import numpy as np

T = TypeVar("T")

#: numpy wheels bundle OpenBLAS under this name; other builds do not match it.
_OPENBLAS_GLOB = os.path.join(
    os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_*.so"
)


def _find_openblas() -> Callable[[int], None] | None:
    """The thread-count setter of numpy's bundled OpenBLAS, or None when the
    library or the symbol is not found."""
    for lib in glob.glob(_OPENBLAS_GLOB):
        try:
            set_ = ctypes.CDLL(lib).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return set_
    return None


_OPENBLAS = _find_openblas()
if _OPENBLAS is not None:
    _OPENBLAS(1)

#: The size of the process's CPU affinity, so ``taskset`` limits it.
AFFINITY = len(os.sched_getaffinity(0))

#: Threads one :func:`split` uses: :data:`AFFINITY`, or 1 when OpenBLAS
#: cannot be set to one thread.
CORES = AFFINITY if _OPENBLAS is not None else 1


def pool_initializer() -> None:
    """Process-pool initializer: each of N workers extracts on one thread,
    so that N workers do not oversubscribe the cores."""
    global CORES
    CORES = 1


def split(fn: Callable[[int, int], T], n: int, min_part: int = 1) -> list[T]:
    """``[fn(lo, hi), ...]`` over contiguous ranges that cover ``range(n)``,
    in order: one range per core, each of at least ``min_part`` items (one
    range, run here, when ``n < 2 * min_part``). The calling thread runs the
    first range and helper threads the rest; they are joined before this
    returns, and the first range's exception, in range order, is raised."""
    parts = max(1, min(CORES, n // min_part))
    bounds = [n * i // parts for i in range(parts + 1)]
    results: list = [None] * parts
    errors: list[BaseException | None] = [None] * parts

    def run(i: int) -> None:
        try:
            results[i] = fn(bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised below, in the calling thread
            errors[i] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
