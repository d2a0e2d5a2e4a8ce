"""Cores and BLAS threads: the one module that decides how many of each
extraction uses.

One image's extraction splits its Gabor subbands, and then its block list,
across the cores of the process's CPU affinity with :func:`split`: one
split per stage. The work is numpy FFT and LAPACK code that releases the
interpreter lock, and each part writes its own output rows, so the result
is bitwise that of one thread. Helper threads live for one split only:
none is alive when a process pool forks. While a split's helper threads
run, numpy's bundled OpenBLAS is held to one thread, so that its own
threads do not compete with the helpers. Where that OpenBLAS cannot be
found, :data:`CORES` is 1 and extraction runs on one thread, as it does in
process-pool workers. Process pools run at most :data:`AFFINITY` workers.
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


def _find_openblas() -> tuple[Callable[[], int], Callable[[int], None], Callable[[], int]] | None:
    """The thread-count getter and setter of numpy's bundled OpenBLAS and its
    function that ends the worker threads, or None when the library or one
    of the symbols is not found."""
    for lib in glob.glob(_OPENBLAS_GLOB):
        try:
            dll = ctypes.CDLL(lib)
            get = dll.scipy_openblas_get_num_threads64_
            set_ = dll.scipy_openblas_set_num_threads64_
            stop = dll.blas_thread_shutdown_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        stop.argtypes, stop.restype = [], ctypes.c_int
        return get, set_, stop
    return None


_OPENBLAS = _find_openblas()

#: The size of the process's CPU affinity, so ``taskset`` limits it.
AFFINITY = len(os.sched_getaffinity(0))

#: Threads one :func:`split` uses: :data:`AFFINITY`, or 1 when OpenBLAS
#: cannot be held to one thread.
CORES = AFFINITY if _OPENBLAS is not None else 1


def pool_initializer() -> None:
    """Process-pool initializer: each of N workers runs one thread, so that
    they neither split images nor start a BLAS thread per core."""
    global CORES
    CORES = 1
    if _OPENBLAS is not None:
        _OPENBLAS[1](1)


def split(fn: Callable[[int, int], T], n: int, min_part: int = 1) -> list[T]:
    """``[fn(lo, hi), ...]`` over contiguous ranges that cover ``range(n)``,
    in order: one range per core, each of at least ``min_part`` items (one
    range, run here, when ``n < 2 * min_part``). The calling thread runs the
    first range and helper threads the rest; they are joined before this
    returns, and the first range's exception, in range order, is raised.

    While the helpers run, OpenBLAS is held to one thread and its worker
    threads are ended; the previous count is restored after the join, which
    starts the workers again. OpenBLAS threads would compete with the
    helpers, and after a threaded call its workers spin for about 0.1 s: a
    256² extraction right after a two-thread matrix-vector product took
    235 ms with them and 170 ms without. The count must come back because
    results computed outside a split (the WPCA fit) depend on it bitwise.
    A one-range split leaves OpenBLAS alone: ending and restarting its
    workers for every 64² image made the benchmark's 64² enrollment up to
    30 % slower. No other thread may run OpenBLAS while a split runs.
    """
    parts = max(1, min(CORES, n // min_part))
    if parts == 1:
        return [fn(0, n)]
    bounds = [n * i // parts for i in range(parts + 1)]
    results: list = [None] * parts
    errors: list[BaseException | None] = [None] * parts

    def run(i: int) -> None:
        try:
            results[i] = fn(bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised below, in the calling thread
            errors[i] = exc

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, parts)]
    if _OPENBLAS is not None:
        get, set_, stop = _OPENBLAS
        before = get()
        # set first: the setter starts the workers again when none are running
        set_(1)
        stop()
    try:
        for t in helpers:
            t.start()
        run(0)
        for t in helpers:
            t.join()
    finally:
        if _OPENBLAS is not None:
            set_(before)
    for exc in errors:
        if exc is not None:
            raise exc
    return results
