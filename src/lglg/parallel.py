"""Cores and BLAS threads: the one module that decides how many of each
extraction uses.

Importing this module sets numpy's bundled OpenBLAS to one thread, once,
for the whole process. A fitted model's bytes then do not depend on the
machine's core count or on ``OPENBLAS_NUM_THREADS``, and OpenBLAS's own
threads neither compete with the helper threads of :func:`split` nor
stall the tiny LAPACK calls of a block stack. Where that OpenBLAS cannot
be found, :data:`CORES` is 1 and extraction runs on one thread, as it does
in process-pool workers.

A batch of images goes through :func:`imap`: the first here, the rest on
``jobs`` one-thread worker processes forked after it, which share what it
built (the kernel bank, its spectra and numpy's FFT plans) copy-on-write;
:func:`check_jobs` is the one rule for ``jobs``.

One image's extraction splits its Gabor subbands, and then its block list,
across the cores of the process's CPU affinity with :func:`split`, once
per stage. The work is numpy FFT and LAPACK code that releases the
interpreter lock, and each part writes its own output rows, so the result
is bitwise that of one thread. Each helper is a single-thread executor,
and range i of every split goes to helper i. Helpers are parked between
splits and shut down before any fork: none is alive when a process pool
forks, and the next split starts them again.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from itertools import repeat
from typing import TypeVar

import numpy as np

from .errors import ConfigError

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


def check_jobs(jobs: int | None) -> None:
    """Raise :class:`ConfigError` unless ``jobs`` is None or at least 1."""
    if jobs is not None and jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")


def _one_core() -> None:
    """Process-pool initializer: each of N workers extracts on one thread,
    so that N workers do not oversubscribe the cores."""
    global CORES
    CORES = 1


def imap(fn: Callable[..., T], items: list, *args, jobs: int | None) -> Iterator[T]:
    """``fn(item, *args)`` for each of ``items``, yielded in order. The first
    runs here; the rest run on ``jobs`` one-thread worker processes, forked
    only once the first is done, and at most one per item left and per core
    of the CPU affinity (``None``: one per core; below 1: :func:`check_jobs`
    refuses it). At one job, with one core in the affinity, or with at most
    one item left, they all run here, each free to :func:`split`. Closing the
    iterator early cancels the items not yet started."""
    check_jobs(jobs)
    jobs = min(AFFINITY if jobs is None else jobs, len(items) - 1, AFFINITY)
    if jobs <= 1:
        for item in items:
            yield fn(item, *args)
        return
    yield fn(items[0], *args)
    # here, not at the top: the executor loads multiprocessing, which costs
    # about 15 ms of a cold start that runs no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork on every Python version: workers start from this process's state
    # and never re-run the caller's script, which then needs no __main__ guard
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=fork, initializer=_one_core) as pool:
        yield from pool.map(fn, items[1:], *map(repeat, args))


#: Parked helpers, one single-thread executor each: range i of a split goes
#: to the i-th. Emptied before any fork of the process.
_helpers: list[ThreadPoolExecutor] = []
#: Held while a split hands out its ranges and while the helpers stop, so
#: no range goes to a helper that is stopping.
_helpers_lock = threading.Lock()
_on_helper = threading.local()


def _mark_helper() -> None:
    _on_helper.active = True


def _stop_helpers() -> None:
    """Shut down and join every helper, before any fork: the child starts
    with none, and the parent's next split starts them again. No lglg range
    forks, so this never runs on a helper, which could not join itself."""
    with _helpers_lock:
        for helper in _helpers:
            helper.shutdown()
        _helpers.clear()


os.register_at_fork(before=_stop_helpers)


def _hand_out(fn: Callable[[int, int], T], ranges: list[tuple[int, int]]) -> list[Future]:
    """Submit range i to helper i, started here if there are too few: the
    futures of the ranges taken, in order. From interpreter shutdown on,
    ``concurrent.futures`` takes no new work, and the ranges not taken are
    left to the caller."""
    futures = []
    with _helpers_lock:
        for i, (lo, hi) in enumerate(ranges):
            new = i == len(_helpers)
            helper = ThreadPoolExecutor(1, f"lglg-split-{i + 1}", _mark_helper) if new else _helpers[i]
            try:
                futures.append(helper.submit(fn, lo, hi))
            except RuntimeError:  # interpreter shutdown, or no thread could start
                break
            if new:
                # kept once it took a range: one whose thread could not start
                # is dropped with the range it queued
                _helpers.append(helper)
    return futures


def split(fn: Callable[[int, int], T], n: int) -> list[T]:
    """``[fn(lo, hi), ...]`` over contiguous ranges that cover ``range(n)``,
    in order: one range per core, and at most one per item. The calling
    thread runs the first range and parked helpers the rest. No range is
    still running when this returns or raises, and the first range's
    exception, in range order, is raised."""
    parts = max(1, min(CORES, n))
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    # a split inside a helper's range runs there: the helper must not wait
    # for itself
    futures = [] if getattr(_on_helper, "active", False) else _hand_out(fn, ranges[1:])
    try:
        first = fn(*ranges[0])
    finally:
        for future in futures:
            future.exception()  # waits for the range; its exception is raised below
    done = [first] + [future.result() for future in futures]
    return done + [fn(lo, hi) for lo, hi in ranges[len(done):]]
