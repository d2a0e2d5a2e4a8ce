import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from conftest import other_threads, split_helpers
from lglg import parallel
from lglg.parallel import split


@pytest.fixture
def cores(monkeypatch):
    def set_cores(n):
        monkeypatch.setattr(parallel, "CORES", n)

    return set_cores


class TestAffinity:
    def test_one_core_affinity_gives_one_core(self):
        # the child pins itself to one CPU before lglg reads its affinity
        code = (
            "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from lglg import parallel; print(parallel.AFFINITY, parallel.CORES)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parallel.__file__))})
        assert out.stdout == "1 1\n"


class TestSplit:
    @pytest.mark.parametrize("n_cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 7, 100])
    @pytest.mark.parametrize("calls", [1, 3])  # repeated calls leave no state behind
    def test_parts_cover_the_range_in_order(self, cores, n_cores, n, calls):
        cores(n_cores)
        runs = [split(lambda lo, hi: (lo, hi), n) for _ in range(calls)]
        parts = runs[0]
        assert all(run == parts for run in runs)
        assert len(parts) == max(1, min(n_cores, n))
        assert parts[0][0] == 0 and parts[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        if len(parts) > 1:
            assert min(hi - lo for lo, hi in parts) >= 1
            assert max(hi - lo for lo, hi in parts) - min(hi - lo for lo, hi in parts) <= 1

    def test_first_part_runs_on_the_calling_thread(self, cores):
        cores(3)
        idents = split(lambda lo, hi: threading.get_ident(), 9)
        assert idents[0] == threading.get_ident()
        # idents of finished helpers may be reused, so only compare with ours
        assert threading.get_ident() not in idents[1:]

    def test_first_error_in_range_order_is_raised_after_all_parts(self, cores):
        cores(4)
        done = []

        def fn(lo, hi):
            if lo > 0:
                done.append(lo)
            if lo in (2, 4):
                raise ValueError(f"part at {lo}")
            return lo

        threads = other_threads()
        with pytest.raises(ValueError, match="part at 2"):
            split(fn, 8)
        assert sorted(done) == [2, 4, 6]
        # the helpers that raised stay parked for the next split
        assert other_threads() == threads and len(split_helpers()) >= 3

    def test_more_threads_than_cores_with_fast_switching_lose_nothing(self, cores):
        cores(8)
        out = [0] * 1000

        def fill(lo, hi):
            for i in range(lo, hi):
                out[i] += i
            return hi - lo

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                out[:] = [0] * 1000
                assert split(fill, 1000) == [125] * 8
                assert out == list(range(1000))
        finally:
            sys.setswitchinterval(interval)


def _helpers_in_worker(item):
    """In a pool worker: its cores, and the lglg helpers alive before and
    after a split of four items."""
    before = [t.name for t in split_helpers()]
    split(lambda lo, hi: None, 4)
    return parallel.CORES, before, [t.name for t in split_helpers()]


def in_child(check) -> int:
    """Exit code of a forked child that runs ``check()``: 0 when it returns
    True, 1 when False or raising, 2 when it has not exited in 30 s."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if check() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    return 2


class TestParkedHelpers:
    """Ranges 1.. of a split run on helper threads that are started once,
    parked between splits and stopped before any fork."""

    def test_two_splits_run_on_the_same_helpers(self, cores):
        cores(3)
        runs = [split(lambda lo, hi: threading.current_thread(), 6) for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] is threading.current_thread()
        assert len(set(runs[0][1:])) == 2
        assert all(t.is_alive() and t.name.startswith("lglg-split-") for t in runs[0][1:])

    @pytest.mark.parametrize("n_cores", [1, 2, 3])
    def test_no_more_helpers_than_cores_less_one(self, cores, n_cores):
        # after a split on four cores, fewer cores use fewer of its helpers
        cores(4)
        split(lambda lo, hi: None, 8)
        cores(n_cores)
        used = {t for _ in range(2) for t in split(lambda lo, hi: threading.current_thread(), 8)[1:]}
        assert len(used) == n_cores - 1

    def test_stopped_before_a_fork_and_restarted_by_the_next_split(self, cores):
        cores(2)
        split(lambda lo, hi: None, 2)
        parked = split_helpers()
        assert parked

        def child():
            # the child starts with no helper, and its split starts one
            return (split_helpers() == [] and parallel._helpers == []
                    and split(lambda lo, hi: lo, 2) == [0, 1] and len(split_helpers()) == 1)

        assert in_child(child) == 0
        assert not any(t.is_alive() for t in parked)
        assert split_helpers() == []
        split(lambda lo, hi: None, 2)
        assert len(split_helpers()) == 1

    def test_none_alive_in_a_pool_worker(self, cores, monkeypatch):
        # the first item runs here, on two cores, and parks a helper
        monkeypatch.setattr(parallel, "AFFINITY", 2)
        cores(2)
        split(lambda lo, hi: None, 2)
        out = list(parallel.imap(_helpers_in_worker, ["a", "b", "c"], jobs=2))
        assert out[1:] == [(1, [], [])] * 2
        assert len(out[0][2]) == 1 and split_helpers() == []
        split(lambda lo, hi: None, 2)
        assert len(split_helpers()) == 1

    @pytest.mark.parametrize("raising", [0, 1])
    def test_base_exception_leaves_no_stale_reply(self, cores, raising):
        # range `raising` is interrupted while the others are still running;
        # the next split gets its own results from the same helpers
        cores(3)

        def first(lo, hi):
            if lo // 2 == raising:
                raise KeyboardInterrupt
            time.sleep(0.05)
            return ("first", lo)

        with pytest.raises(KeyboardInterrupt):
            split(first, 6)
        assert split(lambda lo, hi: ("second", lo), 6) == [("second", 0), ("second", 2), ("second", 4)]

    def test_nothing_of_a_split_held_once_it_returns(self, cores):
        # fn closes over the array and the parts return views of it
        cores(3)
        planes = np.zeros((6, 8))
        ref = weakref.ref(planes)

        def make(planes):
            return lambda lo, hi: planes[lo:hi]

        fn = make(planes)
        del planes
        for _ in range(20):
            views = split(fn, 6)
        assert [v.shape for v in views] == [(2, 8)] * 3
        del fn, views
        assert ref() is None

    def test_split_inside_a_helper_runs_its_ranges_there(self, cores):
        cores(2)

        def outer(lo, hi):
            me = threading.current_thread()
            return split(lambda a, b: (a, b, threading.current_thread() is me), 4)

        assert split(outer, 2) == [[(0, 2, True), (2, 4, False)], [(0, 2, True), (2, 4, True)]]


def run_child(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter that imports lglg from this tree;
    fails the test if it has not exited in 30 s."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(parallel.__file__))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)


class TestInterpreterExit:
    """Helpers are executor threads, which the interpreter joins at exit."""

    def test_process_that_split_exits_promptly(self):
        # its helper is parked when the main thread returns
        code = (
            "import threading\nfrom lglg import parallel\nparallel.CORES = 2\n"
            "print(parallel.split(lambda lo, hi: threading.current_thread().name, 4))\n"
        )
        run = run_child(code)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "['MainThread', 'lglg-split-1_0']\n"

    @pytest.mark.parametrize("parked", [False, True])
    def test_split_in_an_atexit_handler_runs_in_the_caller(self, parked):
        # by then concurrent.futures takes no new work, and a parked helper
        # has been joined
        code = (
            "import atexit, threading\nfrom lglg import parallel\nparallel.CORES = 2\n"
            f"if {parked}:\n    parallel.split(lambda lo, hi: None, 2)\n"
            "atexit.register(lambda: print(parallel.split(\n"
            "    lambda lo, hi: (lo, hi, threading.current_thread().name), 4)))\n"
        )
        run = run_child(code)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == "[(0, 2, 'MainThread'), (2, 4, 'MainThread')]\n"


class TestOneBlasThread:
    """Importing lglg sets OpenBLAS to one thread for the whole process, and
    no split changes the count."""

    @pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
    def test_import_sets_one_thread_in_a_fresh_interpreter(self):
        # the child finds the getter itself: lglg keeps only the setter
        code = (
            "import ctypes, glob\n"
            f"get = ctypes.CDLL(glob.glob({parallel._OPENBLAS_GLOB!r})[0]).scipy_openblas_get_num_threads64_\n"
            "before = get()\n"
            "import lglg.cli\n"
            "print(before, get())\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "4",
               "PYTHONPATH": os.path.dirname(os.path.dirname(parallel.__file__))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        before, after = map(int, out.stdout.split())
        if parallel.AFFINITY > 1:
            # OpenBLAS caps the variable at the CPU count, so with one CPU it
            # starts at one thread anyway
            assert before > 1
        assert after == 1

    @pytest.fixture
    def blas_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(parallel, "_OPENBLAS", lambda n: calls.append(f"set {n}"))
        return calls

    def test_each_split_holds_until_its_helpers_reply(self, cores, blas_calls):
        # the count holds through each split, which sets none, and no thread
        # but a parked helper outlives it
        cores(2)
        threads = other_threads()
        seen = []

        def fn(lo, hi):
            seen.append((lo, list(blas_calls)))

        split(fn, 4)
        split(fn, 4)
        assert sorted(seen) == [(0, []), (0, []), (2, []), (2, [])]
        assert blas_calls == []
        assert other_threads() == threads

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_nothing_changes_without_a_split(self, cores, blas_calls, n_cores):
        # one part runs on the calling thread and makes no OpenBLAS call
        cores(n_cores)
        seen = []
        split(lambda lo, hi: seen.append((lo, hi, threading.get_ident())), 1)
        assert seen == [(0, 1, threading.get_ident())]
        assert blas_calls == []

    def test_split_without_openblas_runs_its_parts(self, cores, monkeypatch):
        cores(2)
        monkeypatch.setattr(parallel, "_OPENBLAS", None)
        assert split(lambda lo, hi: (lo, hi), 4) == [(0, 2), (2, 4)]

    def test_restored_when_a_part_raises(self, cores, blas_threads):
        # a caller raised the count after importing lglg: a raising part runs
        # at that count, and it stays after the split, of one part or more
        cores(2)
        set_ = parallel._OPENBLAS
        set_(2)
        try:
            def fn(lo, hi):
                if lo > 0 or hi == 1:
                    raise RuntimeError(blas_threads())

            with pytest.raises(RuntimeError, match="^2$"):
                split(fn, 4)
            assert blas_threads() == 2
            with pytest.raises(RuntimeError, match="^2$"):
                split(fn, 1)  # one part, on the calling thread
            assert blas_threads() == 2
        finally:
            set_(1)

    def test_real_openblas_count_restored(self, cores, blas_threads):
        # split leaves the real count as the caller set it, in every part
        cores(2)
        set_ = parallel._OPENBLAS
        set_(2)
        try:
            assert split(lambda lo, hi: blas_threads(), 4) == [2, 2]
            assert blas_threads() == 2
            assert split(lambda lo, hi: blas_threads(), 1) == [2]
            assert blas_threads() == 2
        finally:
            set_(1)
