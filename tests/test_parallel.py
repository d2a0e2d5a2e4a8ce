import os
import subprocess
import sys
import threading

import pytest

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

        threads = threading.active_count()
        with pytest.raises(ValueError, match="part at 2"):
            split(fn, 8)
        assert sorted(done) == [2, 4, 6]
        assert threading.active_count() == threads


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

    def test_each_split_holds_until_its_helpers_are_joined(self, cores, blas_calls):
        # the count holds through each split, which sets none, and no helper
        # outlives the split that started it
        cores(2)
        threads = threading.active_count()
        seen = []

        def fn(lo, hi):
            seen.append((lo, list(blas_calls)))

        split(fn, 4)
        split(fn, 4)
        assert sorted(seen) == [(0, []), (0, []), (2, []), (2, [])]
        assert blas_calls == []
        assert threading.active_count() == threads

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
