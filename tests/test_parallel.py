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
    @pytest.mark.parametrize("min_part", [1, 3])
    def test_parts_cover_the_range_in_order(self, cores, n_cores, n, min_part):
        cores(n_cores)
        parts = split(lambda lo, hi: (lo, hi), n, min_part)
        assert len(parts) == max(1, min(n_cores, n // min_part))
        assert parts[0][0] == 0 and parts[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        if len(parts) > 1:
            assert min(hi - lo for lo, hi in parts) >= min_part
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
    """Every split holds OpenBLAS to one thread while its parts run; one that
    starts helper threads also ends OpenBLAS's workers."""

    @pytest.fixture
    def blas_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(parallel, "_OPENBLAS", (
            lambda: calls.append("get") or 4,
            lambda n: calls.append(f"set {n}"),
            lambda: calls.append("stop"),
        ))
        return calls

    def test_each_split_holds_until_its_helpers_are_joined(self, cores, blas_calls):
        cores(2)
        seen = []

        def fn(lo, hi):
            seen.append(list(blas_calls))

        split(fn, 4)
        assert seen == [["get", "set 1", "stop"]] * 2
        assert blas_calls == ["get", "set 1", "stop", "set 4"]
        split(fn, 4)
        assert blas_calls == ["get", "set 1", "stop", "set 4"] * 2

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_nothing_changes_without_a_split(self, cores, blas_calls, n_cores):
        # one part: held at one thread while it runs, workers left running
        cores(n_cores)
        seen = []
        split(lambda lo, hi: seen.append(list(blas_calls)), 1)
        split(lambda lo, hi: seen.append(list(blas_calls)), 4, min_part=3)
        assert seen == [["get", "set 1"], ["get", "set 1", "set 4", "get", "set 1"]]
        assert blas_calls == ["get", "set 1", "set 4"] * 2

    def test_split_without_openblas_runs_its_parts(self, cores, monkeypatch):
        cores(2)
        monkeypatch.setattr(parallel, "_OPENBLAS", None)
        assert split(lambda lo, hi: (lo, hi), 4) == [(0, 2), (2, 4)]

    def test_restored_when_a_part_raises(self, cores, blas_calls):
        cores(2)

        def fn(lo, hi):
            if lo > 0 or hi == 1:
                raise RuntimeError

        with pytest.raises(RuntimeError):
            split(fn, 4)
        assert blas_calls == ["get", "set 1", "stop", "set 4"]
        blas_calls.clear()
        with pytest.raises(RuntimeError):
            split(fn, 1)  # one part, on the calling thread
        assert blas_calls == ["get", "set 1", "set 4"]

    @pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
    def test_real_openblas_count_restored(self, cores):
        cores(2)
        get, set_, _ = parallel._OPENBLAS
        before = get()
        set_(2)
        try:
            assert split(lambda lo, hi: get(), 4) == [1, 1]
            assert get() == 2
            assert split(lambda lo, hi: get(), 1) == [1]
            assert get() == 2
        finally:
            set_(before)
