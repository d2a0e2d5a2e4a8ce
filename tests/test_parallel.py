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
    @pytest.fixture
    def blas_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(parallel, "_OPENBLAS", (
            lambda: calls.append("get") or 4,
            lambda n: calls.append(f"set {n}"),
            lambda: calls.append("stop"),
        ))
        return calls

    def test_first_split_holds_until_the_scope_ends(self, cores, blas_calls):
        cores(2)
        with parallel.one_blas_thread():
            assert blas_calls == []
            split(lambda lo, hi: None, 4)
            split(lambda lo, hi: None, 4)
            assert blas_calls == ["get", "set 1", "stop"]
        assert blas_calls == ["get", "set 1", "stop", "set 4"]

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_nothing_changes_without_a_split(self, cores, blas_calls, n_cores):
        cores(n_cores)
        with parallel.one_blas_thread():
            split(lambda lo, hi: None, 1)
        split(lambda lo, hi: None, 4)  # outside a scope
        assert blas_calls == []

    def test_restored_on_error_and_scopes_nest(self, cores, blas_calls):
        cores(2)
        with parallel.one_blas_thread():
            with pytest.raises(RuntimeError), parallel.one_blas_thread():
                split(lambda lo, hi: None, 4)
                raise RuntimeError
            assert blas_calls == ["get", "set 1", "stop", "set 4"]
            split(lambda lo, hi: None, 4)
        assert blas_calls == ["get", "set 1", "stop", "set 4"] * 2
        assert parallel._scope is None

    @pytest.mark.skipif(parallel._OPENBLAS is None, reason="numpy has no bundled OpenBLAS")
    def test_real_openblas_count_restored(self, cores):
        cores(2)
        get = parallel._OPENBLAS[0]
        before = get()
        with parallel.one_blas_thread():
            split(lambda lo, hi: None, 4)
            assert get() == 1
        assert get() == before
