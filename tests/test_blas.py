import sys
import threading

import pytest

from jtcqed import _blas

from conftest import OPENBLAS_COUNTS, bundled_openblas, run_fresh


def counts():
    # openblas_set_num_threads_local returns the count it replaces
    values = []
    for fn in _blas.setters():
        values.append(fn(1))
        fn(values[-1])
    return values


# NumPy's OpenBLAS alone is held; SciPy's is mapped after that hold is
# released ("after") or while it lasts ("inside"), and then held too.
LATE_LIBRARY = OPENBLAS_COUNTS + """
import json
import sys

from jtcqed import _blas

alone = openblas_counts()
with _blas.single_thread():
    first = openblas_counts()
    if sys.argv[1] == "inside":
        import scipy.linalg
        with _blas.single_thread():
            second = openblas_counts()
if sys.argv[1] == "after":
    import scipy.linalg
    with _blas.single_thread():
        second = openblas_counts()
print(json.dumps({"alone": alone, "first": first, "second": second, "after": openblas_counts()}))
"""


@pytest.mark.skipif(not bundled_openblas(), reason="NumPy is not built on OpenBLAS on Linux")
class TestSingleThread:
    def test_finds_a_library(self):
        assert _blas.setters()

    def test_one_thread_inside_and_counts_restored(self):
        before = counts()
        with _blas.single_thread():
            assert counts() == [1] * len(before)
            with _blas.single_thread():
                assert counts() == [1] * len(before)
            assert counts() == [1] * len(before)
        assert counts() == before

    def test_overlapping_holders_restore_once(self):
        # The count is process-wide: it stays at one until the last of two
        # overlapping holders leaves, and only then is it restored.
        before = counts()
        entered, release = threading.Event(), threading.Event()

        def hold():
            with _blas.single_thread():
                entered.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=hold)
        with _blas.single_thread():
            thread.start()
            assert entered.wait(timeout=10)
        assert counts() == [1] * len(before)
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert counts() == before

    def test_many_threads_leave_counts_restored(self):
        before = counts()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def churn():
                for _ in range(200):
                    with _blas.single_thread():
                        pass

            threads = [threading.Thread(target=churn) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert _blas._holders == 0
        assert counts() == before

    @pytest.mark.parametrize("mapped", ["after", "inside"])
    def test_library_mapped_after_first_lookup(self, mapped):
        out = run_fresh(LATE_LIBRARY, mapped)
        (default,) = out["alone"].values()
        if default == 1:
            pytest.skip("OpenBLAS runs on one thread by default on this host")
        assert out["first"] == {name: 1 for name in out["alone"]}
        assert len(out["second"]) == 2
        assert set(out["second"].values()) == {1}
        assert out["after"] == {name: default for name in out["second"]}
