"""One BLAS thread for a stretch of work, through the OpenBLAS builds that
NumPy and SciPy load.

Both wheels bundle OpenBLAS and export ``openblas_set_num_threads_local``,
which sets the thread count and returns the previous one. Despite its name,
in these pthreads builds the count it sets is process-wide (a value set on
one thread is what every other thread's calls run with), so the setting is
reference-counted: the first :func:`single_thread` to enter sets every
library to one thread, and the last to leave restores the saved counts.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

# The BLAS thread count is process state, so its bookkeeping is too.
_lock = threading.Lock()
_holders = 0
_saved: list[int] = []


@functools.cache
def setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS library already
    mapped into this process; empty where none is found (or no
    ``/proc/self/maps`` to find it in)."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths = {f[5].strip() for f in fields if len(f) == 6}
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            fn = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        found.append(fn)
    return tuple(found)


@contextlib.contextmanager
def single_thread():
    """Run BLAS on one thread inside the block; restore the counts after it."""
    global _holders
    with _lock:
        if _holders == 0:
            _saved[:] = [fn(1) for fn in setters()]
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for fn, count in zip(setters(), _saved):
                    fn(count)
