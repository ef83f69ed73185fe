"""One BLAS thread for a stretch of work, through the OpenBLAS builds that
NumPy and SciPy load.

Both wheels bundle OpenBLAS and export ``openblas_set_num_threads_local``,
which sets the thread count and returns the previous one. Despite its name,
in these pthreads builds the count it sets is process-wide (a value set on
one thread is what every other thread's calls run with), so the setting is
reference-counted: the first :func:`single_thread` to enter sets every
library to one thread, and the last to leave restores the saved counts.

The libraries are found as they are loaded, not once: SciPy loads on first
use, so its OpenBLAS can be mapped after NumPy's has been held and released.
A library is mapped by the import of an extension module that links it, so
``/proc/self/maps`` is read again whenever the number of imported modules
has changed since the last read, and a library found while the count is
held is set to one thread at the next entry and restored with the others.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
import threading

# The BLAS thread count is process state, so its bookkeeping is too.
_lock = threading.Lock()
_holders = 0
_saved: list[tuple] = []  # (setter, the count it replaced) of each library held now
# (len(sys.modules) at the last read of the maps, the setters found then),
# replaced whole, so a reader on any thread sees one read's result.
_scan: tuple[int, tuple] = (-1, ())


@functools.cache
def _setter(path: str):
    """``openblas_set_num_threads_local`` of the mapped library at ``path``,
    or None where it has none."""
    try:
        fn = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    return fn


def setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS library mapped
    into this process; empty where none is found (or no ``/proc/self/maps``
    to find it in)."""
    global _scan
    modules = len(sys.modules)
    if _scan[0] != modules:
        try:
            with open("/proc/self/maps") as maps:
                paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
        except OSError:
            paths = set()
        found = (_setter(p) for p in sorted(paths) if "openblas" in os.path.basename(p))
        _scan = (modules, tuple(fn for fn in found if fn is not None))
    return _scan[1]


@contextlib.contextmanager
def single_thread():
    """Run BLAS on one thread inside the block; restore the counts after it."""
    global _holders
    with _lock:
        for fn in setters():
            if all(fn is not held for held, _ in _saved):
                _saved.append((fn, fn(1)))
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for fn, count in _saved:
                    fn(count)
                _saved.clear()
