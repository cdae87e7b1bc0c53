"""Explicit BLAS thread policy for multi-threaded callers.

NumPy's bundled OpenBLAS runs its own thread pool, sized to the machine by
default.  When several Python worker threads each call into BLAS, those
pools oversubscribe the cores and the workers contend for them, which on a
small box costs more than BLAS threading ever gains on the small matrices
the QAOA kernels use.  :func:`acquire_single_blas_thread` pins OpenBLAS to
one thread while any holder is active; the previous setting returns when
the last holder calls :func:`release_single_blas_thread`.  The control goes
through the ``scipy_openblas`` ``get/set_num_threads`` symbols that NumPy
wheels export; on a build without them it is a no-op and
:func:`blas_threads` reports ``None``.
"""

from __future__ import annotations

import ctypes
import glob
import threading
from pathlib import Path
from typing import Optional

import numpy as np

# OpenBLAS's thread count is process-wide, so the hold count guarding it is
# process-wide too.
_lock = threading.Lock()
_holders = 0
_saved: Optional[int] = None
_functions = None


def _openblas():
    """``(get, set)`` ctypes functions of NumPy's OpenBLAS, or ``None``."""
    global _functions
    if _functions is None:
        _functions = ()
        libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
            try:
                library = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                getter = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
                setter = getattr(library, f"scipy_openblas_set_num_threads{suffix}", None)
                if getter is not None and setter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    _functions = (getter, setter)
                    break
            if _functions:
                break
    return _functions or None


def blas_threads() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` when it is not controllable."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def acquire_single_blas_thread() -> None:
    """Pin OpenBLAS to one thread until the matching release.

    Holds are reference-counted: the first one saves the current count and
    pins it to one, the last :func:`release_single_blas_thread` restores it,
    so overlapping holders (two services, say) compose.
    """
    global _holders, _saved
    functions = _openblas()
    with _lock:
        _holders += 1
        if _holders == 1 and functions is not None:
            _saved = int(functions[0]())
            functions[1](1)


def release_single_blas_thread() -> None:
    """Drop one :func:`acquire_single_blas_thread` hold."""
    global _holders, _saved
    functions = _openblas()
    with _lock:
        _holders -= 1
        if _holders == 0 and functions is not None and _saved is not None:
            functions[1](_saved)
            _saved = None
