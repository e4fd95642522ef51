"""The engine's CPUs: numpy's bundled OpenBLAS, its one-thread policy and LAPACKE routines.

Below symbols and kernel; it imports nothing of the package.  The SVD engine,
the S3 sample, the S3 quadrature and each verify case run their small BLAS
products inside one_blas_thread: a second OpenBLAS thread slows them down,
once woken keeps a core busy after the call, and makes their rounding, and
so the reported gaps, depend on the caller's thread count.  A thread inside
that hold uses one CPU: spare_cpu, which decides whether the kernel engine
may start a helper thread, is False there.
"""
from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager

import numpy as np


_int, _char, _ptr, _double = ctypes.c_int64, ctypes.c_char, ctypes.c_void_p, ctypes.c_double
# LAPACKE routines of the bidiagonal path -> their argument types.  The
# library is ILP64: every lapack_int is 64-bit, the leading layout a C int.
_LAPACKE = {
    "zgebrd": [ctypes.c_int, _int, _int, _ptr, _int, _ptr, _ptr, _ptr, _ptr],
    "dbdsqr": [ctypes.c_int, _char, _int, _int, _int, _int, _ptr, _ptr,
               _ptr, _int, _ptr, _int, _ptr, _int],
    "dstevx": [ctypes.c_int, _char, _char, _int, _ptr, _ptr, _double, _double,
               _int, _int, _double, _ptr, _ptr, _ptr, _int, _ptr],
    "zunmbr": [ctypes.c_int, _char, _char, _char, _int, _int, _int, _ptr,
               _int, _ptr, _ptr, _int],
}
_COL_MAJOR = 102


def _bundled_openblas():
    """numpy's bundled OpenBLAS, if numpy links it, else None.

    numpy wheels ship it as numpy.libs/libscipy_openblas64_*.so; loading that
    path again returns the library numpy already uses.  A numpy built against
    another BLAS has no such file or lacks the thread-count symbols.  The
    LAPACKE routines of the bidiagonal path get their signatures here, where
    the library has them.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = (lib.scipy_openblas_get_num_threads64_,
                         lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        for name, argtypes in _LAPACKE.items():
            routine = getattr(lib, f"scipy_LAPACKE_{name}64_", None)
            if routine is not None:
                routine.argtypes, routine.restype = argtypes, _int
        return lib
    return None


_OPENBLAS = _bundled_openblas()
_blas_lock = threading.Lock()
_blas_holders = 0
_blas_caller_threads = 0
_held = threading.local()  # depth: the calling thread's open one_blas_thread blocks


def cpu_count() -> int:
    """CPUs this process may run on: its affinity mask, or os.cpu_count() without one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spare_cpu() -> bool:
    """Whether the calling thread may use a second CPU: it is inside no
    one_blas_thread block, and the process may run on two CPUs."""
    return getattr(_held, "depth", 0) == 0 and cpu_count() >= 2


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the caller's count.

    The count is process-wide, so nested and concurrent holders share one
    change: the first to enter saves the caller's count and sets 1, the last
    to leave puts the saved count back, on return or on an exception.
    Without numpy's bundled OpenBLAS (another BLAS build) the count is left
    alone.  Either way the calling thread counts its open blocks, for
    spare_cpu.
    """
    global _blas_holders, _blas_caller_threads
    lib = _OPENBLAS
    _held.depth = getattr(_held, "depth", 0) + 1
    with _blas_lock:
        if _blas_holders == 0 and lib is not None:
            _blas_caller_threads = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        _held.depth -= 1
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0 and lib is not None:
                lib.scipy_openblas_set_num_threads64_(_blas_caller_threads)


def _lapacke():
    """The bidiagonal path's LAPACKE routines by name, or None without them.

    Reads _OPENBLAS at each call, so a build without the library, or with a
    library that lacks one of the routines, takes the stacked SVD instead.
    """
    try:
        return {name: getattr(_OPENBLAS, f"scipy_LAPACKE_{name}64_") for name in _LAPACKE}
    except AttributeError:
        return None


def _lapack_check(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACKE {name} failed with info {info}")
