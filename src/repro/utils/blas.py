"""Keep every GEMM on the thread that calls it.

This system's parallelism is its producer threads, its serving thread and
its worker processes.  A BLAS that fans one matrix multiply out over its own
pool competes with them for the same cores: its workers spin while they
wait, so the multiply gets no faster and every other thread gets slower.
The rule is therefore fixed by the program, not by an environment variable:
the first GEMM issued through :func:`gemm` tells the BLAS numpy has already
loaded to use one thread, for the life of the process, and sets
``OPENBLAS_NUM_THREADS=1`` for one mapped later (scipy's, on first import).

numpy exposes no call for this, so the library is found among the process's
mapped files and its own entry point is called through :mod:`ctypes`.  When
no known entry point exists (another BLAS, another platform) GEMMs run with
the library's default and :func:`gemm_threads` reports 0, once in the log
and on the ``nn_gemm_threads`` metric.
"""

from __future__ import annotations

import ctypes
import logging
import os
import threading

import numpy as np

_LOG = logging.getLogger(__name__)

#: OpenBLAS entry points as numpy and scipy wheels build them: plain, with
#: the ILP64 suffix, and with the ``scipy_`` symbol prefix.
_SYMBOL_FORMS = ("{}", "{}64_", "scipy_{}", "scipy_{}64_")

_lock = threading.Lock()
_threads: int | None = None  # None until the first GEMM; 0 = could not pin


def _loaded_blas_paths() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            return sorted({line.split(maxsplit=5)[-1].strip()
                           for line in maps if "openblas" in line})
    except OSError:
        return []


def _pin_library(path: str) -> bool:
    """Set one BLAS to a single thread; whether it then reports one."""
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return False
    for form in _SYMBOL_FORMS:
        setter = getattr(library, form.format("openblas_set_num_threads"), None)
        getter = getattr(library, form.format("openblas_get_num_threads"), None)
        if setter is None or getter is None:
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter(1)
        return getter() == 1
    return False


def _pin() -> int:
    global _threads
    with _lock:
        if _threads is None:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            pinned = [_pin_library(path) for path in _loaded_blas_paths()]
            _threads = 1 if pinned and all(pinned) else 0
            if not _threads:
                _LOG.warning(
                    "no OpenBLAS entry point found: matrix multiplies keep "
                    "the BLAS's own thread count and may compete with the "
                    "pipeline's threads")
        return _threads


def gemm_threads() -> int:
    """Threads a GEMM uses: 1 once pinned, 0 when the BLAS could not be."""
    return _pin()


def gemm(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(a, b, out=out)``, on the calling thread."""
    if _threads is None:
        _pin()
    np.matmul(a, b, out=out)
