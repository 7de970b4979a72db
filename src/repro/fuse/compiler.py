"""The plan compiler: preprocessing DAG -> :class:`FusedKernel`, cached.

``compile_dag`` reads the DAG's operator chain -- the tuple
``PreprocessingDAG.execute`` itself walks, fixed at construction -- and
hands it to a :class:`FusedKernel`, which runs the same ``apply``
bodies over stacked micro-batches.  :class:`KernelCache` memoizes kernels
by plan fingerprint so every session, replica, and hot-swap of the same
plan shares one kernel object.

The fingerprint (:func:`repro.preprocessing.dag.dag_fingerprint`, the one
the store persists) covers the executed semantics -- op order, every op's
public attributes, per-op device placement -- so structurally rebuilt
DAGs of the same plan share a kernel and any parameter change misses.
"""

from __future__ import annotations

import threading

from repro.fuse.kernel import FusedKernel
from repro.preprocessing.dag import PreprocessingDAG, dag_fingerprint


def compile_dag(dag: PreprocessingDAG,
                fingerprint: str | None = None) -> FusedKernel:
    """The :class:`FusedKernel` running ``dag``'s op chain."""
    if fingerprint is None:
        fingerprint = dag_fingerprint(dag)
    return FusedKernel(fingerprint, dag.ops)


class KernelCache:
    """Compile-once kernel cache keyed by plan fingerprint (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[str, FusedKernel] = {}
        self._hits = 0
        self._compiles = 0

    @property
    def hits(self) -> int:
        """Lookups served by an already-compiled kernel."""
        with self._lock:
            return self._hits

    @property
    def compiles(self) -> int:
        """Kernels compiled (cache misses)."""
        with self._lock:
            return self._compiles

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)

    def get(self, dag: PreprocessingDAG) -> FusedKernel:
        """The cached kernel for ``dag``, compiling on first sight."""
        fingerprint = dag_fingerprint(dag)
        with self._lock:
            kernel = self._kernels.get(fingerprint)
            if kernel is not None:
                self._hits += 1
                return kernel
        # Compile outside the lock; first finished compile wins, a
        # concurrent loser is discarded.
        kernel = compile_dag(dag, fingerprint=fingerprint)
        with self._lock:
            winner = self._kernels.setdefault(fingerprint, kernel)
            if winner is kernel:
                self._compiles += 1
            else:
                self._hits += 1
        return winner

    def clear(self) -> None:
        """Drop every cached kernel (tests)."""
        with self._lock:
            self._kernels.clear()


#: The process-wide kernel cache sessions share by default.
DEFAULT_KERNEL_CACHE = KernelCache()


def get_kernel(dag: PreprocessingDAG) -> FusedKernel:
    """The shared-cache kernel for ``dag`` (compile once per plan)."""
    return DEFAULT_KERNEL_CACHE.get(dag)
