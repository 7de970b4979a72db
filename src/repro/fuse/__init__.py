"""Smol-Fuse: compiled fused batch kernels for the plan hot path.

``compile_dag`` turns a preprocessing DAG into a :class:`FusedKernel`
executing whole micro-batches: a leading resize -> crop pair and the
convert -> normalize -> reorder tail run as fused steps in per-thread
scratch, other ops whose class declares ``batched`` run their one ``apply``
body on the stacked batch, any other op is looped per image
(``FUSE_STATS`` counts compiled programs and scratch bytes).
``get_kernel`` memoizes kernels by plan fingerprint, and
:class:`ShmBatchTransport` moves prediction batches across process
boundaries through zero-copy shared memory.  Per-image
``PreprocessingDAG.execute`` remains the reference oracle: batching may not
perturb a bit, enforced by the differential suite in ``tests/fuse/``.
"""

from repro.fuse.compiler import (
    DEFAULT_KERNEL_CACHE,
    KernelCache,
    compile_dag,
    get_kernel,
)
from repro.fuse.kernel import FUSE_STATS, FusedKernel
from repro.fuse.shm import (
    HAS_SHM,
    ShmBatchRef,
    ShmBatchTransport,
    worker_shm_prefix,
)
from repro.preprocessing.dag import dag_fingerprint

__all__ = [
    "DEFAULT_KERNEL_CACHE",
    "FUSE_STATS",
    "FusedKernel",
    "HAS_SHM",
    "KernelCache",
    "ShmBatchRef",
    "ShmBatchTransport",
    "compile_dag",
    "dag_fingerprint",
    "get_kernel",
    "worker_shm_prefix",
]
