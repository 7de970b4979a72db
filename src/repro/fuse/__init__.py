"""Smol-Fuse: compiled fused batch kernels for the plan hot path.

``compile_dag`` turns a preprocessing DAG into a :class:`FusedKernel`
executing whole micro-batches: a leading resize -> crop pair and the
convert -> normalize -> reorder tail run as fused steps in per-thread
scratch, other ops whose class declares ``batched`` run their one ``apply``
body on the stacked batch, any other op is looped per image
(``FUSE_STATS`` counts compiled programs and scratch bytes).
``get_kernel`` memoizes kernels by plan fingerprint.  Per-image
``PreprocessingDAG.execute`` remains the reference oracle: batching may not
perturb a bit, enforced by the differential suite in ``tests/fuse/``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "DEFAULT_KERNEL_CACHE": "repro.fuse.compiler",
    "FUSE_STATS": "repro.fuse.kernel",
    "FusedKernel": "repro.fuse.kernel",
    "KernelCache": "repro.fuse.compiler",
    "compile_dag": "repro.fuse.compiler",
    "dag_fingerprint": "repro.preprocessing.dag",
    "get_kernel": "repro.fuse.compiler",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
