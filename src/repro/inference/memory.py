"""Buffer-reuse accounting and the pinned-copy factor.

Unlike training data loaders (which must hand freshly allocated buffers to the
caller), an inference engine only needs to return predictions, so Smol reuses
its input buffers between batches and keeps them pinned for fast copies to the
accelerator (Section 6.1 and Appendix A).  The engine's buffers are the slots
of its batch ring (:mod:`repro.inference.engine`); :class:`MemoryStats` holds
what the systems-optimization benchmarks (Figures 7 and 8) report about them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Pinned (page-locked) host memory roughly doubles host-to-device copy
# bandwidth compared to pageable memory; this factor feeds the perf model.
PINNED_COPY_SPEEDUP = 2.0


@dataclass
class MemoryStats:
    """Counters describing the engine's batch slots during a run.

    A *request* is one batch needing a slot: ``allocations`` counts the
    requests that built a new ``(batch, *tensor_shape)`` array, ``reuses``
    those served by a slot an earlier batch had freed.  ``outstanding`` is
    the number of batches holding a slot right now.
    """

    allocations: int = 0
    reuses: int = 0
    bytes_allocated: int = 0
    peak_outstanding: int = 0
    outstanding: int = field(default=0, repr=False)

    @property
    def reuse_fraction(self) -> float:
        """Fraction of slot requests served without a new allocation."""
        total = self.allocations + self.reuses
        return self.reuses / total if total else 0.0
