"""Cache-aware plan costing: what the store tells the planner.

The planner prices a plan's preprocessing stage as decode + resize +
normalize + layout.  When the store already holds a *decoded* rendition of a
plan's input format, the engine can read chunk-compressed pixels instead of
running the full decode, so the decode stage collapses to the (much cheaper)
chunk-inflate cost.  :class:`StoreCatalog` exposes that fact to the cost
model as a throughput *discount factor* per input format, derived from the
paper's measured stage breakdown (decode is ~82% of preprocessing time,
:data:`repro.inference.perfmodel.STAGE_FRACTIONS`).

The catalog is duck-typed: the core cost model accepts anything with
``decode_discount(format_name) -> float`` and
``is_materialized(format_name) -> bool`` methods, so :mod:`repro.core` never
imports the store package (the store sits *above* core in the layer stack).
"""

from __future__ import annotations

from repro.inference.perfmodel import STAGE_FRACTIONS

#: Reading and inflating a stored chunk of already-decoded pixels costs this
#: fraction of a full codec decode (DEFLATE inflate vs. entropy decode + DCT
#: for JPEG-like formats; modelled, consistent with the chunk codec's design).
MATERIALIZED_DECODE_FRACTION = 0.15


def materialized_discount(
        decode_fraction: float = STAGE_FRACTIONS["decode"],
        residual: float = MATERIALIZED_DECODE_FRACTION) -> float:
    """Preprocessing-throughput multiplier once decode collapses to a read.

    Per-image preprocessing time drops from ``1`` to
    ``1 - decode_fraction * (1 - residual)``; throughput scales by the
    inverse.  With the paper's 82% decode share and a 15% residual read
    cost, materialization buys roughly a 3.3x preprocessing speedup.
    """
    warm = 1.0 - decode_fraction * (1.0 - residual)
    return 1.0 / warm


class StoreCatalog:
    """Planner-facing view of which renditions a store has materialized.

    Built via :meth:`repro.store.store.RenditionStore.catalog`.  The
    materialized set is snapshotted once at construction (one manifest
    version, caught up with every process's commits); the planner then
    queries it once per candidate plan without touching disk.  Catalogs are rebuilt per
    planning pass (e.g. ``QueryEngine`` builds one per ``stage_plans``
    call), so plans priced after a warmup see the new materializations.
    """

    def __init__(self, store, item: str | None = None,
                 fingerprint: str | None = None) -> None:
        self._store = store
        self._item = item
        self._fingerprint = fingerprint
        self._materialized = frozenset(
            store.materialized_renditions(item, fingerprint=fingerprint)
        )

    def is_materialized(self, format_name: str) -> bool:
        """True when a current decoded rendition of ``format_name`` is stored.

        With a ``fingerprint``, entries invalidated by a DAG/model change
        do not count -- the discount must only be priced when the read
        path can actually deliver it.
        """
        return format_name in self._materialized

    def decode_discount(self, format_name: str) -> float:
        """Throughput multiplier for ``format_name`` (1.0 = no discount)."""
        if not self.is_materialized(format_name):
            return 1.0
        return materialized_discount()

    def describe(self) -> str:
        """One-line summary for plan reports."""
        names = sorted(self._materialized)
        scope = self._item or "any item"
        if not names:
            return f"store catalog ({scope}): nothing materialized"
        return (f"store catalog ({scope}): materialized "
                + ", ".join(names)
                + f" ({materialized_discount():.2f}x preprocessing)")
