"""Smol-Store: persistent rendition & score store with cache-aware planning.

Preprocessing dominates end-to-end cost (the paper's Figure 1), so decoded
low-resolution renditions and the per-item scores computed from them are
worth persisting and reusing.  This package provides:

* :class:`~repro.store.store.RenditionStore` -- content-addressed on-disk
  store for chunked, codec-compressed renditions and score tables, with an
  in-memory LRU tier, a log-structured versioned manifest (one appended
  record per commit, lock-free readers), fingerprint-based invalidation,
  and GC.
* :class:`~repro.store.store.ChunkedReader` -- streaming reads over stored
  chunks: a shard scan touches one chunk at a time instead of the full
  array.
* :class:`~repro.store.catalog.StoreCatalog` -- the planner-facing view
  that lets the cost model discount decode for materialized renditions.

Integration points: :class:`~repro.query.scan.ScanSession` read/writes
through the store, :class:`~repro.query.engine.QueryEngine` and
:class:`~repro.serving.server.SmolServer` accept ``store=``, the core
:class:`~repro.core.costmodel.CostModel` accepts ``catalog=``, and the
``smol-repro store`` CLI exposes stats/gc/warm.
"""

from repro.preprocessing.dag import dag_fingerprint
from repro.store.catalog import (
    MATERIALIZED_DECODE_FRACTION,
    StoreCatalog,
    materialized_discount,
)
from repro.store.lru import ByteLruCache, ChunkCacheStats
from repro.store.manifest import Manifest, ManifestEntry, ManifestVersion
from repro.store.store import (
    ChunkedReader,
    GcReport,
    RenditionKey,
    RenditionStore,
    ScoreKey,
    StoreEvent,
    StoreStats,
    fingerprint_of,
)

__all__ = [
    "ByteLruCache",
    "ChunkCacheStats",
    "ChunkedReader",
    "GcReport",
    "Manifest",
    "ManifestEntry",
    "ManifestVersion",
    "MATERIALIZED_DECODE_FRACTION",
    "RenditionKey",
    "RenditionStore",
    "ScoreKey",
    "StoreCatalog",
    "StoreEvent",
    "StoreStats",
    "dag_fingerprint",
    "fingerprint_of",
    "materialized_discount",
]
