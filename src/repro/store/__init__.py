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

from repro import _lazy_exports

_EXPORTS = {
    "ByteLruCache": "repro.store.lru",
    "ChunkCacheStats": "repro.store.lru",
    "Manifest": "repro.store.manifest",
    "ManifestEntry": "repro.store.manifest",
    "ManifestVersion": "repro.store.manifest",
    "MATERIALIZED_DECODE_FRACTION": "repro.store.catalog",
    "RenditionKey": "repro.store.store",
    "RenditionStore": "repro.store.store",
    "ScoreKey": "repro.store.store",
    "StoreCatalog": "repro.store.catalog",
    "dag_fingerprint": "repro.preprocessing.dag",
    "fingerprint_of": "repro.store.store",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
