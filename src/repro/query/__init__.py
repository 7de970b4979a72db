"""Smol-Query: sharded statistical analytics queries on the cluster runtime.

One declarative front-end (:class:`QuerySpec` + :class:`QueryEngine`) for
the three analytics query families the paper evaluates, with the cheap
specialized-NN pass compiled into shard tasks over the PR 2 cluster runtime
and per-shard sufficient statistics merged exactly -- sharded results are
bit-identical to the single-process analytics engines.
"""

from repro import _lazy_exports

_EXPORTS = {
    "QUERY_KINDS": "repro.query.spec",
    "QuerySpec": "repro.query.spec",
    "ClusterScanRunner": "repro.query.scan",
    "ScanPace": "repro.query.scan",
    "ScanReport": "repro.query.scan",
    "ScanSession": "repro.query.scan",
    "ShardScanStats": "repro.query.scan",
    "decode_scores": "repro.query.scan",
    "encode_scores": "repro.query.scan",
    "frame_id": "repro.query.scan",
    "AggregateQueryResult": "repro.query.engine",
    "CascadeQueryResult": "repro.query.engine",
    "LimitQueryShardedResult": "repro.query.engine",
    "QueryEngine": "repro.query.engine",
    "QueryExecution": "repro.query.engine",
    "QueryStagePlans": "repro.query.engine",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
