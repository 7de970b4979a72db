"""Smol-Cluster: the sharded multi-worker execution runtime.

Scales the single-session engine (offline) and Smol-Serve (online) across a
pool of plan-warmed replicas:

* :mod:`repro.cluster.worker` -- :class:`Worker` replicas wrapping a warmed
  engine session behind input/output queues (thread-backed, plus a
  process-backed variant that runs a forked copy of the session).
* :mod:`repro.cluster.router` -- :class:`ShardRouter` policies: round-robin
  and consistent hashing keyed on the request/image id.
* :mod:`repro.cluster.health` -- per-replica circuit breakers.
* :mod:`repro.cluster.dispatcher` -- the replica-aware :class:`Dispatcher`:
  heartbeat health checks, circuit breaking, and automatic failover of
  in-flight work when a replica dies; and :class:`ClusterSession`, the pool
  as one engine session.
* :mod:`repro.cluster.autoscaler` -- queue-depth-driven pool scaling
  between min/max bounds.
* :mod:`repro.cluster.runner` -- sharded offline corpus runs whose
  per-shard aggregates (counts, means, confusion matrices) merge into
  exact global results.

A :class:`~repro.serving.server.SmolServer` serves the pool like any other
session (``SmolServer(ClusterSession(dispatcher))``, one lane per replica),
so online traffic and offline corpus runs share one execution tier.
"""

from repro import _lazy_exports

_EXPORTS = {
    "AutoscalePolicy": "repro.cluster.autoscaler",
    "Autoscaler": "repro.cluster.autoscaler",
    "BreakerSnapshot": "repro.cluster.health",
    "CircuitBreaker": "repro.cluster.health",
    "ClusterSession": "repro.cluster.dispatcher",
    "CorpusRunReport": "repro.cluster.runner",
    "Dispatcher": "repro.cluster.dispatcher",
    "LabeledExample": "repro.cluster.runner",
    "ProcessWorker": "repro.cluster.worker",
    "ShardRouter": "repro.cluster.router",
    "ShardedCorpusRunner": "repro.cluster.runner",
    "ThreadWorker": "repro.cluster.worker",
    "WorkItem": "repro.cluster.worker",
    "WorkOutcome": "repro.cluster.worker",
    "Worker": "repro.cluster.worker",
    "split_frame_ranges": "repro.cluster.runner",
    "make_router": "repro.cluster.router",
    "run_single_process": "repro.cluster.runner",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
