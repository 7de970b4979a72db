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
  in-flight work when a replica dies.
* :mod:`repro.cluster.autoscaler` -- queue-depth-driven pool scaling
  between min/max bounds.
* :mod:`repro.cluster.runner` -- sharded offline corpus runs whose
  per-shard aggregates (counts, means, confusion matrices) merge into
  exact global results.

The dispatcher plugs into :class:`~repro.serving.server.SmolServer` as a
drop-in backend (``SmolServer(cluster=dispatcher)``), so online traffic and
offline corpus runs share one execution tier.
"""

from repro.cluster.autoscaler import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.cluster.dispatcher import (
    ClusterResult,
    Dispatcher,
    DispatcherStats,
)
from repro.cluster.health import BreakerSnapshot, BreakerState, CircuitBreaker
from repro.cluster.router import (
    ROUTER_POLICIES,
    ConsistentHashRouter,
    RoundRobinRouter,
    ShardRouter,
    make_router,
)
from repro.cluster.runner import (
    SHARD_POLICIES,
    CorpusRunReport,
    LabeledExample,
    ShardAggregate,
    ShardedCorpusRunner,
    assign_shards,
    run_single_process,
    split_frame_ranges,
)
from repro.cluster.worker import (
    ProcessWorker,
    ThreadWorker,
    Worker,
    WorkerStats,
    WorkItem,
    WorkOutcome,
)

__all__ = [
    "ROUTER_POLICIES",
    "SHARD_POLICIES",
    "AutoscalePolicy",
    "Autoscaler",
    "BreakerSnapshot",
    "BreakerState",
    "CircuitBreaker",
    "ClusterResult",
    "ConsistentHashRouter",
    "CorpusRunReport",
    "Dispatcher",
    "DispatcherStats",
    "LabeledExample",
    "ProcessWorker",
    "RoundRobinRouter",
    "ScaleEvent",
    "ShardAggregate",
    "ShardRouter",
    "ShardedCorpusRunner",
    "ThreadWorker",
    "WorkItem",
    "WorkOutcome",
    "Worker",
    "WorkerStats",
    "assign_shards",
    "split_frame_ranges",
    "make_router",
    "run_single_process",
]
