"""Online serving subsystem: Smol-Serve.

Turns the offline batch engine into an online inference service:

* :mod:`repro.serving.request` -- typed requests/responses with deadlines.
* :mod:`repro.serving.scheduler` -- bounded admission queues drained into
  policy-shaped micro-batches by deficit round-robin (one class unless the
  server is multi-tenant).
* :mod:`repro.serving.session` -- plan-aware warmed engine sessions with
  hot-swap when the planner changes its mind.
* :mod:`repro.serving.cache` -- LRU prediction cache keyed on
  (image, format, plan).
* :mod:`repro.serving.server` -- the :class:`SmolServer` facade
  (``submit() -> Future``, ``stats()``, ``close()``).
* :mod:`repro.serving.loadgen` -- open-loop Poisson/burst/diurnal/flash
  load generation (single- and multi-tenant mixes) with p50/p95/p99
  latency reporting.

Latency percentile accounting (:class:`LatencySummary`,
:class:`LatencyRecorder`) lives in :mod:`repro.obs.metrics` and is
exported from here too.

Multi-tenant serving (quotas, priority classes, deadline-aware plan
selection) layers on top via :mod:`repro.tenant`; pass a
:class:`~repro.tenant.spec.TenantConfig` as ``SmolServer(tenants=...)``.
"""

from repro.obs.metrics import LatencyRecorder, LatencySummary
from repro.serving.cache import CacheStats, LruCache, PredictionCache
from repro.serving.loadgen import (
    ArrivalTrace,
    LoadGenerator,
    LoadReport,
    MultiTenantLoadGenerator,
    MultiTenantLoadReport,
    TenantLoadSpec,
    burst_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)
from repro.serving.request import InferenceRequest, InferenceResponse
from repro.serving.scheduler import BatcherStats, BatchPolicy
from repro.serving.server import ServerStats, SmolServer, TenantServingStats
from repro.serving.session import (
    BatchResult,
    EngineSession,
    FunctionalSession,
    SessionManager,
    SimulatedSession,
    functional_session_for_plan,
    serving_pipeline_ops,
    simulated_session_for_format,
)

__all__ = [
    "ArrivalTrace",
    "BatchPolicy",
    "BatchResult",
    "BatcherStats",
    "CacheStats",
    "EngineSession",
    "FunctionalSession",
    "InferenceRequest",
    "InferenceResponse",
    "LatencyRecorder",
    "LatencySummary",
    "LoadGenerator",
    "LoadReport",
    "LruCache",
    "MultiTenantLoadGenerator",
    "MultiTenantLoadReport",
    "PredictionCache",
    "ServerStats",
    "SessionManager",
    "SimulatedSession",
    "SmolServer",
    "TenantLoadSpec",
    "TenantServingStats",
    "burst_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "functional_session_for_plan",
    "poisson_arrivals",
    "serving_pipeline_ops",
    "simulated_session_for_format",
]
