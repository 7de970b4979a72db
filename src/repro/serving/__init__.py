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
  load generation with p50/p95/p99 latency reporting.

Latency percentile accounting (:class:`LatencySummary`,
:class:`LatencyRecorder`) lives in :mod:`repro.obs.metrics` and is
exported from here too.

Multi-tenant serving (quotas, priority classes, deadline-aware plan
selection) layers on top via :mod:`repro.tenant`; pass a
:class:`~repro.tenant.spec.TenantConfig` as ``SmolServer(tenants=...)``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "BatchPolicy": "repro.serving.scheduler",
    "BatchResult": "repro.serving.session",
    "BatcherStats": "repro.serving.scheduler",
    "CacheStats": "repro.serving.cache",
    "EngineSession": "repro.serving.session",
    "FunctionalSession": "repro.serving.session",
    "InferenceRequest": "repro.serving.request",
    "InferenceResponse": "repro.serving.request",
    "LatencyRecorder": "repro.obs.metrics",
    "LatencySummary": "repro.obs.metrics",
    "LoadGenerator": "repro.serving.loadgen",
    "PredictionCache": "repro.serving.cache",
    "SessionManager": "repro.serving.session",
    "SimulatedSession": "repro.serving.session",
    "SmolServer": "repro.serving.server",
    "functional_session_for_plan": "repro.serving.session",
    "serving_pipeline_ops": "repro.serving.session",
    "simulated_session_for_format": "repro.serving.session",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
