"""Multi-tenant SLO-aware serving: quotas, weighted-fair scheduling,
deadline-aware plan selection, and per-tenant burn-rate boards.

The package layers four mechanisms onto the single-tenant server:

* :mod:`repro.tenant.spec` -- tenant and priority-class declarations
  (:class:`TenantConfig` is what ``SmolServer(tenants=...)`` accepts);
* :mod:`repro.tenant.quota` -- per-tenant token-bucket rate limits and
  in-flight caps at admission (:class:`QuotaGate`);
* :mod:`repro.serving.scheduler` -- the server's deficit-round-robin
  micro-batching over per-class queues (``DrrScheduler``, imported from
  there; a server without tenants runs it with one class);
* :mod:`repro.tenant.deadline` -- a pre-warmed ladder of plan renditions
  consulted when a batch's deadline budget can't afford the current plan
  (:class:`PlanLadder`);
* :mod:`repro.tenant.slo` -- one Sentinel burn-rate engine per tenant
  (:class:`TenantSloBoard`).
"""

from repro import _lazy_exports

_EXPORTS = {
    "PRIORITY_CLASSES": "repro.tenant.spec",
    "DEFAULT_CLASSES": "repro.tenant.spec",
    "ClassPolicy": "repro.serving.scheduler",
    "TenantSpec": "repro.tenant.spec",
    "TenantConfig": "repro.tenant.spec",
    "TokenBucket": "repro.tenant.quota",
    "QuotaGate": "repro.tenant.quota",
    "TenantQuotaStats": "repro.tenant.quota",
    "LadderRung": "repro.tenant.deadline",
    "PlanLadder": "repro.tenant.deadline",
    "TenantSloBoard": "repro.tenant.slo",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
