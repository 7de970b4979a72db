"""Multi-tenant serving: quotas and weighted-fair scheduling.

The package layers three mechanisms onto the single-tenant server:

* :mod:`repro.tenant.spec` -- tenant and priority-class declarations
  (:class:`TenantConfig` is what ``SmolServer(tenants=...)`` accepts);
* :mod:`repro.tenant.quota` -- per-tenant token-bucket rate limits and
  in-flight caps at admission (:class:`QuotaGate`);
* :mod:`repro.serving.scheduler` -- the server's deficit-round-robin
  micro-batching over per-class queues (``DrrScheduler``, imported from
  there; a server without tenants runs it with one class).
"""

from repro import _lazy_exports

_EXPORTS = {
    "PRIORITY_CLASSES": "repro.tenant.spec",
    "ClassPolicy": "repro.serving.scheduler",
    "TenantSpec": "repro.tenant.spec",
    "TenantConfig": "repro.tenant.spec",
    "QuotaGate": "repro.tenant.quota",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
