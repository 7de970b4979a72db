"""Tenant and priority-class declarations for multi-tenant serving.

A :class:`TenantSpec` names one tenant, assigns it a priority class, and
states its admission quota (token-bucket rate + burst, plus an optional
in-flight cap).  A :class:`~repro.serving.scheduler.ClassPolicy` (the
scheduler's input type, re-exported here) describes one priority class:
its weighted-fair share of the micro-batch scheduler, its visit rank, and
the default latency deadline applied to requests that arrive without one.
A :class:`TenantConfig` bundles both and is what :class:`~repro.serving
.server.SmolServer` accepts as ``tenants=``.

The three canonical classes mirror production serving tiers:

========== ====== =====================================================
interactive  8x   user-facing point lookups; tight default deadline
standard     4x   API traffic; moderate deadline
batch        1x   offline backfill; no deadline, absorbs leftover share
========== ====== =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TenantError
from repro.serving.scheduler import ClassPolicy
from repro.tenant.quota import QuotaGate

__all__ = [
    "PRIORITY_CLASSES",
    "ClassPolicy",
    "DEFAULT_CLASSES",
    "TenantSpec",
    "TenantConfig",
]

#: Canonical priority-class names, highest priority first.
PRIORITY_CLASSES = ("interactive", "standard", "batch")

#: The canonical interactive/standard/batch ladder (weights 8/4/1).
DEFAULT_CLASSES: tuple[ClassPolicy, ...] = (
    ClassPolicy("interactive", weight=8.0, rank=0, default_deadline_s=0.05),
    ClassPolicy("standard", weight=4.0, rank=1, default_deadline_s=0.25),
    ClassPolicy("batch", weight=1.0, rank=2, default_deadline_s=None),
)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: identity, priority class, and admission quota.

    Attributes
    ----------
    name:
        Tenant identifier (matched against ``InferenceRequest.tenant``).
    priority:
        Priority-class name this tenant's requests are scheduled under.
    rate_per_s:
        Token-bucket refill rate for admission; None disables rate
        limiting for this tenant.
    burst:
        Token-bucket capacity (requests admitted back to back after an
        idle period).
    max_in_flight:
        Cap on this tenant's admitted-but-unresolved requests; None
        disables the cap.
    """

    name: str
    priority: str = "standard"
    rate_per_s: float | None = None
    burst: int = 32
    max_in_flight: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TenantError("tenant name must be non-empty")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise TenantError("rate_per_s must be positive when set")
        if self.burst < 1:
            raise TenantError("burst must be at least 1")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise TenantError("max_in_flight must be at least 1 when set")


@dataclass(frozen=True)
class TenantConfig:
    """The full multi-tenant serving configuration.

    ``default_spec`` handles requests whose tenant is unknown (including
    the empty tenant of single-tenant callers): they share one spec --
    and therefore one quota bucket -- instead of minting unbounded
    per-stranger state.  Pass ``default_spec=None`` to reject unknown
    tenants outright.
    """

    tenants: tuple[TenantSpec, ...]
    classes: tuple[ClassPolicy, ...] = DEFAULT_CLASSES
    default_spec: TenantSpec | None = field(
        default_factory=lambda: TenantSpec(name="*"))

    def __post_init__(self) -> None:
        if not self.tenants:
            raise TenantError("TenantConfig needs at least one tenant")
        if not self.classes:
            raise TenantError("TenantConfig needs at least one class")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise TenantError(f"duplicate tenant names: {sorted(names)}")
        class_names = [c.name for c in self.classes]
        if len(set(class_names)) != len(class_names):
            raise TenantError(
                f"duplicate class names: {sorted(class_names)}")
        known = set(class_names)
        for spec in self.tenants + ((self.default_spec,)
                                    if self.default_spec else ()):
            if spec.priority not in known:
                raise TenantError(
                    f"tenant {spec.name!r} uses unknown class "
                    f"{spec.priority!r} (have {sorted(known)})")

    def resolve(self, tenant: str) -> TenantSpec:
        """The spec serving ``tenant`` (the default spec for strangers)."""
        for spec in self.tenants:
            if spec.name == tenant:
                return spec
        if self.default_spec is None:
            raise TenantError(f"unknown tenant {tenant!r} and no default "
                              "spec configured")
        return self.default_spec

    def policy(self, class_name: str) -> ClassPolicy:
        """The :class:`ClassPolicy` named ``class_name``."""
        for policy in self.classes:
            if policy.name == class_name:
                return policy
        raise TenantError(f"unknown priority class {class_name!r}")

    def all_specs(self) -> tuple[TenantSpec, ...]:
        """Every spec needing quota state (tenants + the default)."""
        if self.default_spec is None:
            return self.tenants
        return self.tenants + (self.default_spec,)

    def quota_gate(self) -> QuotaGate:
        """A fresh admission gate enforcing every spec's quota."""
        return QuotaGate(self)
