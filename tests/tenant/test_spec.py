"""Tests for tenant/class declarations and config resolution."""

import pytest

from repro.errors import TenantError
from repro.tenant import (
    PRIORITY_CLASSES,
    ClassPolicy,
    TenantConfig,
    TenantSpec,
)
from repro.tenant.spec import DEFAULT_CLASSES


class TestClassPolicy:
    def test_rejects_empty_name(self):
        with pytest.raises(TenantError):
            ClassPolicy("", weight=1.0, rank=0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(TenantError):
            ClassPolicy("x", weight=0.0, rank=0)

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(TenantError):
            ClassPolicy("x", weight=1.0, rank=0, default_deadline_s=0.0)

    def test_default_ladder_matches_canonical_names(self):
        assert tuple(c.name for c in DEFAULT_CLASSES) == PRIORITY_CLASSES
        # Higher priority -> lower rank, heavier weight, tighter deadline.
        ranks = [c.rank for c in DEFAULT_CLASSES]
        weights = [c.weight for c in DEFAULT_CLASSES]
        assert ranks == sorted(ranks)
        assert weights == sorted(weights, reverse=True)
        assert DEFAULT_CLASSES[-1].default_deadline_s is None


class TestTenantSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(TenantError):
            TenantSpec(name="")

    def test_rejects_bad_quota_shapes(self):
        with pytest.raises(TenantError):
            TenantSpec(name="a", rate_per_s=0.0)
        with pytest.raises(TenantError):
            TenantSpec(name="a", burst=0)
        with pytest.raises(TenantError):
            TenantSpec(name="a", max_in_flight=0)

    def test_defaults_are_unlimited_standard(self):
        spec = TenantSpec(name="a")
        assert spec.priority == "standard"
        assert spec.rate_per_s is None
        assert spec.max_in_flight is None


class TestTenantConfig:
    def test_rejects_empty_tenants(self):
        with pytest.raises(TenantError):
            TenantConfig(tenants=())

    def test_rejects_duplicate_tenants(self):
        with pytest.raises(TenantError):
            TenantConfig(tenants=(TenantSpec(name="a"),
                                  TenantSpec(name="a")))

    def test_rejects_duplicate_classes(self):
        with pytest.raises(TenantError):
            TenantConfig(
                tenants=(TenantSpec(name="a"),),
                classes=(ClassPolicy("standard", 1.0, 0),
                         ClassPolicy("standard", 2.0, 1)),
            )

    def test_rejects_unknown_class_reference(self):
        with pytest.raises(TenantError):
            TenantConfig(tenants=(TenantSpec(name="a", priority="vip"),))

    def test_default_spec_class_is_validated_too(self):
        with pytest.raises(TenantError):
            TenantConfig(tenants=(TenantSpec(name="a"),),
                         default_spec=TenantSpec(name="*", priority="vip"))

    def test_resolve_known_and_stranger(self):
        alpha = TenantSpec(name="alpha", priority="interactive")
        config = TenantConfig(tenants=(alpha,))
        assert config.resolve("alpha") is alpha
        # Strangers (and the empty tenant) share the default spec.
        assert config.resolve("nobody") is config.default_spec
        assert config.resolve("") is config.default_spec

    def test_resolve_without_default_rejects_strangers(self):
        config = TenantConfig(tenants=(TenantSpec(name="alpha"),),
                              default_spec=None)
        with pytest.raises(TenantError):
            config.resolve("nobody")

    def test_policy_lookup(self):
        config = TenantConfig(tenants=(TenantSpec(name="a"),))
        assert config.policy("interactive").weight == 8.0
        with pytest.raises(TenantError):
            config.policy("vip")

    def test_all_specs_includes_default(self):
        config = TenantConfig(tenants=(TenantSpec(name="a"),))
        names = [s.name for s in config.all_specs()]
        assert names == ["a", "*"]
        solo = TenantConfig(tenants=(TenantSpec(name="a"),),
                            default_spec=None)
        assert [s.name for s in solo.all_specs()] == ["a"]
