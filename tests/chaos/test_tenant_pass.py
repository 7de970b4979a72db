"""Tests for the chaos tenant pass and its scenario dimensions."""

import pytest

from repro.chaos import ChaosRunner, Scenario, ScenarioGen
from repro.chaos.faults import Fault, FaultPlan
from repro.chaos.shrink import shrink_candidates
from repro.errors import ReproError


def tenant_scenario(faults=(), items=4, batch=2):
    return Scenario(
        seed=0, items=items, batch=batch, workers=1,
        tenants=("tenant-a", "tenant-b", "tenant-c"),
        arrival=tuple(i % 3 for i in range(items)),
        tenant_serving=True, tenant_classes=(0, 1, 2),
        faults=FaultPlan(faults=tuple(faults)),
    )


class TestScenarioDimensions:
    def test_tenant_classes_must_match_tenants(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=1, batch=1, workers=1, arrival=(0,),
                     tenants=("a", "b"), tenant_serving=True,
                     tenant_classes=(0,))

    def test_tenant_classes_must_be_valid_indexes(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=1, batch=1, workers=1, arrival=(0,),
                     tenants=("a",), tenant_serving=True,
                     tenant_classes=(7,))

    def test_roundtrips_through_dict(self):
        scenario = tenant_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_generator_draws_tenant_scenarios_as_a_minority(self):
        gen = ScenarioGen()
        drawn = [gen.generate(seed) for seed in range(200)]
        with_tenants = [s for s in drawn if s.tenant_serving]
        assert 0 < len(with_tenants) < 140
        for scenario in with_tenants:
            assert len(scenario.tenant_classes) == len(scenario.tenants)
            assert all(0 <= c <= 2 for c in scenario.tenant_classes)

    def test_scheduler_faults_only_ride_scenarios_that_serve(self):
        # Both serving passes reach the scheduler through the same two
        # seams, so its faults need one of them to run.
        gen = ScenarioGen()
        armed = 0
        for seed in range(200):
            scenario = gen.generate(seed)
            scheduler_sites = [f for f in scenario.faults.faults
                               if f.site.startswith("serving.")]
            if scheduler_sites:
                assert scenario.serving or scenario.tenant_serving, seed
                armed += scenario.tenant_serving and not scenario.serving
                for fault in scheduler_sites:
                    assert fault.action in ("raise", "stall"), seed
            assert not any(f.site.startswith("tenant.")
                           for f in scenario.faults.faults), seed
        assert armed, "no tenant-only seed arms the scheduler seams"


class TestTenantPassRuns:
    def test_clean_tenant_scenario_passes(self):
        report = ChaosRunner().run(tenant_scenario())
        assert report.ok, report.describe()
        tenant = report.stats["tenant"]
        assert tenant["completed"] == 8  # items * batch
        assert tenant["rejected"] == 0
        # All three classes offered work, none starved.
        assert all(count > 0
                   for count in tenant["class_served"].values())

    def test_enqueue_raise_is_a_clean_shed_then_resubmitted(self):
        report = ChaosRunner().run(tenant_scenario(
            faults=[Fault(site="serving.admit", action="raise")]))
        assert report.ok, report.describe()
        assert any(f["site"] == "serving.admit" for f in report.fired)
        assert report.stats["tenant"]["completed"] == 8

    def test_batch_raise_and_stall_are_absorbed(self):
        report = ChaosRunner().run(tenant_scenario(
            faults=[Fault(site="serving.batch", action="raise", at_hit=1),
                    Fault(site="serving.batch", action="stall",
                          at_hit=2, seconds=0.002)]))
        assert report.ok, report.describe()
        assert [f["action"] for f in report.fired
                if f["site"] == "serving.batch"] == ["raise", "stall"]

    def test_generated_tenant_seeds_pass(self):
        gen = ScenarioGen()
        runner = ChaosRunner()
        ran = 0
        for seed in range(80):
            scenario = gen.generate(seed)
            if not scenario.tenant_serving:
                continue
            report = runner.run(scenario)
            assert report.ok, (seed, report.describe())
            assert "tenant" in report.stats, seed
            ran += 1
            if ran >= 6:
                break
        assert ran >= 1, "no tenant scenario in the first 80 seeds"


class TestShrinking:
    def test_shrinker_offers_to_drop_the_tenant_dimension(self):
        scenario = tenant_scenario()
        candidates = list(shrink_candidates(scenario))
        dropped = [c for c in candidates if not c.tenant_serving]
        assert dropped
        assert all(c.tenant_classes == () for c in dropped)

    def test_shrinking_tenants_keeps_classes_aligned(self):
        scenario = tenant_scenario()
        for candidate in shrink_candidates(scenario):
            if candidate.tenant_serving:
                assert len(candidate.tenant_classes) \
                    == len(candidate.tenants)
