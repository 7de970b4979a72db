"""Tests for the scenario model and seed-driven generator."""

import pytest

from repro.chaos import Scenario, ScenarioGen
from repro.chaos.faults import Fault, FaultPlan
from repro.errors import ReproError


class TestScenarioModel:
    def test_rejects_empty_workload(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=0, batch=1, workers=1, arrival=())

    def test_rejects_mismatched_arrival(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=2, batch=1, workers=1, arrival=(0,))

    def test_rejects_arrival_outside_tenant_range(self):
        with pytest.raises(ReproError):
            Scenario(seed=0, items=1, batch=1, workers=1,
                     tenants=("tenant-a",), arrival=(1,))

    def test_roundtrips_through_dict(self):
        scenario = ScenarioGen().generate(7)
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario

    def test_dimensions_cover_every_generated_axis(self):
        dims = ScenarioGen().generate(3).dimensions()
        assert set(dims) == {"items", "batch", "workers", "tenants",
                             "dag_ops", "drift_phases", "store_ops",
                             "faults", "queue_probe", "serving", "fuse",
                             "proc_kill", "tenant_serving"}
        assert all(isinstance(v, int) and v >= 0 for v in dims.values())


class TestScenarioGen:
    def test_same_seed_same_scenario(self):
        gen = ScenarioGen()
        for seed in range(50):
            assert gen.generate(seed) == gen.generate(seed)

    def test_different_seeds_differ_somewhere(self):
        gen = ScenarioGen()
        scenarios = {gen.generate(seed) for seed in range(50)}
        assert len(scenarios) > 40  # collisions would mean a broken rng

    def test_generated_scenarios_are_survivable_by_construction(self):
        # A clean stack must pass every seed: kills leave a surviving
        # replica, injected session failures stay below max_attempts.
        # Serving- and tenant-site faults live outside the dispatcher's
        # retry budget (the serving, fuse, and tenant passes run their own
        # bounded resubmission loops) and so does the store's checkpoint
        # seam (the store pass absorbs a failed put), so only cluster-path
        # raises count against it.
        from repro.chaos.scenario import _SERVING_SITES, _TENANT_SITES
        outside = set(_SERVING_SITES) | set(_TENANT_SITES) \
            | {"store.checkpoint"}
        gen = ScenarioGen()
        for seed in range(300):
            scenario = gen.generate(seed)
            assert scenario.kill_faults() <= scenario.workers - 1, seed
            raises = sum(1 for f in scenario.faults.faults
                         if f.action == "raise"
                         and f.site not in outside)
            assert raises <= scenario.max_attempts - 1, seed
            for fault in scenario.faults.faults:
                if fault.site in outside:
                    assert fault.action in ("raise", "stall"), seed

    def test_generator_draws_the_duplicate_outcome_ambush(self):
        # The coordinated raise/ack-kill/collector-stall triple -- the
        # generated reproducer for the dispatcher double-retire bug --
        # must actually appear in a fixed seed range (seed 14 et al.).
        # Serving/tenant-site faults (appended by newer generator axes)
        # ride outside the dispatcher path, so they are ignored when
        # matching the ambush template.
        from repro.chaos.scenario import _SERVING_SITES, _TENANT_SITES
        outside = set(_SERVING_SITES) | set(_TENANT_SITES)
        gen = ScenarioGen()
        ambushes = [
            seed for seed in range(300)
            if {(f.site, f.action)
                for f in gen.generate(seed).faults.faults
                if f.site not in outside}
            == {("worker.execute", "raise"), ("worker.ack", "kill"),
                ("dispatcher.outcome", "stall")}
        ]
        assert 14 in ambushes
        for seed in ambushes:
            scenario = gen.generate(seed)
            assert scenario.items == 1 and scenario.workers >= 2
            assert scenario.max_attempts == 2

    def test_queue_probe_rides_a_minority_of_seeds(self):
        gen = ScenarioGen()
        probes = sum(1 for seed in range(400)
                     if gen.generate(seed).queue)
        assert 0 < probes < 200  # present, but not dominating wall-clock

    def test_torn_manifest_faults_only_with_store_puts(self):
        gen = ScenarioGen()
        for seed in range(300):
            scenario = gen.generate(seed)
            if any(f.action == "torn-manifest"
                   for f in scenario.faults.faults):
                puts = sum(1 for op, _ in scenario.store_ops
                           if op == "put")
                assert puts >= 1, seed

    def test_checkpoint_seam_rides_some_faulted_put_scenarios(self):
        gen = ScenarioGen()
        seamed = 0
        for seed in range(300):
            scenario = gen.generate(seed)
            sites = [f.site for f in scenario.faults.faults]
            if "store.checkpoint" in sites:
                seamed += 1
                assert sites[-1] == "store.checkpoint", seed  # drawn last
                assert any(op == "put" for op, _ in scenario.store_ops)
        assert 0 < seamed < 150

    def test_bounds_are_validated(self):
        with pytest.raises(ReproError):
            ScenarioGen(max_items=0)


class TestFaultPlanShapes:
    def test_kill_fault_count_helper(self):
        scenario = Scenario(
            seed=0, items=1, batch=1, workers=3, arrival=(0,),
            faults=FaultPlan(faults=(
                Fault(site="worker.execute", action="kill"),
                Fault(site="worker.ack", action="kill", at_hit=2),
                Fault(site="queue.put", action="stall", seconds=0.001),
            )),
        )
        assert scenario.kill_faults() == 2
