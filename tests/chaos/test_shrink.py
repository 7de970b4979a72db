"""Tests for the greedy scenario shrinker."""

from repro.chaos import Scenario, ScenarioGen, shrink
from repro.chaos.shrink import shrink_candidates
from repro.chaos.faults import Fault, FaultPlan


def _leq(smaller: Scenario, larger: Scenario) -> bool:
    small, large = smaller.dimensions(), larger.dimensions()
    return all(small[key] <= large[key] for key in large)


class TestShrinkCandidates:
    def test_candidates_are_valid_and_never_larger(self):
        gen = ScenarioGen()
        for seed in range(40):
            scenario = gen.generate(seed)
            for candidate in shrink_candidates(scenario):
                assert _leq(candidate, scenario), seed
                # Construction re-validates; reaching here means the
                # coupling repairs (arrival, kill bound) held.
                assert len(candidate.arrival) == candidate.items

    def test_each_candidate_strictly_reduces_something(self):
        scenario = ScenarioGen().generate(14)
        for candidate in shrink_candidates(scenario):
            assert candidate.dimensions() != scenario.dimensions()

    def test_kill_faults_trimmed_when_workers_shrink(self):
        scenario = Scenario(
            seed=0, items=2, batch=1, workers=3, arrival=(0, 0),
            faults=FaultPlan(faults=(
                Fault(site="worker.execute", action="kill"),
                Fault(site="worker.ack", action="kill", at_hit=2),
            )),
        )
        for candidate in shrink_candidates(scenario):
            assert candidate.kill_faults() <= candidate.workers - 1


class TestShrink:
    def test_converges_to_the_failing_dimension(self):
        # Synthetic failure: any scenario with at least one kill fault
        # "fails".  The shrinker should strip everything else.
        scenario = ScenarioGen(fault_rate=1.0).generate(13)
        if scenario.kill_faults() == 0:
            scenario = Scenario(
                seed=13, items=scenario.items, batch=scenario.batch,
                workers=max(2, scenario.workers),
                arrival=scenario.arrival, tenants=scenario.tenants,
                dag_ops=scenario.dag_ops, drift=scenario.drift,
                store_ops=scenario.store_ops,
                faults=FaultPlan(faults=(
                    Fault(site="worker.execute", action="kill"),
                )),
            )

        def fails(candidate: Scenario) -> bool:
            return candidate.kill_faults() >= 1

        result = shrink(scenario, fails)
        minimal = result.minimal
        assert fails(minimal)
        assert _leq(minimal, scenario)
        assert minimal.items == 1 and minimal.batch == 1
        assert minimal.workers <= scenario.workers
        assert len(minimal.faults) == 1
        assert not minimal.store_ops and not minimal.drift
        assert not minimal.queue

    def test_non_reproducing_scenario_shrinks_nowhere(self):
        scenario = ScenarioGen().generate(5)
        result = shrink(scenario, lambda candidate: False)
        assert result.minimal == scenario
        assert result.steps == 0
        assert result.attempts > 0

    def test_attempt_budget_bounds_reruns(self):
        calls = 0

        def fails(candidate: Scenario) -> bool:
            nonlocal calls
            calls += 1
            return False

        shrink(ScenarioGen().generate(8), fails, max_attempts=10)
        assert calls <= 10
