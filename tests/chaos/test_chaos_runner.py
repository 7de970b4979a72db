"""Tests for the chaos runner, its invariants, and postmortem bundles."""

import json

import numpy as np
import pytest

from repro.chaos import ChaosRunner, Scenario, ScenarioGen
from repro.chaos.faults import Fault, FaultPlan
from repro.chaos.invariants import (
    check_exactly_once,
    check_predictions,
    check_span_tree,
)
from repro.chaos.runner import HashSession, dump_report

#: Chaos-seed reproducers for the two seeded bugfixes this harness was
#: built to catch (see tests/inference/test_mpmc.py and
#: tests/cluster/test_dispatcher.py for the deterministic unit tests):
#: seed 1 carries the contended-queue probe that failed while
#: MpmcQueue.put/get re-armed their timeout on every spurious wakeup;
#: seed 14 carries the raise/ack-kill/collector-stall ambush that
#: double-retired an item before Dispatcher._handle_outcome popped and
#: rechecked atomically.
QUEUE_BUG_SEED = 1
DUPLICATE_OUTCOME_SEED = 14


class TestCleanRuns:
    def test_fault_free_scenario_passes_every_invariant(self):
        scenario = Scenario(seed=0, items=3, batch=2, workers=2,
                            arrival=(0, 0, 0),
                            dag_ops=(("normalize",),),
                            store_ops=(("put", "key-0"), ("gc", "")))
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert report.stats["submitted"] == 3
        assert report.stats["completed"] == 3
        assert "ok" in report.describe()

    def test_seed_sweep_passes(self):
        runner = ChaosRunner()
        gen = ScenarioGen()
        for seed in range(25):
            report = runner.run(gen.generate(seed))
            assert report.ok, report.describe()

    def test_replay_is_deterministic(self):
        gen = ScenarioGen()
        runner = ChaosRunner()
        scenario = gen.generate(QUEUE_BUG_SEED)
        assert scenario == gen.generate(QUEUE_BUG_SEED)
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert first.ok and second.ok
        assert [f["site"] for f in first.fired] == \
            [f["site"] for f in second.fired]


class TestSeededBugReproducers:
    def test_queue_bug_seed_carries_the_probe_and_passes_post_fix(self):
        scenario = ScenarioGen().generate(QUEUE_BUG_SEED)
        assert scenario.queue, "seed must carry the contended-queue probe"
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()

    def test_duplicate_outcome_seed_passes_post_fix(self):
        scenario = ScenarioGen().generate(DUPLICATE_OUTCOME_SEED)
        sites = {(f.site, f.action) for f in scenario.faults.faults}
        assert ("worker.ack", "kill") in sites
        assert ("dispatcher.outcome", "stall") in sites
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        # The kill really fired: the run exercised the duplicate-delivery
        # window, it didn't just plan to.
        assert any(f["site"] == "worker.ack" for f in report.fired)


class TestFaultedRuns:
    def test_kills_exercise_failover_and_still_resolve(self):
        scenario = Scenario(
            seed=0, items=4, batch=1, workers=3, max_attempts=3,
            arrival=(0, 0, 0, 0),
            faults=FaultPlan(faults=(
                Fault(site="worker.execute", action="kill", at_hit=2),
                Fault(site="worker.ack", action="kill", at_hit=3),
            )),
        )
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert report.stats["worker_deaths"] == 2

    def test_torn_manifest_write_never_commits(self):
        scenario = Scenario(
            seed=0, items=1, batch=1, workers=1, arrival=(0,),
            store_ops=(("put", "key-0"), ("put", "key-1"), ("gc", "")),
            faults=FaultPlan(faults=(
                Fault(site="store.manifest.save", action="torn-manifest",
                      at_hit=2),
            )),
        )
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert any(f["action"] == "torn-manifest" for f in report.fired)

    def test_writer_dying_between_checkpoint_and_log_reset_loses_nothing(
            self):
        # The first commit on a root checkpoints (hit 1): that put must
        # fail whole, and every later one must land and survive gc.
        scenario = Scenario(
            seed=0, items=1, batch=1, workers=1, arrival=(0,),
            store_ops=(("put", "key-0"), ("put", "key-1"),
                       ("put", "key-0"), ("invalidate", "key-1"),
                       ("gc", ""), ("put", "key-2")),
            faults=FaultPlan(faults=(
                Fault(site="store.checkpoint", action="raise", at_hit=1),
                Fault(site="store.manifest.save", action="torn-manifest",
                      at_hit=3),
            )),
        )
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert {f["site"] for f in report.fired} == {
            "store.checkpoint", "store.manifest.save"}

    def test_injected_session_failures_retry_to_success(self):
        scenario = Scenario(
            seed=0, items=2, batch=1, workers=2, max_attempts=3,
            arrival=(0, 0),
            faults=FaultPlan(faults=(
                Fault(site="worker.execute", action="raise", at_hit=1),
                Fault(site="worker.execute", action="raise", at_hit=2),
            )),
        )
        report = ChaosRunner().run(scenario)
        assert report.ok, report.describe()
        assert report.stats["retried"] >= 1


class TestInvariantChecks:
    class _Stats:
        def __init__(self, submitted, completed, failed, inflight=0):
            self.submitted = submitted
            self.completed = completed
            self.failed = failed
            self.inflight = inflight

    def test_double_retire_is_flagged(self):
        stats = self._Stats(submitted=1, completed=1, failed=1)
        violations = check_exactly_once(stats, [("ok", (1,))],
                                        allow_failures=True)
        assert any("double-retired" in v.detail for v in violations)

    def test_lost_future_is_flagged(self):
        stats = self._Stats(submitted=1, completed=1, failed=0)
        violations = check_exactly_once(stats, [("lost", "never resolved")],
                                        allow_failures=False)
        assert any("never resolved" in v.detail for v in violations)

    def test_spurious_failure_is_flagged_only_without_faults(self):
        stats = self._Stats(submitted=1, completed=0, failed=1)
        outcomes = [("failed", "boom")]
        assert any(
            v.invariant == "resolution.spurious_failure"
            for v in check_exactly_once(stats, outcomes,
                                        allow_failures=False))
        assert not any(
            v.invariant == "resolution.spurious_failure"
            for v in check_exactly_once(stats, outcomes,
                                        allow_failures=True))

    def test_prediction_divergence_is_flagged(self):
        reference = [np.array([1, 2], dtype=np.int64)]
        violations = check_predictions(reference, [("ok", (1, 3))])
        assert violations and \
            violations[0].invariant == "predictions.bit_identical"
        assert not check_predictions(reference, [("ok", (1, 2))])

    def test_empty_span_list_is_flagged(self):
        assert check_span_tree([])[0].invariant == "trace.connected"


class TestHashSession:
    def test_predictions_are_deterministic_per_plan(self):
        from repro.serving.request import InferenceRequest

        requests = [InferenceRequest(image_id=f"img-{i}") for i in range(4)]
        first = HashSession().execute(requests).predictions
        second = HashSession().execute(requests).predictions
        assert np.array_equal(first, second)
        other_plan = HashSession(plan_key="other").execute(requests)
        assert not np.array_equal(first, other_plan.predictions)


class TestPostmortem:
    def test_dump_report_writes_bundle_and_scenario(self, tmp_path):
        scenario = ScenarioGen().generate(DUPLICATE_OUTCOME_SEED)
        report = ChaosRunner().run(scenario)
        bundle = dump_report(report, tmp_path / "bundle")
        payload = json.loads((bundle / "scenario.json").read_text())
        assert payload["scenario"]["seed"] == DUPLICATE_OUTCOME_SEED
        assert "recorder" not in payload["stats"]
        rebuilt = Scenario.from_dict(payload["scenario"])
        assert rebuilt == scenario
        # The flight-recorder dump landed alongside the scenario.
        assert (bundle / "manifest.json").exists()
        assert (bundle / "spans.jsonl").exists()

    def test_report_to_dict_does_not_leak_the_recorder(self):
        report = ChaosRunner().run(ScenarioGen().generate(0))
        assert "recorder" in report.stats  # live handle for dump_report
        assert "recorder" not in report.to_dict()["stats"]


class TestChaosFaultIsReproError:
    def test_chaos_fault_in_errors_hierarchy(self):
        from repro.chaos.faults import ChaosFault
        from repro.errors import ReproError

        assert issubclass(ChaosFault, ReproError)
        with pytest.raises(ReproError):
            raise ChaosFault("injected")
