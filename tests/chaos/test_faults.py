"""Tests for the fault-injection layer (`repro.chaos.faults`)."""

import threading

import pytest

from repro.chaos.faults import (
    NULL_FAULTS,
    ChaosFault,
    Fault,
    FaultClock,
    FaultHook,
    FaultInjector,
    FaultPlan,
    VirtualFaultClock,
)
from repro.errors import ReproError


class TestFaultModel:
    def test_fault_validates_action(self):
        with pytest.raises(ReproError):
            Fault(site="queue.put", action="explode")

    def test_fault_validates_at_hit_and_seconds(self):
        with pytest.raises(ReproError):
            Fault(site="queue.put", action="stall", at_hit=0)
        with pytest.raises(ReproError):
            Fault(site="queue.put", action="stall", seconds=-1.0)

    def test_fault_roundtrips_through_dict(self):
        fault = Fault(site="worker.execute", action="stall", at_hit=3,
                      seconds=0.004)
        assert Fault.from_dict(fault.to_dict()) == fault

    def test_plan_roundtrips_and_summarizes(self):
        plan = FaultPlan(faults=(
            Fault(site="worker.execute", action="raise"),
            Fault(site="worker.ack", action="kill", at_hit=2),
        ))
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert len(plan) == 2
        assert plan.sites() == {"worker.execute", "worker.ack"}
        assert plan.actions() == {"raise", "kill"}


class TestNullHook:
    def test_null_hook_is_a_no_op_everywhere(self):
        # The seam default: hit() accepts any site/context and does
        # nothing, so production paths pay only a method call.
        NULL_FAULTS.hit("queue.put")
        NULL_FAULTS.hit("anything", worker=object(), item_id=7)
        assert isinstance(NULL_FAULTS, FaultHook)


class TestVirtualClock:
    def test_virtual_clock_accumulates_without_sleeping(self):
        clock = VirtualFaultClock()
        assert clock.now() == 0.0
        clock.sleep(1.5)
        clock.sleep(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_real_clock_sleeps(self):
        clock = FaultClock()
        before = clock.now()
        clock.sleep(0.001)
        assert clock.now() >= before


class TestInjector:
    def test_fires_at_the_requested_hit_and_only_once(self):
        clock = VirtualFaultClock()
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="queue.put", action="stall", at_hit=3,
                  seconds=2.0),
        )), clock=clock)
        for _ in range(5):
            injector.hit("queue.put")
        assert clock.now() == pytest.approx(2.0)  # fired exactly once
        assert [f.hit for f in injector.fired] == [3]

    def test_sites_count_independently(self):
        clock = VirtualFaultClock()
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="queue.put", action="stall", at_hit=1, seconds=1.0),
            Fault(site="queue.get", action="stall", at_hit=2, seconds=4.0),
        )), clock=clock)
        injector.hit("queue.put")   # fires the put stall
        injector.hit("queue.get")   # hit 1: not yet
        assert clock.now() == pytest.approx(1.0)
        injector.hit("queue.get")   # hit 2: fires
        assert clock.now() == pytest.approx(5.0)

    def test_raise_action_raises_chaos_fault(self):
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="worker.execute", action="raise"),
        )))
        with pytest.raises(ChaosFault):
            injector.hit("worker.execute")
        injector.hit("worker.execute")  # second hit: fault consumed

    def test_kill_action_kills_the_context_worker(self):
        class FakeWorker:
            killed = False

            def kill(self):
                self.killed = True

        worker = FakeWorker()
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="worker.ack", action="kill"),
        )))
        injector.hit("worker.ack", worker=worker)
        assert worker.killed

    @pytest.mark.parametrize("at_hit, whole_line", [(1, True), (2, False)])
    def test_torn_manifest_tears_the_log_tail_and_raises(
            self, tmp_path, at_hit, whole_line):
        log = tmp_path / "manifest.log"
        log.write_bytes(b"header\n")
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="store.manifest.save", action="torn-manifest",
                  at_hit=at_hit),
        )))
        for _ in range(at_hit - 1):
            injector.hit("store.manifest.save", root=tmp_path)
        with pytest.raises(ChaosFault):
            injector.hit("store.manifest.save", root=tmp_path)
        torn = log.read_bytes().removeprefix(b"header\n")
        assert torn.startswith(b'00000000 {"seq"')
        assert torn.endswith(b"\n") == whole_line

    def test_torn_manifest_without_a_log_only_raises(self, tmp_path):
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="store.manifest.save", action="torn-manifest"),
        )))
        with pytest.raises(ChaosFault):
            injector.hit("store.manifest.save", root=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_concurrent_hits_fire_exactly_once(self):
        clock = VirtualFaultClock()
        injector = FaultInjector(FaultPlan(faults=(
            Fault(site="queue.put", action="stall", at_hit=10,
                  seconds=1.0),
        )), clock=clock)
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(25):
                injector.hit("queue.put")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert clock.now() == pytest.approx(1.0)
        assert len(injector.fired) == 1
