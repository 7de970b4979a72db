"""Tests for the deadline-aware plan ladder."""

import sys
import threading

import pytest

from repro.chaos.runner import HashSession
from repro.errors import TenantError
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import BatchPolicy
from repro.serving.server import SmolServer
from repro.serving.session import EngineSession
from repro.tenant import LadderRung, PlanLadder


class StubSession(EngineSession):
    """A priceable-by-attribute session that never executes."""

    def __init__(self, plan_key: str, throughput: float | None = None):
        super().__init__(plan_key)
        if throughput is not None:
            self.modelled_throughput = throughput
        self.warmup()


def make_ladder(safety=1.0):
    # per-image costs: accurate 10ms > medium 2ms > fast 0.5ms.
    return PlanLadder(
        rungs=(
            LadderRung(StubSession("fast"), per_image_s=0.0005),
            LadderRung(StubSession("accurate"), per_image_s=0.010),
            LadderRung(StubSession("medium"), per_image_s=0.002),
        ),
        safety=safety,
    )


class TestShape:
    def test_needs_rungs(self):
        with pytest.raises(TenantError):
            PlanLadder(rungs=())

    def test_rejects_safety_below_one(self):
        with pytest.raises(TenantError):
            make_ladder(safety=0.5)

    def test_rejects_duplicate_plan_keys(self):
        with pytest.raises(TenantError):
            PlanLadder(rungs=(
                LadderRung(StubSession("a"), per_image_s=0.001),
                LadderRung(StubSession("a"), per_image_s=0.002),
            ))

    def test_rungs_sorted_slowest_first(self):
        ladder = make_ladder()
        assert [r.plan_key for r in ladder.rungs] == [
            "accurate", "medium", "fast"]

    def test_rung_rejects_nonpositive_cost(self):
        with pytest.raises(TenantError):
            LadderRung(StubSession("a"), per_image_s=0.0)

    def test_describe_lists_every_rung(self):
        text = make_ladder().describe()
        for key in ("accurate", "medium", "fast"):
            assert key in text


class TestSelection:
    def test_no_deadline_keeps_current(self):
        ladder = make_ladder()
        current = ladder.rungs[0].session
        assert ladder.select(current, None, 8) is current
        assert ladder.downgrades == 0

    def test_current_that_fits_is_kept(self):
        ladder = make_ladder()
        accurate = ladder.rungs[0].session  # 10ms/img
        assert ladder.select(accurate, budget_s=1.0, batch_size=8) \
            is accurate
        assert ladder.downgrades == 0

    def test_tight_budget_downgrades_to_most_accurate_fit(self):
        ladder = make_ladder()
        accurate = ladder.rungs[0].session
        # 8 images in 20ms: accurate needs 80ms, medium 16ms -> medium.
        chosen = ladder.select(accurate, budget_s=0.020, batch_size=8)
        assert chosen.plan_key == "medium"
        assert ladder.downgrades == 1

    def test_doomed_budget_falls_to_the_fastest_rung(self):
        ladder = make_ladder()
        chosen = ladder.select(ladder.rungs[0].session,
                               budget_s=0.000001, batch_size=8)
        assert chosen.plan_key == "fast"

    def test_safety_margin_inflates_cost(self):
        # medium at 2ms/img x 8 = 16ms fits a 20ms budget raw, but not
        # with a 2x safety margin -> selection falls through to fast.
        ladder = make_ladder(safety=2.0)
        chosen = ladder.select(ladder.rungs[0].session,
                               budget_s=0.020, batch_size=8)
        assert chosen.plan_key == "fast"

    def test_unpriceable_current_never_fits(self):
        ladder = make_ladder()
        stranger = StubSession("stranger")  # not a rung, no throughput
        chosen = ladder.select(stranger, budget_s=10.0, batch_size=1)
        # Plenty of budget: the most accurate rung wins over the unknown.
        assert chosen.plan_key == "accurate"

    def test_priceable_stranger_is_costed_by_throughput(self):
        ladder = make_ladder()
        stranger = StubSession("stranger", throughput=10_000.0)
        assert ladder.select(stranger, budget_s=10.0, batch_size=1) \
            is stranger

    def test_selection_is_deterministic(self):
        ladder = make_ladder()
        current = ladder.rungs[0].session
        picks = {ladder.select(current, 0.020, 8).plan_key
                 for _ in range(20)}
        assert picks == {"medium"}


class TestFromSessions:
    def test_orders_by_modelled_throughput(self):
        ladder = PlanLadder.from_sessions([
            StubSession("fast", throughput=2000.0),
            StubSession("slow", throughput=100.0),
        ])
        assert [r.plan_key for r in ladder.rungs] == ["slow", "fast"]
        assert ladder.rungs[0].per_image_s == pytest.approx(0.01)

    def test_rejects_unpriceable_sessions(self):
        with pytest.raises(TenantError):
            PlanLadder.from_sessions([StubSession("opaque")])


class TestConcurrentSelection:
    """``select`` runs on every serving lane: no downgrade may be lost."""

    def test_two_lanes_downgrade_every_doomed_batch_exactly_once(self):
        ladder = PlanLadder((LadderRung(HashSession("fast"), 0.0005),
                             LadderRung(HashSession("slow"), 0.010)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # two lanes + two clients on two cores
        try:
            with SmolServer(ladder.rungs[0].session, ladder=ladder,
                            policy=BatchPolicy("small", 2, 0.0),
                            cache_capacity=0) as server:
                assert server.sessions.current().streams == 2

                def client(name: str) -> None:
                    futures = [server.submit(InferenceRequest(
                        image_id=f"{name}-{n}", deadline_s=1e-9))
                        for n in range(300)]
                    for future in futures:
                        assert future.result(timeout=30.0).plan_key == "fast"

                clients = [threading.Thread(target=client, args=(f"c{n}",))
                           for n in range(2)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60.0)
                    assert not thread.is_alive()
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats.completed == 600
        assert ladder.downgrades == stats.batcher.batches
