"""End-to-end tests for SmolServer in multi-tenant mode.

Covers the full wiring: quota gate before the DRR scheduler, per-class
telemetry, deadline stamping, per-tenant SLO boards, and the golden-trace
deadline-downgrade contract (a tight deadline moves the batch to a
cheaper rendition whose predictions are bit-identical to that plan's
serial oracle).
"""

import pytest

from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import QuotaExceededError
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import FunctionalSession, serving_pipeline_ops
from repro.tenant import (
    ClassPolicy,
    LadderRung,
    PlanLadder,
    TenantConfig,
    TenantSloBoard,
    TenantSpec,
)

POOL_SIZE = 24

#: Deadline-free classes so e2e assertions are schedule-independent.
OPEN_CLASSES = (
    ClassPolicy("interactive", weight=8.0, rank=0),
    ClassPolicy("standard", weight=4.0, rank=1),
    ClassPolicy("batch", weight=1.0, rank=2),
)

MIXED_CONFIG = TenantConfig(
    tenants=(
        TenantSpec(name="dashboard", priority="interactive"),
        TenantSpec(name="api", priority="standard"),
        TenantSpec(name="backfill", priority="batch"),
    ),
    classes=OPEN_CLASSES,
)


@pytest.fixture(scope="module")
def image_pool():
    generator = SyntheticImageGenerator(num_classes=2, image_size=40,
                                        seed=11)
    return [(f"img-{i}", generator.generate_image(i % 2, i).pixels)
            for i in range(POOL_SIZE)]


def build_session(plan_key="tenant-test", seed=3):
    dag = PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=36, crop_size=32))
    model = build_mini_resnet(18, num_classes=2, input_size=32, seed=seed)
    session = FunctionalSession(plan_key, dag, model)
    session.warmup()
    return session


def policy(max_batch=8, wait_ms=1.0):
    return BatchPolicy(name="tenant-test", max_batch_size=max_batch,
                       max_wait_ms=wait_ms)


class TestMixedTenantServing:
    def test_mixed_tenants_all_resolve_with_class_attribution(
            self, image_pool):
        session = build_session()
        tenants = ("dashboard", "api", "backfill")
        with SmolServer(session, policy=policy(),
                        queue_capacity=128, cache_capacity=0,
                        tenants=MIXED_CONFIG) as server:
            futures = []
            for i in range(72):
                image_id, payload = image_pool[i % POOL_SIZE]
                futures.append(server.submit(InferenceRequest(
                    image_id=image_id, payload=payload,
                    tenant=tenants[i % 3])))
            responses = [f.result(timeout=30.0) for f in futures]
            stats = server.stats()

        assert len(responses) == 72
        tenant_stats = stats.tenants
        assert tenant_stats is not None
        # Every class served exactly its tenant's share.
        assert tenant_stats.class_served == {
            "interactive": 24, "standard": 24, "batch": 24}
        for name in ("interactive", "standard", "batch"):
            assert tenant_stats.class_latency[name].count == 24
        # Quota books are per configured spec (plus the default).
        assert tenant_stats.quotas["dashboard"].admitted == 24
        assert tenant_stats.quotas["dashboard"].in_flight == 0
        assert tenant_stats.quotas["*"].admitted == 0
        # The scorecard renders the tenant section.
        assert "interactive" in stats.describe()

    def test_unknown_tenant_rides_the_default_spec(self, image_pool):
        session = build_session()
        with SmolServer(session, policy=policy(),
                        cache_capacity=0, tenants=MIXED_CONFIG) as server:
            image_id, payload = image_pool[0]
            server.submit(InferenceRequest(
                image_id=image_id, payload=payload,
                tenant="stranger")).result(timeout=30.0)
            quotas = server.tenant_stats().quotas

        assert quotas["*"].admitted == 1
        assert "stranger" not in quotas

    def test_deadline_stamped_from_class_default(self, image_pool):
        session = build_session()
        config = TenantConfig(
            tenants=(TenantSpec(name="dashboard",
                                priority="interactive"),))
        with SmolServer(session, policy=policy(),
                        cache_capacity=0, tenants=config) as server:
            image_id, payload = image_pool[0]
            stamped = InferenceRequest(image_id=image_id, payload=payload,
                                       tenant="dashboard")
            explicit = InferenceRequest(image_id=image_id, payload=payload,
                                        tenant="dashboard", deadline_s=9.0)
            server.submit(stamped).result(timeout=30.0)
            server.submit(explicit).result(timeout=30.0)

        assert stamped.deadline_s == pytest.approx(0.05)
        assert explicit.deadline_s == pytest.approx(9.0)  # never clobbered


class TestPerClassTelemetry:
    def test_stage_events_carry_the_batch_class(self):
        """Tenant batches publish under ``serving/<class>``, so the stage
        counters keep the per-class split (the calibrator keys on
        (stage, subject): the source is a label, not a cost stream)."""
        from repro.codecs.formats import THUMB_JPEG_161_Q75
        from repro.core.plans import Plan
        from repro.hardware.instance import get_instance
        from repro.inference.perfmodel import PerformanceModel
        from repro.nn.zoo import resnet_profile
        from repro.obs import Observability
        from repro.serving.session import SimulatedSession

        session = SimulatedSession(
            Plan.single(resnet_profile(18), THUMB_JPEG_161_Q75),
            PerformanceModel(get_instance("g4dn.xlarge")))
        session.warmup()
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        with SmolServer(session, policy=policy(), cache_capacity=0,
                        tenants=MIXED_CONFIG, obs=obs) as server:
            futures = [server.submit(InferenceRequest(
                image_id=f"c{i}", tenant=tenant))
                for i, tenant in enumerate(["dashboard", "backfill"] * 6)]
            for future in futures:
                future.result(timeout=30.0)

        assert {event.source for event in events} == {
            "serving/interactive", "serving/batch"}
        snapshot = obs.metrics.snapshot()
        for name in ("interactive", "batch"):
            key = f"stage_images_total{{source=serving/{name},stage=decode}}"
            assert snapshot[key] == 6.0


class TestQuotaEnforcement:
    def test_flood_tenant_throttles_at_submit(self, image_pool):
        session = build_session()
        config = TenantConfig(
            tenants=(TenantSpec(name="flood", priority="batch",
                                rate_per_s=1.0, burst=2),),
            classes=OPEN_CLASSES,
        )
        with SmolServer(session, policy=policy(),
                        cache_capacity=0, tenants=config) as server:
            image_id, payload = image_pool[0]
            futures = [server.submit(InferenceRequest(
                image_id=image_id, payload=payload, tenant="flood"))
                for _ in range(2)]
            with pytest.raises(QuotaExceededError):
                server.submit(InferenceRequest(
                    image_id=image_id, payload=payload, tenant="flood"))
            for future in futures:
                future.result(timeout=30.0)
            quotas = server.tenant_stats().quotas

        assert quotas["flood"].admitted == 2
        assert quotas["flood"].throttled_rate == 1
        assert quotas["flood"].in_flight == 0  # released on resolution

    def test_cache_hits_never_charge_the_quota(self, image_pool):
        session = build_session()
        with SmolServer(session, policy=policy(),
                        cache_capacity=64, tenants=MIXED_CONFIG) as server:
            image_id, payload = image_pool[0]
            request = InferenceRequest(image_id=image_id, payload=payload,
                                       tenant="api")
            server.submit(request).result(timeout=30.0)
            hit = server.submit(InferenceRequest(
                image_id=image_id, payload=payload,
                tenant="api")).result(timeout=30.0)
            quotas = server.tenant_stats().quotas

        assert hit.cached
        assert quotas["api"].admitted == 1


class TestTenantSloWiring:
    def test_server_routes_latency_to_the_tenant_board(self, image_pool):
        session = build_session()
        board = TenantSloBoard(MIXED_CONFIG)
        with SmolServer(session, policy=policy(),
                        cache_capacity=0, tenants=MIXED_CONFIG,
                        tenant_slo=board) as server:
            for i in range(6):
                image_id, payload = image_pool[i]
                server.submit(InferenceRequest(
                    image_id=image_id, payload=payload,
                    tenant="api")).result(timeout=30.0)

        api_windows = board.state()["api"]["specs"][0]["windows"]
        assert api_windows[0]["events"] == 6
        backfill = board.state()["backfill"]["specs"][0]["windows"]
        assert backfill[0]["events"] == 0


class GoldenOracle:
    """Serial re-execution of a plan, the downgrade test's ground truth."""

    def __init__(self, session):
        self.session = session

    def predictions(self, requests):
        return [int(self.session.execute([request]).predictions[0])
                for request in requests]


class TestDeadlineDowngrade:
    def run_tight_deadline_workload(self, image_pool):
        """One golden-trace run; returns (responses, ladder, fast oracle)."""
        accurate = build_session("plan-accurate", seed=3)
        fast = build_session("plan-fast", seed=9)
        ladder = PlanLadder(rungs=(
            # The accurate plan can never fit a 100ms budget; the fast
            # rendition always fits.  Costs are explicit so the selection
            # arithmetic is exact and schedule-independent.
            LadderRung(accurate, per_image_s=10.0),
            LadderRung(fast, per_image_s=1e-6),
        ))
        config = TenantConfig(
            tenants=(TenantSpec(name="dashboard",
                                priority="interactive"),),
            classes=(ClassPolicy("interactive", weight=8.0, rank=0,
                                 default_deadline_s=0.1),),
            default_spec=TenantSpec(name="*", priority="interactive"),
        )
        requests = [
            InferenceRequest(image_id=image_id, payload=payload,
                             tenant="dashboard")
            for image_id, payload in image_pool[:8]
        ]
        with SmolServer(accurate, policy=policy(),
                        cache_capacity=0, tenants=config,
                        ladder=ladder) as server:
            responses = [server.submit(request).result(timeout=30.0)
                         for request in requests]
        return responses, ladder, GoldenOracle(fast).predictions(requests)

    def test_tight_deadline_downgrades_to_the_cheaper_rendition(
            self, image_pool):
        responses, ladder, oracle = \
            self.run_tight_deadline_workload(image_pool)
        # Every batch moved off the unaffordable plan...
        assert all(r.plan_key == "plan-fast" for r in responses)
        assert ladder.downgrades > 0
        # ...and the served predictions are bit-identical to the chosen
        # plan's serial oracle (the downgrade swapped plans, not math).
        assert [r.prediction for r in responses] == oracle

    def test_downgrade_decision_is_deterministic(self, image_pool):
        first, _, _ = self.run_tight_deadline_workload(image_pool)
        second, _, _ = self.run_tight_deadline_workload(image_pool)
        assert [r.plan_key for r in first] == [r.plan_key for r in second]
        assert [r.prediction for r in first] \
            == [r.prediction for r in second]

    def test_loose_deadline_keeps_the_accurate_plan(self, image_pool):
        accurate = build_session("plan-accurate", seed=3)
        fast = build_session("plan-fast", seed=9)
        ladder = PlanLadder(rungs=(
            LadderRung(accurate, per_image_s=1e-6),
            LadderRung(fast, per_image_s=1e-7),
        ))
        config = TenantConfig(
            tenants=(TenantSpec(name="dashboard",
                                priority="interactive"),),
            classes=(ClassPolicy("interactive", weight=8.0, rank=0,
                                 default_deadline_s=30.0),),
            default_spec=TenantSpec(name="*", priority="interactive"),
        )
        with SmolServer(accurate, policy=policy(),
                        cache_capacity=0, tenants=config,
                        ladder=ladder) as server:
            image_id, payload = image_pool[0]
            response = server.submit(InferenceRequest(
                image_id=image_id, payload=payload,
                tenant="dashboard")).result(timeout=30.0)

        assert response.plan_key == "plan-accurate"
        assert ladder.downgrades == 0
