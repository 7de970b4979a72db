"""Tests for the replanner, swap targets, and the adaptive controller."""

import pytest

from repro.adapt.calibrator import (
    ObservationKey,
    OnlineCalibrator,
    StageObservation,
)
from repro.adapt.drift import DriftDetector
from repro.adapt.replanner import (
    AdaptiveController,
    Replanner,
    ScanPaceTarget,
    ServerSwapTarget,
)
from repro.adapt.session import register_plan_baselines
from repro.core.costmodel import SmolCostModel
from repro.core.accuracy import AccuracyEstimator
from repro.core.planner import PlanGenerator
from repro.core.plans import PlanConstraints
from repro.errors import AdaptError
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.obs import Observability
from repro.query.scan import ScanPace
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import SimulatedSession


@pytest.fixture(scope="module")
def perf():
    return PerformanceModel(get_instance("g4dn.xlarge"))


@pytest.fixture(scope="module")
def engine_config(perf):
    return EngineConfig(num_producers=perf.instance.vcpus)


def make_factory(perf, engine_config):
    def factory(observations=None):
        return PlanGenerator(
            cost_model=SmolCostModel(perf, engine_config),
            accuracy=AccuracyEstimator("imagenet"),
            observations=observations,
        )
    return factory


def champion(planner):
    return max(planner.score(planner.generate()),
               key=lambda e: (e.throughput, e.accuracy))


def drifted_costs(calibrator, fmt, factor, repeats=40):
    key = ObservationKey("decode", fmt)
    baseline = calibrator.baseline(key)
    for _ in range(repeats):
        calibrator.observe(StageObservation(
            stage="decode", subject=fmt, images=1,
            seconds=baseline * factor,
        ))
    return calibrator.observed_costs()


class TestReplanner:
    def test_negative_min_improvement_rejected(self, perf, engine_config):
        with pytest.raises(AdaptError):
            Replanner(make_factory(perf, engine_config),
                      min_improvement=-0.1)

    def test_drifted_costs_produce_a_plan_change(self, perf, engine_config):
        factory = make_factory(perf, engine_config)
        current = champion(factory())
        calibrator = OnlineCalibrator()
        register_plan_baselines(calibrator, perf,
                                factory().generate(), engine_config)
        observed = drifted_costs(calibrator,
                                 current.plan.input_format.name, 4.0)
        decision = Replanner(factory, min_improvement=0.1).replan(
            current, observed
        )
        assert decision.swapped
        assert decision.plan_changed
        assert decision.reason == "swapped"
        assert decision.gain >= 0.1
        assert (decision.candidate.plan.input_format.name
                != current.plan.input_format.name)

    def test_min_improvement_blocks_marginal_wins(self, perf, engine_config):
        factory = make_factory(perf, engine_config)
        current = champion(factory())
        calibrator = OnlineCalibrator()
        register_plan_baselines(calibrator, perf,
                                factory().generate(), engine_config)
        observed = drifted_costs(calibrator,
                                 current.plan.input_format.name, 4.0)
        decision = Replanner(factory, min_improvement=1e9).replan(
            current, observed
        )
        assert not decision.swapped
        assert decision.reason == "no-gain"

    def test_zero_throughput_current_plan_always_loses(self, perf,
                                                       engine_config):
        class ZeroingObservations:
            def preprocessing_scale(self, format_name, decoding=True):
                return 0.0  # adversarial: current plan prices to zero

            def dnn_scale(self, model_name):
                return 1.0

        factory = make_factory(perf, engine_config)
        current = champion(factory())
        decision = Replanner(factory, min_improvement=0.1).replan(
            current, ZeroingObservations()
        )
        # Every candidate also prices to zero here, so the gain guard's
        # division-by-zero path resolves to "no candidate is better".
        assert not decision.swapped

    def test_constraints_are_honored(self, perf, engine_config):
        factory = make_factory(perf, engine_config)
        current = champion(factory())
        calibrator = OnlineCalibrator()
        register_plan_baselines(calibrator, perf,
                                factory().generate(), engine_config)
        observed = drifted_costs(calibrator,
                                 current.plan.input_format.name, 4.0)
        decision = Replanner(
            factory, constraints=PlanConstraints(accuracy_floor=0.74),
            min_improvement=0.0,
        ).replan(current, observed)
        assert decision.candidate.accuracy >= 0.74


class TestSwapTargets:
    def test_server_swap_target_hot_swaps_the_session(self, perf,
                                                      engine_config):
        factory = make_factory(perf, engine_config)
        planner = factory()
        estimates = planner.score(planner.generate())
        current = max(estimates, key=lambda e: (e.throughput, e.accuracy))
        other = next(e for e in estimates
                     if e.plan.describe() != current.plan.describe())

        def session_factory(estimate):
            session = SimulatedSession(estimate.plan, perf,
                                       config=engine_config)
            session.warmup()
            return session

        with SmolServer(session_factory(current),
                        policy=BatchPolicy.latency(),
                        cache_capacity=0) as server:
            target = ServerSwapTarget(server, session_factory)
            target.apply(other)
            assert server.sessions.swaps == 1
            response = server.submit(
                InferenceRequest(image_id="after-swap")
            ).result(timeout=10.0)
            assert response.plan_key == other.plan.describe()

    def test_scan_pace_target_swaps_the_pace(self):
        pace = ScanPace(1e-3, "old-plan", stage_split={"decode": 8e-4})

        class Estimate:
            class plan:
                @staticmethod
                def describe():
                    return "new-plan"

        target = ScanPaceTarget(
            pace, lambda estimate: (5e-4, {"decode": 1e-4})
        )
        target.apply(Estimate)
        assert pace.seconds_per_frame == 5e-4
        assert pace.plan_key == "new-plan"
        assert pace.swaps == 1


class RecordingTarget:
    def __init__(self):
        self.applied = []

    def apply(self, estimate):
        self.applied.append(estimate.plan.describe())


def build_controller(perf, engine_config, hysteresis=1,
                     min_improvement=0.1):
    factory = make_factory(perf, engine_config)
    planner = factory()
    current = champion(planner)
    obs = Observability()
    calibrator = OnlineCalibrator()
    register_plan_baselines(calibrator, perf, planner.generate(),
                            engine_config)
    target = RecordingTarget()
    controller = AdaptiveController(
        calibrator=calibrator,
        replanner=Replanner(factory, min_improvement=min_improvement),
        current_plan=current,
        obs=obs,
        detector=DriftDetector(threshold=1.5, hysteresis=hysteresis),
        targets=[target],
    )
    return controller, obs, calibrator, current, target


def feed_drift(obs, calibrator, fmt, factor, repeats=40):
    baseline = calibrator.baseline(ObservationKey("decode", fmt))
    for _ in range(repeats):
        obs.emit_stage("decode", fmt, 1, baseline * factor)


class TestAdaptiveController:
    def test_quiet_world_never_replans(self, perf, engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        for _ in range(5):
            decision = controller.step()
            assert decision.reason == "no-drift"
        assert controller.stats().replans == 0
        assert target.applied == []
        assert controller.current_plan is current

    def test_drift_triggers_one_swap_and_applies_targets(self, perf,
                                                         engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        feed_drift(obs, calibrator,
                   current.plan.input_format.name, 4.0)
        decision = controller.step()
        assert decision.swapped
        assert target.applied == [decision.candidate.plan.describe()]
        assert controller.current_plan is decision.candidate
        stats = controller.stats()
        assert stats.swaps == 1 and stats.drifts == 1
        # The same drifted world again: acknowledged, so no further swap.
        feed_drift(obs, calibrator,
                   current.plan.input_format.name, 4.0)
        assert not controller.step().swapped
        assert controller.stats().swaps == 1

    def test_hysteresis_delays_the_replan(self, perf, engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config, hysteresis=3)
        fmt = current.plan.input_format.name
        feed_drift(obs, calibrator, fmt, 4.0)
        assert controller.step().reason == "no-drift"
        feed_drift(obs, calibrator, fmt, 4.0)
        assert controller.step().reason == "no-drift"
        feed_drift(obs, calibrator, fmt, 4.0)
        assert controller.step().swapped

    def test_exploding_target_neither_kills_step_nor_blocks_others(
            self, perf, engine_config):
        class ExplodingTarget:
            def apply(self, estimate):
                raise RuntimeError("target bug")

        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        controller.add_target(ExplodingTarget())
        healthy = RecordingTarget()
        controller.add_target(healthy)
        feed_drift(obs, calibrator,
                   current.plan.input_format.name, 4.0)
        decision = controller.step()  # must not raise
        assert decision.swapped
        # Both the first target and the one after the exploding one were
        # applied; the failure is counted and the plan state advanced.
        assert target.applied == healthy.applied != []
        stats = controller.stats()
        assert stats.target_failures == 1
        assert stats.swaps == 1
        assert controller.current_plan is decision.candidate

    def test_store_catalog_event_forces_a_replan(self, perf, engine_config,
                                                 tmp_path):
        import numpy as np

        from repro.store.store import RenditionKey, RenditionStore

        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        store = RenditionStore(tmp_path / "store")
        controller.watch_store(store)
        store.put_rendition(RenditionKey("imagenet", "161-jpeg-q95"),
                            np.zeros((2, 4, 4, 3), dtype=np.uint8))
        decision = controller.step()
        # The detector is quiet, so only the catalog event can have
        # forced this replan (the factory here prices without a catalog,
        # so the candidate equals the current plan: no gain, no swap).
        assert decision.reason in ("no-gain", "swapped")
        assert controller.stats().catalog_events == 1
        controller.close()
        store.put_rendition(RenditionKey("imagenet", "161-png"),
                            np.zeros((2, 4, 4, 3), dtype=np.uint8))
        assert controller.stats().catalog_events == 1  # unsubscribed

    def _burning_engine(self, obs):
        from repro.obs import SloSpec, SloWindow
        from repro.obs.slo import SloEngine

        engine = SloEngine([SloSpec(
            name="latency", latency_target_s=0.010, objective=0.9,
            windows=(SloWindow(seconds=60.0, max_burn_rate=1.0),),
            min_events=5,
        )])
        engine.attach(obs)
        for _ in range(10):
            engine.observe(1.0)  # every request blows the target
        return engine

    def test_slo_burn_event_forces_a_replan(self, perf, engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        engine = self._burning_engine(obs)
        engine.evaluate()
        decision = controller.step()
        # The detector is quiet: only the SLO alert can have forced this
        # replan (the candidate equals the current plan, so no swap).
        assert decision.reason in ("no-gain", "swapped")
        assert controller.stats().slo_events == 1
        # Quiet again next step: the dirty flag was consumed.
        assert controller.step().reason == "no-drift"

    def test_non_slo_stage_traffic_is_ignored(self, perf, engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        obs.emit_stage("stage.decode", "jpeg", 32, 0.001)
        assert controller.step().reason == "no-drift"
        assert controller.stats().slo_events == 0

    def test_close_unsubscribes_from_the_bus(self, perf, engine_config):
        controller, obs, calibrator, current, target = \
            build_controller(perf, engine_config)
        controller.close()
        engine = self._burning_engine(obs)
        engine.evaluate()
        assert controller.stats().slo_events == 0
