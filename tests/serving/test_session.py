"""Tests for plan-aware engine sessions and hot-swapping."""

import numpy as np
import pytest

from repro.codecs.formats import FULL_JPEG, THUMB_PNG_161
from repro.core.plans import Plan
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import ServingError
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.request import InferenceRequest
from repro.serving.session import (
    FunctionalSession,
    SessionManager,
    SimulatedSession,
    functional_session_for_plan,
    serving_pipeline_ops,
    simulated_session_for_format,
)


@pytest.fixture()
def images():
    generator = SyntheticImageGenerator(num_classes=2, image_size=40, seed=9)
    return [generator.generate_image(i % 2, i).pixels for i in range(6)]


@pytest.fixture()
def functional_session():
    dag = PreprocessingDAG.from_ops(serving_pipeline_ops(input_size=36,
                                                         crop_size=32))
    model = build_mini_resnet(18, num_classes=2, input_size=32, seed=1)
    return FunctionalSession("test-plan", dag, model)


class TestFunctionalSession:
    def test_execute_matches_direct_pipeline(self, functional_session, images):
        functional_session.warmup()
        requests = [InferenceRequest(image_id=f"img-{i}", payload=image)
                    for i, image in enumerate(images)]
        result = functional_session.execute(requests)
        direct = functional_session.model.predict(
            np.stack([functional_session.preprocessing.execute(image)
                      for image in images]).astype(np.float32)
        )
        np.testing.assert_array_equal(result.predictions, direct)
        assert result.modelled_seconds == 0.0

    def test_warmup_marks_session(self, functional_session):
        assert not functional_session.warmed
        functional_session.warmup()
        assert functional_session.warmed

    def test_warmup_compiles_the_path_batches_take(self, images):
        # A plan no other test pins: the kernel cache is process-wide.
        dag = PreprocessingDAG.from_ops(serving_pipeline_ops(input_size=41,
                                                             crop_size=32))
        model = build_mini_resnet(18, num_classes=2, input_size=32, seed=1)
        session = FunctionalSession("warm-plan", dag, model)
        assert session.kernel.program_compiles == 0
        session.warmup(probe=np.zeros(images[0].shape, dtype=np.uint8))
        assert session.kernel.program_compiles == 1
        session.execute([InferenceRequest(image_id=f"img-{i}", payload=image)
                         for i, image in enumerate(images)])
        assert session.kernel.program_compiles == 1

    def test_a_hot_swap_warms_the_kernel_too(self, functional_session):
        dag = PreprocessingDAG.from_ops(serving_pipeline_ops(input_size=43,
                                                             crop_size=32))
        model = build_mini_resnet(18, num_classes=2, input_size=32, seed=1)
        replacement = FunctionalSession("swapped-plan", dag, model)
        SessionManager(functional_session).swap(replacement)
        assert replacement.warmed
        assert replacement.kernel.program_compiles == 1

    def test_missing_payload_rejected(self, functional_session):
        functional_session.warmup()
        with pytest.raises(ServingError):
            functional_session.execute([InferenceRequest(image_id="no-pixels")])

    def test_empty_batch_rejected(self, functional_session):
        with pytest.raises(ServingError):
            functional_session.execute([])


class TestSimulatedSession:
    def test_predictions_deterministic_per_plan(self, perf_model, resnet50):
        session = simulated_session_for_format(resnet50, THUMB_PNG_161,
                                               perf_model)
        requests = [InferenceRequest(image_id=f"img-{i}") for i in range(8)]
        first = session.execute(requests)
        second = session.execute(requests)
        np.testing.assert_array_equal(first.predictions, second.predictions)
        assert first.modelled_seconds > 0

    def test_modelled_time_scales_with_batch(self, perf_model, resnet50):
        session = simulated_session_for_format(resnet50, FULL_JPEG, perf_model)
        small = session.execute([InferenceRequest(image_id="a")])
        large = session.execute(
            [InferenceRequest(image_id=f"b{i}") for i in range(16)]
        )
        assert large.modelled_seconds == pytest.approx(
            16 * small.modelled_seconds
        )

    def test_faster_format_means_less_service_time(self, perf_model, resnet50):
        full = simulated_session_for_format(resnet50, FULL_JPEG, perf_model)
        thumb = simulated_session_for_format(resnet50, THUMB_PNG_161,
                                             perf_model)
        assert thumb.modelled_throughput > full.modelled_throughput

    def test_unwarmed_throughput_raises(self, perf_model, resnet50):
        session = SimulatedSession(Plan.single(resnet50, FULL_JPEG),
                                   perf_model)
        with pytest.raises(ServingError):
            _ = session.modelled_throughput


class TestSessionManager:
    def test_manager_warms_initial_session(self, functional_session):
        manager = SessionManager(functional_session)
        assert manager.current().warmed

    def test_swap_replaces_live_session(self, functional_session, perf_model,
                                        resnet50):
        manager = SessionManager(functional_session)
        replacement = simulated_session_for_format(resnet50, THUMB_PNG_161,
                                                   perf_model)
        old = manager.swap(replacement)
        assert old is functional_session
        assert manager.current() is replacement
        assert manager.swaps == 1

    def test_ensure_swaps_only_on_plan_change(self, functional_session,
                                              perf_model, resnet50):
        manager = SessionManager(functional_session)
        same = manager.ensure(functional_session.plan_key,
                              factory=lambda: pytest.fail("must not build"))
        assert not same
        swapped = manager.ensure(
            "other-plan",
            factory=lambda: simulated_session_for_format(
                resnet50, THUMB_PNG_161, perf_model
            ),
        )
        assert swapped is True
        assert manager.current().plan_key != functional_session.plan_key


class TestPlanHelpers:
    def test_functional_session_for_plan_is_warmed(self, resnet18):
        plan = Plan.single(resnet18, THUMB_PNG_161)
        session = functional_session_for_plan(plan)
        assert session.warmed
        assert session.plan_key == plan.describe()

    def test_deeper_plan_builds_bigger_model(self, resnet18, resnet50):
        shallow = functional_session_for_plan(Plan.single(resnet18, FULL_JPEG))
        deep = functional_session_for_plan(Plan.single(resnet50, FULL_JPEG))
        assert deep.model.num_parameters > shallow.model.num_parameters
