"""Tests for the Smol runtime engine (simulated and functional modes)."""

import threading
import time

import numpy as np
import pytest

from repro.codecs.formats import FULL_JPEG, THUMB_PNG_161
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import EngineError
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ConvertDtypeOp,
    NormalizeOp,
    ChannelReorderOp,
    ResizeOp,
)


class TestSimulatedMode:
    def test_simulated_run_reports_throughput(self, perf_model, resnet50):
        engine = SmolRuntimeEngine(EngineConfig(num_producers=4), perf_model)
        result = engine.run_simulated(resnet50, THUMB_PNG_161, num_images=2048)
        assert result.throughput > 0
        assert result.stage_estimate is not None
        assert result.pipeline_stats.num_images == 2048

    def test_simulated_mode_requires_perf_model(self, resnet50):
        engine = SmolRuntimeEngine(EngineConfig(num_producers=4))
        with pytest.raises(EngineError):
            engine.run_simulated(resnet50, THUMB_PNG_161)

    def test_low_resolution_faster_than_full(self, perf_model, resnet50):
        engine = SmolRuntimeEngine(EngineConfig(num_producers=4), perf_model)
        full = engine.run_simulated(resnet50, FULL_JPEG, num_images=2048)
        thumb = engine.run_simulated(resnet50, THUMB_PNG_161, num_images=2048)
        assert thumb.throughput > full.throughput

    def test_measure_stages_returns_three_numbers(self, perf_model, resnet50):
        engine = SmolRuntimeEngine(EngineConfig(num_producers=4), perf_model)
        measured = engine.measure_stages(resnet50, THUMB_PNG_161)
        assert set(measured) == {"preprocessing", "dnn", "pipelined"}

    def test_engine_optimizations_improve_throughput(self, perf_model, resnet50):
        optimized = SmolRuntimeEngine(EngineConfig(num_producers=4), perf_model)
        lesioned = SmolRuntimeEngine(
            EngineConfig.all_disabled(num_producers=4), perf_model
        )
        fast = optimized.run_simulated(resnet50, FULL_JPEG, num_images=1024)
        slow = lesioned.run_simulated(resnet50, FULL_JPEG, num_images=1024)
        assert fast.throughput > slow.throughput * 1.5


class TestFunctionalMode:
    @pytest.fixture()
    def functional_setup(self):
        generator = SyntheticImageGenerator(num_classes=2, image_size=40, seed=11)
        images = [generator.generate_image(i % 2, i).pixels for i in range(12)]
        dag = PreprocessingDAG.from_ops([
            ResizeOp(short_side=36),
            CenterCropOp(size=32),
            ConvertDtypeOp("float32"),
            NormalizeOp(),
            ChannelReorderOp(),
        ])
        model = build_mini_resnet(10, num_classes=2, input_size=32, seed=0)
        return images, dag, model

    def test_functional_run_produces_predictions(self, functional_setup):
        images, dag, model = functional_setup
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        result = engine.run_functional_batched(images, dag, model)
        assert result.predictions is not None
        assert result.predictions.shape == (12,)
        assert (result.predictions >= 0).all()
        assert result.memory_stats is not None

    def test_functional_matches_direct_execution(self, functional_setup):
        images, dag, model = functional_setup
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        result = engine.run_functional_batched(images, dag, model)
        direct = model.predict(
            np.stack([dag.execute(image) for image in images]).astype(np.float32)
        )
        np.testing.assert_array_equal(result.predictions, direct)

    def test_buffer_reuse_happens(self, functional_setup):
        images, dag, model = functional_setup
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        # Process more images than the pool can hold in flight (queue capacity
        # + producers + one batch), so at least some buffers must be reused
        # regardless of thread scheduling.
        many_images = images * 3
        result = engine.run_functional_batched(many_images, dag, model)
        assert result.memory_stats.reuses > 0

    def test_single_threaded_configuration(self, functional_setup):
        images, dag, model = functional_setup
        engine = SmolRuntimeEngine(
            EngineConfig(num_producers=2, batch_size=4, use_threading=False)
        )
        result = engine.run_functional_batched(images, dag, model)
        assert result.predictions.shape == (12,)

    def test_empty_input_rejected(self, functional_setup):
        _, dag, model = functional_setup
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2))
        with pytest.raises(EngineError):
            engine.run_functional_batched([], dag, model)

    def test_every_image_is_decoded_exactly_once(self, functional_setup):
        images, dag, model = functional_setup
        calls: list[int] = []
        lock = threading.Lock()

        def decode(index):
            with lock:
                calls.append(index)
            return images[index]

        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        result = engine.run_functional(decode, dag, model, len(images))
        assert sorted(calls) == list(range(len(images)))
        assert result.memory_stats.allocations > 0

    @pytest.mark.parametrize("bad_index", [0, 5])
    @pytest.mark.parametrize("producers", [1, 2])
    def test_a_failing_decode_surfaces_as_engine_error(self, functional_setup,
                                                       bad_index, producers):
        images, dag, model = functional_setup

        def decode(index):
            if index == bad_index:
                raise ValueError("unreadable image")
            return images[index]

        engine = SmolRuntimeEngine(EngineConfig(num_producers=producers,
                                                batch_size=4))
        started = time.monotonic()
        with pytest.raises(EngineError, match=f"image {bad_index}: unreadable"):
            engine.run_functional(decode, dag, model, len(images))
        # The consumer is woken by the failure, not by its 30 s queue timeout.
        assert time.monotonic() - started < 10.0
