"""Failure-injection tests for the runtime engine.

The engine must fail loudly (not hang or silently drop images) when a decode
or preprocessing step raises, and must reject malformed configurations.
"""

import numpy as np
import pytest

from repro.errors import EngineError, InvalidDAGError
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    NormalizeOp,
    ResizeOp,
)


def _pipeline() -> PreprocessingDAG:
    return PreprocessingDAG.from_ops([
        ResizeOp(short_side=36),
        CenterCropOp(size=32),
        ConvertDtypeOp("float32"),
        NormalizeOp(),
        ChannelReorderOp(),
    ])


def _model():
    return build_mini_resnet(10, num_classes=2, input_size=32, seed=0)


def _good_image(index: int) -> np.ndarray:
    rng = np.random.default_rng(index)
    return rng.integers(0, 255, size=(48, 48, 3)).astype(np.uint8)


class TestFailureInjection:
    def test_decode_failure_surfaces_as_engine_error(self):
        def flaky_decode(index: int) -> np.ndarray:
            if index == 5:
                raise OSError("simulated corrupt file")
            return _good_image(index)

        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        with pytest.raises(EngineError, match="image 5"):
            engine.run_functional(flaky_decode, _pipeline(), _model(),
                                  num_images=8)

    def test_preprocessing_failure_surfaces_as_engine_error(self):
        def tiny_image_decode(index: int) -> np.ndarray:
            if index == 2:
                # Wrong rank for the HWC pipeline: the resize op raises.
                return np.zeros((48, 48), dtype=np.uint8)
            return _good_image(index)

        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))
        with pytest.raises(EngineError):
            engine.run_functional(tiny_image_decode, _pipeline(), _model(),
                                  num_images=6)

    def test_zero_images_rejected(self):
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2))
        with pytest.raises(EngineError):
            engine.run_functional(_good_image, _pipeline(), _model(),
                                  num_images=0)

    def test_invalid_pipeline_rejected_before_threads_start(self):
        # An empty chain cannot be built, so it never reaches an engine.
        with pytest.raises(InvalidDAGError):
            PreprocessingDAG.from_ops([])

    def test_successful_run_after_failure_recovery(self):
        # The engine holds no global state: a failed run does not poison a
        # subsequent good run with the same configuration.
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=4,
                                                queue_capacity=2))

        def flaky_decode(index: int) -> np.ndarray:
            if index >= 1:
                raise OSError("boom")
            return _good_image(index)

        with pytest.raises(EngineError):
            engine.run_functional(flaky_decode, _pipeline(), _model(),
                                  num_images=4)
        result = engine.run_functional(_good_image, _pipeline(), _model(),
                                       num_images=8)
        assert result.predictions.shape == (8,)
