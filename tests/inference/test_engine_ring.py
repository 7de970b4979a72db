"""The functional engine's batch ring, held to the serial oracle.

Producers write chunks of preprocessed images straight into the slot the
model reads.  These tests pin what that must not change: predictions equal
``model.predict(np.stack([dag.execute(decode_fn(i)) ...]))`` batch for batch,
every index is decoded once, a slot is never handed over or overwritten while
the other side holds it, and no thread outlives the call -- however it ends.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import EngineError
from repro.inference import engine as engine_module
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.nn import Flatten, Linear, Sequential
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    NormalizeOp,
    ResizeOp,
)

CLASSES = 16


def _dag(crop: bool = True) -> PreprocessingDAG:
    ops = [ResizeOp(short_side=20)]
    if crop:
        ops.append(CenterCropOp(size=16))
    return PreprocessingDAG.from_ops(
        ops + [ConvertDtypeOp("float32"), NormalizeOp(), ChannelReorderOp()])


def _model() -> Sequential:
    return Sequential([Flatten(), Linear(3 * 16 * 16, CLASSES, seed=3)],
                      input_shape=(3, 16, 16))


def _image(index: int, shape=(24, 24, 3)) -> np.ndarray:
    return np.random.default_rng(index).integers(
        0, 255, size=shape).astype(np.uint8)


def _oracle_tensors(decode_fn, dag, count: int) -> np.ndarray:
    return np.stack([dag.execute(decode_fn(i)) for i in range(count)])


def _oracle(decode_fn, dag, model, count: int, batch: int) -> np.ndarray:
    tensors = _oracle_tensors(decode_fn, dag, count)
    return np.concatenate([model.predict(tensors[lo:lo + batch])
                           for lo in range(0, count, batch)])


class _RecordingModel:
    """Model proxy: copies each batch on entry, holds it for ``hold_s`` and
    checks nobody wrote to it meanwhile."""

    def __init__(self, model, hold_s: float = 0.0) -> None:
        self._model = model
        self._hold_s = hold_s
        self.batches: list[np.ndarray] = []
        self.overwritten = 0

    def predict(self, inputs):
        seen = inputs.copy()
        time.sleep(self._hold_s)
        self.overwritten += not np.array_equal(seen, inputs)
        self.batches.append(seen)
        return self._model.predict(inputs)


class TestDifferentialGrid:
    @pytest.mark.parametrize("use_threading", [True, False])
    @pytest.mark.parametrize("reuse_buffers", [True, False])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("producers", [1, 2, 4])
    def test_predictions_equal_the_serial_oracle(self, producers, batch,
                                                 reuse_buffers, use_threading):
        dag, model = _dag(), _model()
        engine = SmolRuntimeEngine(EngineConfig(
            num_producers=producers, batch_size=batch, queue_capacity=2,
            reuse_buffers=reuse_buffers, use_threading=use_threading))
        for count in sorted({1, max(1, batch - 1), batch, batch + 1,
                             3 * batch + 5}):
            calls: list[int] = []

            def decode(index):
                calls.append(index)     # list.append is atomic
                return _image(index)

            result = engine.run_functional(decode, dag, model, count)
            expected = _oracle(_image, dag, model, count, min(batch, count))
            np.testing.assert_array_equal(result.predictions, expected)
            assert sorted(calls) == list(range(count))
            assert result.throughput > 0.0

    def test_the_oracle_tells_images_apart(self):
        # The grid would be blind if the model answered one class throughout.
        assert len(set(_oracle(_image, _dag(), _model(), 40, 8))) > 4


class TestShapes:
    def test_mixed_input_shapes_with_equal_output_shape(self):
        def decode(index):
            return _image(index, (24, 24, 3) if index % 3 else (30, 26, 3))

        dag, model = _dag(), _model()
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=8))
        result = engine.run_functional(decode, dag, model, 29)
        np.testing.assert_array_equal(result.predictions,
                                      _oracle(decode, dag, model, 29, 8))

    @pytest.mark.parametrize("run_length", [1, 8])
    def test_unequal_output_shapes_fail(self, run_length):
        # Without the crop the output keeps the input's aspect ratio.  Runs
        # of 1 disagree inside a chunk, runs of 8 between chunks.
        def decode(index):
            wide = (index // run_length) % 2
            return _image(index, (24, 36, 3) if wide else (24, 24, 3))

        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=16))
        with pytest.raises(EngineError, match=r"images \d+\.\.\d+: "):
            engine.run_functional(decode, _dag(crop=False), _model(), 32)


class TestSlotOwnership:
    def _run(self, decode, hold_s: float, count: int = 42, producers: int = 4):
        dag = _dag()
        model = _RecordingModel(_model(), hold_s)
        config = EngineConfig(num_producers=producers, batch_size=4,
                              queue_capacity=2)
        result = SmolRuntimeEngine(config).run_functional(
            decode, dag, model, count)
        assert model.overwritten == 0
        # What the model was handed is the oracle's tensors, bit for bit: a
        # slot handed over early would still hold an earlier batch.
        np.testing.assert_array_equal(np.concatenate(model.batches),
                                      _oracle_tensors(_image, dag, count))
        assert result.memory_stats.peak_outstanding <= 2
        return result

    def test_slow_consumer_is_never_overwritten(self):
        result = self._run(_image, hold_s=0.004)
        assert result.memory_stats.reuses > 0

    def test_slow_producer_never_hands_over_a_partial_batch(self):
        def decode(index):
            if index % 5 == 2:
                time.sleep(0.004)
            return _image(index)

        self._run(decode, hold_s=0.0)

    def test_more_producers_than_cores_under_a_short_switch_interval(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._run(_image, hold_s=0.0, count=403, producers=8)
        finally:
            sys.setswitchinterval(interval)


class TestMemoryStats:
    def _stats(self, **config):
        engine = SmolRuntimeEngine(EngineConfig(
            num_producers=2, batch_size=4, queue_capacity=2, **config))
        return engine.run_functional(_image, _dag(), _model(), 22).memory_stats

    def test_reuse_serves_every_batch_after_the_ring_is_built(self):
        stats = self._stats()
        assert (stats.allocations, stats.reuses) == (2, 4)
        assert stats.bytes_allocated == 2 * 4 * 3 * 16 * 16 * 4
        assert stats.outstanding == 0

    def test_reuse_disabled_allocates_a_slot_per_batch(self):
        stats = self._stats(reuse_buffers=False)
        assert (stats.allocations, stats.reuses) == (6, 0)


class TestThreadCensus:
    """After the call returns or raises, no thread it started is alive."""

    CONFIG = EngineConfig(num_producers=2, batch_size=4, queue_capacity=2)

    def test_clean_run(self):
        baseline = threading.active_count()
        SmolRuntimeEngine(self.CONFIG).run_functional(
            _image, _dag(), _model(), 50)
        assert threading.active_count() == baseline

    def test_predict_failure(self):
        class Broken:
            def predict(self, inputs):
                raise RuntimeError("device lost")

        baseline = threading.active_count()
        with pytest.raises(EngineError, match="batch 0.*device lost") as info:
            SmolRuntimeEngine(self.CONFIG).run_functional(
                _image, _dag(), Broken(), 200)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert threading.active_count() == baseline

    def test_decode_failure(self):
        def decode(index):
            if index == 13:
                raise OSError("unreadable")
            return _image(index)

        baseline = threading.active_count()
        with pytest.raises(EngineError, match="image 13: unreadable"):
            SmolRuntimeEngine(self.CONFIG).run_functional(
                decode, _dag(), _model(), 200)
        assert threading.active_count() == baseline

    def test_preprocessing_failure_names_the_chunk(self):
        def decode(index):
            return np.zeros((24, 24), np.uint8) if index == 13 else _image(index)

        baseline = threading.active_count()
        with pytest.raises(EngineError, match=r"images 12\.\.13: "):
            SmolRuntimeEngine(self.CONFIG).run_functional(
                decode, _dag(), _model(), 200)
        assert threading.active_count() == baseline

    def test_a_hung_producer_is_a_loud_error(self, monkeypatch):
        monkeypatch.setattr(engine_module, "_STALL_TIMEOUT_S", 0.2)
        monkeypatch.setattr(engine_module, "_JOIN_TIMEOUT_S", 0.2)
        release = threading.Event()

        def decode(index):
            if index == 2:
                release.wait(30.0)
            return _image(index)

        before = set(threading.enumerate())
        try:
            with pytest.raises(EngineError,
                               match="1 of 2 producers still running") as info:
                SmolRuntimeEngine(self.CONFIG).run_functional(
                    decode, _dag(), _model(), 20)
            # The stall that made the consumer give up is not lost.
            assert "no producer finished a chunk" in str(info.value.__context__)
        finally:
            release.set()
        for thread in set(threading.enumerate()) - before:
            thread.join(5.0)
        assert set(threading.enumerate()) == before
