"""The functional engine's batch ring, held to the serial oracle.

Workers write chunks of preprocessed images straight into the slot the model
reads, and the first ``num_streams`` of them run the model on each slot as it
completes.  These tests pin what that must not change: predictions equal
``model.predict(np.stack([dag.execute(decode_fn(i)) ...]))`` batch for batch,
every index is decoded once, a slot is never handed over or overwritten while
a predict holds it -- in whatever order batches finish -- no more than
``min(num_streams, producers)`` predicts are ever in flight, and no thread
outlives the call, however it ends.
"""

import gc
import resource
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import EngineError
from repro.inference import engine as engine_module
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.nn import PLAN_STATS, Flatten, Linear, Sequential, build_mini_resnet
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
    """Model proxy keyed by batch, not by arrival: finds which batch it was
    handed by its first image, copies it on entry, calls ``hook(index)``
    while holding it, and checks nobody wrote to it meanwhile."""

    def __init__(self, dag, count: int, batch: int,
                 hook=lambda index: None) -> None:
        self._model = _model()
        self._hook = hook
        self.tensors = _oracle_tensors(_image, dag, count)
        self._index = {self.tensors[first].tobytes(): first // batch
                       for first in range(0, count, batch)}
        self._lock = threading.Lock()
        self.batches: dict[int, np.ndarray] = {}
        self.calls: list[int] = []
        self.overwritten = 0
        self.in_flight = self.peak_in_flight = 0

    def predict(self, inputs):
        seen = inputs.copy()
        index = self._index[seen[0].tobytes()]
        with self._lock:
            self.calls.append(index)
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            self._hook(index)
            return self._model.predict(inputs)
        finally:
            with self._lock:
                self.in_flight -= 1
                self.overwritten += not np.array_equal(seen, inputs)
                self.batches[index] = seen

    def assert_saw_the_oracle(self) -> None:
        """Each batch once, and bit for bit the oracle's tensors: a slot
        handed over early or late would hold part of another batch."""
        assert self.overwritten == 0
        assert sorted(self.calls) == list(range(len(self._index)))
        np.testing.assert_array_equal(
            np.concatenate([self.batches[i] for i in sorted(self.batches)]),
            self.tensors)


def _join_new_threads(before: set) -> None:
    for thread in set(threading.enumerate()) - before:
        thread.join(5.0)
    assert set(threading.enumerate()) == before


class TestDifferentialGrid:
    @pytest.mark.parametrize("use_threading", [True, False])
    @pytest.mark.parametrize("reuse_buffers", [True, False])
    @pytest.mark.parametrize("batch", [1, 4, 32])
    @pytest.mark.parametrize("streams", [1, 2])
    @pytest.mark.parametrize("producers", [1, 2, 4])
    def test_predictions_equal_the_serial_oracle(self, producers, streams, batch,
                                                 reuse_buffers, use_threading):
        dag, model = _dag(), _model()
        engine = SmolRuntimeEngine(EngineConfig(
            num_producers=producers, num_streams=streams, batch_size=batch,
            queue_capacity=2, reuse_buffers=reuse_buffers,
            use_threading=use_threading))
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
            assert result.memory_stats.peak_outstanding <= 2    # the depth
            assert result.memory_stats.outstanding == 0

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
    def _run(self, decode, hold_s: float, count: int = 42, producers: int = 4,
             streams: int = 2):
        dag = _dag()
        model = _RecordingModel(dag, count, 4,
                                hook=lambda index: time.sleep(hold_s))
        config = EngineConfig(num_producers=producers, num_streams=streams,
                              batch_size=4, queue_capacity=2)
        result = SmolRuntimeEngine(config).run_functional(
            decode, dag, model, count)
        model.assert_saw_the_oracle()
        np.testing.assert_array_equal(
            result.predictions, _oracle(_image, dag, _model(), count, 4))
        assert result.memory_stats.peak_outstanding <= 2
        assert model.peak_in_flight <= min(streams, producers)
        return result

    @pytest.mark.parametrize("streams", [1, 2])
    def test_slow_streams_are_never_overwritten(self, streams):
        result = self._run(_image, hold_s=0.004, streams=streams)
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

    def test_a_held_batch_keeps_its_slot_while_later_batches_finish(self):
        """Batch 0 sits in its predict while batches 1 and 2 are filled,
        predicted and freed around it; batch 3 wants batch 0's slot and is not
        let in, so no image of it is decoded until batch 0 is released."""
        dag, count, batch, depth = _dag(), 40, 4, 3
        decoded: list[int] = []
        while_held: list[int] = []
        held = threading.Event()

        def hook(index):
            if index == 0:
                held.set()
                deadline = time.monotonic() + 10.0
                while not set(model.batches) >= set(range(1, depth)):
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                time.sleep(0.05)        # time for a wrong claim to happen
                while_held.extend(decoded)

        def decode(index):
            assert index < batch or held.wait(10.0)     # batch 0 goes first
            decoded.append(index)
            return _image(index)

        model = _RecordingModel(dag, count, batch, hook=hook)
        config = EngineConfig(num_producers=2, num_streams=2, batch_size=batch)
        result = SmolRuntimeEngine(config).run_functional(
            decode, dag, model, count)
        assert sorted(while_held) == list(range(depth * batch))
        assert model.peak_in_flight == 2
        model.assert_saw_the_oracle()
        np.testing.assert_array_equal(
            result.predictions, _oracle(_image, dag, _model(), count, batch))
        assert result.memory_stats.allocations == depth
        assert result.memory_stats.peak_outstanding <= depth


class TestStreamCap:
    def test_one_stream_never_has_two_predicts_in_flight(self):
        dag, count = _dag(), 80
        model = _RecordingModel(dag, count, 4,
                                hook=lambda index: time.sleep(0.002))
        SmolRuntimeEngine(EngineConfig(
            num_producers=4, num_streams=1, batch_size=4)).run_functional(
                _image, dag, model, count)
        assert model.peak_in_flight == 1
        model.assert_saw_the_oracle()

    def test_two_streams_overlap_predicts(self):
        dag, count = _dag(), 80
        second = threading.Event()

        def hook(index):
            # The first predict waits for another to be entered beside it.
            if model.in_flight >= 2:
                second.set()
            assert second.wait(10.0)

        model = _RecordingModel(dag, count, 4, hook=hook)
        SmolRuntimeEngine(EngineConfig(
            num_producers=2, num_streams=2, batch_size=4)).run_functional(
                _image, dag, model, count)
        assert model.peak_in_flight == 2
        model.assert_saw_the_oracle()

    def test_more_streams_than_producers_is_capped_at_the_producers(self):
        dag, count = _dag(), 40
        model = _RecordingModel(dag, count, 4,
                                hook=lambda index: time.sleep(0.002))
        SmolRuntimeEngine(EngineConfig(
            num_producers=1, num_streams=4, batch_size=4)).run_functional(
                _image, dag, model, count)
        assert model.peak_in_flight == 1


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

    @pytest.mark.parametrize("streams", [1, 2])
    def test_predict_failure_on_a_worker(self, streams):
        dag, count = _dag(), 200

        def hook(index):
            if index == 2:
                raise RuntimeError("device lost")

        model = _RecordingModel(dag, count, 4, hook=hook)
        config = EngineConfig(num_producers=2, num_streams=streams,
                              batch_size=4, queue_capacity=2)
        baseline = threading.active_count()
        started = time.perf_counter()
        with pytest.raises(
                EngineError,
                match=r"batch 2 \(from image 8\): device lost") as info:
            SmolRuntimeEngine(config).run_functional(_image, dag, model, count)
        # Every worker was joined, and in milliseconds: not by a timeout.
        assert time.perf_counter() - started < 2.0
        assert isinstance(info.value.__cause__, RuntimeError)
        assert threading.active_count() == baseline
        assert len(model.calls) < count // 4        # the run stopped early

    def test_decode_failure(self):
        def decode(index):
            if index == 13:
                raise OSError("unreadable")
            return _image(index)

        baseline = threading.active_count()
        with pytest.raises(EngineError, match="image 13: unreadable") as info:
            SmolRuntimeEngine(self.CONFIG).run_functional(
                decode, _dag(), _model(), 200)
        assert isinstance(info.value.__cause__, OSError)
        assert threading.active_count() == baseline

    def test_preprocessing_failure_names_the_chunk(self):
        def decode(index):
            return np.zeros((24, 24), np.uint8) if index == 13 else _image(index)

        baseline = threading.active_count()
        with pytest.raises(EngineError, match=r"images 12\.\.13: "):
            SmolRuntimeEngine(self.CONFIG).run_functional(
                decode, _dag(), _model(), 200)
        assert threading.active_count() == baseline

    def _hang(self, monkeypatch, decode, model):
        """Run with short timeouts; the one hung worker is a loud error that
        keeps the stall which made the caller give up."""
        monkeypatch.setattr(engine_module, "_STALL_TIMEOUT_S", 0.2)
        monkeypatch.setattr(engine_module, "_JOIN_TIMEOUT_S", 0.2)
        with pytest.raises(EngineError,
                           match="1 of 2 workers still running") as info:
            SmolRuntimeEngine(self.CONFIG).run_functional(
                decode, _dag(), model, 40)
        assert ("no chunk finished, no batch predicted"
                in str(info.value.__context__))

    def test_a_hung_decode_is_a_loud_error(self, monkeypatch):
        release = threading.Event()

        def decode(index):
            if index == 2:
                release.wait(30.0)
            return _image(index)

        before = set(threading.enumerate())
        try:
            self._hang(monkeypatch, decode, _model())
        finally:
            release.set()
        _join_new_threads(before)

    def test_a_hung_predict_is_a_loud_error(self, monkeypatch):
        release = threading.Event()
        model = _RecordingModel(
            _dag(), 40, 4,
            hook=lambda index: index == 1 and release.wait(30.0))
        before = set(threading.enumerate())
        try:
            self._hang(monkeypatch, _image, model)
        finally:
            release.set()
        _join_new_threads(before)


class _MeteredModel:
    """Convolutional model proxy: the arena gauge at its highest, and each
    predict's minor page faults filed under the thread that ran it."""

    def __init__(self, fail_at: int | None = None) -> None:
        self.model = build_mini_resnet(18, num_classes=CLASSES, input_size=16,
                                       seed=1)
        self._fail_at = fail_at
        self._lock = threading.Lock()
        self.peak_bytes = 0
        self.faults: dict[int, list[int]] = {}

    def predict(self, inputs):
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        predicted = self.model.predict(inputs)
        faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
        with self._lock:
            self.peak_bytes = max(self.peak_bytes, PLAN_STATS.arena_bytes)
            calls = self.faults.setdefault(threading.get_ident(), [])
            calls.append(faults)
            if self._fail_at == sum(map(len, self.faults.values())):
                raise RuntimeError("device lost")
        return predicted


class TestArenaCensus:
    """The model's per-thread arenas: one per stream worker while the call
    runs, none once it has returned or raised."""

    BATCH = 8

    @pytest.fixture()
    def one_arena(self):
        model, box = _MeteredModel().model, []
        gc.collect()
        held = PLAN_STATS.arena_bytes
        thread = threading.Thread(target=lambda: (
            model.predict(np.zeros((self.BATCH, 3, 16, 16), np.float32)),
            box.append(PLAN_STATS.arena_bytes - held)))
        thread.start()
        thread.join(30.0)
        assert box[0] > 0 and PLAN_STATS.arena_bytes == held
        return box[0]

    @pytest.mark.parametrize("producers, streams",
                             [(2, 2), (4, 2), (2, 1), (1, 2), (3, 8)])
    def test_at_most_one_arena_per_stream_and_none_afterwards(
            self, one_arena, producers, streams):
        dag, model, count = _dag(), _MeteredModel(), 20 * self.BATCH
        held = PLAN_STATS.arena_bytes
        result = SmolRuntimeEngine(EngineConfig(
            num_producers=producers, num_streams=streams,
            batch_size=self.BATCH)).run_functional(_image, dag, model, count)
        assert PLAN_STATS.arena_bytes == held
        assert 0 < model.peak_bytes - held <= min(streams, producers) * one_arena
        assert len(model.faults) <= min(streams, producers)
        assert getattr(model.model._arenas, "arena", None) is None  # not here
        np.testing.assert_array_equal(
            result.predictions,
            _oracle(_image, dag, model.model, count, self.BATCH))

    def test_no_arena_outlives_a_call_that_raises(self, one_arena):
        def decode(index):
            if index == 61:
                raise OSError("unreadable")
            return _image(index)

        held = PLAN_STATS.arena_bytes
        config = EngineConfig(num_producers=2, batch_size=self.BATCH)
        for decode_fn, model, error in ((_image, _MeteredModel(fail_at=5),
                                         "device lost"),
                                        (decode, _MeteredModel(), "image 61")):
            with pytest.raises(EngineError, match=error):
                SmolRuntimeEngine(config).run_functional(
                    decode_fn, _dag(), model, 400)
            assert model.peak_bytes - held >= one_arena     # one did exist
            assert PLAN_STATS.arena_bytes == held

    def test_a_workers_later_batches_do_not_refault_its_arena(self):
        model = _MeteredModel()
        SmolRuntimeEngine(EngineConfig(
            num_producers=2, num_streams=2,
            batch_size=self.BATCH)).run_functional(
                _image, _dag(), model, 60 * self.BATCH)
        assert sum(map(len, model.faults.values())) == 60
        for calls in model.faults.values():
            # A worker's first batch touches its arena's pages; after it the
            # ceiling is tests/nn's for 50 predicts on a worker thread, though
            # here the thread decodes and preprocesses between its predicts.
            assert sum(calls[1:]) <= 8, calls
