"""What the inference plan holds on to, and what it must not.

The arithmetic is pinned by ``test_plan_equivalence.py``.  Here: steps read
parameters live (training, ``load_state_dict`` and in-place edits show in the
next predict), one arena per thread serves every batch size up to its
capacity, a steady-state predict allocates and page-faults next to nothing,
a convolution is one ``np.matmul``, and the BLAS under it is held to the
calling thread.
"""

import copy
import ctypes
import gc
import logging
import pickle
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import plan_oracle
from repro.nn import blas, plan
from repro.nn.layers import Conv2d, Linear
from repro.nn.model import Sequential, build_mini_resnet
from repro.nn.plan import PLAN_STATS
from repro.nn.train import Trainer, TrainingConfig
from repro.obs import Observability
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.request import InferenceRequest
from repro.serving.session import FunctionalSession, serving_pipeline_ops


def allocating_forward(model: Sequential, inputs: np.ndarray) -> np.ndarray:
    return plan_oracle.allocating_forward(model.layers, inputs)


def batch_of(count: int, size: int = 16, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 3, size, size)).astype(np.float32)


def on_a_thread(function, *args):
    """Run ``function`` on a fresh non-main thread and return its result."""
    box = {}

    def target():
        try:
            box["value"] = function(*args)
        except BaseException as exc:     # re-raised on the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if "error" in box:
        raise box["error"]
    return box["value"]


# ---------------------------------------------------------------------------
# Liveness: a step never keeps a copy of a parameter or a statistic
# ---------------------------------------------------------------------------
class TestLiveParameters:
    def test_a_training_step_shows_in_the_next_predict(self):
        model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
        inputs = batch_of(6)
        before = model.forward(inputs)
        assert np.array_equal(before, allocating_forward(model, inputs))
        norms = [layer for layer in model.layers
                 if hasattr(layer, "running_mean")]
        stats = [layer.running_mean for layer in norms]
        Trainer(model, TrainingConfig(epochs=1, batch_size=8)).fit(
            batch_of(8, seed=1), np.arange(8) % 3)
        # BatchNorm rebinds its statistics: a captured array would be stale.
        assert all(layer.running_mean is not old
                   for layer, old in zip(norms, stats))
        after = model.forward(inputs)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, allocating_forward(model, inputs))

    def test_load_state_dict_shows_in_the_next_predict(self):
        model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
        donor = build_mini_resnet(18, num_classes=3, input_size=16, seed=9)
        inputs = batch_of(4)
        before = model.forward(inputs)
        model.load_state_dict(donor.state_dict())
        after = model.forward(inputs)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, donor.forward(inputs))
        assert np.array_equal(after, allocating_forward(model, inputs))

    def test_an_in_place_bias_edit_shows_in_the_next_predict(self):
        """``bench``'s oracle centres the head's bias after a forward."""
        model = build_mini_resnet(8, num_classes=3, input_size=16, seed=1)
        inputs = batch_of(4)
        before = model.forward(inputs)
        shift = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        model.layers[-1].bias -= shift
        assert np.array_equal(model.forward(inputs), before - shift)
        model.layers[0].bias += 1.0
        assert np.array_equal(model.forward(inputs),
                              allocating_forward(model, inputs))

    def test_a_changed_layer_list_is_another_plan(self):
        model = build_mini_resnet(8, num_classes=3, input_size=16, seed=1)
        inputs = batch_of(4)
        model.forward(inputs)
        model.layers[-1] = Linear(16, 5, seed=2)
        logits = model.forward(inputs)
        assert logits.shape == (4, 5)
        assert np.array_equal(logits, allocating_forward(model, inputs))


# ---------------------------------------------------------------------------
# One arena per (model, thread)
# ---------------------------------------------------------------------------
class TestArena:
    def test_batch_sizes_3_8_5_40_on_one_thread(self):
        model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
        arenas, compiles = [], []
        for count in (3, 8, 5, 8, 5, 40, 3):
            inputs = batch_of(count, seed=count)
            start = PLAN_STATS.compiles
            assert np.array_equal(model.forward(inputs),
                                  allocating_forward(model, inputs))
            arenas.append(model._arenas.arena)
            compiles.append(PLAN_STATS.compiles - start)
        three, eight, five, eight2, five2, forty, three2 = arenas
        # Growing rebuilds; a smaller batch is leading slices of the same
        # storage, compiled once per size.
        assert three is not eight and eight is five is eight2 is five2
        assert five2 is not forty and forty is three2
        assert compiles == [1, 1, 1, 0, 0, 1, 1]
        assert forty.nbytes > eight.nbytes > three.nbytes

    def test_the_output_is_not_a_view_of_the_arena(self):
        model = build_mini_resnet(8, num_classes=3, input_size=16, seed=1)
        first = model.forward(batch_of(4, seed=1))
        kept = first.copy()
        model.forward(batch_of(4, seed=2))
        assert np.array_equal(first, kept)

    def test_threads_on_one_model_own_their_arenas(self):
        """More threads than cores, switching every 10 us: each matches the
        oracle on its own arena, and the shared counters lose no update."""
        model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
        inputs = {name: batch_of(count, seed=count)
                  for name, count in (("a", 5), ("b", 8), ("c", 2), ("d", 7))}
        expected = {name: allocating_forward(model, x)
                    for name, x in inputs.items()}
        gc.collect()
        compiles, held = PLAN_STATS.compiles, PLAN_STATS.arena_bytes
        barrier = threading.Barrier(len(inputs))
        seen, wrong = {}, []

        def worker(name):
            barrier.wait(timeout=30)
            for _ in range(30):
                if not np.array_equal(model.forward(inputs[name]),
                                      expected[name]):
                    wrong.append(name)
            seen[name] = model._arenas.arena

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in inputs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len({id(arena) for arena in seen.values()}) == len(inputs)
        assert getattr(model._arenas, "arena", None) is None   # not this thread
        assert PLAN_STATS.compiles == compiles + len(inputs)
        assert PLAN_STATS.arena_bytes == held + sum(
            arena.nbytes for arena in seen.values())
        seen.clear()
        gc.collect()
        assert PLAN_STATS.arena_bytes == held

    def test_a_thread_takes_its_arena_with_it(self):
        model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
        gc.collect()
        held = PLAN_STATS.arena_bytes
        during = on_a_thread(
            lambda: (model.forward(batch_of(8)), PLAN_STATS.arena_bytes)[1])
        assert during > held
        gc.collect()
        assert PLAN_STATS.arena_bytes == held

    def test_copies_of_a_model_build_their_own_arenas(self):
        model = build_mini_resnet(8, num_classes=3, input_size=16, seed=1)
        inputs = batch_of(4)
        expected = model.forward(inputs)
        for clone in (copy.deepcopy(model),
                      pickle.loads(pickle.dumps(model))):
            assert np.array_equal(clone.forward(inputs), expected)
            assert clone._arenas.arena is not model._arenas.arena


# ---------------------------------------------------------------------------
# Steady state: nothing batch-sized is allocated, no page is re-faulted
# ---------------------------------------------------------------------------
def steady_state(model: Sequential, inputs: np.ndarray):
    """(minor faults, tracemalloc peak over the start) of 50 predicts each,
    taken on the calling thread after the arena and the BLAS buffers exist."""
    for _ in range(5):
        model.predict(inputs)
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(50):
        model.predict(inputs)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(50):
            model.predict(inputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return faults, peak - start


def test_steady_state_predict_neither_allocates_nor_faults_off_main():
    """On a non-main thread: the main thread's heap hides re-faults (glibc
    trims only the other arenas), which is where serving and the engine's
    consumer may run."""
    model = build_mini_resnet(18, num_classes=8, input_size=32, seed=1)
    inputs = batch_of(8, size=32)
    activation_map = 8 * 16 * 32 * 32 * 4       # the first convolution's output
    faults, peak = on_a_thread(steady_state, model, inputs)
    # What is left is numpy's own: a 32 KiB iterator buffer per strided or
    # broadcast ufunc operand, whatever the batch.
    assert peak < activation_map // 2, peak
    # Before the arena this read about 30 000: 600 re-faulted pages a call.
    assert faults <= 8, faults


# ---------------------------------------------------------------------------
# A convolution is one GEMM
# ---------------------------------------------------------------------------
@pytest.fixture()
def counters(monkeypatch):
    counts = {"matmul": 0, "pad": 0, "einsum": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    return counts


def test_a_convolution_is_one_matmul_and_no_pad_or_einsum(counters):
    model = build_mini_resnet(18, num_classes=3, input_size=16, seed=1)
    gemms = sum(isinstance(layer, (Conv2d, Linear)) for layer in model.layers)
    for count in (1, 8):
        inputs = batch_of(count)
        model.forward(inputs)           # compile
        for run in (model.forward, lambda x: allocating_forward(model, x)):
            counters.update(dict.fromkeys(counters, 0))
            run(inputs)
            assert counters == {"matmul": gemms, "pad": 0, "einsum": 0}


def test_a_wide_batch_is_chunked_by_bytes_not_by_example(counters):
    model = build_mini_resnet(18, num_classes=3, input_size=32, seed=1)
    inputs = batch_of(32, size=32)
    model.forward(inputs)
    counters["matmul"] = 0
    model.forward(inputs)
    expected, shape = 1, model.input_shape          # 1: the linear head
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            columns = 4 * int(np.prod(layer.scratch_shape(shape)))
            per_chunk = max(1, plan._COLS_BYTES // columns)
            expected += -(-32 // per_chunk)
        shape = layer.output_shape(shape)
    assert counters["matmul"] == expected < 32


# ---------------------------------------------------------------------------
# A GEMM never fans out
# ---------------------------------------------------------------------------
def library_thread_counts() -> list[int]:
    """What every OpenBLAS mapped into this process says it will use."""
    counts = []
    for path in blas._loaded_blas_paths():
        library = ctypes.CDLL(path)
        for form in blas._SYMBOL_FORMS:
            getter = getattr(library,
                             form.format("openblas_get_num_threads"), None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def test_the_blas_is_pinned_to_the_calling_thread():
    build_mini_resnet(8, num_classes=3, input_size=16).forward(batch_of(2))
    counts = library_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS entry point in this process")
    assert counts == [1] * len(counts)
    assert blas.gemm_threads() == 1


def test_an_unknown_blas_runs_unpinned_and_says_so_once(monkeypatch, caplog):
    monkeypatch.setattr(blas, "_threads", None)
    monkeypatch.setattr(blas, "_loaded_blas_paths", lambda: [])
    model = build_mini_resnet(8, num_classes=3, input_size=16, seed=1)
    inputs = batch_of(2)
    with caplog.at_level(logging.WARNING, logger=blas.__name__):
        logits = model.forward(inputs)
        model.forward(inputs)
        assert blas.gemm_threads() == 0
    assert np.array_equal(logits, allocating_forward(model, inputs))
    assert len([r for r in caplog.records if r.name == blas.__name__]) == 1


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def test_a_traced_session_publishes_the_plan_metrics():
    obs = Observability()
    model = build_mini_resnet(18, num_classes=3, input_size=32, seed=1)
    session = FunctionalSession(
        "plan", PreprocessingDAG.from_ops(serving_pipeline_ops()), model,
        obs=obs)
    rng = np.random.default_rng(0)
    requests = [InferenceRequest(image_id=f"img-{i}", payload=rng.integers(
        0, 256, size=(50, 60, 3)).astype(np.uint8)) for i in range(4)]
    session.execute(requests)
    snapshot = obs.metrics.snapshot()
    assert snapshot["nn_plan_compiles_total"] == PLAN_STATS.compiles >= 1
    assert snapshot["nn_arena_bytes"] == PLAN_STATS.arena_bytes \
        >= model._arenas.arena.nbytes
    assert snapshot["nn_gemm_threads"] == blas.gemm_threads()
    session.execute(requests)
    assert obs.metrics.snapshot()["nn_plan_compiles_total"] \
        == PLAN_STATS.compiles
