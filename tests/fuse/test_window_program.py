"""The compiled window program: crop pushdown and per-thread scratch.

The oracle everywhere is the per-op path -- ``PreprocessingDAG.execute`` on
one image at a time, which runs ``ResizeOp.apply`` over the whole frame and
then ``CenterCropOp.apply``.  The kernel's fused ``resize+crop`` step must
give its bytes (or its exception) while reading only the crop's taps, and
a steady-state batch must neither allocate nor fault on a worker thread.
"""

import gc
import resource
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.faults import FaultHook
from repro.errors import PreprocessingError
from repro.fuse import FUSE_STATS, compile_dag
from repro.fuse import kernel as kernel_module
from repro.obs import Observability
from repro.preprocessing import ops as ops_module
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    ResizeOp,
    bilinear_resize,
)
from repro.serving.session import serving_pipeline_ops


def _dag(ops) -> PreprocessingDAG:
    return PreprocessingDAG.from_ops(list(ops))


def _images(count, shape, dtype="uint8", seed=0):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.integer):
        return [rng.integers(0, 256, size=shape).astype(dtype)
                for _ in range(count)]
    return [rng.uniform(-300.0, 300.0, size=shape).astype(dtype)
            for _ in range(count)]


def _outcome(run):
    """``run()``'s bytes/shape/dtype per image, or its exception's text."""
    try:
        return [(a.shape, a.dtype, a.tobytes()) for a in run()]
    except (PreprocessingError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


def assert_matches_oracle(ops, batch):
    dag = _dag(ops)
    want = _outcome(lambda: [dag.execute(image) for image in batch])
    kernel = compile_dag(dag)
    assert _outcome(lambda: kernel.execute_many(batch)) == want
    if isinstance(want, list) and len({w[:2] for w in want}) == 1:
        stacked = kernel.execute_stacked(batch)
        assert [(a.shape, a.dtype, a.tobytes()) for a in stacked] == want
    return want


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
# Differential: the fused program against the per-op oracle
# ---------------------------------------------------------------------------
@st.composite
def window_case(draw):
    height, width = draw(st.integers(1, 160)), draw(st.integers(1, 160))
    short_side = draw(st.integers(1, 64))
    crop = draw(st.integers(1, 72))         # sometimes larger than the resize
    dtype = draw(st.sampled_from(
        ["uint8", "int16", "float32", "float64"]))
    channels = draw(st.sampled_from([1, 3, 4]))
    lead = draw(st.sampled_from([(), (), (2,), (2, 1)]))
    tail = draw(st.sampled_from(["none", "tail", "fused-op", "plain"]))
    ops = [ResizeOp(short_side=short_side), CenterCropOp(size=crop)]
    mean, std = (0.4, 0.5, 0.3, 0.6)[:channels], (0.2, 0.3, 0.25, 0.5)[:channels]
    if tail == "tail":
        ops += [ConvertDtypeOp("float32"), NormalizeOp(mean=mean, std=std),
                ChannelReorderOp()]
    elif tail == "fused-op":
        ops += [FusedNormalizeReorderOp(mean=mean, std=std)]
    elif tail == "plain":
        ops += [ConvertDtypeOp("float16"), NormalizeOp(mean=mean, std=std)]
    batch = _images(draw(st.integers(1, 9)), (*lead, height, width, channels),
                    dtype, seed=draw(st.integers(0, 1000)))
    return ops, batch


class TestFusedProgramMatchesTheOracle:
    @given(case=window_case())
    @settings(max_examples=150, deadline=None)
    def test_bytes_or_exception_equal(self, case):
        assert_matches_oracle(*case)

    def test_crop_larger_than_the_resized_image_is_the_crops_own_error(self):
        ops = [ResizeOp(short_side=20), CenterCropOp(size=32)]
        batch = _images(3, (50, 120, 3))
        want = assert_matches_oracle(ops, batch)
        assert want == (PreprocessingError, "cannot crop 32x32 from 20x48")
        with pytest.raises(PreprocessingError,
                           match="cannot crop 32x32 from 20x48"):
            compile_dag(_dag(ops)).execute_stacked(batch)

    def test_a_resize_that_is_a_copy_still_takes_the_window(self):
        ops = [ResizeOp(short_side=40), CenterCropOp(size=16)]
        batch = _images(4, (40, 56, 3))
        want = assert_matches_oracle(ops, batch)
        for image, (_, _, got) in zip(batch, want):
            assert got == image[12:28, 20:36].tobytes()

    @pytest.mark.parametrize("dtype", ["float32", "float64", "int16"])
    @pytest.mark.parametrize("shape", [(57, 40, 1), (40, 64, 4),
                                       (2, 3, 33, 47, 3)])
    def test_dtypes_channels_and_leading_axes(self, dtype, shape):
        batch = _images(5, shape, dtype)
        for ops in ([ResizeOp(24), CenterCropOp(16)],
                    [ResizeOp(24), CenterCropOp(16), ConvertDtypeOp("float32"),
                     NormalizeOp(mean=(0.5,) * shape[-1],
                                 std=(0.25,) * shape[-1]),
                     ChannelReorderOp()]):
            want = assert_matches_oracle(ops, batch)
            assert isinstance(want, list)

    def test_int16_takes_the_integer_rounding_and_clip(self):
        batch = [np.full((30, 30, 3), value, dtype=np.int16)
                 for value in (-500, 7, 1000)]
        want = assert_matches_oracle([ResizeOp(20), CenterCropOp(8)], batch)
        values = [np.frombuffer(got, dtype=np.int16)[0] for _, _, got in want]
        assert values == [0, 7, 255]

    @pytest.mark.parametrize("shape", [(20, 24), (24,), ()])
    def test_payloads_below_rank_three_get_the_oracles_exception(self, shape):
        batch = [np.zeros(shape, dtype=np.uint8) for _ in range(3)]
        want = assert_matches_oracle(serving_pipeline_ops(16, 12), batch)
        assert want[0] is PreprocessingError

    def test_wrong_channel_count_is_normalizes_own_error(self):
        want = assert_matches_oracle(serving_pipeline_ops(16, 12),
                                     _images(2, (30, 30, 4)))
        assert want[0] is PreprocessingError
        assert "normalize expects HWC with 3 channels" in want[1]

    def test_heterogeneous_batches_group_by_shape_and_dtype(self):
        batch = (_images(2, (40, 36, 3)) + _images(1, (36, 40, 3), seed=1)
                 + _images(2, (40, 36, 3), "float32", seed=2)
                 + _images(1, (40, 36, 3), seed=3))
        batch = [batch[i] for i in (0, 2, 3, 1, 4, 5)]
        kernel = compile_dag(_dag(serving_pipeline_ops(24, 16)))
        compiles = FUSE_STATS.compiles
        assert_matches_oracle(serving_pipeline_ops(24, 16), batch)
        dag = _dag(serving_pipeline_ops(24, 16))
        stacked = kernel.execute_stacked(batch)
        assert stacked.tobytes() == np.stack(
            [dag.execute(image) for image in batch]).tobytes()
        # Three (shape, dtype) groups, on each of the two kernels.
        assert kernel.program_compiles == 3
        assert FUSE_STATS.compiles == compiles + 6

    def test_the_chaos_seam_fires_once_per_executed_batch(self):
        class Counting(FaultHook):
            __slots__ = ("hits",)

            def __init__(self):
                self.hits = []

            def hit(self, site, **ctx):
                self.hits.append((site, ctx["batch"]))

        faults = Counting()
        kernel = compile_dag(_dag(serving_pipeline_ops(24, 16)))
        mixed = _images(3, (40, 36, 3)) + _images(2, (36, 40, 3))
        kernel.execute_stacked(mixed[:3], faults=faults)
        kernel.execute_stacked(mixed, faults=faults)
        kernel.execute_many(mixed, faults=faults)
        assert faults.hits == [("fuse.execute", 3), ("fuse.execute", 5),
                               ("fuse.execute", 5)]

    def test_the_result_is_never_scratch(self):
        for ops in (serving_pipeline_ops(24, 16),
                    [ResizeOp(24), CenterCropOp(16)]):
            kernel = compile_dag(_dag(ops))
            first = kernel.execute_stacked(_images(4, (40, 36, 3), seed=1))
            kept = first.copy()
            kernel.execute_stacked(_images(4, (40, 36, 3), seed=2))
            assert np.array_equal(first, kept)

    def test_only_exact_library_classes_are_fused(self):
        class Renamed(CenterCropOp):
            pass

        assert compile_dag(_dag([ResizeOp(24), Renamed(16)])).describe() \
            == "[resize crop]"
        assert compile_dag(_dag(
            [ResizeOp(24), CenterCropOp(16), ConvertDtypeOp("float16"),
             NormalizeOp(), ChannelReorderOp()])).describe() \
            == "[resize+crop convert normalize reorder]"
        assert compile_dag(_dag(
            [ConvertDtypeOp("float32"), FusedNormalizeReorderOp()]
        )).describe() == "[convert+fused-normalize-reorder]"
        assert compile_dag(_dag(
            [NormalizeOp(), ResizeOp(24), CenterCropOp(16)])).describe() \
            == "[normalize resize crop]"


# ---------------------------------------------------------------------------
# One arithmetic, cached tables
# ---------------------------------------------------------------------------
class TestOneBody:
    def test_the_window_is_a_slice_of_the_full_resize(self):
        for dtype in ("uint8", "float32", "float64"):
            image = _images(1, (2, 61, 83, 3), dtype)[0]
            full = bilinear_resize(image, 37, 50)
            window = bilinear_resize(image, 37, 50, window=(5, 9, 20, 31))
            assert window.tobytes() == np.ascontiguousarray(
                full[..., 5:25, 9:40, :]).tobytes()

    def test_out_and_scratch_change_nothing(self):
        image = _images(1, (61, 83, 3))[0]
        taken = []

        def scratch(shape, dtype):
            taken.append(np.full(shape, 7, dtype=dtype))
            return taken[-1]

        out = np.empty((20, 31, 3), dtype=np.uint8)
        got = bilinear_resize(image, 37, 50, window=(5, 9, 20, 31), out=out,
                              empty=scratch)
        assert got is out and len(taken) == 2
        assert out.tobytes() == bilinear_resize(
            image, 37, 50, window=(5, 9, 20, 31)).tobytes()

    def test_tap_tables_are_computed_once_and_read_only(self):
        ops_module._bilinear_taps.cache_clear()
        ops_module._window_taps.cache_clear()
        image = _images(1, (61, 83, 3))[0]
        for _ in range(3):
            bilinear_resize(image, 37, 50)
        assert ops_module._bilinear_taps.cache_info().misses == 2
        assert ops_module._window_taps.cache_info().misses == 1
        assert ops_module._window_taps.cache_info().hits == 2
        for table in (*ops_module._bilinear_taps(61, 37),
                      *ops_module._window_taps(61, 83, 37, 50,
                                               (0, 0, 37, 50), 3)):
            with pytest.raises(ValueError):
                table[...] = 0

    def test_resize_apply_and_output_spec_share_the_size_rule(self):
        resize = ResizeOp(short_side=24)
        for height, width in ((57, 40), (40, 64), (1, 300), (300, 1)):
            size = resize.target_size(height, width)
            assert resize.apply(
                np.zeros((height, width, 3), np.uint8)).shape[:2] == size
            spec = resize.output_spec(ops_module.TensorSpec(height, width, 3))
            assert (spec.height, spec.width) == size


# ---------------------------------------------------------------------------
# No discarded work
# ---------------------------------------------------------------------------
@pytest.fixture()
def traffic(monkeypatch):
    """Elements ``np.take`` gathers and ``np.copyto`` widens to float64."""
    seen = {"gathered": 0, "widened": 0, "largest_float64": 0}
    real_take, real_copyto = np.take, np.copyto

    def take(array, indices, *args, **kwargs):
        result = real_take(array, indices, *args, **kwargs)
        seen["gathered"] += result.size
        return result

    def copyto(dst, src, *args, **kwargs):
        if dst.dtype == np.float64:
            seen["widened"] += dst.size
            seen["largest_float64"] = max(seen["largest_float64"], dst.size)
        return real_copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "take", take)
    monkeypatch.setattr(np, "copyto", copyto)
    return seen


@pytest.mark.parametrize("side", [64, 128, 256])
def test_only_the_crops_taps_are_gathered_and_converted(traffic, side):
    crop, channels, count = 32, 3, 5
    kernel = compile_dag(_dag(serving_pipeline_ops(48, crop)))
    batch = _images(count, (side, side, channels))
    kernel.execute_stacked(batch)           # compile (a dry run on 1 image)
    traffic.update(dict.fromkeys(traffic, 0))
    kernel.execute_stacked(batch)
    per_image = 4 * crop * crop * channels
    assert traffic["gathered"] == count * per_image
    assert traffic["widened"] == count * per_image
    # The frame itself (side * side * channels elements per image) is never
    # widened: the largest float64 array is the gathered corners.
    assert traffic["largest_float64"] == count * per_image


# ---------------------------------------------------------------------------
# Per-thread scratch
# ---------------------------------------------------------------------------
class TestScratch:
    def test_batch_sizes_3_8_5_40_on_one_scratch(self):
        dag = _dag(serving_pipeline_ops(24, 16))
        kernel = compile_dag(dag)

        def run():
            sizes, compiles = [], []
            for count in (3, 8, 5, 8, 40, 3):
                batch = _images(count, (40, 36, 3), seed=count)
                start = kernel.program_compiles
                got = kernel.execute_stacked(batch)
                assert got.tobytes() == np.stack(
                    [dag.execute(image) for image in batch]).tobytes()
                scratch = kernel._scratch.scratch
                sizes.append(scratch._held[0])
                compiles.append(kernel.program_compiles - start)
            return sizes, compiles, scratch

        sizes, compiles, scratch = on_a_thread(run)
        three, eight, five, eight2, forty, three2 = sizes
        # Growing reallocates; a smaller batch is leading slices of the
        # same regions; one program serves every batch size of a shape.
        assert three < eight == five == eight2 < forty == three2
        assert compiles == [1, 0, 0, 0, 0, 0]

    def test_a_wide_batch_walks_in_slices(self, monkeypatch):
        dag = _dag(serving_pipeline_ops(24, 16))
        kernel = compile_dag(dag)
        batch = _images(37, (40, 36, 3))
        want = np.stack([dag.execute(image) for image in batch]).tobytes()

        def run():
            kernel.execute_stacked(batch[:1])
            per_image = kernel._scratch.scratch._held[0]
            # Room for five images a slice: 37 images take eight slices.
            monkeypatch.setattr(kernel_module, "_SLICE_BYTES", 5 * per_image)
            kernel._programs.clear()
            got = kernel.execute_stacked(batch)
            return per_image, kernel._scratch.scratch._held[0], got.tobytes()

        per_image, held, got = on_a_thread(run)
        assert got == want
        assert held == 5 * per_image

    def test_threads_on_one_kernel_own_their_scratch(self):
        """More threads than cores, switching every 10 us: each matches the
        oracle in its own scratch, and the shared counters lose no update."""
        dag = _dag(serving_pipeline_ops(24, 16))
        kernel = compile_dag(dag)
        inputs = {name: _images(count, (40, 36, 3), seed=count)
                  for name, count in (("a", 5), ("b", 8), ("c", 2), ("d", 7))}
        expected = {name: np.stack([dag.execute(i) for i in batch]).tobytes()
                    for name, batch in inputs.items()}
        gc.collect()
        held = FUSE_STATS.arena_bytes
        barrier = threading.Barrier(len(inputs))
        seen, wrong, during = {}, [], []

        def worker(name):
            barrier.wait(timeout=30)
            for _ in range(30):
                if kernel.execute_stacked(inputs[name]).tobytes() \
                        != expected[name]:
                    wrong.append(name)
            seen[name] = kernel._scratch.scratch
            barrier.wait(timeout=30)
            if name == "a":
                during.append(FUSE_STATS.arena_bytes)
            barrier.wait(timeout=30)

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
        assert len({id(scratch) for scratch in seen.values()}) == len(inputs)
        assert getattr(kernel._scratch, "scratch", None) is None  # not ours
        assert kernel.program_compiles == 1
        assert during == [held + sum(s._held[0] for s in seen.values())]
        seen.clear()
        gc.collect()
        assert FUSE_STATS.arena_bytes == held

    def test_a_thread_takes_its_scratch_with_it(self):
        kernel = compile_dag(_dag(serving_pipeline_ops(24, 16)))
        gc.collect()
        held = FUSE_STATS.arena_bytes
        during = on_a_thread(lambda: (
            kernel.execute_stacked(_images(8, (40, 36, 3))),
            FUSE_STATS.arena_bytes)[1])
        assert during > held
        gc.collect()
        assert FUSE_STATS.arena_bytes == held


def steady_state(kernel, batch):
    """(minor faults over 50 batches, traced bytes still held after 200 more
    batches than after 10, tracemalloc peak over the start), on the calling
    thread once its scratch exists."""
    for _ in range(5):
        kernel.execute_stacked(batch)
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(50):
        kernel.execute_stacked(batch)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in range(10):
            kernel.execute_stacked(batch)
        after_ten, _ = tracemalloc.get_traced_memory()
        for _ in range(200):
            kernel.execute_stacked(batch)
        after_all, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return faults, after_all - after_ten, peak - start


def test_a_steady_state_batch_neither_allocates_nor_faults_off_main():
    """On a non-main thread: the main thread's heap hides re-faults (glibc
    trims only the other arenas), and worker threads are where serving and
    the engine's producers run the kernel."""
    kernel = compile_dag(_dag(serving_pipeline_ops(48, 32)))
    batch = _images(8, (128, 128, 3))
    result_bytes = 8 * 3 * 32 * 32 * 4
    frames_float64 = 8 * 128 * 128 * 3 * 8      # what the per-op resize made
    faults, kept, peak = on_a_thread(steady_state, kernel, batch)
    # Nothing array-sized accumulates from batch to batch: the smallest
    # array a batch makes is 24 KB.  (tracemalloc does see ~100 B a batch,
    # free-list objects under ``np.moveaxis`` being re-traced -- 300 000
    # calls of it grow the process by nothing.)
    assert abs(kept) / 200 < 256, kept
    # ... the only batch-sized allocation is the result (numpy's 32 KiB
    # iterator buffers come and go beside it) ...
    assert peak < 3 * result_bytes < frames_float64 // 8, peak
    # ... and no page is faulted in again.
    assert faults <= 8, faults


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------
def test_a_traced_kernel_publishes_its_counters_and_names_fused_steps():
    obs = Observability()
    kernel = compile_dag(_dag(serving_pipeline_ops(24, 16)))
    batch = _images(4, (40, 36, 3))
    kernel.execute_stacked(batch, obs=obs)
    snapshot = obs.metrics.snapshot()
    assert snapshot["fuse_program_compiles_total"] == FUSE_STATS.compiles >= 1
    assert snapshot["fuse_scratch_bytes"] == FUSE_STATS.arena_bytes \
        >= kernel._scratch.scratch._held[0] > 0
    kernel.execute_stacked(batch, obs=obs)
    assert obs.metrics.snapshot()["fuse_program_compiles_total"] \
        == FUSE_STATS.compiles
    segments = [span for span in obs.tracer.spans()
                if span.name == "fuse.segment"]
    assert [s.attrs["ops"] for s in segments] \
        == ["resize+crop convert+normalize+reorder"] * 2
    assert all(s.attrs["batched"] and s.attrs["images"] == 4
               for s in segments)
