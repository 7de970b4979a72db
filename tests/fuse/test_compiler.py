"""Tests for DAG compilation, plan fingerprints, and the kernel cache."""

import numpy as np
import pytest

from repro.errors import InvalidDAGError, PreprocessingError
from repro.fuse.compiler import (
    DEFAULT_KERNEL_CACHE,
    KernelCache,
    compile_dag,
    dag_fingerprint,
    get_kernel,
)
from repro.fuse.kernel import FusedKernel
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ConvertDtypeOp,
    NormalizeOp,
    PreprocessingOp,
    ResizeOp,
    standard_pipeline_ops,
)
from repro.serving.session import serving_pipeline_ops


class UnloweredCrop(CenterCropOp):
    """A crop subclass that rewrites ``apply`` with HWC-only code.

    It does not re-declare ``batched``, so it must not inherit its
    parent's declaration: the kernel has to loop it per image.
    """

    def apply(self, array):
        height, width, _ = array.shape  # a batch would not unpack
        top = (height - self.size) // 2
        left = (width - self.size) // 2
        return array[top:top + self.size, left:left + self.size].copy()


class Scale(PreprocessingOp):
    """A parameterised op that is *not* a dataclass: its repr hides the
    parameter, its ``vars`` do not."""

    name = "scale"

    def __init__(self, factor):
        self.factor = factor

    def apply(self, array):
        return array.astype(np.float32) * np.float32(self.factor)


def _dag(ops) -> PreprocessingDAG:
    return PreprocessingDAG.from_ops(list(ops))


class TestFingerprint:
    def test_same_op_sequence_same_fingerprint(self):
        ops = serving_pipeline_ops(input_size=24, crop_size=16)
        assert dag_fingerprint(_dag(ops)) == dag_fingerprint(_dag(ops))

    @pytest.mark.parametrize("build, digest", [
        (lambda: _dag(serving_pipeline_ops(48, 32)), "cced0ad2e817a100"),
        (lambda: _dag(standard_pipeline_ops()), "331b7e946796c591"),
        (lambda: PreprocessingDAG.from_ops(standard_pipeline_ops(),
                                           device="accelerator"),
         "f0cc14a169bd0ebd"),
        # decode, resize, crop on the CPU; convert, normalize, reorder on
        # the accelerator.
        (lambda: PreprocessingDAG.from_ops(
            standard_pipeline_ops(), ["cpu"] * 3 + ["accelerator"] * 3),
         "5adce4d150d91cc8"),
    ], ids=["serving", "standard", "accelerator", "mixed-placement"])
    def test_digest_of_an_unchanged_dag_is_stable(self, build, digest):
        # Store manifests persist these digests: they must survive refactors.
        assert dag_fingerprint(build()) == digest

    def test_parameter_change_misses(self):
        base = dag_fingerprint(_dag([ResizeOp(short_side=24),
                                     CenterCropOp(size=16)]))
        assert base != dag_fingerprint(_dag([ResizeOp(short_side=24),
                                             CenterCropOp(size=17)]))
        assert base != dag_fingerprint(_dag([ResizeOp(short_side=25),
                                             CenterCropOp(size=16)]))

    def test_device_placement_is_covered(self):
        ops = [ResizeOp(short_side=24), CenterCropOp(size=16)]
        cpu = PreprocessingDAG.from_ops(ops, device="cpu")
        accel = PreprocessingDAG.from_ops(ops, device="accelerator")
        assert dag_fingerprint(cpu) != dag_fingerprint(accel)

    def test_non_dataclass_op_parameters_are_covered(self):
        # repr(Scale(2)) == repr(Scale(3)) == "Scale()": a fingerprint
        # built on repr handed Scale(3) the kernel compiled for Scale(2).
        two, three = _dag([Scale(2)]), _dag([Scale(3)])
        assert dag_fingerprint(two) != dag_fingerprint(three)
        kernel_two, kernel_three = get_kernel(two), get_kernel(three)
        assert kernel_two is not kernel_three
        image = np.arange(4 * 5 * 3, dtype=np.uint8).reshape(4, 5, 3)
        for dag, kernel in ((two, kernel_two), (three, kernel_three)):
            assert (kernel.execute_many([image])[0].tobytes()
                    == dag.execute(image).tobytes())



class TestCompile:
    def test_serving_pipeline_is_fully_vectorized(self):
        kernel = compile_dag(_dag(serving_pipeline_ops(24, 16)))
        assert kernel.fully_vectorized
        assert kernel.describe() \
            == "[resize+crop convert+normalize+reorder]"

    def test_unlowered_op_splits_an_interpreter_segment(self):
        kernel = compile_dag(_dag([
            ResizeOp(short_side=24),
            UnloweredCrop(size=16),
            ConvertDtypeOp("float32"),
            NormalizeOp(),
        ]))
        assert not kernel.fully_vectorized
        assert kernel.describe() == "[resize] -> {crop} -> [convert normalize]"
        # The fallback still executes the real op.
        image = np.arange(24 * 30 * 3, dtype=np.uint8).reshape(24, 30, 3)
        fused = kernel.execute_many([image])[0]
        interpreted = _dag([ResizeOp(short_side=24), UnloweredCrop(size=16),
                            ConvertDtypeOp("float32"),
                            NormalizeOp()]).execute(image)
        assert fused.tobytes() == interpreted.tobytes()

    def test_apply_override_without_declaration_runs_per_image(self,
                                                               textured_batch):
        assert CenterCropOp.batched
        assert not UnloweredCrop.batched
        dag = _dag([UnloweredCrop(size=16), NormalizeOp()])
        fused = compile_dag(dag).execute_many(textured_batch)
        for got, image in zip(fused, textured_batch):
            assert got.tobytes() == dag.execute(image).tobytes()

    def test_payloads_without_image_axes_get_the_oracles_answer(self):
        # A stack of (H, W) payloads is not a batch of HWC images: it must
        # not be read as one image with H = batch size.
        gray = [np.arange(20 * 24, dtype=np.uint8).reshape(20, 24) + i
                for i in range(3)]
        resize = _dag([ResizeOp(short_side=8)])
        with pytest.raises(PreprocessingError):
            resize.execute(gray[0])
        with pytest.raises(PreprocessingError):
            compile_dag(resize).execute_many(gray)
        convert = _dag([ConvertDtypeOp("float32")])
        fused = compile_dag(convert).execute_stacked(gray)
        for got, image in zip(fused, gray):
            assert got.tobytes() == convert.execute(image).tobytes()

    def test_subclass_keeping_apply_keeps_the_declaration(self):
        class RenamedCrop(CenterCropOp):
            pass

        assert RenamedCrop.batched

    def test_kernel_runs_the_dags_own_chain(self):
        ops = serving_pipeline_ops(24, 16)
        dag = _dag(ops)
        assert compile_dag(dag).ops == dag.ops == tuple(ops)

    def test_empty_dag_rejected(self):
        with pytest.raises(InvalidDAGError):
            PreprocessingDAG.from_ops([])
        with pytest.raises(PreprocessingError):
            FusedKernel("empty", [])

    def test_describe_brackets_segment_kinds(self):
        kernel = compile_dag(_dag([ResizeOp(short_side=24),
                                   UnloweredCrop(size=16)]))
        assert kernel.describe() == "[resize] -> {crop}"


class TestKernelCache:
    def test_compile_once_per_fingerprint(self):
        cache = KernelCache()
        ops = serving_pipeline_ops(24, 16)
        first = cache.get(_dag(ops))
        second = cache.get(_dag(ops))
        assert first is second
        assert cache.compiles == 1
        assert cache.hits == 1
        assert len(cache) == 1

    def test_distinct_plans_get_distinct_kernels(self):
        cache = KernelCache()
        one = cache.get(_dag([ResizeOp(short_side=24)]))
        two = cache.get(_dag([ResizeOp(short_side=32)]))
        assert one is not two
        assert cache.compiles == 2

    def test_structurally_rebuilt_dag_shares_the_kernel(self):
        # Sessions, replicas, and hot-swaps each rebuild the DAG object;
        # the cache must key on semantics, not identity.
        cache = KernelCache()
        a = cache.get(_dag(serving_pipeline_ops(24, 16)))
        b = cache.get(_dag(serving_pipeline_ops(24, 16)))
        assert a is b

    def test_clear_drops_kernels(self):
        cache = KernelCache()
        cache.get(_dag([ResizeOp(short_side=24)]))
        cache.clear()
        assert len(cache) == 0

    def test_process_wide_cache_is_shared(self):
        dag = _dag(serving_pipeline_ops(26, 18))
        assert get_kernel(dag) is DEFAULT_KERNEL_CACHE.get(dag)
