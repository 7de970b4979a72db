"""Golden digests pinning every built-in operator's arithmetic.

``golden_apply_digests.json`` holds sha256 digests of ``dag.execute``
outputs over a fixed-seed corpus -- uint8 / float32 / float64 payloads,
square and non-square, float payloads carrying NaN, +-inf, subnormals and
-0.0 -- for each operator alone and for every ``DagOptimizer`` candidate of
the serving pipeline (including the fused normalize+reorder form).  The
digests were recorded before the operators were rewritten rank-polymorphic
(one body for an image and a micro-batch), so this test holds the rewrite --
and any later one -- to the original bytes.  Refresh deliberately with::

    python -m pytest tests/preprocessing/test_golden_apply.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PreprocessingError
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    DecodeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    ResizeOp,
    TensorSpec,
    bilinear_resize,
)
from repro.preprocessing.optimizer import DagOptimizer
from repro.serving.session import serving_pipeline_ops

# NaN/inf payloads legitimately trip numpy's invalid-value warnings.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"
)

GOLDEN_PATH = Path(__file__).with_name("golden_apply_digests.json")

SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     1e-40, 0.0, -0.0], dtype=np.float64)
SHAPES = [(40, 40, 3), (57, 40, 3), (40, 64, 3), (128, 96, 3)]


def corpus() -> dict[str, np.ndarray]:
    """The fixed-seed payloads, keyed by a readable label."""
    rng = np.random.default_rng(20_15)
    images: dict[str, np.ndarray] = {}
    for height, width, channels in SHAPES:
        label = f"{height}x{width}"
        images[f"uint8/{label}"] = rng.integers(
            0, 256, size=(height, width, channels)).astype(np.uint8)
        for dtype in ("float32", "float64"):
            plain = rng.uniform(-300.0, 300.0,
                                size=(height, width, channels)).astype(dtype)
            images[f"{dtype}/{label}"] = plain
            special = plain.copy()
            flat = special.reshape(-1)
            positions = rng.choice(flat.size, size=4 * len(SPECIALS),
                                   replace=False)
            flat[positions] = np.tile(SPECIALS, 4).astype(dtype)
            images[f"{dtype}-specials/{label}"] = special
    return images


def pipelines() -> dict[str, list]:
    """Each operator alone plus every optimizer candidate of the serving
    pipeline (unfused and fused, for a uint8 and a float32 input spec)."""
    chains: dict[str, list] = {
        "decode": [DecodeOp()],
        "resize-down": [ResizeOp(short_side=24)],
        "resize-up": [ResizeOp(short_side=96)],
        "resize-same": [ResizeOp(short_side=40)],
        "crop": [CenterCropOp(size=32)],
        "crop-too-big": [CenterCropOp(size=50)],
        "convert-f32": [ConvertDtypeOp("float32")],
        "convert-f16": [ConvertDtypeOp("float16")],
        "normalize": [NormalizeOp()],
        "normalize-custom": [NormalizeOp(mean=(0.1, 0.2, 0.3),
                                         std=(0.5, 0.25, 2.0))],
        "reorder": [ChannelReorderOp()],
        "fused": [FusedNormalizeReorderOp()],
    }
    serving = serving_pipeline_ops(input_size=48, crop_size=32)
    for dtype in ("uint8", "float32"):
        spec = TensorSpec(height=57, width=40, channels=3, dtype=dtype)
        for fused in (False, True):
            for candidate in DagOptimizer().candidates(list(serving), spec,
                                                       fused=fused):
                chains["serving:" + ">".join(op.name for op in candidate)] = \
                    candidate
    assert any(isinstance(op, FusedNormalizeReorderOp)
               for name, chain in chains.items()
               if name.startswith("serving:") for op in chain)
    return chains


def _digest(array: np.ndarray) -> str:
    header = f"{array.dtype.str}{array.shape}".encode("ascii")
    return hashlib.sha256(
        header + np.ascontiguousarray(array).tobytes()).hexdigest()


def compute_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    images = corpus()
    for chain_name, ops in pipelines().items():
        dag = PreprocessingDAG.from_ops(ops)
        for image_name, image in images.items():
            try:
                value = _digest(dag.execute(image))
            except PreprocessingError:
                value = "PreprocessingError"
            digests[f"{chain_name} <- {image_name}"] = value
    # The free function other layers call with an arbitrary target size.
    for image_name, image in images.items():
        digests[f"bilinear_resize(33, 71) <- {image_name}"] = _digest(
            bilinear_resize(image, 33, 71))
    return digests


def test_apply_reproduces_the_golden_digests(request):
    digests = compute_digests()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert digests.keys() == golden.keys()
    diverged = [key for key in golden if digests[key] != golden[key]]
    assert not diverged, f"{len(diverged)} outputs changed, e.g. {diverged[:5]}"
