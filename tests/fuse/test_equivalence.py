"""Differential suite: fused kernels vs the interpreted oracle.

Every plan in the golden matrix (``tests/core/golden/``) -- each frontier
entry and each selected plan the planner has ever pinned -- must execute
bit-identically fused and interpreted, for the naive pipeline and for every
candidate ordering the optimizer would consider.  Comparison is on raw
bytes (``tobytes``), so NaN payload bits and signed zeros count.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.codecs.formats import get_input_format
from repro.fuse.compiler import compile_dag, get_kernel
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import TensorSpec
from repro.preprocessing.optimizer import DagOptimizer
from repro.serving.request import InferenceRequest
from repro.serving.session import FunctionalSession, serving_pipeline_ops

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "core" / "golden"


def _golden_documents() -> list[dict]:
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert paths, f"no golden plans under {GOLDEN_DIR}"
    return [json.loads(path.read_text()) for path in paths]


def golden_plan_matrix() -> list[str]:
    """Every distinct plan string the golden corpus pins."""
    plans: set[str] = set()
    for doc in _golden_documents():
        plans.update(doc.get("frontier", ()))
        selected = doc.get("selected", {}).get("plan")
        if selected:
            plans.add(selected)
    assert plans
    return sorted(plans)


def selected_plans() -> list[str]:
    """The plan each golden configuration actually selected."""
    return sorted({doc["selected"]["plan"] for doc in _golden_documents()})


def parse_plan(plan: str) -> tuple[str, str, bool]:
    """``"resnet-18 on 161-jpeg-q75 [lowres]"`` -> (model, format, lowres)."""
    lowres = plan.endswith(" [lowres]")
    body = plan[: -len(" [lowres]")] if lowres else plan
    model, _, fmt = body.partition(" on ")
    return model, fmt, lowres


def pipeline_for_plan(plan: str) -> list:
    """A small serving pipeline whose geometry tracks the plan's format.

    Test-scaled: the crop size varies deterministically with the stored
    rendition's short side (and the lowres flag), so distinct plans
    exercise distinct resize/crop geometry without full-size tensors.
    """
    _, fmt, lowres = parse_plan(plan)
    spec = get_input_format(fmt)
    crop = 12 + (spec.short_side % 5) + (2 if lowres else 0)
    return serving_pipeline_ops(input_size=crop + 8, crop_size=crop)


def _probe_batch(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    shapes = [(34, 30, 3), (30, 34, 3), (34, 30, 3), (40, 28, 3)]
    return [rng.integers(0, 256, size=shape).astype(np.uint8)
            for shape in shapes]


def _assert_bit_identical(fused: list, interpreted: list, label: str) -> None:
    assert len(fused) == len(interpreted)
    for index, (got, want) in enumerate(zip(fused, interpreted)):
        assert got.shape == want.shape, f"{label}: image {index} shape"
        assert got.dtype == want.dtype, f"{label}: image {index} dtype"
        assert got.tobytes() == want.tobytes(), (
            f"{label}: image {index} diverged bitwise"
        )


class TestGoldenPlanMatrix:
    @pytest.mark.parametrize("plan", golden_plan_matrix())
    def test_fused_matches_interpreted_bitwise(self, plan):
        ops = pipeline_for_plan(plan)
        dag = PreprocessingDAG.from_ops(ops)
        kernel = get_kernel(dag)
        batch = _probe_batch(seed=len(plan))
        fused = kernel.execute_many(batch)
        interpreted = [dag.execute(image) for image in batch]
        _assert_bit_identical(fused, interpreted, plan)

    @pytest.mark.parametrize("plan", golden_plan_matrix())
    def test_every_optimizer_candidate_matches_when_fused(self, plan):
        ops = pipeline_for_plan(plan)
        batch = _probe_batch(seed=len(plan) + 100)
        spec = TensorSpec(height=batch[0].shape[0], width=batch[0].shape[1],
                          channels=3)
        candidates = DagOptimizer().candidates(list(ops), spec)
        assert candidates
        reference = None
        for candidate in candidates:
            dag = PreprocessingDAG.from_ops(candidate)
            fused = compile_dag(dag).execute_many(batch)
            interpreted = [dag.execute(image) for image in batch]
            label = f"{plan} / {[op.name for op in candidate]}"
            _assert_bit_identical(fused, interpreted, label)
            if reference is None:
                reference = interpreted
            else:
                # Candidates are also equivalent to each other, so the
                # kernel cannot hide behind a divergent oracle.
                _assert_bit_identical(interpreted, reference, label)


class TestSelectedPlansEndToEnd:
    @pytest.mark.parametrize("plan", selected_plans())
    def test_session_predictions_match_the_serial_oracle(self, plan,
                                                         serial_oracle):
        model_name, _, _ = parse_plan(plan)
        try:
            depth = int(model_name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            depth = 18
        ops = pipeline_for_plan(plan)
        crop = ops[1].size
        model = build_mini_resnet(depth, num_classes=13, input_size=crop,
                                  seed=3)
        requests = [
            InferenceRequest(image_id=f"golden/{i}", payload=payload)
            for i, payload in enumerate(_probe_batch(seed=7))
        ]
        session = FunctionalSession(plan, PreprocessingDAG.from_ops(ops),
                                    model)
        want = serial_oracle(PreprocessingDAG.from_ops(ops), model, requests)
        got = session.execute(requests).predictions
        assert np.array_equal(got, want)
