"""Rule-based and cost-based optimization of preprocessing DAGs (Section 6.2).

The optimizer enumerates candidate operator orderings allowed by reordering
rules, prunes candidates with rule-based heuristics, applies fusion, and then
picks the cheapest remaining plan by counting arithmetic operations.

Reordering rules (from the paper):
  1. normalization and dtype conversion may be placed anywhere in the chain;
  2. normalization, dtype conversion, and channel reordering can be fused;
  3. resizing and cropping can be swapped.

Pruning rules:
  1. resizing is cheaper with fewer pixels (prefer cropping/ROI first);
  2. resizing is cheaper on smaller data types (resize before float conversion);
  3. fusion always improves performance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PreprocessingError
from repro.preprocessing.cost import pipeline_arithmetic_ops
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    DecodeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    PreprocessingOp,
    ResizeOp,
    TensorSpec,
)


def _pipeline_output_spec(ops: list[PreprocessingOp],
                          input_spec: TensorSpec) -> TensorSpec:
    """Propagate ``input_spec`` through ``ops``."""
    spec = input_spec
    for op in ops:
        spec = op.output_spec(spec)
    return spec


@dataclass
class OptimizationReport:
    """Result of optimizing a preprocessing pipeline.

    Attributes
    ----------
    original_ops, optimized_ops:
        Operator sequences before and after optimization.
    original_cost, optimized_cost:
        Arithmetic-operation counts of the two sequences for the input spec.
    candidates_generated, candidates_pruned:
        Search statistics from plan enumeration.
    applied_fusion:
        True when the fused normalize/convert/reorder kernel was selected.
    """

    original_ops: list[PreprocessingOp]
    optimized_ops: list[PreprocessingOp]
    original_cost: float
    optimized_cost: float
    candidates_generated: int = 0
    candidates_pruned: int = 0
    applied_fusion: bool = False
    notes: list[str] = field(default_factory=list)

    def optimized_dag(self, device: str = "cpu") -> PreprocessingDAG:
        """Build a DAG for the optimized operator sequence."""
        return PreprocessingDAG.from_ops(self.optimized_ops, device=device)


class DagOptimizer:
    """Optimizes a linear preprocessing pipeline."""

    def __init__(self, enable_fusion: bool = True,
                 enable_reordering: bool = True,
                 max_candidates: int = 5000) -> None:
        self._enable_fusion = enable_fusion
        self._enable_reordering = enable_reordering
        self._max_candidates = max_candidates

    def candidates(self, ops: list[PreprocessingOp], input_spec: TensorSpec,
                   fused: bool | None = None) -> list[list[PreprocessingOp]]:
        """Every candidate ordering the optimizer would consider, post-prune.

        Each returned sequence is guaranteed output-equivalent to ``ops``
        (the contract the equivalence property tests enforce).  ``fused``
        overrides the optimizer's fusion setting for this enumeration.
        """
        if not ops:
            raise PreprocessingError("cannot optimize an empty pipeline")
        reference_spec = _pipeline_output_spec(ops, input_spec)
        kept, _ = self._prune(self._generate_candidates(ops), input_spec,
                              reference_spec, ops)
        apply_fusion = self._enable_fusion if fused is None else fused
        if apply_fusion:
            kept = [self._fuse(seq) for seq in kept]
        return kept

    def optimize(self, ops: list[PreprocessingOp],
                 input_spec: TensorSpec) -> OptimizationReport:
        """Optimize an operator sequence for the given input tensor spec."""
        if not ops:
            raise PreprocessingError("cannot optimize an empty pipeline")
        original_cost = pipeline_arithmetic_ops(ops, input_spec)
        reference_spec = _pipeline_output_spec(ops, input_spec)
        candidates = self._generate_candidates(ops)
        generated = len(candidates)
        candidates, pruned = self._prune(candidates, input_spec,
                                         reference_spec, ops)
        fused_applied = False
        if self._enable_fusion:
            fused_candidates = [self._fuse(seq) for seq in candidates]
            # Pruning rule 3: fusion always improves performance, so fused
            # forms replace their unfused counterparts.
            candidates = fused_candidates
            fused_applied = any(
                any(isinstance(op, FusedNormalizeReorderOp) for op in seq)
                for seq in candidates
            )
        best = min(
            candidates,
            key=lambda seq: pipeline_arithmetic_ops(seq, input_spec),
        )
        optimized_cost = pipeline_arithmetic_ops(best, input_spec)
        notes = []
        if optimized_cost > original_cost:
            # Never return a plan worse than the input pipeline.
            best = list(ops)
            optimized_cost = original_cost
            notes.append("optimization found no cheaper plan; kept original")
        return OptimizationReport(
            original_ops=list(ops),
            optimized_ops=list(best),
            original_cost=original_cost,
            optimized_cost=optimized_cost,
            candidates_generated=generated,
            candidates_pruned=pruned,
            applied_fusion=fused_applied,
            notes=notes,
        )

    def _generate_candidates(
        self, ops: list[PreprocessingOp]
    ) -> list[list[PreprocessingOp]]:
        """Enumerate orderings permitted by the reordering rules."""
        if not self._enable_reordering:
            return [list(ops)]
        decode_ops = [op for op in ops if isinstance(op, DecodeOp)]
        movable = [op for op in ops
                   if isinstance(op, (ConvertDtypeOp, NormalizeOp))]
        reorder_ops = [op for op in ops if isinstance(op, ChannelReorderOp)]
        geometric = [op for op in ops
                     if isinstance(op, (ResizeOp, CenterCropOp))]
        other = [
            op for op in ops
            if op not in decode_ops and op not in movable
            and op not in reorder_ops and op not in geometric
        ]
        # Geometric ops: the original order plus the swapped order (rule 3).
        geometric_orders = [geometric]
        if len(geometric) == 2:
            geometric_orders.append(list(reversed(geometric)))
        candidates: list[list[PreprocessingOp]] = []
        for geo in geometric_orders:
            backbone = decode_ops + geo + other + reorder_ops
            # Value-only ops may be inserted at any position after decode
            # (rule 1).  Enumerate insertion points for each movable op.
            slots = range(len(decode_ops), len(backbone) + 1)
            for positions in itertools.product(slots, repeat=len(movable)):
                seq = list(backbone)
                # Insert from the rightmost position first so earlier
                # insertions do not shift later ones.
                for op, pos in sorted(
                    zip(movable, positions), key=lambda pair: -pair[1]
                ):
                    seq.insert(pos, op)
                candidates.append(seq)
                if len(candidates) >= self._max_candidates:
                    return candidates
        return candidates or [list(ops)]

    def _prune(
        self, candidates: list[list[PreprocessingOp]], input_spec: TensorSpec,
        reference_spec: TensorSpec,
        original: list[PreprocessingOp] | None = None,
    ) -> tuple[list[list[PreprocessingOp]], int]:
        """Apply rule-based pruning; returns (kept, pruned_count)."""
        kept: list[list[PreprocessingOp]] = []
        pruned = 0
        original_geometry = (None if original is None
                             else self._geometric_order(original))
        # Probe data for the value check, materialized once per prune pass
        # and only if some candidate actually swaps geometry.
        probe: np.ndarray | None = None
        reference_output: np.ndarray | None = None
        for seq in candidates:
            if not self._is_valid_order(seq):
                pruned += 1
                continue
            if self._violates_dtype_rule(seq):
                pruned += 1
                continue
            # Reordering must not change the tensor the DNN receives: a
            # swapped resize/crop pair that produces a different output
            # shape is not an equivalent plan.
            if not self._preserves_output(seq, input_spec, reference_spec):
                pruned += 1
                continue
            # A geometric swap can preserve the output *spec* while changing
            # pixel *values* (crop-then-upscale is not resize-then-crop), so
            # swapped-geometry candidates must also pass an exact value
            # check on a deterministic probe image.
            if original_geometry is not None \
                    and self._geometric_order(seq) != original_geometry:
                if probe is None:
                    probe = self._probe_image(input_spec)
                    reference_output = self._run_on_probe(original, probe)
                if reference_output is None or not np.array_equal(
                    reference_output,
                    self._run_on_probe(seq, probe),
                ):
                    pruned += 1
                    continue
            kept.append(seq)
        if not kept:
            # Fall back to the original ordering, the one sequence that is
            # output-equivalent by construction (candidates[0] may have
            # just been pruned for *changing* the output).
            kept = [list(original) if original is not None
                    else candidates[0]]
        return kept, pruned

    @staticmethod
    def _geometric_order(seq: list[PreprocessingOp]) -> list[str]:
        """The sequence's geometric (resize/crop) operator order."""
        return [op.name for op in seq
                if isinstance(op, (ResizeOp, CenterCropOp))]

    @staticmethod
    def _probe_image(input_spec: TensorSpec) -> np.ndarray:
        """A deterministic textured probe image matching ``input_spec``."""
        rng = np.random.default_rng(20_26)
        return rng.integers(
            0, 256,
            size=(input_spec.height, input_spec.width, input_spec.channels),
        ).astype(np.uint8)

    @staticmethod
    def _run_on_probe(seq: list[PreprocessingOp],
                      probe: np.ndarray) -> np.ndarray | None:
        """Execute a pipeline on the probe; None when it cannot run."""
        data = probe
        for op in seq:
            if isinstance(op, DecodeOp):
                continue
            try:
                data = op.apply(data)
            except PreprocessingError:
                return None
        return data

    @staticmethod
    def _preserves_output(seq: list[PreprocessingOp], input_spec: TensorSpec,
                          reference_spec: TensorSpec) -> bool:
        """True when the candidate produces the same shape/dtype/layout."""
        try:
            spec = _pipeline_output_spec(seq, input_spec)
        except PreprocessingError:
            return False
        return (spec.height, spec.width, spec.channels, spec.dtype,
                spec.layout) == (reference_spec.height, reference_spec.width,
                                 reference_spec.channels, reference_spec.dtype,
                                 reference_spec.layout)

    @staticmethod
    def _is_valid_order(seq: list[PreprocessingOp]) -> bool:
        """Structural validity: decode first, reorder after normalization."""
        if seq and not isinstance(seq[0], DecodeOp):
            has_decode = any(isinstance(op, DecodeOp) for op in seq)
            if has_decode:
                return False
        # Normalization requires float data: a NormalizeOp handles its own
        # conversion, but a ConvertDtypeOp placed after NormalizeOp would be
        # a redundant cast; allow it (harmless) but require channel reorder
        # to come after any geometric op (reordering to CHW breaks HWC crops)
        # and after normalization (the normalize kernel is written for HWC,
        # so placing it downstream of the CHW reorder breaks at runtime).
        reorder_seen = False
        for op in seq:
            if isinstance(op, ChannelReorderOp):
                reorder_seen = True
            elif isinstance(op, (ResizeOp, CenterCropOp, NormalizeOp)) \
                    and reorder_seen:
                return False
        return True

    @staticmethod
    def _violates_dtype_rule(seq: list[PreprocessingOp]) -> bool:
        """Pruning rule 2: do not resize after converting to a wider dtype."""
        converted = False
        for op in seq:
            if isinstance(op, (ConvertDtypeOp, NormalizeOp)):
                converted = True
            elif isinstance(op, ResizeOp) and converted:
                return True
        return False

    @staticmethod
    def _fuse(seq: list[PreprocessingOp]) -> list[PreprocessingOp]:
        """Fuse trailing convert/normalize/reorder runs into a single kernel."""
        normalize = next((op for op in seq if isinstance(op, NormalizeOp)), None)
        has_reorder = any(isinstance(op, ChannelReorderOp) for op in seq)
        if normalize is None or not has_reorder:
            return list(seq)
        fused = FusedNormalizeReorderOp(mean=normalize.mean, std=normalize.std)
        out: list[PreprocessingOp] = []
        inserted = False
        for op in seq:
            if isinstance(op, (ConvertDtypeOp, NormalizeOp, ChannelReorderOp)):
                if not inserted and isinstance(op, ChannelReorderOp):
                    out.append(fused)
                    inserted = True
                continue
            out.append(op)
        if not inserted:
            out.append(fused)
        return out
