"""Smol-Fuse throughput gate: batching may never lose to the per-image loop.

Not a paper figure: this benchmarks the batch kernels this repo adds on
the plan hot path.  One serving-shaped pipeline (resize, crop, convert,
normalize, reorder) runs the same micro-batches twice -- per image through
``PreprocessingDAG.execute`` (the reference oracle) and stacked through
the compiled :class:`~repro.fuse.kernel.FusedKernel` -- and the gate has
three parts:

* **equivalence**: the kernel outputs are byte-identical to the oracle on
  every batch the sweep times (a fast kernel that changes the tensor the
  DNN sees is a correctness bug, not a win);
* **never slower**: at every batch size ``fused_img_s`` is at least
  ``interpreted_img_s``.  Both sides run the same ``apply`` bodies over the
  same cached op order, so the ratio is what stacking alone buys -- about
  2x on these 22x18 payloads, parity at the 128-px sizes ``bench/`` runs
  (see docs/fuse.md) -- and not a fixed multiple worth gating on;
* **no absolute loss**: ``fused_img_s`` at the serving batch size stays
  within ``TOLERANCE`` (``bench-diff``'s default) of
  ``BASELINE_FUSED_IMG_S``, the row ``BENCH_fuse.json`` carried when the
  kernel still had its own copy of every operator's arithmetic.

Per-row output scans batch sizes so a regression diff can tell a
vectorization loss (flat speedup) from a fixed-overhead creep (small
batches sag first).  Recorded as ``BENCH_fuse.json`` at the repo root,
with an end-to-end session row (preprocess + DNN) for context.
"""

import time
from pathlib import Path

import numpy as np

from benchlib import emit

from repro.fuse.compiler import get_kernel
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.request import InferenceRequest
from repro.serving.session import FunctionalSession, serving_pipeline_ops
from repro.utils.benchio import write_bench_json
from repro.utils.tables import Table

INPUT_SIZE = 16
CROP_SIZE = 12
PAYLOAD_SHAPE = (22, 18, 3)
BATCH_SIZES = (16, 64, 256)
GATE_BATCH = 256
REPS = 6
BASELINE_FUSED_IMG_S = 25_111.5
TOLERANCE = 0.1
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fuse.json"


def _payloads(count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(17)
    return [rng.integers(0, 256, size=PAYLOAD_SHAPE).astype(np.uint8)
            for _ in range(count)]


def _best_rate(fn, images: int) -> float:
    """Best-of-3 throughput (images/s) over REPS repetitions of ``fn``."""
    best = float("inf")
    for _ in range(3):
        begin = time.perf_counter()
        for _ in range(REPS):
            fn()
        best = min(best, time.perf_counter() - begin)
    return REPS * images / best


def run_sweep() -> tuple[Table, list[dict]]:
    dag = PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=INPUT_SIZE, crop_size=CROP_SIZE)
    )
    kernel = get_kernel(dag)
    rows = []
    for batch_size in BATCH_SIZES:
        payloads = _payloads(batch_size)
        fused = kernel.execute_many(payloads)
        interpreted = [dag.execute(payload) for payload in payloads]
        for index, (got, want) in enumerate(zip(fused, interpreted)):
            assert got.tobytes() == want.tobytes(), (
                f"fused image {index} diverged from the oracle at "
                f"batch size {batch_size}"
            )
        fused_rate = _best_rate(lambda: kernel.execute_many(payloads),
                                batch_size)
        interp_rate = _best_rate(
            lambda: [dag.execute(payload) for payload in payloads],
            batch_size,
        )
        rows.append({
            "batch_size": batch_size,
            "interpreted_img_s": round(interp_rate, 1),
            "fused_img_s": round(fused_rate, 1),
            "speedup": round(fused_rate / interp_rate, 2),
            "bit_identical": True,
        })
    table = Table(
        f"Smol-Fuse kernel vs per-image loop ({kernel.describe()})",
        ["Batch", "Per-image img/s", "Fused img/s", "Speedup",
         "Bit-identical"],
    )
    for row in rows:
        table.add_row(row["batch_size"], row["interpreted_img_s"],
                      row["fused_img_s"], f"{row['speedup']}x", "yes")
    return table, rows


def session_row() -> dict:
    """End-to-end context: ``FunctionalSession.execute`` (kernel + DNN)
    against the serial oracle loop (per-image ``dag.execute`` + DNN)."""
    dag = PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=INPUT_SIZE, crop_size=CROP_SIZE)
    )
    model = build_mini_resnet(18, num_classes=32, input_size=CROP_SIZE,
                              seed=1)
    requests = [InferenceRequest(image_id=f"bench/{i}", payload=payload)
                for i, payload in enumerate(_payloads(GATE_BATCH))]
    session = FunctionalSession("bench", dag, model)

    def oracle() -> np.ndarray:
        return model.predict(
            np.stack([dag.execute(request.payload) for request in requests])
            .astype(np.float32))

    got = session.execute(requests).predictions
    assert np.array_equal(got, oracle()), "session predictions diverged"
    interp_rate = _best_rate(oracle, GATE_BATCH)
    fused_rate = _best_rate(lambda: session.execute(requests), GATE_BATCH)
    return {
        "batch_size": GATE_BATCH,
        "interpreted_img_s": round(interp_rate, 1),
        "fused_img_s": round(fused_rate, 1),
        "speedup": round(fused_rate / interp_rate, 2),
        "bit_identical": True,
        "scope": "session (preprocess + DNN)",
    }


def test_fused_kernel_speedup(benchmark):
    table, rows = benchmark(run_sweep)
    emit(table)
    e2e = session_row()
    write_bench_json(
        BENCH_PATH, "fuse-kernel", rows + [e2e],
        meta={"input_size": INPUT_SIZE, "crop_size": CROP_SIZE,
              "payload_shape": list(PAYLOAD_SHAPE),
              "gate_batch": GATE_BATCH,
              "baseline_fused_img_s": BASELINE_FUSED_IMG_S,
              "tolerance": TOLERANCE})
    for row in rows:
        assert row["fused_img_s"] >= row["interpreted_img_s"], (
            f"the kernel lost to the per-image loop at batch "
            f"{row['batch_size']}: {row['fused_img_s']} < "
            f"{row['interpreted_img_s']} img/s"
        )
    gated = next(r for r in rows if r["batch_size"] == GATE_BATCH)
    floor = BASELINE_FUSED_IMG_S * (1.0 - TOLERANCE)
    assert gated["fused_img_s"] >= floor, (
        f"fused kernel ran {gated['fused_img_s']} img/s at batch "
        f"{GATE_BATCH}, more than {TOLERANCE:.0%} below the "
        f"{BASELINE_FUSED_IMG_S} img/s baseline"
    )
