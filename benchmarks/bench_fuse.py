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
* **never slower**: on every row ``fused_img_s`` is at least
  ``interpreted_img_s``.  Two payload shapes are swept: 22x18 -> 16 -> 12,
  where the crop throws away little and the ratio is mostly what stacking
  and scratch buy, and 128x128 -> 48 -> 32 at batch 8 and 256 -- the shape
  ``bench/`` serves -- where the window program reads 4 x 32 x 32 taps of a
  128 x 128 frame (see docs/fuse.md).  The ratio is reported, not gated;
* **no absolute loss**: ``fused_img_s`` on the 22x18 payload at batch 256
  stays within ``TOLERANCE`` (``bench-diff``'s default) of
  ``BASELINE_FUSED_IMG_S``, the row ``BENCH_fuse.json`` carried when the
  kernel still had its own copy of every operator's arithmetic.

Per-row output scans batch sizes so a regression diff can tell a
vectorization loss (flat speedup) from a fixed-overhead creep (small
batches sag first).  Recorded as ``BENCH_fuse.json`` at the repo root,
with an end-to-end session row (preprocess + DNN) for context and the
host it was recorded on.
"""

import os
import platform

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
#: (payload shape, resize short side, crop, batch sizes): the gated small
#: payload, then the shape ``bench/`` serves.
SWEEP = (
    (PAYLOAD_SHAPE, INPUT_SIZE, CROP_SIZE, BATCH_SIZES),
    ((128, 128, 3), 48, 32, (8, 256)),
)
REPS = 6
BASELINE_FUSED_IMG_S = 25_111.5
TOLERANCE = 0.1
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fuse.json"


def _payloads(count: int, shape=PAYLOAD_SHAPE) -> list[np.ndarray]:
    rng = np.random.default_rng(17)
    return [rng.integers(0, 256, size=shape).astype(np.uint8)
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
    rows = []
    for shape, input_size, crop_size, batch_sizes in SWEEP:
        dag = PreprocessingDAG.from_ops(
            serving_pipeline_ops(input_size=input_size, crop_size=crop_size)
        )
        kernel = get_kernel(dag)
        for batch_size in batch_sizes:
            payloads = _payloads(batch_size, shape)
            fused = kernel.execute_many(payloads)
            interpreted = [dag.execute(payload) for payload in payloads]
            for index, (got, want) in enumerate(zip(fused, interpreted)):
                assert got.tobytes() == want.tobytes(), (
                    f"fused image {index} diverged from the oracle at "
                    f"batch size {batch_size} of {shape}"
                )
            fused_rate = _best_rate(lambda: kernel.execute_many(payloads),
                                    batch_size)
            interp_rate = _best_rate(
                lambda: [dag.execute(payload) for payload in payloads],
                batch_size,
            )
            rows.append({
                "payload": "x".join(map(str, shape[:2]))
                           + f"->{input_size}->{crop_size}",
                "batch_size": batch_size,
                "interpreted_img_s": round(interp_rate, 1),
                "fused_img_s": round(fused_rate, 1),
                "speedup": round(fused_rate / interp_rate, 2),
                "bit_identical": True,
            })
    table = Table(
        f"Smol-Fuse kernel vs per-image loop ({kernel.describe()})",
        ["Payload", "Batch", "Per-image img/s", "Fused img/s", "Speedup",
         "Bit-identical"],
    )
    for row in rows:
        table.add_row(row["payload"], row["batch_size"],
                      row["interpreted_img_s"], row["fused_img_s"],
                      f"{row['speedup']}x", "yes")
    return table, rows


def _host() -> dict:
    """Where the scorecard was recorded: numbers only compare on one host."""
    return {"machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


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
              "tolerance": TOLERANCE, "host": _host()})
    for row in rows:
        assert row["fused_img_s"] >= row["interpreted_img_s"], (
            f"the kernel lost to the per-image loop at batch "
            f"{row['batch_size']} of {row['payload']}: {row['fused_img_s']} < "
            f"{row['interpreted_img_s']} img/s"
        )
    gated = next(r for r in rows if r["batch_size"] == GATE_BATCH)  # 22x18
    floor = BASELINE_FUSED_IMG_S * (1.0 - TOLERANCE)
    assert gated["fused_img_s"] >= floor, (
        f"fused kernel ran {gated['fused_img_s']} img/s at batch "
        f"{GATE_BATCH}, more than {TOLERANCE:.0%} below the "
        f"{BASELINE_FUSED_IMG_S} img/s baseline"
    )
