"""The benchmark's four workloads.

Every workload is fixed work: a seed-generated corpus and op sequence, an
oracle computed serially in set-up, and rounds that repeat the same ops from
the same starting state.  Layers are built with their library defaults only,
so the benchmark measures whatever the production default path is.

This module imports the program at top level; ``run.py`` unloads and
re-imports it for every timed set-up, so import-time work shows in
``setup_s``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.codecs.formats import FULL_JPEG, InputFormatSpec
from repro.codecs.image import ImageFormat
from repro.datasets import MultiResolutionStore, SyntheticImageGenerator
from repro.fuse import DEFAULT_KERNEL_CACHE
from repro.inference import EngineConfig, SmolRuntimeEngine
from repro.nn import build_mini_resnet
from repro.preprocessing import PreprocessingDAG
from repro.serving import (
    EngineSession,
    FunctionalSession,
    InferenceRequest,
    SmolServer,
    serving_pipeline_ops,
)
from repro.store import RenditionKey, RenditionStore, ScoreKey

from tracing import Tracer, union_length

OUT = Path(__file__).resolve().parent / "out"
NUM_CLASSES = 8
THUMB_PNG_64 = InputFormatSpec("64-png", ImageFormat.PNG, short_side=64,
                               lossless=True)


@dataclass
class Round:
    """What one round did: ops attempted, ops failed, and counts that must
    repeat exactly between runs of one seed.  Times and latency samples go
    to the harness's ``timed`` as the round runs."""

    ops: int
    failed: int
    counts: dict[str, int] = field(default_factory=dict)


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1000.0 if len(seconds) else 0.0


def span(tracer: Tracer | None, name: str, **kwargs):
    """A span on ``tracer``, or nothing to enter in an untraced run."""
    return tracer.span(name, **kwargs) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Proxies at the layer boundaries (traced run only)
# ---------------------------------------------------------------------------
class TracedDAG(PreprocessingDAG):
    """A preprocessing DAG whose ``execute`` opens a span."""

    tracer: Tracer

    def execute(self, array):
        with self.tracer.span("preprocessing.execute"):
            return super().execute(array)


class TracedModel:
    """Model proxy exposing ``predict``, all the engine and session call."""

    def __init__(self, tracer: Tracer, model) -> None:
        self._tracer = tracer
        self._model = model

    def predict(self, inputs):
        with self._tracer.span("nn.predict", op=len(inputs)):
            return self._model.predict(inputs)


class TracedSession(EngineSession):
    """Delegates to the real session inside a ``serving.session_execute``
    span whose op id lists the requests it carried."""

    def __init__(self, tracer: Tracer, session: FunctionalSession) -> None:
        super().__init__(session.plan_key)
        self._tracer = tracer
        self._session = session

    def warmup(self) -> None:
        self._session.warmup()
        super().warmup()

    def execute(self, requests):
        with self._tracer.span("serving.session_execute",
                               op=[r.request_id for r in requests]):
            return self._session.execute(requests)


def dag_ops() -> list:
    return serving_pipeline_ops(input_size=48, crop_size=32)


def build_pipeline(tracer: Tracer | None, model):
    """The DAG and model handed to the program, proxied when tracing."""
    if tracer is None:
        return PreprocessingDAG.from_ops(dag_ops()), model
    dag = TracedDAG.from_ops(dag_ops())
    dag.tracer = tracer
    return dag, TracedModel(tracer, model)


# ---------------------------------------------------------------------------
# Corpus and oracle
# ---------------------------------------------------------------------------
def encode_corpus(seed: int, count: int, fmt: InputFormatSpec):
    """``count`` synthetic 128-px images encoded by the real codec."""
    generator = SyntheticImageGenerator(num_classes=NUM_CLASSES,
                                        image_size=128, seed=seed)
    store = MultiResolutionStore([fmt])
    ids = [store.ingest(generator.generate_image(i % NUM_CLASSES,
                                                 i // NUM_CLASSES))
           for i in range(count)]
    return store, ids


class Oracle:
    """Per-image answers computed serially on plain (unproxied) objects:
    DAG then model, one decoded image at a time.

    An untrained mini-ResNet predicts one class for every image, which
    would leave the oracle blind to a wrong pixel.  The head's bias is
    therefore centred on the corpus (the mean logit of each class becomes
    zero), after which predictions spread over all classes and depend on
    every preprocessing step.  The program may batch differently from the
    oracle and float32 sums reassociate, so a class within ``TOLERANCE`` of
    the top logit also counts as right; measured differences are <= 1e-6.
    """

    TOLERANCE = 1e-5

    def __init__(self, depth: int, pixels: list[np.ndarray]) -> None:
        self.pixels = pixels
        self.dag = PreprocessingDAG.from_ops(dag_ops())
        self.model = build_mini_resnet(depth, num_classes=NUM_CLASSES,
                                       input_size=32, seed=1)
        logits = np.concatenate([
            self.model.forward(self.dag.execute(p)[None].astype(np.float32))
            for p in pixels])
        centre = logits.mean(axis=0)
        # The head's bias starts at zero, so subtracting ``centre`` from it
        # subtracts exactly ``centre`` from every logit already computed.
        self.model.layers[-1].bias -= centre
        logits -= centre
        slack = self.TOLERANCE * max(1.0, float(np.abs(logits).max()))
        self._accept = logits >= logits.max(axis=1, keepdims=True) - slack

    def wrong(self, images, predictions) -> int:
        """How many ``predictions`` disagree with the oracle for ``images``."""
        predictions = np.asarray(predictions)
        valid = (predictions >= 0) & (predictions < NUM_CLASSES)
        right = self._accept[np.asarray(images),
                             np.where(valid, predictions, 0)]
        return int((~(valid & right)).sum())

    def probe(self, batch: int, decode=None) -> dict[str, float]:
        """Uncontended serial cost of each stage in ms per image: one image
        at a time, the model at the workload's batch size."""
        decode_s = 0.0
        if decode is not None:
            start = time.perf_counter()
            for index in range(len(self.pixels)):
                decode(index)
            decode_s = time.perf_counter() - start
        start = time.perf_counter()
        tensors = [self.dag.execute(p) for p in self.pixels]
        preprocess_s = time.perf_counter() - start
        stacked = np.stack(tensors).astype(np.float32)
        start = time.perf_counter()
        for offset in range(0, len(stacked), batch):
            self.model.predict(stacked[offset:offset + batch])
        nn_s = time.perf_counter() - start
        per_image = 1000.0 / len(self.pixels)
        return {"decode": decode_s * per_image,
                "preprocess": preprocess_s * per_image,
                "nn": nn_s * per_image}


def pipeline_metrics(tracer: Tracer, probe: dict) -> dict[str, float]:
    """Layer metrics every image pipeline shares (scans and serving)."""
    predicts = tracer.named("nn.predict")
    return {
        "preprocessing.execute_calls":
            len(tracer.named("preprocessing.execute")),
        "preprocessing.busy_s": tracer.busy("preprocessing.execute"),
        "preprocessing.ms_per_image": probe["preprocess"],
        "fuse.kernel_compiles": DEFAULT_KERNEL_CACHE.compiles,
        "fuse.kernel_cache_hits": DEFAULT_KERNEL_CACHE.hits,
        "nn.predict_calls": len(predicts),
        "nn.busy_s": tracer.busy("nn.predict"),
        "nn.ms_per_image": probe["nn"],
        "nn.mean_batch": sum(s.op for s in predicts) / len(predicts),
    }


# ---------------------------------------------------------------------------
# scan_full_jpeg / scan_thumb_png
# ---------------------------------------------------------------------------
class ScanWorkload:
    """Classify a stored corpus with ``SmolRuntimeEngine.run_functional``.

    A round is one engine call over the corpus (``passes`` times over).
    Progress inside the call is marked from the ``decode_fn`` closure, which
    the engine calls once per image in index order.
    """

    batch = 32

    def __init__(self, seed: int, quick: bool, fmt: InputFormatSpec,
                 depth: int, count: int, passes: int, mark_every: int) -> None:
        self.fmt = fmt
        self.mark_every = mark_every
        self.count = 8 if quick else count
        self.ops_per_round = self.count * (1 if quick else passes)
        self.store, self.ids = encode_corpus(seed, self.count, fmt)
        self.oracle = Oracle(depth, [self._decode(i)
                                     for i in range(self.count)])

    def _decode(self, index: int) -> np.ndarray:
        return self.store.decode(self.ids[index % self.count],
                                 self.fmt.name).pixels

    def start(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.dag, self.model = build_pipeline(tracer, self.oracle.model)
        self.on_decode = lambda: None

        def decode(index):
            self.on_decode()
            with span(tracer, "codecs.decode", op=index):
                return self._decode(index)

        self.decode = decode
        self.engine = SmolRuntimeEngine(
            EngineConfig(num_producers=2, batch_size=self.batch))
        self.engine.run_functional(self.decode, self.dag, self.model, 1)

    def stop(self) -> None:
        pass

    def run_round(self, index: int, timed) -> Round:
        ops = self.ops_per_round
        self.on_decode = timed.tick
        try:
            with timed, span(self.tracer, "inference.run", op=index,
                             adopts=True):
                result = self.engine.run_functional(
                    self.decode, self.dag, self.model, ops)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Round(ops, ops)
        self.memory_stats = result.memory_stats
        failed = self.oracle.wrong(np.arange(ops) % self.count,
                                   result.predictions)
        return Round(ops, failed)

    def probe(self) -> dict[str, float]:
        return self.oracle.probe(self.batch, decode=self._decode)

    def layer_metrics(self, tracer: Tracer, probe: dict, traced: list[Round],
                      untraced_latencies: list[float],
                      untraced_ops_per_s: float) -> dict[str, float]:
        runs = tracer.named("inference.run")
        serial_ms = probe["decode"] + probe["preprocess"] + probe["nn"]
        slower_stage_ms = max(probe["decode"] + probe["preprocess"],
                              probe["nn"])
        return pipeline_metrics(tracer, probe) | {
            "codecs.decode_calls": len(tracer.named("codecs.decode")),
            "codecs.decode_busy_s": tracer.busy("codecs.decode"),
            "codecs.decode_ms_per_image": probe["decode"],
            "codecs.encoded_kb_per_image":
                self.store.total_bytes(self.fmt.name) / self.count / 1000.0,
            "inference.run_calls": len(runs),
            "inference.wall_s": tracer.busy("inference.run"),
            "inference.self_s": sum(s.self_time() for s in runs),
            "inference.buffer_reuse_share": self.memory_stats.reuse_fraction,
            "inference.speedup_vs_serial":
                untraced_ops_per_s * serial_ms / 1000.0,
            "inference.pipeline_efficiency":
                untraced_ops_per_s * slower_stage_ms / 1000.0,
        }


def scan_full_jpeg(seed: int, quick: bool) -> ScanWorkload:
    return ScanWorkload(seed, quick, FULL_JPEG, depth=18, count=32, passes=1,
                        mark_every=4)


def scan_thumb_png(seed: int, quick: bool) -> ScanWorkload:
    return ScanWorkload(seed, quick, THUMB_PNG_64, depth=50, count=256,
                        passes=3, mark_every=32)


# ---------------------------------------------------------------------------
# serve_closed
# ---------------------------------------------------------------------------
class ServeWorkload:
    """Closed loop on ``SmolServer``: 2 client threads, each keeping one
    window of 8 requests in flight (first submit -> last future resolved).

    One request in five names one of 32 hot ids (prediction-cache hits once
    the warm-up round has filled the cache); the rest carry ids unique to
    their round, so every round meets the cache in the same state.  (With
    64 hot ids, one in ~3 000 hot requests found its id evicted from the
    2 048-entry LRU by the unique ids, and hit counts stopped repeating.)
    Payloads are decoded in set-up: in this repo's serving contract decode
    happens at ingest, not on the request path.
    """

    clients = 2
    window = 8
    hot_ids = 32
    batch = 8
    mark_every = 20     # completed windows, both clients together

    def __init__(self, seed: int, quick: bool) -> None:
        payloads = 8 if quick else 32
        self.windows = 10 if quick else 150
        self.ops_per_round = self.clients * self.windows * self.window
        store, ids = encode_corpus(seed, payloads, FULL_JPEG)
        self.oracle = Oracle(
            18, [store.decode(a, FULL_JPEG.name).pixels for a in ids])
        rng = np.random.default_rng([seed, 1])
        hot = rng.permutation(self.ops_per_round) % 5 == 0
        hot_id = rng.integers(self.hot_ids, size=self.ops_per_round)
        cold_payload = rng.integers(payloads, size=self.ops_per_round)
        # (image id or None for "unique to the round", payload index)
        self.plan = [(f"hot-{hot_id[i]}", int(hot_id[i]) % payloads)
                     if hot[i] else (None, int(cold_payload[i]))
                     for i in range(self.ops_per_round)]

    def start(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        dag, model = build_pipeline(tracer, self.oracle.model)
        session = FunctionalSession("serve_closed", dag, model)
        if tracer is not None:
            session = TracedSession(tracer, session)
        self.server = SmolServer(session)
        self.server.submit(InferenceRequest(
            "warm-up", self.oracle.pixels[0], FULL_JPEG.name)).result(60)

    def stop(self) -> None:
        self.server.close()

    def _client(self, client: int, round_index: int, timed, out: list) -> None:
        failed = 0
        for w in range(self.windows):
            first = (client * self.windows + w) * self.window
            try:
                failed += self._window(round_index, first, timed)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += self.window
                timed.tick()
        out.append(failed)

    def _window(self, round_index: int, first: int, timed) -> int:
        tracer = self.tracer
        slots = self.plan[first:first + self.window]
        with span(tracer, "serving.window", op=first):
            start = time.perf_counter()
            futures = []
            for k, (image_id, payload) in enumerate(slots):
                request = InferenceRequest(
                    image_id or f"r{round_index}-{first + k}",
                    self.oracle.pixels[payload], FULL_JPEG.name)
                with span(tracer, "serving.submit", op=request.request_id):
                    futures.append(self.server.submit(request))
            responses = [f.result(timeout=60) for f in futures]
            timed.tick(time.perf_counter() - start)
        return self.oracle.wrong([payload for _, payload in slots],
                                 [r.prediction for r in responses])

    def run_round(self, index: int, timed) -> Round:
        before = self.server.stats()
        out: list[int] = []
        threads = [threading.Thread(target=self._client,
                                    args=(c, index, timed, out))
                   for c in range(self.clients)]
        with timed:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        after = self.server.stats()
        return Round(
            self.ops_per_round, sum(out),
            {"requests": after.submitted - before.submitted,
             "cache_hits": after.cache_hits - before.cache_hits,
             "rejected": after.rejected - before.rejected,
             "batches": after.batcher.batches - before.batcher.batches,
             "full_batches":
                 after.batcher.full_batches - before.batcher.full_batches,
             "batched": after.batcher.items - before.batcher.items})

    def probe(self) -> dict[str, float]:
        return self.oracle.probe(self.batch)

    def layer_metrics(self, tracer: Tracer, probe: dict, traced: list[Round],
                      untraced_latencies: list[float],
                      untraced_ops_per_s: float) -> dict[str, float]:
        sessions = tracer.named("serving.session_execute")
        session_self = sum(
            s.duration - sum(c.duration for c in s.children
                             if c.name == "nn.predict")
            for s in sessions)
        carried = {request: s for s in sessions for request in s.op}
        # Queue wait: the client's submit stamp to the start of the session
        # span that carried the request (cache hits are never carried).
        waits = [carried[s.op].start - s.start
                 for s in tracer.named("serving.submit") if s.op in carried]
        # A window's own serving time is what neither queue wait nor a
        # session span covers: admission, cache, batching, future resolution.
        window_self = 0.0
        for window in tracer.named("serving.window"):
            window_self += window.duration - union_length(
                (max(s.start, window.start),
                 min(carried[s.op].end, window.end))
                for s in window.children if s.op in carried)
        total = {key: sum(r.counts[key] for r in traced)
                 for key in traced[0].counts}
        return pipeline_metrics(tracer, probe) | {
            "serving.requests": total["requests"],
            "serving.queue_wait_ms_p50": percentile_ms(waits, 50),
            "serving.session_busy_s": tracer.busy("serving.session_execute"),
            "serving.session_self_ms_per_request":
                session_self / len(carried) * 1000.0,
            "serving.self_ms_per_request":
                window_self / total["requests"] * 1000.0,
            "serving.mean_batch": total["batched"] / total["batches"],
            "serving.full_batch_share":
                total["full_batches"] / total["batches"],
            "serving.cache_hit_share":
                total["cache_hits"] / total["requests"],
            "serving.rejected": total["rejected"],
            "serving.latency_p99_ms": percentile_ms(untraced_latencies, 99),
        }


# ---------------------------------------------------------------------------
# store_mixed
# ---------------------------------------------------------------------------
class StoreWorkload:
    """Reads and writes on a ``RenditionStore`` whose working set sits on
    both sides of the store's own LRU tier.

    Each round builds a fresh store and prefills it (untimed), then runs
    the seeded op list: 20 % hot reads (4 keys, 0.8 MB, which stay inside
    the 4 MiB LRU), 50 % cold reads (the other keys, 8.7 MB, which churn
    it: with 8 hot keys the churn between two touches of a hot chunk
    equalled the whole LRU and hot reads missed as often as cold), 20 %
    ``put_rendition`` of new keys, 10 % ``put_scores`` + ``get_scores``.
    Frames are rendered images, so DEFLATE sees image-like data.
    """

    frames = 64
    read_rows = 16
    hot_keys = 4
    rendition = "32px"
    mark_every = 1

    def __init__(self, seed: int, quick: bool) -> None:
        prefill = 16 if quick else 48
        self.ops_per_round = ops = 50 if quick else 400
        puts, scores, hot = ops // 5, ops // 10, ops // 5
        generator = SyntheticImageGenerator(num_classes=NUM_CLASSES,
                                            image_size=32, seed=seed)

        def render(key: int) -> np.ndarray:
            return np.stack([
                generator.generate_image((key + f) % NUM_CLASSES,
                                         key * self.frames + f).pixels
                for f in range(self.frames)])

        self.prefill = [render(k) for k in range(prefill)]
        self.new = [render(prefill + k) for k in range(puts)]
        rng = np.random.default_rng([seed, 2])
        self.scores = rng.random((64, 64), dtype=np.float32)
        kinds = rng.permutation(
            ["read_hot"] * hot + ["read_cold"] * (ops - hot - puts - scores)
            + ["put"] * puts + ["scores_roundtrip"] * scores)
        serial = {"put": 0, "scores_roundtrip": 0}
        self.ops = []
        for kind in kinds:
            if kind == "read_hot":
                key = int(rng.integers(self.hot_keys))
            elif kind == "read_cold":
                key = int(rng.integers(self.hot_keys, prefill))
            else:
                key = serial[kind]
                serial[kind] += 1
            low = int(rng.integers(self.frames - self.read_rows + 1))
            self.ops.append((str(kind), key, low))

    def _open(self) -> RenditionStore:
        shutil.rmtree(self.root, ignore_errors=True)
        return RenditionStore(self.root, chunk_frames=16,
                              cache_bytes=4 * 1024 * 1024)

    def start(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.root = OUT / f"store-{os.getpid()}"
        store = self._open()
        self._apply(store, "put", 0, 0)
        self._apply(store, "scores_roundtrip", 0, 0)

    def stop(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _apply(self, store: RenditionStore, kind: str, key: int, low: int):
        """Run one op; returns (what the store gave back, what it should)."""
        if kind == "put":
            store.put_rendition(RenditionKey(f"new-{key}", self.rendition),
                                self.new[key])
            return None, None
        if kind == "scores_roundtrip":
            table = self.scores + key
            score_key = ScoreKey(f"item-{key}", "mini-resnet-18",
                                 self.rendition)
            store.put_scores(score_key, table)
            return store.get_scores(score_key), table
        reader = store.open_rendition(
            RenditionKey(f"item-{key}", self.rendition))
        rows = slice(low, low + self.read_rows)
        return reader.read(rows.start, rows.stop), self.prefill[key][rows]

    def run_round(self, index: int, timed) -> Round:
        tracer = self.tracer
        store = self._open()
        for key, frames in enumerate(self.prefill):
            store.put_rendition(RenditionKey(f"item-{key}", self.rendition),
                                frames)
        # The OS's backlog of dirty pages is part of the starting state:
        # without this, write-back of earlier rounds slows later ones.
        os.sync()
        failed = 0
        with timed:
            for number, (kind, key, low) in enumerate(self.ops):
                start = time.perf_counter()
                try:
                    with span(tracer, f"store.{kind}", op=number):
                        got, expected = self._apply(store, kind, key, low)
                    timed.tick(time.perf_counter() - start)
                    failed += not same_bytes(got, expected)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    timed.tick(time.perf_counter() - start)
                    failed += 1
        self.stats = store.stats()
        # Untimed: every rendition put this round reads back as written.
        for key, frames in enumerate(self.new):
            reader = store.open_rendition(
                RenditionKey(f"new-{key}", self.rendition))
            failed += reader is None or not same_bytes(reader.read_all(),
                                                       frames)
        return Round(self.ops_per_round, failed, {
            "puts": len(self.new),
            "entries": (self.stats.rendition_entries
                        + self.stats.score_entries)})

    def probe(self) -> dict[str, float]:
        return {}

    def layer_metrics(self, tracer: Tracer, probe: dict, traced: list[Round],
                      untraced_latencies: list[float],
                      untraced_ops_per_s: float) -> dict[str, float]:
        def seconds(kind: str, part=lambda in_order: in_order):
            """Op times of one kind; ``part`` picks from a round's ops,
            which spans list in the order they ran."""
            by_round: dict[int, list[float]] = {}
            for span in tracer.named(f"store.{kind}"):
                by_round.setdefault(span.parent.op, []).append(span.duration)
            return [s for in_order in by_round.values()
                    for s in part(in_order)]

        def decile(in_order):
            return max(1, len(in_order) // 10)

        cache = self.stats.chunk_cache
        return {
            "store.put_calls": sum(r.counts["puts"] for r in traced),
            "store.busy_s": sum(s.duration for s in tracer.spans
                                if s.name.startswith("store.")),
            "store.put_ms_p50": percentile_ms(seconds("put"), 50),
            "store.put_ms_first_decile": percentile_ms(
                seconds("put", lambda o: o[:decile(o)]), 50),
            "store.put_ms_last_decile": percentile_ms(
                seconds("put", lambda o: o[-decile(o):]), 50),
            "store.read_hot_ms_p50": percentile_ms(seconds("read_hot"), 50),
            "store.read_cold_ms_p50": percentile_ms(seconds("read_cold"), 50),
            "store.scores_roundtrip_ms_p50":
                percentile_ms(seconds("scores_roundtrip"), 50),
            "store.lru_hit_share":
                cache.hits / max(1, cache.hits + cache.misses),
            "store.disk_mb": self.stats.disk_bytes / 1e6,
            "store.entries": traced[-1].counts["entries"],
        }


def same_bytes(got, expected) -> bool:
    """Byte-for-byte equality of what the store returned and what was
    written (``None`` on both sides for an op that returns nothing)."""
    if got is None or expected is None:
        return got is expected
    return (got.dtype == expected.dtype and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


WORKLOADS = {
    "scan_full_jpeg": scan_full_jpeg,
    "scan_thumb_png": scan_thumb_png,
    "serve_closed": ServeWorkload,
    "store_mixed": StoreWorkload,
}
