"""The sharded cheap-pass scan: plan-warmed scan sessions over the cluster.

The cost of every analytics query in the paper is dominated by the cheap
pass -- running a specialized NN over *every* frame of the chosen rendition.
This module compiles that pass into shard tasks executed on the PR 2 cluster
runtime:

* :class:`ScanSession` is a plan-warmed
  :class:`~repro.serving.session.EngineSession` that serves per-frame
  specialized-NN outputs for one (dataset, plan) pair.  Frame scores are
  float64; they travel through the cluster's integer ``predictions`` channel
  as IEEE-754 bit patterns (a lossless reinterpretation), so sharding cannot
  perturb a single bit of any score.
* :class:`ClusterScanRunner` splits the frame range into contiguous shards
  (:func:`repro.cluster.runner.split_frame_ranges`), fans micro-batches out
  through a :class:`~repro.cluster.dispatcher.Dispatcher`, reassembles the
  frame-indexed score array, and folds per-shard :class:`ShardScanStats`
  whose exact sums merge into totals bit-identical to a single-process scan.

Throughput is reported in modelled time: each shard's batches are charged
``frames / cheap_throughput`` seconds, and the parallel makespan is the
busiest replica's modelled load -- the quantity ``BENCH_query.json`` tracks.

When a :class:`~repro.store.store.RenditionStore` is attached, replicas
read/write the score table through the store instead of recomputing it per
session, and batches stream the table chunk by chunk -- bounding per-replica
memory by the chunk size rather than the corpus size.  The store's chunk
codec is lossless, so store-served (warm) results stay bit-identical to
cold recomputation at every worker count.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.analytics.scan import ScanCosts
from repro.analytics.stats import MomentSketch
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.runner import split_frame_ranges
from repro.cluster.worker import ThreadWorker, Worker
from repro.datasets.video import VideoDataset
from repro.errors import QueryError
from repro.inference.mpmc import MpmcQueue
from repro.obs import NULL_OBS
from repro.serving.request import InferenceRequest
from repro.serving.session import BatchResult, EngineSession


def encode_scores(scores: np.ndarray) -> np.ndarray:
    """Reinterpret float64 scores as int64 bit patterns (lossless)."""
    return np.ascontiguousarray(scores, dtype=np.float64).view(np.int64)


def decode_scores(bits: np.ndarray | Sequence[int]) -> np.ndarray:
    """Reinterpret int64 bit patterns back into float64 scores."""
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def frame_id(dataset_name: str, index: int) -> str:
    """The request image id naming one frame of a dataset."""
    return f"{dataset_name}:{index}"


#: Logical model name score tables are stored under in the rendition store.
SCAN_MODEL_NAME = "specialized-nn"

#: Version of the specialized-NN scoring implementation.  Bump this when
#: :meth:`repro.datasets.video.VideoDataset.specialized_nn_predictions`
#: (or anything else that changes stored score values) changes semantics:
#: every persisted score table and rendition is then invalidated at once.
SCAN_SCORE_VERSION = 1


def scan_store_fingerprint() -> str:
    """The store fingerprint the integrated scan path versions entries under."""
    from repro.store.store import fingerprint_of

    return fingerprint_of(SCAN_MODEL_NAME, SCAN_SCORE_VERSION)


class ScanPace:
    """Hot-swappable execution costs shared by in-flight scan sessions.

    The *scores* a scan produces depend only on (dataset, accuracy,
    frames); the plan only fixes what each scanned frame costs.  A pace
    object makes that cost a first-class, swappable runtime value: every
    replica's :class:`ScanSession` reads it per batch, and the adaptive
    replanner (:mod:`repro.adapt`) swaps in a new plan's costs mid-stream
    -- e.g. when a rendition becomes warm in the store or decode drifts --
    without perturbing a single score bit.

    Attributes swap atomically as a triple, so a batch never charges one
    plan's total with another plan's stage split.
    """

    def __init__(self, seconds_per_frame: float, plan_key: str,
                 stage_split: dict[str, float] | None = None) -> None:
        if seconds_per_frame <= 0:
            raise QueryError("seconds_per_frame must be positive")
        self._lock = threading.Lock()
        self._seconds_per_frame = seconds_per_frame
        self._plan_key = plan_key
        self._stage_split = dict(stage_split or {})
        self._swaps = 0

    @property
    def seconds_per_frame(self) -> float:
        """Current modelled service seconds per scanned frame."""
        with self._lock:
            return self._seconds_per_frame

    @property
    def plan_key(self) -> str:
        """The plan whose costs the pace currently charges."""
        with self._lock:
            return self._plan_key

    @property
    def swaps(self) -> int:
        """How many times the pace has been hot-swapped."""
        with self._lock:
            return self._swaps

    def snapshot(self) -> tuple[float, dict[str, float], str]:
        """Atomic (seconds_per_frame, stage_split, plan_key) triple."""
        with self._lock:
            return (self._seconds_per_frame, dict(self._stage_split),
                    self._plan_key)

    def swap(self, seconds_per_frame: float, plan_key: str,
             stage_split: dict[str, float] | None = None) -> None:
        """Atomically swap in a new plan's per-frame costs."""
        if seconds_per_frame <= 0:
            raise QueryError("seconds_per_frame must be positive")
        with self._lock:
            self._seconds_per_frame = seconds_per_frame
            self._plan_key = plan_key
            self._stage_split = dict(stage_split or {})
            self._swaps += 1


class ScanSession(EngineSession):
    """A plan-warmed session serving specialized-NN scores per frame.

    Warmup materializes the deterministic per-frame score table for the
    session's (dataset, accuracy) pair -- the analogue of loading the
    specialized NN and pinning the decode pipeline -- so shard batches are
    pure lookups.  ``execute`` returns the scores for the requested frames
    as bit patterns (see :func:`encode_scores`) plus the modelled cheap-pass
    service time of the batch.

    With a ``store`` (a :class:`~repro.store.store.RenditionStore`), warmup
    becomes a read-through: a warm store serves the table from disk (no
    recomputation), a cold store computes it once and writes it through for
    every later session -- including sessions in other processes.  Shard
    batches then *stream* through the store's chunk reader: each batch
    decodes only the chunks covering its frame range, so per-replica memory
    is bounded by ``O(chunk_frames x 8 bytes)`` per in-flight chunk (plus
    the store's shared LRU budget), not ``O(frames_used)``.  The store's
    chunk codec is lossless, so warm scores are bit-identical to cold ones.
    """

    def __init__(self, dataset: VideoDataset, specialized_accuracy: float,
                 frames_used: int, seconds_per_frame: float,
                 plan_key: str, store=None, rendition: str = "",
                 store_fingerprint: str | None = None,
                 pace: ScanPace | None = None,
                 model_name: str = SCAN_MODEL_NAME) -> None:
        super().__init__(plan_key)
        if frames_used <= 0:
            raise QueryError("frames_used must be positive")
        if seconds_per_frame <= 0:
            raise QueryError("seconds_per_frame must be positive")
        self._dataset = dataset
        self._specialized_accuracy = specialized_accuracy
        self._frames_used = frames_used
        self._seconds_per_frame = seconds_per_frame
        self._store = store
        self._rendition = rendition or "unknown"
        self._store_fingerprint = store_fingerprint
        self._pace = pace
        self._model_name = model_name
        self._id_prefix = f"{dataset.name}:"
        self._bits: np.ndarray | None = None
        self._reader = None

    @property
    def reader(self):
        """The store chunk reader batches stream from (None without store)."""
        return self._reader

    @property
    def format_name(self) -> str:
        """The scanned rendition (telemetry subject for decode costs)."""
        return self._rendition

    @property
    def model_name(self) -> str:
        """The scanning model (telemetry subject for inference costs)."""
        return self._model_name

    @property
    def pace(self) -> ScanPace | None:
        """The hot-swappable cost source, or None (fixed per-frame cost)."""
        return self._pace

    def _parse_indices_strict(self, requests: Sequence[InferenceRequest]
                              ) -> np.ndarray:
        """Frame indices of a batch, one checked ``int()`` per request."""
        indices = np.empty(len(requests), dtype=np.int64)
        for position, request in enumerate(requests):
            try:
                indices[position] = int(request.image_id.rsplit(":", 1)[1])
            except (IndexError, ValueError) as exc:
                raise QueryError(
                    f"malformed frame id {request.image_id!r}; expected "
                    "'<dataset>:<index>'"
                ) from exc
        return indices

    def _parse_indices(self,
                       requests: Sequence[InferenceRequest]) -> np.ndarray:
        """Frame indices of a ``<dataset>:<index>`` batch, vectorized.

        Strips the shared dataset prefix and converts the digit suffixes
        in one numpy cast instead of one Python ``int()`` per request.
        Ids that do not match that shape (foreign dataset name,
        non-numeric suffix) fall back to the strict parse, so which ids
        are accepted -- and the error for the rest -- is its decision.
        """
        plen = len(self._id_prefix)
        suffixes = []
        for request in requests:
            image_id = request.image_id
            if not image_id.startswith(self._id_prefix) or ":" in image_id[plen:]:
                return self._parse_indices_strict(requests)
            suffixes.append(image_id[plen:])
        try:
            return np.asarray(suffixes).astype(np.int64)
        except (ValueError, OverflowError):
            return self._parse_indices_strict(requests)

    def _compute_scores(self) -> np.ndarray:
        return self._dataset.specialized_nn_predictions(
            accuracy_factor=self._specialized_accuracy,
            limit=self._frames_used,
        )

    def warmup(self) -> None:
        """Materialize (or open) the per-frame specialized-NN score table."""
        if self._store is not None:
            from repro.store.store import ScoreKey

            key = ScoreKey.for_scan(
                dataset=self._dataset.name, model=SCAN_MODEL_NAME,
                rendition=self._rendition,
                accuracy=self._specialized_accuracy,
                frames=self._frames_used,
            )
            fingerprint = self._store_fingerprint
            if fingerprint is None:
                fingerprint = scan_store_fingerprint()
            self._reader = self._store.scores_or_compute(
                key, self._compute_scores, fingerprint=fingerprint,
            )
        else:
            self._bits = encode_scores(self._compute_scores())
        super().warmup()

    def execute(self, requests: Sequence[InferenceRequest]) -> BatchResult:
        if not requests:
            raise QueryError("cannot execute an empty scan batch")
        if self._bits is None and self._reader is None:
            self.warmup()
        indices = self._parse_indices(requests)
        if indices.min() < 0 or indices.max() >= self._frames_used:
            raise QueryError(
                f"frame index outside the warmed range [0, {self._frames_used})"
            )
        if self._reader is not None:
            bits = encode_scores(self._reader.gather(indices))
        else:
            bits = self._bits[indices]
        if self._pace is not None:
            seconds_per_frame, stage_split, _ = self._pace.snapshot()
            stage_seconds = {stage: per_frame * len(requests)
                             for stage, per_frame in stage_split.items()}
        else:
            seconds_per_frame = self._seconds_per_frame
            stage_seconds = None
        return BatchResult(
            predictions=bits,
            modelled_seconds=len(requests) * seconds_per_frame,
            stage_seconds=stage_seconds,
        )


@dataclass
class ShardScanStats:
    """Mergeable sufficient statistics of one scan shard.

    ``scores`` is an exact :class:`~repro.analytics.stats.MomentSketch`, so
    merged totals (population mean, variance, CI half-widths) are
    bit-identical to a single-process scan no matter how frames were
    sharded -- including empty and size-1 shards.
    """

    shard_id: int
    frames: int = 0
    scores: MomentSketch = field(default_factory=MomentSketch)
    modelled_seconds: float = 0.0

    def observe(self, scores: np.ndarray, modelled_seconds: float) -> None:
        """Fold one executed shard batch into the statistics."""
        self.frames += int(np.asarray(scores).size)
        self.scores.observe_array(scores)
        self.modelled_seconds += modelled_seconds

    def merge(self, other: "ShardScanStats") -> "ShardScanStats":
        """Exact associative merge (returns a new object, shard_id=-1)."""
        return ShardScanStats(
            shard_id=-1,
            frames=self.frames + other.frames,
            scores=self.scores.merge(other.scores),
            modelled_seconds=self.modelled_seconds + other.modelled_seconds,
        )

    @classmethod
    def merge_all(
        cls, shards: Sequence["ShardScanStats"]
    ) -> "ShardScanStats":
        """Merge any number of shard statistics into one total."""
        total = cls(shard_id=-1)
        for shard in shards:
            total = total.merge(shard)
        return total


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one (sharded or single-replica) cheap-pass scan."""

    scores: np.ndarray
    total: ShardScanStats
    shards: tuple[ShardScanStats, ...]
    per_worker_modelled_s: dict[str, float]
    num_workers: int
    frames_used: int
    wall_seconds: float

    @property
    def population_mean(self) -> float:
        """Exact specialized-NN population mean over the scanned frames."""
        return self.total.scores.mean

    @property
    def makespan_seconds(self) -> float:
        """Parallel modelled completion time: the busiest replica's load."""
        if self.per_worker_modelled_s:
            busiest = max(self.per_worker_modelled_s.values())
            if busiest > 0:
                return busiest
        return self.total.modelled_seconds

    @property
    def modelled_throughput(self) -> float:
        """Frames per second of modelled (parallel) scan time."""
        makespan = self.makespan_seconds
        return self.frames_used / makespan if makespan > 0 else 0.0


class ClusterScanRunner:
    """Runs the cheap pass of one query sharded across a replica pool.

    Parameters
    ----------
    dataset / specialized_accuracy:
        What the specialized NN scans.
    costs:
        The planner-derived :class:`~repro.analytics.scan.ScanCosts` of the
        chosen (model, rendition) plan; fixes the per-frame service time.
    plan_key:
        Plan identity every replica warms (shown by the dispatcher).
    num_workers / batch_size / router:
        Pool size (= shard count), frames per micro-batch, routing policy.
    store / rendition / store_fingerprint:
        Optional :class:`~repro.store.store.RenditionStore` every replica
        reads/writes through (shared handle -- the store is thread-safe):
        the first replica to warm a cold store computes and persists the
        score table, every other replica (and every later run) streams it
        chunk by chunk.  ``rendition`` names the plan's input format in the
        store key; ``store_fingerprint`` versions the entries (defaults
        to :func:`scan_store_fingerprint`, so bumping
        :data:`SCAN_SCORE_VERSION` invalidates every stored table).
    pace:
        Optional shared :class:`ScanPace`.  Every replica then charges the
        pace's current per-frame cost instead of the fixed planner cost,
        and reports the pace's per-stage split with each batch -- the hook
        the adaptive replanner uses to hot-swap costs into an in-flight
        shard stream (scores are unaffected by construction).
    obs:
        Observability handle (:mod:`repro.obs`).  A traced run wraps each
        ``run`` call in a ``query.scan`` span and threads trace context
        through the dispatcher into every replica; the default
        :data:`~repro.obs.NULL_OBS` keeps the scan loop allocation-free.
    """

    def __init__(self, dataset: VideoDataset, specialized_accuracy: float,
                 costs: ScanCosts, plan_key: str, num_workers: int = 2,
                 batch_size: int = 256,
                 router: str = "round-robin", store=None,
                 rendition: str = "",
                 store_fingerprint: str | None = None,
                 pace: ScanPace | None = None, obs=NULL_OBS) -> None:
        if num_workers <= 0:
            raise QueryError("num_workers must be positive")
        if batch_size <= 0:
            raise QueryError("batch_size must be positive")
        self._dataset = dataset
        self._specialized_accuracy = specialized_accuracy
        self._costs = costs
        self._plan_key = plan_key
        self._num_workers = num_workers
        self._batch_size = batch_size
        self._router = router
        self._store = store
        self._rendition = rendition
        self._store_fingerprint = store_fingerprint
        self._pace = pace
        self._obs = obs if obs is not None else NULL_OBS

    def session(self) -> ScanSession:
        """One plan-warmed scan session (one per replica)."""
        return ScanSession(
            dataset=self._dataset,
            specialized_accuracy=self._specialized_accuracy,
            frames_used=self._costs.frames_used,
            seconds_per_frame=self._costs.seconds_per_scanned_frame,
            plan_key=self._plan_key,
            store=self._store,
            rendition=self._rendition,
            store_fingerprint=self._store_fingerprint,
            pace=self._pace,
        )

    def worker_factory(self) -> Callable[[str, MpmcQueue], Worker]:
        """A dispatcher-compatible factory building warmed scan replicas."""
        def factory(worker_id: str, results: MpmcQueue) -> Worker:
            return ThreadWorker(worker_id, self.session(), results,
                                obs=self._obs)
        return factory

    def run(self, dispatcher: Dispatcher | None = None,
            timeout_s: float = 60.0,
            frame_range: tuple[int, int] | None = None) -> ScanReport:
        """Scan a frame range, sharded; returns the reassembled scores.

        A ``dispatcher`` may be injected (tests, reuse across worker
        counts); otherwise a fresh pool is built and torn down.

        ``frame_range`` (default: the full ``[0, frames_used)``) scans one
        contiguous segment, which is how a replan-safe query streams: the
        driver runs the scan as a sequence of segments, and between
        segments the adaptive controller may hot-swap the shared
        :class:`ScanPace`.  Concatenated segment scores are bit-identical
        to one full-range scan (scores are pure per-frame lookups), and
        segment :class:`ShardScanStats` merge exactly into the full-run
        totals.
        """
        frames_used = self._costs.frames_used
        lo, hi = frame_range if frame_range is not None else (0, frames_used)
        if not 0 <= lo < hi <= frames_used:
            raise QueryError(
                f"frame_range [{lo}, {hi}) outside [0, {frames_used})"
            )
        owned = dispatcher is None
        if dispatcher is None:
            dispatcher = Dispatcher(self.worker_factory(),
                                    num_workers=self._num_workers,
                                    router=self._router,
                                    obs=self._obs)
        # One span covers the whole sharded scan; activating it makes it
        # the ambient parent of every cluster.item span the dispatcher
        # opens, so the shard fan-out hangs off the scan in the trace tree.
        span = None
        if self._obs.enabled:
            span = self._obs.span(
                "query.scan", plan=self._plan_key, frames=hi - lo,
                workers=self._num_workers, batch_size=self._batch_size,
            )
        start = time.monotonic()
        scores = np.empty(hi - lo, dtype=np.float64)
        shards = [ShardScanStats(shard_id=i)
                  for i in range(self._num_workers)]
        per_worker: dict[str, float] = {}
        try:
            with self._obs.activate(span.context if span else None):
                ranges = split_frame_ranges(hi - lo, self._num_workers)
                submissions = []
                for shard_id, (shard_lo, shard_hi) in enumerate(ranges):
                    for offset in range(lo + shard_lo, lo + shard_hi,
                                        self._batch_size):
                        end = min(offset + self._batch_size, lo + shard_hi)
                        requests = tuple(
                            InferenceRequest(
                                image_id=frame_id(self._dataset.name, index)
                            )
                            for index in range(offset, end)
                        )
                        future = dispatcher.submit(requests,
                                                   shard_id=shard_id)
                        submissions.append((offset, end, future))
                for offset, end, future in submissions:
                    result = future.result(timeout=timeout_s)
                    batch_scores = decode_scores(result.predictions)
                    scores[offset - lo:end - lo] = batch_scores
                    shards[result.shard_id].observe(batch_scores,
                                                    result.modelled_seconds)
                    per_worker[result.worker_id] = (
                        per_worker.get(result.worker_id, 0.0)
                        + result.modelled_seconds
                    )
        except BaseException as exc:
            if span is not None:
                span.set(error=repr(exc))
            raise
        finally:
            if owned:
                dispatcher.close()
            if span is not None:
                span.finish()
        wall = time.monotonic() - start
        return ScanReport(
            scores=scores,
            total=ShardScanStats.merge_all(shards),
            shards=tuple(shards),
            per_worker_modelled_s=per_worker,
            num_workers=self._num_workers,
            frames_used=hi - lo,
            wall_seconds=wall,
        )
