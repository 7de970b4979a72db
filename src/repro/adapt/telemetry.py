"""Runtime cost telemetry: what execution actually paid, per stage.

The planner costs plans from calibrated constants; this module collects what
the running system *measured* so the online calibrator can fold reality back
into the cost model.  One :class:`TelemetryCollector` is shared by every
execution surface:

* **serving** -- :class:`~repro.serving.server.SmolServer` reports each
  executed micro-batch (``telemetry=`` at construction);
* **cluster** -- :class:`~repro.cluster.dispatcher.Dispatcher` forwards
  per-replica :class:`~repro.cluster.worker.WorkerCostReport` deltas on
  every heartbeat pass (``attach_telemetry``);
* **scan** -- :class:`~repro.query.scan.ScanSession` batches report their
  pace's stage split, which arrives through the cluster channel.

With observability enabled (:mod:`repro.obs`), instrumented components also
publish the same stage costs on the observability stage-event bus;
:meth:`TelemetryCollector.subscribe_to` turns the collector into one
consumer of that bus, replacing the direct channels above.

Observations are tiny immutable records keyed by (stage, subject): decode
and preprocess observations are keyed by the input-format name, inference
observations by the model name -- the same axes the cost model prices plans
on, so calibration output plugs straight back into planning.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

#: The coarse runtime stages telemetry attributes cost to.  ``read`` is
#: the chunk-read residual paid instead of decode when an executor streams
#: a materialized rendition; it is reported under its own key so warm-read
#: costs can never contaminate the cold-decode calibration of a format.
STAGES = ("decode", "preprocess", "inference", "read")

#: Stages whose telemetry subject is the input-format name (the remaining
#: stage, ``inference``, is keyed by the model name).
FORMAT_STAGES = ("decode", "preprocess", "read")


@dataclass(frozen=True)
class StageObservation:
    """One measured (stage, subject) cost sample.

    Attributes
    ----------
    stage:
        One of :data:`STAGES`.
    subject:
        Input-format name for decode/preprocess, model name for inference.
    images:
        How many images/frames the ``seconds`` cover (per-image cost is
        ``seconds / images``).
    seconds:
        Total resource seconds the stage consumed for those images.
    source:
        Which surface reported it (``"serving"`` / ``"cluster"`` /
        ``"scan"``) -- diagnostic only.
    """

    stage: str
    subject: str
    images: int
    seconds: float
    source: str = ""


@dataclass(frozen=True)
class TelemetryCounters:
    """Lifetime counters of one collector (cheap snapshot)."""

    recorded: int
    dropped: int
    batches: int
    images: int
    modelled_seconds: float


class TelemetryCollector:
    """Thread-safe sink and buffer for runtime stage observations.

    Producers (serving loop, dispatcher monitor) call the ``record_*``
    methods; the adaptive controller periodically :meth:`drain`\\ s the
    buffer into the calibrator.  The buffer is bounded: if nobody drains,
    the oldest observations fall off instead of growing without bound
    (telemetry is advisory -- freshest data wins).

    Malformed samples (non-positive image counts, non-finite or negative
    seconds, empty subjects) are counted in ``dropped`` and never reach the
    calibrator; the calibrator applies its own statistical guards on top.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity <= 0:
            from repro.errors import AdaptError

            raise AdaptError("telemetry capacity must be positive")
        self._lock = threading.Lock()
        self._buffer: deque[StageObservation] = deque(maxlen=capacity)
        self._recorded = 0
        self._dropped = 0
        self._batches = 0
        self._images = 0
        self._modelled_seconds = 0.0

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    def record(self, observation: StageObservation) -> bool:
        """Buffer one observation; False (and counted) when malformed."""
        import math

        ok = (observation.stage in STAGES
              and bool(observation.subject)
              and observation.images > 0
              and math.isfinite(observation.seconds)
              and observation.seconds >= 0.0)
        with self._lock:
            if not ok:
                self._dropped += 1
                return False
            self._buffer.append(observation)
            self._recorded += 1
        return True

    def record_session_batch(self, session, result,
                             source: str = "serving") -> None:
        """Report one executed session batch (server-side entry point).

        ``session`` is the :class:`~repro.serving.session.EngineSession`
        that ran the batch: its ``format_name`` / ``model_name`` name the
        telemetry subjects.  ``result`` is its
        :class:`~repro.serving.session.BatchResult`; a result without
        ``stage_seconds`` (functional sessions) contributes throughput
        counters but no stage observations.
        """
        batch_size = len(result.predictions)
        with self._lock:
            self._batches += 1
            self._images += batch_size
            self._modelled_seconds += result.modelled_seconds
        for stage, seconds in (result.stage_seconds or {}).items():
            subject = (session.format_name if stage in FORMAT_STAGES
                       else session.model_name)
            self.record(StageObservation(
                stage=stage, subject=subject, images=batch_size,
                seconds=seconds, source=source,
            ))

    def subscribe_to(self, obs):
        """Consume the observability stage-event bus (see :mod:`repro.obs`).

        Registers this collector as a listener on ``obs``: every
        :class:`~repro.obs.metrics.StageEvent` an instrumented component
        emits becomes a :class:`StageObservation`, so the adaptive loop and
        the metrics registry observe the same instrumentation stream.  Use
        this *instead of* the direct channels (``SmolServer(telemetry=...)``
        / ``Dispatcher.attach_telemetry``) -- wiring both double-counts
        every stage.  Returns the listener so callers can
        ``obs.remove_stage_listener`` it.
        """
        def listener(event) -> None:
            self.record(StageObservation(
                stage=event.stage, subject=event.subject,
                images=event.images, seconds=event.seconds,
                source=event.source,
            ))

        obs.add_stage_listener(listener)
        return listener

    def record_worker_report(self, report, source: str = "cluster") -> None:
        """Report one per-replica cost delta (dispatcher heartbeat entry).

        ``report`` is a :class:`~repro.cluster.worker.WorkerCostReport`.
        Each stage's seconds are paired with the images that actually
        paid that stage (``report.images_for``), so a report window
        spanning a hot-swap still yields exact per-image costs.
        """
        with self._lock:
            self._batches += 1
            self._images += report.images
        for stage, seconds in report.stage_seconds.items():
            subject = (report.format_name if stage in FORMAT_STAGES
                       else report.model_name)
            self.record(StageObservation(
                stage=stage, subject=subject,
                images=report.images_for(stage),
                seconds=seconds, source=source,
            ))

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    def drain(self) -> list[StageObservation]:
        """Remove and return every buffered observation (oldest first)."""
        with self._lock:
            drained = list(self._buffer)
            self._buffer.clear()
        return drained

    def pending(self) -> int:
        """Observations buffered but not yet drained."""
        with self._lock:
            return len(self._buffer)

    def counters(self) -> TelemetryCounters:
        """Lifetime counters (recorded/dropped observations, throughput)."""
        with self._lock:
            return TelemetryCounters(
                recorded=self._recorded,
                dropped=self._dropped,
                batches=self._batches,
                images=self._images,
                modelled_seconds=self._modelled_seconds,
            )
