"""Plan-aware engine sessions.

The offline path rebuilds its preprocessing pipeline and model for every run.
Online serving cannot afford that per request, so a *session* pins everything
a plan needs -- the preprocessing DAG, the model (functional mode) or the
calibrated stage estimate (simulated mode) -- warmed once at construction and
reused for every micro-batch.  When the planner picks a new plan the
:class:`SessionManager` warms the replacement off to the side and hot-swaps
it atomically, so in-flight batches finish on the old session and later
batches see the new one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.chaos.faults import NULL_FAULTS
from repro.codecs.formats import InputFormatSpec
from repro.core.plans import Plan, PlanEstimate
from repro.errors import ServingError
from repro.fuse.compiler import get_kernel
from repro.obs import NULL_OBS
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.model import Sequential, build_mini_resnet
from repro.nn.plan import PLAN_STATS
from repro.preprocessing.dag import PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    NormalizeOp,
    ResizeOp,
)
from repro.serving.request import InferenceRequest
from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class BatchResult:
    """The outcome of executing one micro-batch on a session.

    Attributes
    ----------
    predictions:
        Predicted class index per request, in request order.
    modelled_seconds:
        The performance model's service time for the batch (simulated mode);
        0.0 in functional mode where wall time is the real service time.
    stage_seconds:
        Optional per-stage resource seconds the batch consumed (keys such
        as ``decode`` / ``preprocess`` / ``inference``).  Sessions that
        know their stage breakdown fill this so runtime telemetry
        (:mod:`repro.adapt.telemetry`) can calibrate observed stage costs;
        None when the session cannot attribute cost to stages.
    """

    predictions: np.ndarray
    modelled_seconds: float = 0.0
    stage_seconds: dict[str, float] | None = None


class EngineSession:
    """Base class: a warmed, reusable execution context for one plan.

    ``format_name`` / ``model_name`` are the telemetry subjects of the
    session's decode and inference costs, ``performance_model`` the
    modelled hardware it is priced on, and ``modelled_throughput`` its
    images/second under that model (None: the session cannot be priced);
    sessions that know them override the declared defaults.

    ``streams`` is how many threads may be inside :meth:`execute` at once
    (``EngineConfig.num_streams``): a ``SmolServer`` serves it on that many
    lanes, so a session that is not thread-safe declares 1.
    """

    format_name = ""
    model_name = ""
    performance_model = None
    modelled_throughput = None
    streams = EngineConfig.num_streams

    def __init__(self, plan_key: str) -> None:
        if not plan_key:
            raise ServingError("plan_key must be non-empty")
        self._plan_key = plan_key
        self._warmed = False

    @property
    def plan_key(self) -> str:
        """Stable identifier of the plan this session executes."""
        return self._plan_key

    @property
    def warmed(self) -> bool:
        """True once :meth:`warmup` has run."""
        return self._warmed

    def warmup(self) -> None:
        """Pay one-time setup costs so the first real batch is not slower."""
        self._warmed = True

    def execute(self, requests: Sequence[InferenceRequest]) -> BatchResult:
        """Run one micro-batch and return per-request predictions."""
        raise NotImplementedError


class FunctionalSession(EngineSession):
    """Session running real pixels through a preprocessing DAG and model.

    The DAG is compiled once into a :class:`~repro.fuse.kernel.FusedKernel`
    (shared process-wide per plan fingerprint) and each micro-batch
    executes as batched array ops in the serving lane's scratch.
    Per-image ``PreprocessingDAG.execute`` is the reference oracle: the
    kernel runs the operators' one arithmetic in the same order, so its
    output is bit-identical (``tests/fuse/`` enforces it).  ``faults``/``obs`` thread into the kernel, which keeps
    the ``fuse.execute`` chaos seam and per-segment spans visible.
    """

    def __init__(self, plan_key: str, preprocessing: PreprocessingDAG,
                 model: Sequential, faults=None, obs=None) -> None:
        super().__init__(plan_key)
        preprocessing.validate()
        self._preprocessing = preprocessing
        self._model = model
        self._faults = faults if faults is not None else NULL_FAULTS
        self._obs = obs if obs is not None else NULL_OBS
        self._kernel = get_kernel(preprocessing)

    @property
    def model(self) -> Sequential:
        """The numpy model answering requests."""
        return self._model

    @property
    def preprocessing(self) -> PreprocessingDAG:
        """The pinned preprocessing DAG."""
        return self._preprocessing

    @property
    def kernel(self):
        """The compiled fused kernel micro-batches execute on."""
        return self._kernel

    def warmup(self, probe: np.ndarray | None = None) -> None:
        """Run one dummy image end to end on the path batches take.

        The probe goes through the compiled kernel, not the per-image
        oracle, so the kernel's program for the probe's shape (tap tables,
        output shapes) and the model's plan exist before the first real
        micro-batch.  Scratch and the model's arena are per thread: each
        serving lane first-touches its own arena on its first batch, which
        no warm-up on the constructing thread can do for it.
        """
        if probe is None:
            probe = np.zeros((48, 48, 3), dtype=np.uint8)
        self._model.predict(self._kernel.execute_stacked([probe]))
        super().warmup()

    def _payloads(self, requests: Sequence[InferenceRequest]) -> list:
        payloads = []
        for request in requests:
            if request.payload is None:
                raise ServingError(
                    f"request {request.request_id} has no payload "
                    "(functional sessions need decoded images)"
                )
            payloads.append(request.payload)
        return payloads

    def execute(self, requests: Sequence[InferenceRequest]) -> BatchResult:
        if not requests:
            raise ServingError("cannot execute an empty batch")
        stacked = self._kernel.execute_stacked(
            self._payloads(requests), faults=self._faults, obs=self._obs
        )
        predictions = self._model.predict(stacked)
        if self._obs.enabled:
            PLAN_STATS.publish(self._obs)
        return BatchResult(predictions=predictions)


def session_stage_estimate(performance_model: PerformanceModel, plan: Plan,
                           config: EngineConfig):
    """The stage estimate a simulated session charges batches against.

    Factored out so the adaptive layer (:mod:`repro.adapt`) can register
    calibration baselines from exactly the estimate the session reports
    observations against -- a drift-free session then calibrates to
    observed/modelled ratios of exactly 1.0.
    """
    return performance_model.estimate(
        plan.primary_model, plan.input_format, config,
        roi_fraction=plan.roi_fraction,
    )


class SimulatedSession(EngineSession):
    """Session backed by the calibrated performance model.

    Predictions are deterministic pseudo-labels (stable hash of image id and
    plan), and each batch reports the modelled service time so load tests can
    report accelerator-scale latency figures without accelerator hardware.
    Batches also report per-stage resource seconds (decode / preprocess /
    inference) so runtime telemetry can calibrate observed stage costs.
    """

    def __init__(self, plan: Plan, performance_model: PerformanceModel,
                 config: EngineConfig | None = None,
                 num_classes: int = 1000) -> None:
        super().__init__(plan.describe())
        if num_classes <= 1:
            raise ServingError("num_classes must be at least 2")
        self._plan = plan
        self._performance_model = performance_model
        self._config = config or EngineConfig()
        self._num_classes = num_classes
        self._throughput: float | None = None
        self._stage_seconds: dict[str, float] = {}

    @property
    def plan(self) -> Plan:
        """The plan this session models."""
        return self._plan

    @property
    def format_name(self) -> str:
        """Input-format name of the plan (telemetry subject for decode)."""
        return self._plan.input_format.name

    @property
    def model_name(self) -> str:
        """Primary-model name of the plan (telemetry subject for inference)."""
        return self._plan.primary_model.name

    @property
    def performance_model(self) -> PerformanceModel:
        """The calibrated performance model this session charges against."""
        return self._performance_model

    @property
    def config(self) -> EngineConfig:
        """The engine configuration the session is priced under."""
        return self._config

    @property
    def modelled_throughput(self) -> float:
        """Pipelined images/second from the performance model (post-warmup)."""
        if self._throughput is None:
            raise ServingError("session not warmed")
        return self._throughput

    def warmup(self) -> None:
        """Evaluate the stage estimate once; batches reuse it."""
        estimate = session_stage_estimate(
            self._performance_model, self._plan, self._config
        )
        self._throughput = estimate.pipelined_upper_bound
        self._stage_seconds = estimate.observed_stage_seconds()
        super().warmup()

    def batch_costs(self, batch_size: int) -> tuple[float, dict[str, float]]:
        """Modelled (service seconds, per-stage seconds) for one batch."""
        return (
            batch_size / self._throughput,
            {stage: seconds * batch_size
             for stage, seconds in self._stage_seconds.items()},
        )

    def execute(self, requests: Sequence[InferenceRequest]) -> BatchResult:
        if not requests:
            raise ServingError("cannot execute an empty batch")
        if self._throughput is None:
            self.warmup()
        predictions = np.array(
            [stable_hash(request.image_id, self._plan_key) % self._num_classes
             for request in requests],
            dtype=np.int64,
        )
        modelled_seconds, stage_seconds = self.batch_costs(len(requests))
        return BatchResult(
            predictions=predictions,
            modelled_seconds=modelled_seconds,
            stage_seconds=stage_seconds,
        )


def serving_pipeline_ops(input_size: int = 48, crop_size: int = 32) -> list:
    """The post-decode preprocessing chain serving sessions pin.

    Decode happens at ingest (the request payload is already pixels), so the
    session pipeline starts at resize -- mirroring production servers where
    decode runs on the request path and tensor prep on the batch path.
    """
    return [
        ResizeOp(short_side=input_size),
        CenterCropOp(size=crop_size),
        ConvertDtypeOp("float32"),
        NormalizeOp(),
        ChannelReorderOp(),
    ]


def functional_session_for_plan(plan: Plan | PlanEstimate,
                                num_classes: int = 2,
                                crop_size: int = 32,
                                seed: int = 0) -> FunctionalSession:
    """Build a warmed functional session executing ``plan``.

    The model depth follows the plan's primary DNN (``resnet-50`` maps to the
    depth-50 mini variant) and the crop size follows the session pipeline, so
    deeper plans really are slower -- the property load tests exercise.
    """
    actual = plan.plan if isinstance(plan, PlanEstimate) else plan
    name = actual.primary_model.name
    try:
        depth = int(name.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        depth = 18
    dag = PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=crop_size + 16, crop_size=crop_size)
    )
    model = build_mini_resnet(depth, num_classes=num_classes,
                              input_size=crop_size, seed=seed)
    session = FunctionalSession(actual.describe(), dag, model)
    session.warmup()
    return session


class SessionManager:
    """Holds the live session and performs warm hot-swaps.

    ``ensure`` is the planner-facing entry point: handed the plan key the
    planner currently favors and a factory for the matching session, it swaps
    only when the plan actually changed.  ``lanes`` is the first session's
    ``streams``: every session it makes live may be entered from that many
    serving lanes at once, so one declaring fewer is refused.
    """

    def __init__(self, session: EngineSession) -> None:
        if not session.warmed:
            session.warmup()
        self._session = session
        self._lock = threading.Lock()
        self._swaps = 0
        self.lanes = session.streams

    def check(self, session: EngineSession) -> None:
        """Raise unless ``session`` may be entered from every lane at once."""
        if session.streams < self.lanes:
            raise ServingError(f"{session.plan_key!r} declares {session.streams}"
                               f" stream(s) for {self.lanes} serving lanes")

    def current(self) -> EngineSession:
        """The live session."""
        with self._lock:
            return self._session

    @property
    def swaps(self) -> int:
        """How many hot-swaps have happened."""
        with self._lock:
            return self._swaps

    def swap(self, session: EngineSession) -> EngineSession:
        """Warm ``session`` and atomically make it live; returns the old one."""
        self.check(session)
        if not session.warmed:
            session.warmup()
        with self._lock:
            old, self._session = self._session, session
            self._swaps += 1
        return old

    def ensure(self, plan_key: str,
               factory: Callable[[], EngineSession]) -> bool:
        """Swap to ``factory()`` if the live plan differs; True when swapped."""
        with self._lock:
            if self._session.plan_key == plan_key:
                return False
        self.swap(factory())
        return True


def simulated_session_for_format(model_profile, fmt: InputFormatSpec,
                                 performance_model: PerformanceModel,
                                 config: EngineConfig | None = None,
                                 ) -> SimulatedSession:
    """Convenience builder: a warmed simulated session for (model, format)."""
    plan = Plan.single(model_profile, fmt)
    session = SimulatedSession(plan, performance_model, config=config)
    session.warmup()
    return session
