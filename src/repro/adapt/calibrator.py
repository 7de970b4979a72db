"""Online cost calibration: folding measured stage costs into the planner.

The :class:`OnlineCalibrator` maintains, per (stage, subject) key, a robust
running estimate of the observed per-image stage cost and compares it to the
calibrated model's baseline for the same key.  The ratio of the two is a
*throughput scale*:

    scale = baseline_per_image_seconds / observed_per_image_seconds

1.0 means the calibrated model was right; 0.25 means the stage runs 4x
slower than modelled.  :meth:`OnlineCalibrator.observed_costs` packages the
current scales as an :class:`ObservedCosts` snapshot, the duck-typed object
:class:`~repro.core.costmodel.CostModel` accepts via ``observations=`` --
so replanning prices every candidate against the world as measured.

Guardrails (the properties the hypothesis suite pins down):

* **validity** -- non-finite, negative, or zero-image samples never enter
  the estimate; calibrated costs are always finite and strictly positive.
* **quantile guard** -- each sample is clipped into the central quantile
  band of the recent raw-sample window before entering the EWMA, so a few
  adversarially noisy timings cannot yank the estimate.
* **hard bounds** -- calibrated costs are clamped to
  ``[baseline / max_scale, baseline * max_scale]``, so scales (and thus
  replanned throughputs) are bounded no matter what the stream does.
* **convergence** -- a constant in-bounds stream converges the EWMA to
  that constant; an empty stream leaves the baseline untouched (scale 1),
  which makes drift-free replanning exactly idempotent.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

from repro.errors import AdaptError

#: The coarse runtime stages measured costs are attributed to.  ``read`` is
#: the chunk-read residual paid instead of decode when an executor streams
#: a materialized rendition; it is reported under its own key so warm-read
#: costs can never contaminate the cold-decode calibration of a format.
STAGES = ("decode", "preprocess", "inference", "read")

#: Stages whose subject is the input-format name (the remaining stage,
#: ``inference``, is keyed by the model name).
FORMAT_STAGES = ("decode", "preprocess", "read")

#: The stages a *decoding* plan pays on the preprocessing side.  This is
#: deliberately not :data:`FORMAT_STAGES`: that tuple also contains
#: ``read`` (the warm chunk-read residual), which a decoding plan never
#: pays -- folding it in would let warm-read calibration contaminate
#: cold-decode pricing.
_DECODING_STAGES = ("decode", "preprocess")


@dataclass(frozen=True)
class StageObservation:
    """One measured (stage, subject) cost sample.

    Attributes
    ----------
    stage:
        One of :data:`STAGES`.
    subject:
        Input-format name for :data:`FORMAT_STAGES`, model name for
        inference.
    images:
        How many images/frames the ``seconds`` cover (per-image cost is
        ``seconds / images``).
    seconds:
        Total resource seconds the stage consumed for those images.
    source:
        Which surface reported it (``"serving"`` / ``"serving/<class>"``
        / ``"cluster"``) -- diagnostic only.
    """

    stage: str
    subject: str
    images: int
    seconds: float
    source: str = ""

    @property
    def valid(self) -> bool:
        """Known stage, named subject, images > 0, finite seconds >= 0."""
        return (self.stage in STAGES and bool(self.subject)
                and self.images > 0 and math.isfinite(self.seconds)
                and self.seconds >= 0.0)


@dataclass(frozen=True)
class ObservationKey:
    """Identity of one calibrated stage cost: (stage, subject).

    ``subject`` is the input-format name for decode/preprocess and the
    model name for inference -- the axes the cost model prices plans on.
    """

    stage: str
    subject: str


class _StageState:
    """Running estimate for one key."""

    __slots__ = ("baseline", "ewma", "samples", "window")

    def __init__(self, baseline: float, window: int) -> None:
        self.baseline = baseline
        self.ewma: float | None = None
        self.samples = 0
        self.window: deque[float] = deque(maxlen=window)


class ObservedCosts:
    """Immutable snapshot of calibrated throughput scales.

    The duck-typed ``observations`` object the core cost model consumes:
    ``preprocessing_scale(format_name, decoding=True)`` combines the
    decode and preprocess stage scales for a format (decode excluded when
    the plan reads a materialized rendition instead of decoding), and
    ``dnn_scale(model_name)`` is the inference-stage scale for a model.
    Unobserved keys scale by exactly 1.0.
    """

    def __init__(self, baselines: dict[ObservationKey, float],
                 calibrated: dict[ObservationKey, float]) -> None:
        self._baselines = dict(baselines)
        self._calibrated = dict(calibrated)

    def _stage_seconds(self, key: ObservationKey) -> tuple[float, float]:
        """(baseline, calibrated) per-image seconds; (0, 0) when unknown."""
        baseline = self._baselines.get(key, 0.0)
        return baseline, self._calibrated.get(key, baseline)

    def scale(self, key: ObservationKey) -> float:
        """Throughput multiplier for one key (1.0 when unobserved)."""
        baseline, calibrated = self._stage_seconds(key)
        if baseline <= 0.0 or calibrated <= 0.0:
            return 1.0
        return baseline / calibrated

    def scales(self) -> dict[ObservationKey, float]:
        """Every known key's throughput scale (drift-detector input)."""
        return {key: self.scale(key) for key in self._baselines}

    def preprocessing_scale(self, format_name: str,
                            decoding: bool = True) -> float:
        """Observed/modelled preprocessing throughput ratio for a format.

        With ``decoding=False`` (the plan reads a materialized rendition,
        so decode is bypassed) only the non-decode preprocess share is
        compared, and an observed decode slowdown does not penalize the
        warm read path.  The inverse isolation also holds: ``read``-stage
        calibration (warm chunk reads) never enters a decoding plan's
        ratio.
        """
        stages = _DECODING_STAGES if decoding else ("preprocess",)
        baseline_total = 0.0
        calibrated_total = 0.0
        for stage in stages:
            baseline, calibrated = self._stage_seconds(
                ObservationKey(stage, format_name)
            )
            baseline_total += baseline
            calibrated_total += calibrated
        if baseline_total <= 0.0 or calibrated_total <= 0.0:
            return 1.0
        return baseline_total / calibrated_total

    def dnn_scale(self, model_name: str) -> float:
        """Observed/modelled DNN-execution throughput ratio for a model."""
        return self.scale(ObservationKey("inference", model_name))


class OnlineCalibrator:
    """EWMA + quantile-guard calibration of per-image stage costs.

    Parameters
    ----------
    alpha:
        EWMA smoothing factor in (0, 1]; higher reacts faster.
    window:
        Recent raw samples kept per key for the quantile guard.
    guard_quantile:
        Samples are clipped into the ``[1 - q, q]`` quantile band of the
        window (once at least ``min_guard_samples`` are present) before
        entering the EWMA.
    min_guard_samples:
        Window size below which the quantile guard is not yet applied
        (the hard bounds always are).
    max_scale:
        Hard bound: calibrated costs stay within ``baseline / max_scale``
        and ``baseline * max_scale``.
    """

    def __init__(self, alpha: float = 0.25, window: int = 32,
                 guard_quantile: float = 0.9,
                 min_guard_samples: int = 8,
                 max_scale: float = 64.0) -> None:
        if not 0.0 < alpha <= 1.0:
            raise AdaptError("alpha must be in (0, 1]")
        if window <= 0:
            raise AdaptError("window must be positive")
        if not 0.5 <= guard_quantile <= 1.0:
            raise AdaptError("guard_quantile must be in [0.5, 1]")
        if min_guard_samples <= 1:
            raise AdaptError("min_guard_samples must be at least 2")
        if max_scale <= 1.0:
            raise AdaptError("max_scale must exceed 1")
        self._alpha = alpha
        self._window = window
        self._guard_quantile = guard_quantile
        self._min_guard_samples = min_guard_samples
        self._max_scale = max_scale
        self._lock = threading.Lock()
        self._states: dict[ObservationKey, _StageState] = {}

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def set_baseline(self, key: ObservationKey,
                     per_image_seconds: float) -> None:
        """Register the calibrated model's per-image cost for ``key``.

        Observations for keys without a baseline are ignored -- without a
        modelled reference there is no ratio to feed back.  Re-registering
        keeps any existing observed estimate (clamped to the new bounds).
        """
        if not math.isfinite(per_image_seconds) or per_image_seconds <= 0:
            raise AdaptError("baseline per-image seconds must be positive "
                             "and finite")
        with self._lock:
            state = self._states.get(key)
            if state is None:
                self._states[key] = _StageState(per_image_seconds,
                                                self._window)
            else:
                state.baseline = per_image_seconds
                if state.ewma is not None:
                    state.ewma = self._clamp(state)

    def baseline(self, key: ObservationKey) -> float | None:
        """The registered baseline per-image seconds, or None."""
        with self._lock:
            state = self._states.get(key)
            return None if state is None else state.baseline

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def _clamp(self, state: _StageState, value: float | None = None) -> float:
        target = state.ewma if value is None else value
        lo = state.baseline / self._max_scale
        hi = state.baseline * self._max_scale
        return min(hi, max(lo, target))

    def _guard(self, state: _StageState, value: float) -> float:
        """Clip one raw sample into the window's central quantile band.

        The band excludes at least the window's extremes (capping the
        quantile index at the second-largest sample), so the guard has
        teeth as soon as ``min_guard_samples`` are present -- a plain
        ``ceil(q * (n-1))`` lands on the max itself for small windows,
        turning the band into [min, max] and clipping nothing.
        """
        samples = sorted(state.window)
        if len(samples) >= self._min_guard_samples:
            hi_index = min(len(samples) - 2,
                           math.ceil(self._guard_quantile
                                     * (len(samples) - 1)))
            # A two-sample window would invert the band (hi < lo) and
            # pin every sample to the minimum; widen back to [min, max]
            # (a no-op guard) instead.
            hi_index = max(hi_index, len(samples) - 1 - hi_index)
            lo_index = len(samples) - 1 - hi_index
            value = min(samples[hi_index], max(samples[lo_index], value))
        return self._clamp(state, value)

    def observe(self, observation: StageObservation) -> bool:
        """Fold one observation in; False when it was rejected."""
        if not observation.valid:
            return False
        per_image = observation.seconds / observation.images
        key = ObservationKey(observation.stage, observation.subject)
        with self._lock:
            state = self._states.get(key)
            if state is None:
                return False
            guarded = self._guard(state, per_image)
            state.window.append(per_image)
            if state.ewma is None:
                state.ewma = guarded
            else:
                state.ewma += self._alpha * (guarded - state.ewma)
            state.ewma = self._clamp(state)
            state.samples += 1
        return True

    def observe_all(self, observations) -> int:
        """Fold a drained batch in; returns how many were used."""
        return sum(1 for obs in observations if self.observe(obs))

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def calibrated(self, key: ObservationKey) -> float | None:
        """Current per-image cost estimate (baseline until observed)."""
        with self._lock:
            state = self._states.get(key)
            if state is None:
                return None
            return state.baseline if state.ewma is None else state.ewma

    def samples(self, key: ObservationKey) -> int:
        """How many observations have been folded in for ``key``."""
        with self._lock:
            state = self._states.get(key)
            return 0 if state is None else state.samples

    def observed_costs(self) -> ObservedCosts:
        """Snapshot the current scales for the cost model / replanner."""
        with self._lock:
            baselines = {key: state.baseline
                         for key, state in self._states.items()}
            calibrated = {
                key: (state.baseline if state.ewma is None else state.ewma)
                for key, state in self._states.items()
            }
        return ObservedCosts(baselines, calibrated)
