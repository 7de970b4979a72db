"""Calibrated per-stage cost models for preprocessing and DNN execution.

The performance model answers two questions for a candidate plan on a given
instance and engine configuration:

* what is the CPU-side preprocessing throughput (decode + resize + normalize +
  layout, with Smol's engine and DAG optimizations applied)?
* what is the accelerator-side throughput (DNN execution plus any preprocessing
  operators placed on the accelerator, plus host-to-device copies)?

The absolute levels are anchored to the paper's measurements (see
:mod:`repro.hardware.calibration`); the structure (how costs scale with
resolution, quality, ROI fraction, vCPU count, and engine optimizations) is
modelled so that lesion/factor analyses and scaling studies reproduce the
paper's shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.codecs.formats import InputFormatSpec
from repro.errors import EngineError
from repro.hardware import calibration as cal
from repro.hardware.devices import CpuSpec, GpuSpec
from repro.hardware.instance import CloudInstance
from repro.inference.backends import ExecutionBackend, get_backend
from repro.inference.memory import PINNED_COPY_SPEEDUP
from repro.nn.zoo import ModelProfile

# Per-image preprocessing stage fractions measured in Figure 1 (decode
# dominates, then resize, normalize, and the channel split/copy).
STAGE_FRACTIONS = {"decode": 0.82, "resize": 0.10, "normalize": 0.06, "split": 0.02}

# Engine-optimization penalty factors (multiplicative throughput loss when an
# optimization is disabled), calibrated to the spreads in Figures 7 and 8.
THREADING_OFF_PENALTY = 2.9      # no thread pool: a single producer thread
MEM_REUSE_OFF_PENALTY = 1.35     # allocate fresh buffers for every image
PINNED_OFF_PENALTY = 1.22        # pageable host-to-device copies
DAG_OFF_PENALTY_FULL = 1.18      # unoptimized operator order/fusion, full res
DAG_OFF_PENALTY_LOWRES = 1.45    # DAG optimization matters more at low res

# Host-to-device copy cost per megabyte of pinned memory, in microseconds.
COPY_US_PER_MB_PINNED = 85.0


@dataclass(frozen=True)
class EngineConfig:
    """Runtime engine configuration (the knobs of Figures 7 and 8).

    Attributes
    ----------
    num_producers:
        Preprocessing worker threads; Smol's heuristic sets this to the vCPU
        count on non-NUMA servers.
    num_streams:
        Execution streams: CUDA streams when simulated.  Functionally,
        ``model.predict`` may be entered from up to ``min(num_streams,
        producers)`` threads at once, and ``num_streams=1`` keeps the calls
        strictly one at a time for a model that is not thread-safe.
    batch_size:
        DNN execution batch size.
    use_threading, reuse_buffers, pinned_memory, optimize_dag:
        The four systems optimizations studied in Figures 7 and 8.
    queue_capacity:
        Upper bound on the batch slots of the functional engine's ring (also
        capped at ``num_producers + 1``); the simulator's queue, in batches.
    """

    num_producers: int = 4
    num_streams: int = 2
    batch_size: int = 64
    use_threading: bool = True
    reuse_buffers: bool = True
    pinned_memory: bool = True
    optimize_dag: bool = True
    queue_capacity: int = 8

    def __post_init__(self) -> None:
        if self.num_producers <= 0 or self.num_streams <= 0:
            raise EngineError("producers and streams must be positive")
        if self.batch_size <= 0 or self.queue_capacity <= 0:
            raise EngineError("batch size and queue capacity must be positive")

    def without(self, optimization: str) -> "EngineConfig":
        """Return a copy with one named optimization disabled (lesion study)."""
        mapping = {
            "threading": "use_threading",
            "mem-reuse": "reuse_buffers",
            "pinned": "pinned_memory",
            "dag": "optimize_dag",
        }
        if optimization not in mapping:
            raise EngineError(
                f"unknown optimization {optimization!r}; known: {sorted(mapping)}"
            )
        return replace(self, **{mapping[optimization]: False})

    @classmethod
    def all_disabled(cls, **kwargs) -> "EngineConfig":
        """Configuration with every systems optimization turned off."""
        return cls(use_threading=False, reuse_buffers=False,
                   pinned_memory=False, optimize_dag=False, **kwargs)


@dataclass(frozen=True)
class StageEstimate:
    """Per-stage throughput estimates for one plan on one configuration.

    Attributes
    ----------
    preprocessing_throughput:
        CPU-side preprocessing images/second (all producers combined).
    dnn_throughput:
        Accelerator-side images/second (DNN execution plus any offloaded
        preprocessing and the host-to-device copy).
    preprocessing_us_per_image:
        Single-thread per-image preprocessing latency broken down by stage.
    dnn_us_per_image:
        Per-image accelerator latency.
    """

    preprocessing_throughput: float
    dnn_throughput: float
    preprocessing_us_per_image: dict[str, float] = field(default_factory=dict)
    dnn_us_per_image: float = 0.0

    @property
    def bottleneck(self) -> str:
        """Which side limits pipelined throughput."""
        if self.preprocessing_throughput <= self.dnn_throughput:
            return "preprocessing"
        return "dnn"

    @property
    def pipelined_upper_bound(self) -> float:
        """The min() of the two stage throughputs (Smol's cost model)."""
        return min(self.preprocessing_throughput, self.dnn_throughput)

    def observed_stage_seconds(self) -> dict[str, float]:
        """Aggregate per-image seconds by coarse runtime stage.

        This is the shape runtime telemetry reports in (see
        :mod:`repro.adapt.telemetry`): ``decode`` and ``preprocess``
        partition the aggregate CPU-side per-image time (``1 /
        preprocessing_throughput``) by the calibrated stage shares, and
        ``inference`` is the accelerator-side per-image time.  Sessions
        that report these exact values produce observed/modelled cost
        ratios of exactly 1.0, so a drift-free system calibrates to the
        identity.
        """
        preprocess_per_image = 1.0 / self.preprocessing_throughput
        total_us = sum(self.preprocessing_us_per_image.values())
        decode_share = (self.preprocessing_us_per_image.get("decode", 0.0)
                        / total_us if total_us > 0 else 0.0)
        decode = preprocess_per_image * decode_share
        return {
            "decode": decode,
            "preprocess": preprocess_per_image - decode,
            "inference": 1.0 / self.dnn_throughput,
        }


class PreprocessingCostModel:
    """CPU preprocessing cost model calibrated to Section 2 / 5.2."""

    def __init__(self, cpu: CpuSpec) -> None:
        self._cpu = cpu

    def base_throughput_4vcpu(self, fmt: InputFormatSpec) -> float:
        """Calibrated preprocessing throughput of ``fmt`` on 4 vCPUs."""
        if fmt.name in cal.PREPROC_THROUGHPUT_4VCPU:
            return cal.PREPROC_THROUGHPUT_4VCPU[fmt.name]
        if fmt.is_video:
            # Video decode cost scales with pixel count relative to 1080p,
            # anchored to the full-resolution image rate (decode dominates).
            full_rate = cal.PREPROC_THROUGHPUT_4VCPU["full-jpeg"]
            pixels_1080p = 1920 * 1080
            scale = pixels_1080p / fmt.resolution.pixels
            return full_rate * 0.55 * scale
        # Unknown image format: scale the nearest calibrated anchor by pixel
        # count and a lossless/lossy factor.
        anchor = cal.PREPROC_THROUGHPUT_4VCPU["161-png" if fmt.lossless
                                               else "161-jpeg-q95"]
        anchor_pixels = 161 * 161 * (4.0 / 3.0)
        return anchor * anchor_pixels / fmt.resolution.pixels

    def per_image_us(self, fmt: InputFormatSpec, roi_fraction: float = 1.0,
                     dag_optimized: bool = True,
                     deblocking: bool = True) -> dict[str, float]:
        """Single-producer per-image stage latencies in microseconds."""
        if not 0 < roi_fraction <= 1.0:
            raise EngineError("roi_fraction must be in (0, 1]")
        base_tp = self.base_throughput_4vcpu(fmt)
        four_vcpu_parallelism = self._cpu.effective_parallelism(4)
        per_image_total = four_vcpu_parallelism * 1e6 / base_tp
        stages = {
            stage: per_image_total * fraction
            for stage, fraction in STAGE_FRACTIONS.items()
        }
        # ROI / partial decoding reduces only the decode stage; raster formats (early
        # stopping) still decode the rows above the ROI.  Both factors are `modelled`:
        # measured, this repo's JPEG decodes a 0.56 window in 0.70 of a full decode.
        capability = fmt.capability
        if roi_fraction < 1.0 and capability.supports_roi():
            if capability.partial_decoding:
                stages["decode"] *= roi_fraction
            else:
                stages["decode"] *= min(1.0, roi_fraction + 0.35)
            stages["resize"] *= roi_fraction
            stages["normalize"] *= roi_fraction
        if not deblocking and capability.reduced_fidelity:
            stages["decode"] *= 0.80
        if not dag_optimized:
            penalty = (DAG_OFF_PENALTY_FULL if fmt.is_full_resolution
                       else DAG_OFF_PENALTY_LOWRES)
            for stage in ("resize", "normalize", "split"):
                stages[stage] *= penalty
            stages["decode"] *= 1.0 + (penalty - 1.0) * 0.25
        return stages

    def throughput(self, fmt: InputFormatSpec, config: EngineConfig,
                   roi_fraction: float = 1.0, deblocking: bool = True,
                   cpu_op_fraction: float = 1.0) -> float:
        """Aggregate CPU preprocessing throughput under ``config``.

        ``cpu_op_fraction`` is the fraction of post-decode preprocessing work
        left on the CPU after operator placement (1.0 = everything on CPU).
        """
        stages = self.per_image_us(fmt, roi_fraction=roi_fraction,
                                   dag_optimized=config.optimize_dag,
                                   deblocking=deblocking)
        decode_us = stages["decode"]
        other_us = sum(v for k, v in stages.items() if k != "decode")
        per_image = decode_us + other_us * cpu_op_fraction
        parallelism = (
            self._cpu.effective_parallelism(config.num_producers)
            if config.use_threading
            else 1.0
        )
        throughput = parallelism * 1e6 / per_image
        if not config.reuse_buffers:
            throughput /= MEM_REUSE_OFF_PENALTY
        return throughput


class DnnCostModel:
    """Accelerator-side cost model: DNN execution, offloaded ops, and copies."""

    def __init__(self, gpu: GpuSpec, backend: ExecutionBackend | str = "tensorrt") -> None:
        self._gpu = gpu
        self._backend = (get_backend(backend) if isinstance(backend, str)
                         else backend)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend in use."""
        return self._backend

    def execution_throughput(self, model: ModelProfile,
                             batch_size: int = 64) -> float:
        """DNN graph execution throughput on this GPU and backend."""
        efficiency = self._backend.efficiency * self._backend.batch_efficiency(
            batch_size
        )
        return model.throughput_on(self._gpu, backend_efficiency=efficiency)

    def copy_us_per_image(self, input_size: int, pinned: bool) -> float:
        """Host-to-device copy latency per image (float32 CHW tensor)."""
        nbytes = 3 * input_size * input_size * 4
        megabytes = nbytes / 1e6
        base = COPY_US_PER_MB_PINNED * megabytes
        return base if pinned else base * PINNED_COPY_SPEEDUP

    def offloaded_preproc_us(self, offloaded_fraction: float,
                             input_size: int) -> float:
        """Accelerator time for preprocessing operators moved to the GPU.

        Resize/normalize-style operators map well onto accelerators, so the
        cost per image is small relative to DNN execution: proportional to
        the tensor size with a fixed kernel-launch overhead.
        """
        if not 0.0 <= offloaded_fraction <= 1.0:
            raise EngineError("offloaded_fraction must be in [0, 1]")
        if offloaded_fraction == 0.0:
            return 0.0
        elements = 3 * input_size * input_size
        per_element_us = 4.0e-4 * (cal.RESNET_T4_THROUGHPUT[50]
                                   / self._gpu.resnet50_throughput)
        launch_overhead_us = 4.0
        return offloaded_fraction * (elements * per_element_us / 1000.0
                                     + launch_overhead_us)

    def throughput(self, model: ModelProfile, config: EngineConfig,
                   offloaded_fraction: float = 0.0) -> float:
        """Aggregate accelerator throughput (execution + copies + offloads)."""
        exec_us = 1e6 / self.execution_throughput(model, config.batch_size)
        copy_us = self.copy_us_per_image(model.input_size, config.pinned_memory)
        offload_us = self.offloaded_preproc_us(offloaded_fraction,
                                               model.input_size)
        per_image = exec_us + copy_us + offload_us
        # Multiple streams overlap copies with execution; with two or more
        # streams most of the copy latency hides behind execution.
        if config.num_streams >= 2:
            per_image = exec_us + offload_us + copy_us * 0.25
        return 1e6 / per_image


class PerformanceModel:
    """End-to-end per-plan performance estimates on one cloud instance."""

    def __init__(self, instance: CloudInstance,
                 backend: ExecutionBackend | str = "tensorrt") -> None:
        self._instance = instance
        self._preproc = PreprocessingCostModel(instance.cpu)
        self._dnn = DnnCostModel(instance.gpu, backend)

    @property
    def instance(self) -> CloudInstance:
        """The instance this model describes."""
        return self._instance

    @property
    def preprocessing_model(self) -> PreprocessingCostModel:
        """The CPU-side cost model."""
        return self._preproc

    @property
    def dnn_model(self) -> DnnCostModel:
        """The accelerator-side cost model."""
        return self._dnn

    def estimate(self, model: ModelProfile, fmt: InputFormatSpec,
                 config: EngineConfig, roi_fraction: float = 1.0,
                 offloaded_fraction: float = 0.0,
                 deblocking: bool = True) -> StageEstimate:
        """Per-stage estimates for one (DNN, format) plan under ``config``."""
        cpu_tp = self._preproc.throughput(
            fmt, config, roi_fraction=roi_fraction, deblocking=deblocking,
            cpu_op_fraction=1.0 - offloaded_fraction,
        )
        dnn_tp = self._dnn.throughput(model, config,
                                      offloaded_fraction=offloaded_fraction)
        stages_us = self._preproc.per_image_us(
            fmt, roi_fraction=roi_fraction,
            dag_optimized=config.optimize_dag, deblocking=deblocking,
        )
        return StageEstimate(
            preprocessing_throughput=cpu_tp,
            dnn_throughput=dnn_tp,
            preprocessing_us_per_image=stages_us,
            dnn_us_per_image=1e6 / dnn_tp,
        )

    def best_offload_fraction(self, model: ModelProfile, fmt: InputFormatSpec,
                              config: EngineConfig,
                              roi_fraction: float = 1.0) -> float:
        """Pick the operator-placement split maximizing pipelined throughput.

        Preprocessing operators form a short chain, so only a few candidate
        fractions need to be evaluated (Section 6.3).
        """
        candidates = (0.0, 0.25, 0.5, 0.75, 1.0)
        best_fraction = 0.0
        best_throughput = -1.0
        for fraction in candidates:
            estimate = self.estimate(model, fmt, config,
                                     roi_fraction=roi_fraction,
                                     offloaded_fraction=fraction)
            if estimate.pipelined_upper_bound > best_throughput:
                best_throughput = estimate.pipelined_upper_bound
                best_fraction = fraction
        return best_fraction
