"""repro: a reproduction of Smol (Kang et al., VLDB 2020).

Smol jointly optimizes preprocessing (decode, resize, normalize, layout) and
DNN execution for visual analytics queries.  This package re-implements the
full system and every substrate it depends on in pure Python/numpy:

* :mod:`repro.hardware` -- accelerator/CPU/instance models (calibrated).
* :mod:`repro.codecs` -- JPEG-like, PNG-like, and H.264-like codecs with
  partial, early-stopping and reduced-fidelity decoding.
* :mod:`repro.preprocessing` -- preprocessing operators, DAG optimizer, and
  CPU/accelerator placement.
* :mod:`repro.nn` -- a numpy mini neural-network framework plus a calibrated
  model zoo of standard ResNets and specialized NNs.
* :mod:`repro.inference` -- the pipelined MPMC runtime engine, buffer pools,
  and backend efficiency models.
* :mod:`repro.core` -- the Smol planner: preprocessing-aware cost model, plan
  enumeration over DNNs x input formats, Pareto frontier, and constraints.
* :mod:`repro.analytics` -- Tahoma-style cascades and BlazeIt-style
  aggregation queries built on top of Smol.
* :mod:`repro.datasets` -- synthetic multi-resolution image and video
  datasets standing in for the paper's eight evaluation datasets.
* :mod:`repro.measurement` -- the Section 2 measurement study and the
  Section 7 power/dollar cost analysis.
* :mod:`repro.baselines` -- naive ResNets, Tahoma, BlazeIt, DALI-like and
  PyTorch-loader baselines.
* :mod:`repro.serving` -- Smol-Serve, the online serving subsystem: typed
  requests, adaptive micro-batching, plan-aware sessions, prediction
  caching, and an open-loop load generator.
* :mod:`repro.cluster` -- Smol-Cluster, the sharded multi-worker execution
  runtime: replica workers, shard routing, a failover dispatcher with
  heartbeats and circuit breakers, queue-depth autoscaling, and exact
  sharded corpus aggregation.
* :mod:`repro.query` -- Smol-Query, the declarative analytics query
  front-end: one ``QuerySpec`` API for aggregation/limit/cascade queries,
  planner-chosen plans per stage, cheap passes sharded over the cluster
  runtime, and exactly merged per-shard statistics (results bit-identical
  to the single-process engines).
* :mod:`repro.store` -- Smol-Store, the persistent rendition & score
  store: content-addressed chunked storage with an in-memory LRU tier, a
  log-structured versioned manifest with fingerprint invalidation, read/
  write-through scan sessions, and cache-aware plan costing for
  materialized renditions.
* :mod:`repro.adapt` -- Smol-Adapt, online cost-feedback replanning:
  runtime stage-cost telemetry from serving, cluster, and scan execution,
  an EWMA/quantile-guarded online calibrator feeding the cost model, a
  hysteresis drift detector, and a replanner that hot-swaps the chosen
  plan into live servers and in-flight shard scans without changing any
  query result.
* :mod:`repro.obs` -- Smol-Scope, the observability layer: structured
  tracing with trace contexts that ride requests and work items across
  thread and process hops, a unified metrics registry (counters, gauges,
  histograms), a stage-event bus feeding the adaptive telemetry, and
  exporters for JSONL span logs, Chrome ``trace_event`` profiles, and
  Prometheus text -- all behind an allocation-free null default.

Quickstart
----------
>>> from repro import Smol
>>> from repro.datasets import load_image_dataset
>>> dataset = load_image_dataset("bike-bird")
>>> smol = Smol.for_dataset(dataset)
>>> plan = smol.best_plan(accuracy_floor=0.99)
>>> result = smol.run(plan, limit=100)
"""

from repro._version import __version__
from repro.core.smol import Smol
from repro.core.plans import Plan, PlanConstraints
from repro.core.costmodel import (
    SmolCostModel,
    ExecutionOnlyCostModel,
    SerialSumCostModel,
)
from repro.serving import (
    BatchPolicy,
    InferenceRequest,
    LoadGenerator,
    SmolServer,
)
from repro.cluster import (
    AutoscalePolicy,
    Autoscaler,
    ClusterResult,
    Dispatcher,
    LabeledExample,
    ProcessWorker,
    SessionSpec,
    ShardedCorpusRunner,
    ThreadWorker,
)
from repro.query import QueryEngine, QuerySpec
from repro.store import RenditionStore, ScoreKey, StoreCatalog
from repro.adapt import (
    AdaptiveController,
    DriftDetector,
    OnlineCalibrator,
    Replanner,
    TelemetryCollector,
)
from repro.obs import NULL_OBS, Observability

__all__ = [
    "__version__",
    "Smol",
    "Plan",
    "PlanConstraints",
    "SmolCostModel",
    "ExecutionOnlyCostModel",
    "SerialSumCostModel",
    "SmolServer",
    "BatchPolicy",
    "InferenceRequest",
    "LoadGenerator",
    "AutoscalePolicy",
    "Autoscaler",
    "ClusterResult",
    "Dispatcher",
    "LabeledExample",
    "ProcessWorker",
    "SessionSpec",
    "ShardedCorpusRunner",
    "ThreadWorker",
    "QueryEngine",
    "QuerySpec",
    "RenditionStore",
    "ScoreKey",
    "StoreCatalog",
    "AdaptiveController",
    "DriftDetector",
    "OnlineCalibrator",
    "Replanner",
    "TelemetryCollector",
    "Observability",
    "NULL_OBS",
]
