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
  stage costs measured by serving, cluster, and scan execution (read off
  the observability stage bus), an EWMA/quantile-guarded online
  calibrator feeding the cost model, a
  hysteresis drift detector, and a replanner that hot-swaps the chosen
  plan into live servers and in-flight shard scans without changing any
  query result.
* :mod:`repro.obs` -- Smol-Scope, the observability layer: structured
  tracing with trace contexts that ride requests and work items across
  thread and process hops, a unified metrics registry (counters, gauges,
  histograms), a stage-event bus feeding the adaptive loop, and
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

import sys
from types import ModuleType


class _Package(ModuleType):
    """A package one of whose exports shares its submodule's name.

    ``import repro.chaos.shrink`` ends by setting the submodule on
    ``repro.chaos``, whose export ``shrink`` is the function: that one
    rebinding is dropped, and the name resolves as any other.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (isinstance(value, ModuleType) and name in self._shadowed):
            super().__setattr__(name, value)


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``, whose ``exports``
    maps each re-exported name to the module that defines it.

    Every package in this tree re-exports this way, so importing one module
    runs no sibling subsystem.  A name's first read imports its module and
    binds the value on the package; later reads are plain lookups.  The
    helper lives here because every ``repro.*`` import runs this file first.
    """
    module = sys.modules[package]
    shadowed = {name for name, source in exports.items()
                if source == f"{package}.{name}"}
    if shadowed:
        module._shadowed = shadowed
        module.__class__ = _Package

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # ``__import__``, not ``importlib.import_module``: only the former
        # shows in ``python -X importtime``.
        value = getattr(__import__(exports[name], fromlist=[name]), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(exports))

    return __getattr__, __dir__


_EXPORTS = {
    "__version__": "repro._version",
    "Smol": "repro.core.smol",
    "Plan": "repro.core.plans",
    "PlanConstraints": "repro.core.plans",
    "SmolCostModel": "repro.core.costmodel",
    "SmolServer": "repro.serving.server",
    "BatchPolicy": "repro.serving.scheduler",
    "InferenceRequest": "repro.serving.request",
    "LoadGenerator": "repro.serving.loadgen",
    "AutoscalePolicy": "repro.cluster.autoscaler",
    "Autoscaler": "repro.cluster.autoscaler",
    "Dispatcher": "repro.cluster.dispatcher",
    "LabeledExample": "repro.cluster.runner",
    "ProcessWorker": "repro.cluster.worker",
    "ShardedCorpusRunner": "repro.cluster.runner",
    "ThreadWorker": "repro.cluster.worker",
    "QueryEngine": "repro.query.engine",
    "QuerySpec": "repro.query.spec",
    "RenditionStore": "repro.store.store",
    "ScoreKey": "repro.store.store",
    "StoreCatalog": "repro.store.catalog",
    "AdaptiveController": "repro.adapt.replanner",
    "DriftDetector": "repro.adapt.drift",
    "OnlineCalibrator": "repro.adapt.calibrator",
    "Replanner": "repro.adapt.replanner",
    "Observability": "repro.obs",
    "NULL_OBS": "repro.obs",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
