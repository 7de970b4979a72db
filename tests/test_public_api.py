"""Tests for the package's public API surface."""

import ast
import importlib
from pathlib import Path

import pytest

import repro


SRC = Path(__file__).resolve().parent.parent / "src"
PUBLIC_SUBPACKAGES = [
    *sorted(f"repro.{path.parent.name}"
            for path in (SRC / "repro").glob("*/__init__.py")),
    "repro.cli",
]

# Names a package re-exported until nothing outside tests read them through
# it (tests/test_reachability.py); each stays importable from its module.
REMOVED_EXPORTS = {
    "repro": (
        "ClusterResult ExecutionOnlyCostModel SerialSumCostModel"),
    "repro.adapt": (
        "ControllerStats DriftSnapshot PhaseReport ReplanDecision "
        "ScenarioReport plan_baselines"),
    "repro.analytics": (
        "ClassificationQuery ExactSum LimitQueryResult PairedMomentSketch "
        "SamplingResult control_variate_mean exact_sum "
        "required_sample_size uniform_sample_mean"),
    "repro.chaos": (
        "ChaosReport DriftPhase FaultClock FaultHook HashSession "
        "ShrinkResult VirtualFaultClock shrink_candidates"),
    "repro.cluster": (
        "BreakerState ClusterResult ConsistentHashRouter DispatcherStats "
        "ROUTER_POLICIES RoundRobinRouter SHARD_POLICIES ScaleEvent "
        "ShardAggregate WorkerStats assign_shards"),
    "repro.codecs": (
        "EncodedVideo FORMAT_REGISTRY ProgressiveCodec ProgressiveEncoded "
        "VideoFrameRef"),
    "repro.core": (
        "AccuracyEstimate ExecutionOnlyCostModel FineTuneResult "
        "SerialSumCostModel"),
    "repro.datasets": (
        "DatasetStats ImageDataset StoredRendition render_class_image"),
    "repro.fuse": (
        "FUSE_STATS KernelCache compile_dag"),
    "repro.hardware": (
        "GPU_CATALOG PowerBreakdown SimClock list_instances"),
    "repro.inference": (
        "DnnCostModel FormatProfile PreprocessingCalibrator "
        "PreprocessingCostModel"),
    "repro.measurement": (
        "BackendComparison CostBreakdown InferenceBreakdown"),
    "repro.nn": (
        "Flatten GraphProto MiniConvNet TrainingResult export_graph "
        "import_graph list_model_profiles"),
    "repro.obs": (
        "CriticalPathReport PostmortemBundle SloEngine chrome_trace"),
    "repro.preprocessing": (
        "OptimizationReport Placement PlacementDecision "
        "PlacementOptimizer arithmetic_ops standard_pipeline_ops"),
    "repro.query": (
        "AggregateQueryResult CascadeQueryResult LimitQueryShardedResult "
        "QUERY_KINDS QueryExecution QueryStagePlans ScanSession "
        "decode_scores encode_scores frame_id"),
    "repro.serving": (
        "ArrivalTrace LoadReport LruCache MultiTenantLoadGenerator "
        "MultiTenantLoadReport ServerStats TenantLoadSpec "
        "TenantServingStats burst_arrivals diurnal_arrivals "
        "flash_crowd_arrivals poisson_arrivals"),
    "repro.store": (
        "ChunkedReader GcReport StoreEvent StoreStats "
        "materialized_discount"),
    "repro.tenant": (
        "DEFAULT_CLASSES LadderRung PlanLadder TenantQuotaStats "
        "TenantSloBoard TokenBucket"),
    "repro.utils": (
        "SimTimer Throughput bench_payload dominates format_table "
        "images_per_second megapixels per_image_us s_to_us us_to_s"),
}


def test_every_subpackage_has_a_module_docstring():
    """Each ``src/repro/*/__init__.py`` must state the package's role."""
    for module_name in PUBLIC_SUBPACKAGES:
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_top_level_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", PUBLIC_SUBPACKAGES)
    def test_subpackages_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", PUBLIC_SUBPACKAGES)
    def test_subpackage_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"

    @pytest.mark.parametrize("package", sorted(REMOVED_EXPORTS))
    def test_removed_exports_are_gone(self, package):
        module = importlib.import_module(package)
        for name in REMOVED_EXPORTS[package].split():
            assert name not in module.__all__, f"{package}.{name}"
            assert name not in dir(module), f"{package}.{name}"

    def test_serving_exports_one_scheduler_and_no_queue_batcher_pair(self):
        serving = importlib.import_module("repro.serving")
        for name in ("AdmissionQueue", "MicroBatcher"):
            assert name not in serving.__all__
            assert not hasattr(serving, name), name
        scheduler = importlib.import_module("repro.serving.scheduler")
        tenant = importlib.import_module("repro.tenant")
        assert serving.BatchPolicy is scheduler.BatchPolicy
        # The scheduler lives in one package: repro.tenant declares
        # classes with its ClassPolicy but re-exports no scheduler names.
        assert tenant.ClassPolicy is scheduler.ClassPolicy
        for name in ("DrrScheduler", "ClassBatch"):
            assert name not in tenant.__all__
            assert not hasattr(tenant, name), name

    def test_cluster_worker_has_one_body_and_no_dead_helpers(self):
        # One replica implementation behind both constructors; the
        # caller-less predictions_array helper left with the second copy.
        worker = importlib.import_module("repro.cluster.worker")
        assert not hasattr(worker, "predictions_array")
        shared = ("submit", "queue_depth", "pending_items",
                  "heartbeat_age", "stats", "plan_key")
        for cls in (worker.ThreadWorker, worker.ProcessWorker):
            assert issubclass(cls, worker.Worker)
            assert not set(shared) & set(vars(cls)), cls.__name__

    def test_inference_exports_no_buffer_pool(self):
        # The engine's buffers are the slots of its batch ring; the pool
        # classes and their exhaustion error left with the per-image queue.
        inference = importlib.import_module("repro.inference")
        memory = importlib.import_module("repro.inference.memory")
        errors = importlib.import_module("repro.errors")
        for name in ("BufferPool", "PinnedBufferPool"):
            assert name not in inference.__all__
            assert not hasattr(inference, name), name
            assert not hasattr(memory, name), name
        assert not hasattr(errors, "BufferPoolExhaustedError")
        assert inference.MemoryStats is memory.MemoryStats
        # Still the cluster's hand-off primitive.
        assert "MpmcQueue" in inference.__all__

    def test_fuse_exports_exactly_the_kernel_cache(self):
        # One arithmetic per operator: batch capability is declared on the
        # op class (``batched``), so the package exports no per-op
        # extension entry points and has no registry module.
        fuse = importlib.import_module("repro.fuse")
        assert sorted(fuse.__all__) == [
            "DEFAULT_KERNEL_CACHE", "FusedKernel", "dag_fingerprint",
            "get_kernel",
        ]
        public = {name for name in vars(fuse) if not name.startswith("_")}
        assert public - set(fuse.__all__) <= {"compiler", "kernel"}
        assert fuse.dag_fingerprint is importlib.import_module(
            "repro.store").dag_fingerprint

    def test_store_manifest_is_a_log_not_a_file_it_saves_whole(self):
        # The handle catches up, appends and folds; the catalog itself is
        # the immutable ``ManifestVersion`` it publishes.  ``save``,
        # ``get``, ``entries`` and ``referenced_objects`` left with the
        # reload-merge-rewrite manifest.
        store = importlib.import_module("repro.store")
        public = {name for name in vars(store.Manifest)
                  if not name.startswith("_")}
        assert public == {"load", "refresh", "commit", "checkpoint"}
        version = store.Manifest.load("/nonexistent-store-root").version
        assert isinstance(version, store.ManifestVersion)
        assert (version.sequence, version.entries) == (0, {})

    def test_stage_costs_travel_one_way_the_stage_bus(self):
        # The direct channel beside the bus is gone end to end: no
        # collector, no server/dispatcher hooks into it, no second SLO
        # subscription -- the controller listens on its obs= alone.
        import inspect

        adapt = importlib.import_module("repro.adapt")
        for name in ("TelemetryCollector", "TelemetryCounters"):
            assert name not in adapt.__all__ and name not in repro.__all__
            assert not hasattr(adapt, name), name
        with pytest.raises(ImportError):
            importlib.import_module("repro.adapt.telemetry")
        server = importlib.import_module("repro.serving.server").SmolServer
        assert "telemetry" not in inspect.signature(server).parameters
        assert not hasattr(server, "telemetry")
        dispatcher = importlib.import_module(
            "repro.cluster.dispatcher").Dispatcher
        assert not hasattr(dispatcher, "attach_telemetry")
        controller = adapt.AdaptiveController
        assert "telemetry" not in inspect.signature(controller).parameters
        assert not hasattr(controller, "watch_slo")
        assert adapt.StageObservation is importlib.import_module(
            "repro.adapt.calibrator").StageObservation

    def test_cluster_costs_reach_the_bus_per_batch_not_per_report(self):
        # A resolved batch's outcome carries its stage events; the
        # per-replica cost window, its take and the heartbeat flush are gone.
        cluster = importlib.import_module("repro.cluster")
        worker = importlib.import_module("repro.cluster.worker")
        assert "WorkerCostReport" not in cluster.__all__
        assert not hasattr(cluster, "WorkerCostReport")
        assert not hasattr(worker, "WorkerCostReport")
        assert not hasattr(worker.Worker, "take_cost_report")
        dispatcher = importlib.import_module(
            "repro.cluster.dispatcher").Dispatcher
        assert not hasattr(dispatcher, "_flush_cost_reports")
        fields = worker.WorkOutcome.__dataclass_fields__
        assert "stages" in fields and "stage_seconds" not in fields

    def test_replicas_take_the_session_they_run(self):
        # Thread and process replicas both take ``(worker_id, session,
        # results)``: the picklable session recipe and the thread
        # replica's modelled-time sleep are gone.
        import inspect

        cluster = importlib.import_module("repro.cluster")
        worker = importlib.import_module("repro.cluster.worker")
        for module in (repro, cluster, worker):
            assert "SessionSpec" not in getattr(module, "__all__", ())
            assert not hasattr(module, "SessionSpec")
        assert "service_time_scale" not in inspect.signature(
            cluster.ThreadWorker).parameters
        assert list(inspect.signature(cluster.ProcessWorker).parameters) == [
            "worker_id", "session", "results"]

    def test_process_predictions_travel_inside_their_outcome(self):
        # The shared-memory batch transport is gone: no segment, descriptor
        # or prefix, no outcome field for a descriptor and no transport on
        # the process replica.
        fuse = importlib.import_module("repro.fuse")
        worker = importlib.import_module("repro.cluster.worker")
        for name in ("ShmBatchTransport", "ShmBatchRef", "HAS_SHM",
                     "worker_shm_prefix"):
            assert name not in fuse.__all__ and not hasattr(fuse, name), name
        with pytest.raises(ImportError):
            importlib.import_module("repro.fuse.shm")
        assert "shm" not in worker.WorkOutcome.__dataclass_fields__
        assert not hasattr(worker.ProcessWorker, "transport")

    def test_the_cluster_tier_imports_nothing_from_fuse(self):
        # With the transport gone, a replica moves predictions with the
        # rest of its outcome; the kernel cache is the session's business.
        package = Path(importlib.import_module("repro.cluster").__file__)
        walked, fuse_imports = [], []
        for path in sorted(package.parent.glob("*.py")):
            walked.append(path.name)
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                fuse_imports += [f"{path.name}: {module}" for module in modules
                                 if module == "repro.fuse"
                                 or module.startswith("repro.fuse.")]
        assert "worker.py" in walked
        assert fuse_imports == []

    def test_the_codecs_import_little_outside_their_package(self):
        # The decoder's GEMM goes through repro.utils.blas, not repro.nn:
        # the codecs depend on no model code and no preprocessing.
        package = Path(importlib.import_module("repro.codecs").__file__)
        outside = set()
        for path in sorted(package.parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                outside |= {(path.name, module) for module in modules
                            if module.startswith("repro.") and module != "repro.errors"
                            and not module.startswith("repro.codecs")}
        assert outside == {("jpeg.py", "repro.utils")}

    def test_preprocessing_pipeline_is_a_chain_not_a_graph(self):
        # The networkx graph, its node ids and its four order accessors
        # are gone: a pipeline is the op tuple and per-op devices
        # ``from_ops`` fixed, read through ``ops`` / ``devices``.
        preprocessing = importlib.import_module("repro.preprocessing")
        dag_module = importlib.import_module("repro.preprocessing.dag")
        assert "DagNode" not in preprocessing.__all__
        for module in (preprocessing, dag_module):
            assert not hasattr(module, "DagNode")
            assert not hasattr(module, "nx")
        dag_class = preprocessing.PreprocessingDAG
        for name in ("add_op", "add_edge", "node", "nodes", "num_nodes",
                     "copy", "assign_devices", "execution_order",
                     "topological_ops", "op_sequence", "validate"):
            assert not hasattr(dag_class, name), name
        for name in ("ops", "devices"):
            assert isinstance(vars(dag_class)[name], property), name
            assert vars(dag_class)[name].fset is None, name

    def test_smol_facade_exported_at_top_level(self):
        assert repro.Smol is importlib.import_module("repro.core.smol").Smol

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} is missing a docstring"
