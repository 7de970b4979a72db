"""Tests for the package's public API surface."""

import importlib

import pytest

import repro


PUBLIC_SUBPACKAGES = [
    "repro.hardware",
    "repro.codecs",
    "repro.preprocessing",
    "repro.nn",
    "repro.inference",
    "repro.core",
    "repro.analytics",
    "repro.datasets",
    "repro.measurement",
    "repro.baselines",
    "repro.serving",
    "repro.cluster",
    "repro.query",
    "repro.store",
    "repro.adapt",
    "repro.obs",
    "repro.chaos",
    "repro.utils",
    "repro.cli",
]


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
                  "take_cost_report", "heartbeat_age", "stats", "plan_key")
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

    def test_fuse_exports_exactly_the_kernel_cache_and_transport(self):
        # One arithmetic per operator: batch capability is declared on the
        # op class (``batched``), so the package exports no per-op
        # extension entry points and has no registry module.
        fuse = importlib.import_module("repro.fuse")
        assert sorted(fuse.__all__) == [
            "DEFAULT_KERNEL_CACHE", "FUSE_STATS", "FusedKernel", "HAS_SHM",
            "KernelCache", "ShmBatchRef", "ShmBatchTransport", "compile_dag",
            "dag_fingerprint", "get_kernel", "worker_shm_prefix",
        ]
        public = {name for name in vars(fuse) if not name.startswith("_")}
        assert public - set(fuse.__all__) <= {"compiler", "kernel", "shm"}
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

    def test_smol_facade_exported_at_top_level(self):
        assert repro.Smol is importlib.import_module("repro.core.smol").Smol

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type):
                assert obj.__doc__, f"{name} is missing a docstring"
