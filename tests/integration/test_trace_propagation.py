"""Integration: trace contexts survive thread/process hops and failover.

The acceptance bar for Smol-Scope: a traced cluster query yields ONE
connected span tree spanning the dispatcher, the workers (including a
worker living in a child process, where only the picklable
``(trace_id, span_id)`` tuple rides the multiprocessing queues), session
stages, and store reads -- and the tree stays connected when a replica is
killed mid-run and its items fail over.  Tracing must never change query
results: traced scores are bit-identical to an untraced run.
"""

import multiprocessing

import pytest

from cluster_testlib import ScriptedSession, simulated_session
from repro.cluster import Dispatcher, ProcessWorker, ThreadWorker
from repro.obs import Observability, validate_span_tree
from repro.query import QueryEngine, QuerySpec
from repro.serving import InferenceRequest
from repro.store import RenditionStore

def _process_factory(worker_id, results):
    return ProcessWorker(worker_id, simulated_session(), results)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process workers need the fork start method",
)
class TestProcessWorkerPropagation:
    def test_trace_ids_ride_the_mp_queue_into_one_tree(self):
        obs = Observability()
        with Dispatcher(_process_factory, num_workers=2,
                        obs=obs) as dispatcher:
            root = obs.span("test.workload")
            with obs.activate(root.context):
                futures = [
                    dispatcher.submit(
                        [InferenceRequest(image_id=f"img-{i}-{j}")
                         for j in range(4)])
                    for i in range(6)
                ]
                for future in futures:
                    future.result(timeout=30.0)
            root.finish()
        spans = obs.spans()
        tree = validate_span_tree(spans)
        assert tree.connected, tree.problems
        assert tree.covers("cluster.item", "cluster.dispatch",
                           "cluster.execute", "stage.")

        # Every execute span parents into its item span, even though the
        # execution happened in a child process: the outcome carried only
        # the context tuple back over the mp queue.
        by_id = {span.span_id: span for span in spans}
        executes = [s for s in spans if s.name == "cluster.execute"]
        assert len(executes) == 6
        for execute in executes:
            assert by_id[execute.parent_id].name == "cluster.item"
            assert "worker" in execute.attrs

        # Modelled stage spans hang off their execute span.
        stages = [s for s in spans if s.name.startswith("stage.")]
        assert stages
        for stage in stages:
            assert by_id[stage.parent_id].name == "cluster.execute"


class TestFailoverPropagation:
    def test_failover_retry_keeps_the_tree_connected(self):
        obs = Observability()

        def slow_factory(worker_id, results):
            # Batches occupy their replica for real wall time so the kill
            # deterministically lands while items are queued/in flight.
            return ThreadWorker(worker_id, ScriptedSession(delay_s=0.014),
                                results, obs=obs)

        with Dispatcher(slow_factory, num_workers=3,
                        heartbeat_timeout_s=0.5, obs=obs) as dispatcher:
            root = obs.span("test.workload")
            with obs.activate(root.context):
                futures = [
                    dispatcher.submit(
                        [InferenceRequest(image_id=f"img-{i}-{j}")
                         for j in range(8)])
                    for i in range(12)
                ]
                dispatcher.worker(dispatcher.live_workers()[0]).kill()
                for future in futures:
                    future.result(timeout=30.0)
            root.finish()
            stats = dispatcher.stats()
        assert stats.worker_deaths == 1
        spans = obs.spans()
        names = {span.name for span in spans}
        # The kill must have produced recovery spans -- either the monitor
        # re-dispatching the dead replica's items or a retried outcome.
        assert names & {"cluster.failover", "cluster.retry"}
        tree = validate_span_tree(spans)
        assert tree.connected, tree.problems
        assert len(
            [s for s in spans if s.name == "cluster.execute"]) == 12


def _signature(result):
    return (result.estimate, result.ci_half_width,
            result.target_invocations, result.population_proxy_mean)


class TestFullStackSingleTree:
    def test_traced_store_backed_query_is_one_tree_and_bit_identical(
            self, tmp_path):
        spec = QuerySpec.aggregate("taipei", error_bound=0.05,
                                   specialized_accuracy=0.9)
        reference = QueryEngine(frame_limit=1200, batch_size=128).execute(
            spec, num_workers=2, seed=0)

        obs = Observability()
        store = RenditionStore(tmp_path, obs=obs)
        engine = QueryEngine(frame_limit=1200, batch_size=128,
                             store=store, obs=obs)
        root = obs.span("test.workload")
        with obs.activate(root.context):
            # Warming inside the root span keeps cold-store writes (which
            # happen on this thread) inside the tree; worker-side store
            # access is then warm reads inside traced scan batches.
            engine.warm(spec)
            result = engine.execute(spec, num_workers=2, seed=0)
        root.finish()

        assert _signature(result) == _signature(reference)
        tree = validate_span_tree(obs.spans())
        assert tree.connected, tree.problems
        # Stage spans need a pace attached (adaptive scans); a bare query
        # covers the planning, scan, cluster-hop, and store layers.
        assert tree.covers("query.execute", "query.plan", "query.scan",
                           "cluster.", "store.read", "store.put")
