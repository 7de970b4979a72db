"""Tests for sharded corpus execution and exact aggregate merging."""

import numpy as np
import pytest

from repro.cluster import (
    Dispatcher,
    LabeledExample,
    ShardedCorpusRunner,
    ThreadWorker,
    run_single_process,
)
from repro.cluster.runner import ShardAggregate, assign_shards
from repro.errors import ClusterError

from cluster_testlib import ScriptedSession


def _corpus(n: int, num_classes: int = 7) -> list[LabeledExample]:
    return [LabeledExample(image_id=f"img-{i}", label=i % num_classes)
            for i in range(n)]


def _factory(worker_id, results):
    return ThreadWorker(worker_id, ScriptedSession(), results)


class TestAssignShards:
    def test_round_robin_balances_exactly(self):
        shards = assign_shards(_corpus(10), 3, policy="round-robin")
        assert [len(s) for s in shards] == [4, 3, 3]

    def test_consistent_hash_is_order_invariant(self):
        corpus = _corpus(50)
        forward = assign_shards(corpus, 4, policy="consistent-hash")
        backward = assign_shards(list(reversed(corpus)), 4,
                                 policy="consistent-hash")
        for shard_f, shard_b in zip(forward, backward):
            assert {e.image_id for e in shard_f} == \
                {e.image_id for e in shard_b}

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ClusterError):
            assign_shards(_corpus(4), 0)
        with pytest.raises(ClusterError):
            assign_shards(_corpus(4), 2, policy="alphabetical")


class TestShardAggregate:
    def test_observe_tracks_counts_and_confusion(self):
        aggregate = ShardAggregate(shard_id=0, num_classes=3)
        aggregate.observe([0, 1, 2], [0, 2, 2], modelled_seconds=0.5)
        assert aggregate.count == 3
        assert aggregate.correct == 2
        assert aggregate.prediction_sum == 4
        assert aggregate.accuracy == pytest.approx(2 / 3)
        assert aggregate.mean_prediction == pytest.approx(4 / 3)
        assert aggregate.confusion[1, 2] == 1
        assert aggregate.confusion.sum() == 3

    def test_merge_is_exact_and_associative(self):
        a = ShardAggregate(shard_id=0, num_classes=3)
        b = ShardAggregate(shard_id=1, num_classes=3)
        c = ShardAggregate(shard_id=2, num_classes=3)
        a.observe([0, 1], [0, 1])
        b.observe([2], [1])
        c.observe([1, 1, 2], [1, 0, 2])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.count == right.count == 6
        assert left.correct == right.correct
        assert np.array_equal(left.confusion, right.confusion)

    def test_merge_rejects_mismatched_arity(self):
        a = ShardAggregate(shard_id=0, num_classes=3)
        b = ShardAggregate(shard_id=1, num_classes=4)
        with pytest.raises(ClusterError):
            a.merge(b)

    def test_arity_must_be_at_least_two(self):
        with pytest.raises(ClusterError):
            ShardAggregate(shard_id=0, num_classes=1)

    def test_out_of_range_values_raise_instead_of_wrapping(self):
        aggregate = ShardAggregate(shard_id=0, num_classes=3)
        with pytest.raises(ClusterError, match="outside"):
            aggregate.observe([0], [57])
        with pytest.raises(ClusterError, match="outside"):
            aggregate.observe([5], [0])
        with pytest.raises(ClusterError, match="outside"):
            aggregate.observe([-1], [0])


class TestShardedCorpusRunner:
    def test_sharded_totals_equal_single_process_exactly(self):
        corpus = _corpus(300)
        runner = ShardedCorpusRunner(_factory, num_workers=3, num_classes=7,
                                     batch_size=16)
        sharded = runner.run(corpus)
        single = run_single_process(corpus, ScriptedSession(), num_classes=7,
                                    batch_size=16)
        assert sharded.total.count == single.total.count == 300
        assert sharded.total.correct == single.total.correct
        assert sharded.total.prediction_sum == single.total.prediction_sum
        assert np.array_equal(sharded.total.confusion, single.total.confusion)

    def test_shard_policy_does_not_change_the_totals(self):
        corpus = _corpus(200)
        by_policy = {}
        for policy in ("round-robin", "consistent-hash"):
            runner = ShardedCorpusRunner(_factory, num_workers=4,
                                         num_classes=7, batch_size=16,
                                         shard_policy=policy)
            by_policy[policy] = runner.run(corpus)
        first, second = by_policy.values()
        assert first.total.correct == second.total.correct
        assert np.array_equal(first.total.confusion, second.total.confusion)

    def test_modelled_makespan_shrinks_with_more_workers(self):
        corpus = _corpus(256)
        reports = {}
        for workers in (1, 2, 4):
            runner = ShardedCorpusRunner(_factory, num_workers=workers,
                                         num_classes=7, batch_size=16)
            reports[workers] = runner.run(corpus)
        t1 = reports[1].simulated_throughput
        assert reports[2].simulated_throughput >= 1.7 * t1
        assert reports[4].simulated_throughput >= 3.0 * t1

    def test_describe_mentions_the_scorecard(self):
        runner = ShardedCorpusRunner(_factory, num_workers=2, num_classes=7,
                                     batch_size=8)
        report = runner.run(_corpus(40))
        text = report.describe()
        assert "accuracy" in text
        assert "throughput" in text

    def test_failover_mid_corpus_keeps_aggregates_exact(self):
        corpus = _corpus(400)
        single = run_single_process(corpus, ScriptedSession(), num_classes=7,
                                    batch_size=16)
        runner = ShardedCorpusRunner(_factory, num_workers=3, num_classes=7,
                                     batch_size=16)
        dispatcher = Dispatcher(_factory, num_workers=3,
                                heartbeat_timeout_s=0.5)
        try:
            # Kill a replica while the run's batches are being dispatched:
            # the run must still complete with identical global aggregates.
            import threading

            killer = threading.Timer(
                0.01, lambda: dispatcher.worker(
                    dispatcher.live_workers()[0]).kill()
            )
            killer.start()
            sharded = runner.run(corpus, dispatcher=dispatcher)
            killer.join()
        finally:
            dispatcher.close()
        assert sharded.total.count == single.total.count
        assert sharded.total.correct == single.total.correct
        assert np.array_equal(sharded.total.confusion, single.total.confusion)

    def test_traced_run_records_one_cluster_item_per_batch(self):
        from repro.obs import Observability

        obs = Observability()
        runner = ShardedCorpusRunner(_factory, num_workers=2, num_classes=7,
                                     batch_size=8, obs=obs)
        report = runner.run(_corpus(64))
        items = [span for span in obs.spans() if span.name == "cluster.item"]
        assert report.total.count == 64
        assert sum(span.attrs["batch"] for span in items) == 64

    def test_functional_replicas_classify_decoded_payloads(self, resnet18):
        # Functional replicas run real pixels, so every example must carry
        # its decoded payload; the sharded totals match one process.
        from repro.codecs.formats import THUMB_PNG_161
        from repro.core.plans import Plan
        from repro.datasets.synthetic import SyntheticImageGenerator
        from repro.serving import functional_session_for_plan

        plan = Plan.single(resnet18, THUMB_PNG_161)
        generator = SyntheticImageGenerator(num_classes=2, image_size=48,
                                            seed=0)
        corpus = [LabeledExample(image_id=f"img-{i}", label=i % 2,
                                 payload=generator.generate_image(i % 2,
                                                                  i).pixels)
                  for i in range(24)]

        def factory(worker_id, results):
            return ThreadWorker(worker_id, functional_session_for_plan(plan),
                                results)

        runner = ShardedCorpusRunner(factory, num_workers=2, num_classes=2,
                                     batch_size=8,
                                     format_name=THUMB_PNG_161.name)
        sharded = runner.run(corpus)
        single = run_single_process(corpus, functional_session_for_plan(plan),
                                    num_classes=2, batch_size=8,
                                    format_name=THUMB_PNG_161.name)
        assert sharded.total.count == single.total.count == 24
        assert np.array_equal(sharded.total.confusion, single.total.confusion)

    def test_empty_corpus_rejected(self):
        runner = ShardedCorpusRunner(_factory, num_workers=2)
        with pytest.raises(ClusterError):
            runner.run([])

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ClusterError):
            ShardedCorpusRunner(_factory, batch_size=0)
