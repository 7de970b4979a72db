"""Tests for shard routing policies."""

import pytest

from repro.cluster import ShardRouter, make_router
from repro.cluster.router import ConsistentHashRouter, RoundRobinRouter
from repro.errors import ClusterError


class TestRoundRobin:
    def test_cycles_through_eligible_workers(self):
        router = RoundRobinRouter()
        eligible = ["a", "b", "c"]
        picks = [router.route(i, eligible) for i in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]

    def test_counter_survives_eligibility_changes(self):
        router = RoundRobinRouter()
        assert router.route(0, ["a", "b"]) == "a"
        assert router.route(1, ["b"]) == "b"
        assert router.route(2, ["a", "b"]) == "a"

    def test_no_eligible_workers_rejected(self):
        with pytest.raises(ClusterError):
            RoundRobinRouter().route(0, [])


class TestConsistentHash:
    def _router(self, workers):
        router = ConsistentHashRouter(virtual_nodes=32)
        for worker in workers:
            router.add_worker(worker)
        return router

    def test_same_key_same_worker(self):
        router = self._router(["a", "b", "c"])
        eligible = ["a", "b", "c"]
        for key in ("img-1", "img-2", "img-99"):
            first = router.route(key, eligible)
            assert all(router.route(key, eligible) == first
                       for _ in range(5))

    def test_keys_spread_over_workers(self):
        router = self._router(["a", "b", "c", "d"])
        eligible = ["a", "b", "c", "d"]
        picks = {router.route(f"img-{i}", eligible) for i in range(200)}
        assert picks == {"a", "b", "c", "d"}

    def test_removing_a_worker_only_moves_its_keys(self):
        router = self._router(["a", "b", "c"])
        eligible = ["a", "b", "c"]
        before = {f"img-{i}": router.route(f"img-{i}", eligible)
                  for i in range(100)}
        router.remove_worker("c")
        survivors = ["a", "b"]
        after = {key: router.route(key, survivors) for key in before}
        for key, owner in before.items():
            if owner != "c":
                assert after[key] == owner, key
            else:
                assert after[key] in survivors

    def test_ineligible_workers_skipped_without_ring_change(self):
        router = self._router(["a", "b"])
        picks = {router.route(f"k-{i}", ["b"]) for i in range(20)}
        assert picks == {"b"}

    def test_unregistered_eligible_workers_fall_back_deterministically(self):
        router = ConsistentHashRouter()
        first = router.route("img-5", ["x", "y"])
        assert first == router.route("img-5", ["y", "x"])

    def test_duplicate_registration_is_idempotent(self):
        router = self._router(["a"])
        router.add_worker("a")
        router.remove_worker("a")
        assert router.route("k", ["b"]) == "b"

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(ClusterError):
            ConsistentHashRouter(virtual_nodes=0)


class TestMakeRouter:
    def test_builds_by_name(self):
        assert isinstance(make_router("round-robin"), RoundRobinRouter)
        assert isinstance(make_router("consistent-hash"),
                          ConsistentHashRouter)

    def test_passes_instances_through(self):
        router = RoundRobinRouter()
        assert make_router(router) is router

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterError):
            make_router("random")

    def test_base_class_route_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ShardRouter().route("k", ["a"])
