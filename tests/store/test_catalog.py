"""Cache-aware plan costing: the store catalog and the core cost model."""

import numpy as np
import pytest

from repro.codecs.formats import VIDEO_1080P_H264, VIDEO_480P_H264
from repro.core.accuracy import AccuracyEstimator
from repro.core.costmodel import SmolCostModel
from repro.core.planner import PlanGenerator
from repro.core.plans import Plan
from repro.inference.perfmodel import EngineConfig
from repro.store import (
    MATERIALIZED_DECODE_FRACTION,
    RenditionKey,
    RenditionStore,
)
from repro.store.catalog import materialized_discount


@pytest.fixture()
def store(tmp_path) -> RenditionStore:
    store = RenditionStore(tmp_path / "store")
    store.put_rendition(RenditionKey("taipei", "480p-h264"),
                        np.zeros((4, 8, 8, 3), dtype=np.uint8))
    return store


def test_materialized_discount_shape():
    discount = materialized_discount()
    # Decode is ~82% of preprocessing; collapsing it to a chunk read must
    # buy a substantial but bounded speedup.
    assert 2.0 < discount < 1.0 / MATERIALIZED_DECODE_FRACTION
    assert materialized_discount(decode_fraction=0.0) == 1.0


def test_stale_rendition_does_not_earn_the_discount(tmp_path):
    # A rendition persisted under an old DAG/model fingerprint must not be
    # priced as materialized: the read path would be a cold recompute.
    store = RenditionStore(tmp_path / "store")
    store.put_rendition(RenditionKey("taipei", "480p-h264"),
                        np.zeros((4, 8, 8, 3), dtype=np.uint8),
                        fingerprint="dag-v1")
    current = store.catalog(item="taipei", fingerprint="dag-v1")
    stale = store.catalog(item="taipei", fingerprint="dag-v2")
    assert current.is_materialized("480p-h264")
    assert current.decode_discount("480p-h264") > 1.0
    assert not stale.is_materialized("480p-h264")
    assert stale.decode_discount("480p-h264") == 1.0
    assert "nothing materialized" in stale.describe()


def test_catalog_membership_and_discount(store):
    catalog = store.catalog(item="taipei")
    assert catalog.is_materialized("480p-h264")
    assert not catalog.is_materialized("1080p-h264")
    assert catalog.decode_discount("480p-h264") == materialized_discount()
    assert catalog.decode_discount("1080p-h264") == 1.0
    assert "480p-h264" in catalog.describe()
    # Scoped to another dataset, the rendition does not count.
    assert not store.catalog(item="rialto").is_materialized("480p-h264")


def test_cost_model_discounts_materialized_renditions(store, perf_model,
                                                      resnet18):
    config = EngineConfig(num_producers=4)
    cold = SmolCostModel(perf_model, config)
    warm = cold.with_catalog(store.catalog(item="taipei"))
    materialized = Plan.single(resnet18, VIDEO_480P_H264)
    other = Plan.single(resnet18, VIDEO_1080P_H264)
    discount = materialized_discount()
    assert warm.preprocessing_throughput(materialized) == pytest.approx(
        cold.preprocessing_throughput(materialized) * discount
    )
    # Unmaterialized formats price identically warm and cold.
    assert warm.preprocessing_throughput(other) == \
        cold.preprocessing_throughput(other)
    # End-to-end estimate can only improve (min of stage throughputs).
    assert warm.estimate(materialized).estimated_throughput >= \
        cold.estimate(materialized).estimated_throughput


def test_with_config_preserves_the_catalog(store, perf_model):
    catalog = store.catalog()
    model = SmolCostModel(perf_model, catalog=catalog)
    reconfigured = model.with_config(EngineConfig(num_producers=2))
    assert reconfigured.catalog is catalog


def test_planner_prices_cache_aware(store, perf_model):
    accuracy = AccuracyEstimator("taipei", top_accuracy=0.95,
                                 sensitivity=0.4)
    cost_model = SmolCostModel(perf_model, EngineConfig(num_producers=4))
    formats = (VIDEO_1080P_H264, VIDEO_480P_H264)
    cold_planner = PlanGenerator(cost_model, accuracy)
    warm_planner = PlanGenerator(cost_model, accuracy,
                                 catalog=store.catalog(item="taipei"))

    def best_throughput(planner):
        frontier = planner.pareto_frontier(formats)
        return max(e.throughput for e in frontier)

    # With the 480p rendition materialized, the throughput champion must
    # price at least as fast as under cold costing.
    assert best_throughput(warm_planner) >= best_throughput(cold_planner)
    # And the materialized format's own plans are strictly faster when
    # preprocessing was the bottleneck.
    warm_estimates = warm_planner.score(warm_planner.generate(formats))
    cold_estimates = cold_planner.score(cold_planner.generate(formats))
    for warm_e, cold_e in zip(warm_estimates, cold_estimates):
        assert warm_e.plan.describe() == cold_e.plan.describe()
        if warm_e.plan.input_format.name == "480p-h264":
            assert warm_e.preprocessing_throughput > \
                cold_e.preprocessing_throughput
