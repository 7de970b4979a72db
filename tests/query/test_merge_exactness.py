"""Golden merge-exactness tests: sharded merges are bit-identical.

Sharded aggregates -- means, variances, CI half-widths, confusion matrices
-- merged from *arbitrary* random shard splits
(including empty and size-1 shards) must equal the unsharded computation bit
for bit.  Every assertion routes through :func:`assert_bit_identical`, whose
failure message names the diverging statistic and prints both values in full
``repr`` precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.stats import (
    ExactSum,
    MomentSketch,
    exact_sum,
)
from repro.cluster.runner import ShardAggregate, split_frame_ranges
from repro.errors import QueryError


def assert_bit_identical(statistic: str, sharded, unsharded) -> None:
    """Assert two floats/ints are identical, naming the statistic."""
    __tracebackhide__ = True
    if isinstance(sharded, float) and isinstance(unsharded, float):
        identical = (np.float64(sharded).tobytes()
                     == np.float64(unsharded).tobytes())
    else:
        identical = sharded == unsharded
    assert identical, (
        f"{statistic} diverged between sharded and unsharded computation:\n"
        f"  sharded   = {sharded!r}\n"
        f"  unsharded = {unsharded!r}"
    )


def random_split(rng: np.random.Generator, size: int,
                 num_shards: int) -> list[np.ndarray]:
    """Split ``np.arange(size)`` into random contiguous shards.

    Cut points are drawn with replacement, so empty shards and size-1
    shards occur regularly -- exactly the degenerate shapes a failover
    rebalance produces.
    """
    cuts = np.sort(rng.integers(0, size + 1, size=num_shards - 1))
    bounds = np.concatenate([[0], cuts, [size]])
    return [np.arange(bounds[i], bounds[i + 1])
            for i in range(num_shards)]


class TestExactSumMerges:
    @given(seed=st.integers(0, 10_000), num_shards=st.integers(1, 12),
           size=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_merged_sums_match_sequential_sums(self, seed, num_shards, size):
        rng = np.random.default_rng(seed)
        # Wildly varying magnitudes: the regime where naive partial sums
        # visibly depend on grouping.
        values = rng.normal(0, 1, size=size) * 10.0 ** rng.integers(
            -12, 12, size=size
        )
        shards = random_split(rng, size, num_shards)
        total = ExactSum()
        for shard in shards:
            partial = ExactSum()
            partial.add_array(values[shard])
            total.merge(partial)
        assert_bit_identical("sum", total.value, exact_sum(values))

    def test_naive_summation_would_fail_this_suite(self):
        # Sanity check that exactness is load-bearing: left-to-right float
        # addition loses the small addends entirely, while the exact sum
        # recovers the correctly rounded total in any order.
        import math

        values = [1e16, 1.0, 1.0]
        naive = (values[0] + values[1]) + values[2]
        assert naive == 1e16  # both 1.0s absorbed
        assert exact_sum(values) == math.fsum(values) == 1.0000000000000002e16
        assert exact_sum(values[::-1]) == exact_sum(values)

    def test_non_finite_values_rejected(self):
        with pytest.raises(QueryError):
            ExactSum([float("nan")])


class TestMomentSketchMerges:
    @given(seed=st.integers(0, 10_000), num_shards=st.integers(1, 10),
           size=st.integers(2, 400))
    @settings(max_examples=60, deadline=None)
    def test_mean_variance_ci_bit_identical(self, seed, num_shards, size):
        rng = np.random.default_rng(seed)
        values = rng.gamma(2.0, 3.0, size=size) * 10.0 ** rng.integers(
            -6, 6, size=size
        )
        unsharded = MomentSketch.from_values(values)
        shards = random_split(rng, size, num_shards)
        merged = MomentSketch.merge_all(
            [MomentSketch.from_values(values[shard]) for shard in shards]
        )
        assert_bit_identical("count", merged.count, unsharded.count)
        assert_bit_identical("mean", merged.mean, unsharded.mean)
        assert_bit_identical("variance", merged.variance, unsharded.variance)
        assert_bit_identical("ci_half_width", merged.half_width(),
                             unsharded.half_width())

    def test_empty_and_singleton_shards_merge_cleanly(self):
        values = np.array([3.0, 1.0, 4.0, 1.5])
        merged = MomentSketch.merge_all([
            MomentSketch.from_values(values[:0]),   # empty
            MomentSketch.from_values(values[:1]),   # size 1
            MomentSketch.from_values(values[1:]),
            MomentSketch(),                         # never observed anything
        ])
        unsharded = MomentSketch.from_values(values)
        assert_bit_identical("mean", merged.mean, unsharded.mean)
        assert_bit_identical("variance", merged.variance, unsharded.variance)

    def test_degenerate_sketches(self):
        assert MomentSketch().variance == 0.0
        assert MomentSketch.from_values([5.0]).variance == 0.0
        with pytest.raises(QueryError):
            _ = MomentSketch().mean


class TestConfusionMatrixMerges:
    @given(seed=st.integers(0, 10_000), num_shards=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_confusion_and_accuracy_ci_bit_identical(self, seed, num_shards):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        num_classes = int(rng.integers(2, 9))
        labels = rng.integers(0, num_classes, size=size)
        predictions = rng.integers(0, num_classes, size=size)
        unsharded = ShardAggregate(shard_id=0, num_classes=num_classes)
        unsharded.observe(labels.tolist(), predictions.tolist())
        shards = random_split(rng, size, num_shards)
        partials = []
        for shard_id, shard in enumerate(shards):
            partial = ShardAggregate(shard_id=shard_id,
                                     num_classes=num_classes)
            partial.observe(labels[shard].tolist(),
                            predictions[shard].tolist())
            partials.append(partial)
        merged = ShardAggregate.merge_all(partials, num_classes)
        assert_bit_identical("count", merged.count, unsharded.count)
        assert_bit_identical("accuracy", merged.accuracy, unsharded.accuracy)
        assert_bit_identical("mean_prediction", merged.mean_prediction,
                             unsharded.mean_prediction)
        assert_bit_identical("accuracy_ci_half_width",
                             merged.accuracy_ci_half_width(),
                             unsharded.accuracy_ci_half_width())
        assert (merged.confusion == unsharded.confusion).all(), (
            "confusion matrix diverged between sharded and unsharded "
            f"computation:\n{merged.confusion}\nvs\n{unsharded.confusion}"
        )


class TestFrameRangeSplits:
    def test_ranges_cover_and_balance(self):
        ranges = split_frame_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_shards_than_items_yields_empty_tails(self):
        ranges = split_frame_ranges(2, 4)
        assert ranges == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_items_allowed(self):
        assert split_frame_ranges(0, 2) == [(0, 0), (0, 0)]

    def test_invalid_parameters_rejected(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            split_frame_ranges(5, 0)
        with pytest.raises(ClusterError):
            split_frame_ranges(-1, 2)
