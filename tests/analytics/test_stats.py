"""Unit tests for the exact accumulators and CI helpers of ``analytics.stats``.

``tests/query/test_merge_exactness.py`` checks that sharded merges are
bit-identical; these cases pin the single-accumulator contract underneath.
"""

import math

import numpy as np
import pytest

from repro.analytics.stats import (
    Z_95,
    ExactSum,
    MomentSketch,
    ci_half_width,
    exact_mean,
    exact_sum,
)
from repro.errors import QueryError


class TestExactSum:
    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
    def test_cancellation_keeps_the_small_term_in_any_order(self, order):
        values = [1e16, 1.0, -1e16]
        assert ExactSum(values[i] for i in order).value == 1.0

    def test_add_array_matches_one_by_one_and_exact_sum(self):
        values = np.random.default_rng(3).normal(0.0, 1e8, size=257)
        one_by_one = ExactSum()
        for value in values:
            one_by_one.add(value)
        batched = ExactSum()
        batched.add_array(values)
        assert batched.value == one_by_one.value == exact_sum(values)

    def test_copy_is_independent_of_the_original(self):
        original = ExactSum([1.5, 2.5])
        clone = original.copy()
        clone.add(10.0)
        assert (original.value, clone.value) == (4.0, 14.0)

    def test_merge_folds_the_other_accumulator_in(self):
        left, right = ExactSum([1e16, 1.0]), ExactSum([-1e16, 1.0])
        left.merge(right)
        assert left.value == 2.0
        assert right.value == -1e16 + 1.0

    def test_an_empty_accumulator_sums_to_zero(self):
        assert ExactSum().value == 0.0
        assert exact_sum([]) == 0.0


class TestExactHelpers:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_exact_sum_rejects_non_finite_values(self, bad):
        with pytest.raises(QueryError):
            exact_sum([1.0, bad])

    def test_exact_mean_is_the_correctly_rounded_sum_over_the_count(self):
        values = [0.1] * 10
        assert exact_mean(values) == math.fsum(values) / 10 == 0.1

    def test_exact_mean_of_nothing_is_rejected(self):
        with pytest.raises(QueryError):
            exact_mean([])

    def test_ci_half_width_is_z_times_the_standard_error(self):
        assert ci_half_width(4.0, 16) == Z_95 * 0.5
        assert ci_half_width(4.0, 16, z=1.0) == 0.5

    def test_ci_half_width_without_samples_is_unbounded(self):
        assert ci_half_width(1.0, 0) == math.inf

    def test_ci_half_width_rejects_a_negative_variance(self):
        with pytest.raises(QueryError):
            ci_half_width(-1.0, 5)


class TestMomentSketch:
    def test_moments_match_numpy(self):
        values = np.random.default_rng(7).gamma(2.0, 3.0, size=500)
        sketch = MomentSketch.from_values(values)
        assert sketch.count == 500
        assert sketch.mean == pytest.approx(values.mean(), rel=1e-12)
        assert sketch.variance == pytest.approx(values.var(ddof=1), rel=1e-9)
        assert sketch.half_width() == ci_half_width(sketch.variance, 500)

    def test_merge_returns_a_new_sketch_and_leaves_its_operands(self):
        left = MomentSketch.from_values([1.0, 2.0])
        right = MomentSketch.from_values([3.0])
        merged = left.merge(right)
        assert (merged.count, merged.mean) == (3, 2.0)
        assert (left.count, left.mean) == (2, 1.5)
        assert (right.count, right.mean) == (1, 3.0)

    def test_merging_no_sketches_is_the_empty_sketch(self):
        total = MomentSketch.merge_all([])
        assert total.count == 0
        assert total.half_width() == math.inf
