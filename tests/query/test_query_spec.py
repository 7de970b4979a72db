"""Tests for the declarative QuerySpec API."""

import pytest

from repro.errors import QueryError
from repro.query import QuerySpec
from repro.query.spec import QUERY_KINDS


class TestSpecConstructors:
    def test_aggregate_spec(self):
        spec = QuerySpec.aggregate("taipei", error_bound=0.05)
        assert spec.kind == "aggregate"
        assert spec.error_bound == 0.05
        assert "taipei" in spec.describe()

    def test_limit_spec(self):
        spec = QuerySpec.limit("rialto", min_count=5, limit=10)
        assert spec.kind == "limit"
        assert "min_count=5" in spec.describe()

    def test_cascade_spec(self):
        spec = QuerySpec.cascade("animals-10", num_classes=10, images=256)
        assert spec.kind == "cascade"
        assert "num_classes=10" in spec.describe()

    def test_all_kinds_covered(self):
        assert set(QUERY_KINDS) == {"aggregate", "limit", "cascade"}


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="explode", dataset="taipei")

    def test_empty_dataset_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec.aggregate("", error_bound=0.05)

    def test_aggregate_needs_positive_error_bound(self):
        with pytest.raises(QueryError):
            QuerySpec.aggregate("taipei", error_bound=0.0)
        with pytest.raises(QueryError):
            QuerySpec(kind="aggregate", dataset="taipei")

    def test_limit_needs_predicate_and_count(self):
        with pytest.raises(QueryError):
            QuerySpec.limit("taipei", min_count=0, limit=5)
        with pytest.raises(QueryError):
            QuerySpec.limit("taipei", min_count=2, limit=0)
        with pytest.raises(QueryError):
            QuerySpec(kind="limit", dataset="taipei", min_count=2)

    def test_cascade_needs_arity_and_corpus(self):
        with pytest.raises(QueryError):
            QuerySpec.cascade("animals-10", num_classes=1, images=128)
        with pytest.raises(QueryError):
            QuerySpec.cascade("animals-10", num_classes=4, images=0)

    def test_specialized_accuracy_bounds(self):
        with pytest.raises(QueryError):
            QuerySpec.aggregate("taipei", error_bound=0.05,
                                specialized_accuracy=0.0)

    def test_accuracy_floor_bounds(self):
        with pytest.raises(QueryError):
            QuerySpec.aggregate("taipei", error_bound=0.05,
                                accuracy_floor=1.5)

    def test_pilot_fraction_bounds(self):
        with pytest.raises(QueryError):
            QuerySpec(kind="aggregate", dataset="taipei", error_bound=0.05,
                      pilot_fraction=1.0)
