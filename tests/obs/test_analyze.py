"""Tests for critical-path attribution and BENCH diffing."""

import pytest

from repro.errors import ReproError
from repro.obs import Observability, analyze_critical_path, bench_diff
from repro.obs.analyze import (
    CATEGORIES,
    FieldDelta,
    category_of,
)


def _span(span_id, name, duration_s, parent_id=None, trace_id=1,
          start_s=0.0, **attrs):
    return {"trace_id": trace_id, "span_id": span_id, "name": name,
            "start_s": start_s, "duration_s": duration_s,
            "parent_id": parent_id, "attrs": attrs}


class TestCategoryOf:
    def test_exact_names(self):
        assert category_of("stage.decode") == "decode"
        assert category_of("stage.preprocess") == "preprocess"
        assert category_of("stage.inference") == "inference"
        assert category_of("stage.read") == "store"
        assert category_of("serving.request") == "queueing"
        assert category_of("cluster.item") == "queueing"
        assert category_of("serving.batch") == "batching"
        assert category_of("cluster.execute") == "batching"
        assert category_of("cluster.dispatch") == "dispatch"

    def test_prefixes(self):
        assert category_of("store.read_batch") == "store"
        assert category_of("query.scan") == "query"
        assert category_of("adapt.step") == "replan"
        assert category_of("stage.exotic") == "other"

    def test_fallback(self):
        assert category_of("something.else") == "other"
        assert category_of("") == "other"

    def test_every_category_is_listed(self):
        for name in ("stage.decode", "serving.request", "serving.batch",
                     "cluster.dispatch", "store.read", "query.scan",
                     "adapt.step", "unknown"):
            assert category_of(name) in CATEGORIES


class TestAttribution:
    def test_self_time_plus_children(self):
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "stage.inference", 0.004, parent_id=1),
        ]
        report = analyze_critical_path(spans)
        assert len(report.requests) == 1
        row = report.requests[0]
        assert row.breakdown["queueing"] == pytest.approx(0.006)
        assert row.breakdown["inference"] == pytest.approx(0.004)
        assert sum(row.breakdown.values()) == pytest.approx(row.duration_s)

    def test_modelled_overrun_scales_proportionally(self):
        # Modelled children totalling 20ms under a 10ms wall span: scale
        # by 0.5, keep proportions, zero self-time.
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "stage.decode", 0.015, parent_id=1),
            _span(3, "stage.inference", 0.005, parent_id=1),
        ]
        report = analyze_critical_path(spans)
        row = report.requests[0]
        assert row.breakdown.get("queueing", 0.0) == 0.0
        assert row.breakdown["decode"] == pytest.approx(0.0075)
        assert row.breakdown["inference"] == pytest.approx(0.0025)
        assert sum(row.breakdown.values()) == pytest.approx(0.010)
        assert row.dominant == "decode"

    def test_nested_request_not_double_counted(self):
        # A cluster.item executing inside a serving.request is part of
        # that request, not a second request.
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "serving.batch", 0.006, parent_id=1),
            _span(3, "cluster.item", 0.004, parent_id=2),
        ]
        report = analyze_critical_path(spans)
        assert len(report.requests) == 1
        assert report.requests[0].span_id == 1
        assert report.spans_attributed == 3

    def test_spans_outside_requests_not_attributed(self):
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "adapt.step", 0.050, trace_id=2),
        ]
        report = analyze_critical_path(spans)
        assert report.spans_seen == 2
        assert report.spans_attributed == 1
        assert report.total_s == pytest.approx(0.010)
        assert "replan" not in report.blame

    def test_empty_input(self):
        report = analyze_critical_path([])
        assert report.requests == []
        assert report.total_s == 0.0
        assert report.blame_shares() == {cat: 0.0 for cat in CATEGORIES}

    def test_zero_duration_request(self):
        report = analyze_critical_path([_span(1, "cluster.item", 0.0)])
        row = report.requests[0]
        assert row.duration_s == 0.0
        assert sum(row.breakdown.values()) == 0.0

    def test_negative_top_k_rejected(self):
        with pytest.raises(ReproError):
            analyze_critical_path([], top_k=-1)

    def test_top_k_limits_slowest(self):
        spans = [_span(i, "cluster.item", 0.001 * i, trace_id=i)
                 for i in range(1, 6)]
        report = analyze_critical_path(spans, top_k=2)
        assert len(report.slowest) == 2
        assert [row.span_id for row in report.slowest] == [5, 4]
        assert len(report.requests) == 5

    def test_deep_tree_sums_to_duration(self):
        spans = [
            _span(1, "serving.request", 0.020),
            _span(2, "serving.batch", 0.012, parent_id=1),
            _span(3, "stage.decode", 0.030, parent_id=2),
            _span(4, "stage.inference", 0.010, parent_id=2),
            _span(5, "store.read", 0.002, parent_id=1),
        ]
        report = analyze_critical_path(spans)
        row = report.requests[0]
        assert sum(row.breakdown.values()) == pytest.approx(
            row.duration_s, abs=1e-12)
        assert report.spans_attributed == 5

    def test_blame_shares_sum_to_one(self):
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "stage.inference", 0.004, parent_id=1),
            _span(3, "cluster.item", 0.006, trace_id=2),
        ]
        report = analyze_critical_path(spans)
        assert sum(report.blame_shares().values()) == pytest.approx(1.0)

    def test_accepts_span_objects(self):
        obs = Observability()
        root = obs.span("serving.request")
        obs.record("stage.inference", 0.001,
                   parent=(root.trace_id, root.span_id))
        root.finish()
        report = analyze_critical_path(obs.spans())
        assert len(report.requests) == 1

    def test_to_dict_payload(self):
        spans = [
            _span(1, "serving.request", 0.010),
            _span(2, "stage.inference", 0.004, parent_id=1),
        ]
        payload = analyze_critical_path(spans).to_dict()
        assert payload["requests"] == 1
        assert payload["total_ms"] == pytest.approx(10.0)
        assert payload["blame_ms"]["inference"] == pytest.approx(4.0)
        assert payload["slowest"][0]["dominant"] == "queueing"
        # Zero categories are dropped from the per-request breakdown.
        assert "store" not in payload["slowest"][0]["breakdown_ms"]


def _payload(rows, bench="demo"):
    return {"bench": bench, "rows": rows, "schema_version": 1}


class TestBenchDiff:
    def test_identical_is_ok(self):
        payload = _payload([{"mode": "a", "throughput": 100.0,
                             "latency_ms": 5.0}])
        diff = bench_diff(payload, payload)
        assert diff.ok
        assert diff.deltas == []
        assert diff.problems == []

    def test_throughput_drop_is_regression(self):
        base = _payload([{"throughput": 100.0}])
        cand = _payload([{"throughput": 80.0}])
        diff = bench_diff(base, cand, tolerance=0.1)
        assert not diff.ok
        (delta,) = diff.regressions
        assert delta.field == "throughput"
        assert delta.direction == "higher_is_better"
        assert delta.rel_change == pytest.approx(-0.2)
        assert "REGRESSION" in delta.describe()

    def test_latency_rise_is_regression(self):
        base = _payload([{"latency_ms": 10.0}])
        cand = _payload([{"latency_ms": 12.0}])
        diff = bench_diff(base, cand, tolerance=0.1)
        assert len(diff.regressions) == 1
        assert diff.regressions[0].direction == "lower_is_better"

    def test_improvement_is_drift_not_regression(self):
        base = _payload([{"throughput": 100.0, "latency_ms": 10.0}])
        cand = _payload([{"throughput": 150.0, "latency_ms": 5.0}])
        diff = bench_diff(base, cand)
        assert diff.ok
        assert len(diff.deltas) == 2
        assert diff.regressions == []

    def test_unknown_direction_never_regresses(self):
        base = _payload([{"mystery_field": 1.0}])
        cand = _payload([{"mystery_field": 100.0}])
        diff = bench_diff(base, cand)
        assert diff.ok
        (delta,) = diff.deltas
        assert delta.direction == "unknown"
        assert not delta.regression

    def test_within_tolerance_recorded_but_ok(self):
        base = _payload([{"latency_ms": 10.0}])
        cand = _payload([{"latency_ms": 10.5}])
        diff = bench_diff(base, cand, tolerance=0.1)
        assert diff.ok
        assert len(diff.deltas) == 1

    def test_field_tolerance_override(self):
        base = _payload([{"wall_median_s": 0.010}])
        cand = _payload([{"wall_median_s": 0.013}])
        assert not bench_diff(base, cand, tolerance=0.1).ok
        assert bench_diff(base, cand, tolerance=0.1,
                          field_tolerances={"wall_median_s": 0.5}).ok

    def test_identity_mismatch_is_problem(self):
        base = _payload([{"mode": "enabled", "latency_ms": 10.0}])
        cand = _payload([{"mode": "recorder", "latency_ms": 99.0}])
        diff = bench_diff(base, cand)
        assert not diff.ok
        assert any("identity" in problem for problem in diff.problems)
        # The suspicious latency is NOT reported: identity broke the row.
        assert diff.deltas == []

    def test_bench_name_mismatch_is_problem(self):
        diff = bench_diff(_payload([], bench="a"), _payload([], bench="b"))
        assert any("bench name" in problem for problem in diff.problems)

    def test_row_count_mismatch_is_problem(self):
        base = _payload([{"x": 1.0}, {"x": 2.0}])
        cand = _payload([{"x": 1.0}])
        diff = bench_diff(base, cand)
        assert any("row count" in problem for problem in diff.problems)

    def test_numeric_turned_string_is_problem(self):
        base = _payload([{"latency_ms": 10.0}])
        cand = _payload([{"latency_ms": "oops"}])
        diff = bench_diff(base, cand)
        assert any("latency_ms" in problem for problem in diff.problems)

    def test_bools_excluded_from_numeric_compare(self):
        base = _payload([{"flagged": False, "latency_ms": 1.0}])
        cand = _payload([{"flagged": False, "latency_ms": 1.0}])
        assert bench_diff(base, cand).ok

    def test_zero_baseline_uses_absolute_denominator(self):
        base = _payload([{"failed": 0}])
        cand = _payload([{"failed": 3}])
        diff = bench_diff(base, cand, tolerance=0.1)
        (delta,) = diff.regressions
        assert delta.rel_change == pytest.approx(3.0)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ReproError):
            bench_diff(_payload([]), _payload([]), tolerance=-0.1)

    def test_to_dict_round_trip(self):
        base = _payload([{"throughput": 100.0}])
        cand = _payload([{"throughput": 50.0}])
        payload = bench_diff(base, cand).to_dict()
        assert payload["ok"] is False
        assert payload["bench"] == "demo"
        assert len(payload["regressions"]) == 1
        assert payload["deltas"][0]["field"] == "throughput"

    def test_field_delta_describe_ok(self):
        delta = FieldDelta(row=0, field="x", baseline=1.0, candidate=1.05,
                           rel_change=0.05, direction="unknown",
                           regression=False)
        assert "[ok]" in delta.describe()
