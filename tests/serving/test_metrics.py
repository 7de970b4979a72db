"""Tests for serving latency metrics."""

import pytest

from repro.obs.metrics import LatencyRecorder, LatencySummary, percentile


class TestPercentile:
    def test_exact_order_statistics(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 100.0
        assert percentile(samples, 50.0) == pytest.approx(50.5)

    def test_interpolation_between_samples(self):
        assert percentile([0.0, 10.0], 25.0) == pytest.approx(2.5)

    def test_single_sample(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestLatencySummary:
    def test_from_seconds_converts_to_ms(self):
        summary = LatencySummary.from_seconds([0.001, 0.002, 0.003])
        assert summary.count == 3
        assert summary.p50_ms == pytest.approx(2.0)
        assert summary.max_ms == pytest.approx(3.0)
        assert summary.mean_ms == pytest.approx(2.0)

    def test_tail_ordering(self):
        summary = LatencySummary.from_seconds(
            [0.001] * 90 + [0.005] * 9 + [0.050]
        )
        assert summary.p50_ms <= summary.p95_ms <= summary.p99_ms <= summary.max_ms

    def test_empty_summary(self):
        summary = LatencySummary.from_seconds([])
        assert summary.count == 0 and summary.p99_ms == 0.0

    def test_describe_mentions_percentiles(self):
        text = LatencySummary.from_seconds([0.01]).describe()
        assert "p95" in text and "p99" in text


class TestLatencyRecorder:
    def test_record_and_summarize(self):
        recorder = LatencyRecorder()
        recorder.record(0.002)
        recorder.extend([0.004, 0.006])
        assert len(recorder) == 3
        assert recorder.summary().p50_ms == pytest.approx(4.0)

    def test_negative_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(-0.1)
        with pytest.raises(ValueError):
            recorder.extend([0.1, -0.1])
