"""Tests for the machine-readable benchmark artifact writer."""

import json

import pytest

from repro.codecs.formats import THUMB_PNG_161
from repro.serving import BatchPolicy, LoadGenerator, SmolServer
from repro.serving.session import simulated_session_for_format
from repro.utils.benchio import (
    SCHEMA_VERSION,
    bench_payload,
    latency_metrics,
    write_bench_json,
)


class TestBenchPayload:
    def test_payload_has_the_stable_schema(self):
        payload = bench_payload("demo", [{"x": 1}], meta={"seed": 0})
        assert payload == {"bench": "demo", "schema_version": SCHEMA_VERSION,
                           "meta": {"seed": 0}, "rows": [{"x": 1}]}

    def test_payload_copies_rows_and_meta(self):
        row, meta = {"x": 1}, {"seed": 0}
        payload = bench_payload("demo", [row], meta=meta)
        row["x"] = 2
        meta["seed"] = 9
        assert payload["rows"] == [{"x": 1}]
        assert payload["meta"] == {"seed": 0}

    def test_write_round_trips_and_writes_only_the_given_path(self, tmp_path):
        target = tmp_path / "BENCH_demo.json"
        written = write_bench_json(target, "demo", [{"x": 1.5}])
        assert written == target.resolve()
        assert json.loads(target.read_text()) == bench_payload(
            "demo", [{"x": 1.5}])
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]


class TestLatencyMetrics:
    @pytest.mark.parametrize("policy", [BatchPolicy.latency(),
                                        BatchPolicy.throughput()],
                             ids=lambda policy: policy.name)
    def test_scorecard_row_from_a_policy_run(self, perf_model, resnet18,
                                             policy):
        session = simulated_session_for_format(resnet18, THUMB_PNG_161,
                                               perf_model)
        pool = [(f"img-{i}", None) for i in range(16)]
        with SmolServer(session, policy=policy, cache_capacity=256) as server:
            report = LoadGenerator(server, pool, seed=0).run(
                rate_per_s=2000.0, duration_s=0.1, pattern="poisson")
        row = latency_metrics(report)
        assert set(row) == {"throughput_rps", "p50_ms", "p95_ms", "p99_ms",
                            "completed", "rejected", "deadline_missed"}
        assert row["throughput_rps"] > 0
        assert row["completed"] == report.completed > 0
        assert 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
        assert json.loads(json.dumps(row)) == row
