"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCliParser:
    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.dataset == "imagenet"
        assert args.accuracy_floor is None

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


class TestCliCommands:
    def test_plan_command_prints_frontier(self, capsys):
        assert main(["plan", "--dataset", "imagenet",
                     "--accuracy-floor", "0.74"]) == 0
        output = capsys.readouterr().out
        assert "Pareto frontier" in output
        assert "resnet-50" in output

    def test_run_command_reports_throughput(self, capsys):
        assert main(["run", "--dataset", "bike-bird", "--images", "512",
                     "--accuracy-floor", "0.99"]) == 0
        output = capsys.readouterr().out
        assert "simulated:" in output

    def test_measure_command(self, capsys):
        assert main(["measure"]) == 0
        output = capsys.readouterr().out
        assert "tensorrt" in output
        assert "K80" in output

    def test_costs_command(self, capsys):
        assert main(["costs"]) == 0
        output = capsys.readouterr().out
        assert "Cents / 1M images" in output

    def test_video_command(self, capsys):
        assert main(["video", "--dataset", "amsterdam", "--error", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output
        assert "BlazeIt" in output

    def test_serve_bench_command(self, capsys, tmp_path):
        assert main(["serve-bench", "--mode", "simulated", "--requests", "200",
                     "--rate", "2000",
                     "--bench-json", str(tmp_path / "bench.json")]) == 0
        output = capsys.readouterr().out
        assert "latency" in output and "throughput" in output
        assert "p99 (ms)" in output

    def test_loadtest_command(self, capsys, tmp_path):
        bench = tmp_path / "BENCH_serving.json"
        assert main(["loadtest", "--mode", "simulated", "--rate", "400",
                     "--duration", "0.2", "--pattern", "burst",
                     "--bench-json", str(bench)]) == 0
        output = capsys.readouterr().out
        assert "throughput:" in output
        assert "p95" in output

    def test_serve_bench_writes_machine_readable_scorecard(self, capsys,
                                                           tmp_path):
        import json

        bench = tmp_path / "BENCH_serving.json"
        assert main(["serve-bench", "--mode", "simulated", "--requests",
                     "200", "--rate", "2000",
                     "--bench-json", str(bench)]) == 0
        payload = json.loads(bench.read_text())
        assert payload["bench"] == "serve-bench"
        assert {row["policy"] for row in payload["rows"]} == \
            {"latency", "throughput"}
        for row in payload["rows"]:
            assert row["throughput_rps"] > 0
            assert 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]

    def test_loadtest_writes_machine_readable_scorecard(self, capsys,
                                                        tmp_path):
        import json

        bench = tmp_path / "BENCH_serving.json"
        assert main(["loadtest", "--mode", "simulated", "--rate", "400",
                     "--duration", "0.2",
                     "--bench-json", str(bench)]) == 0
        payload = json.loads(bench.read_text())
        assert payload["bench"] == "loadtest"
        (row,) = payload["rows"]
        assert row["pattern"] == "poisson"
        assert row["completed"] > 0

    def test_cluster_bench_command(self, capsys, tmp_path):
        import json

        bench = tmp_path / "BENCH_cluster.json"
        assert main(["cluster-bench", "--workers", "1", "2",
                     "--images", "256", "--rate", "1000",
                     "--duration", "0.1",
                     "--bench-json", str(bench)]) == 0
        output = capsys.readouterr().out
        assert "Smol-Cluster scaling" in output
        payload = json.loads(bench.read_text())
        assert payload["bench"] == "cluster-bench"
        by_workers = {row["workers"]: row for row in payload["rows"]}
        assert set(by_workers) == {1, 2}
        # Near-linear simulated scaling at two workers.
        assert by_workers[2]["speedup"] >= 1.7
        for row in payload["rows"]:
            assert 0 <= row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]


class TestCliErrorHandling:
    def test_unknown_dataset_exits_2_with_one_line_error(self, capsys):
        assert main(["plan", "--dataset", "definitely-not-a-dataset"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "definitely-not-a-dataset" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_unknown_video_dataset_exits_2(self, capsys):
        assert main(["video", "--dataset", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_infeasible_constraint_exits_2(self, capsys):
        assert main(["run", "--dataset", "imagenet",
                     "--accuracy-floor", "0.999"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_bad_serving_flag_value_exits_2(self, capsys):
        assert main(["loadtest", "--mode", "simulated", "--rate", "-5",
                     "--duration", "0.1"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_bench_zero_rate_exits_2(self, capsys):
        assert main(["serve-bench", "--mode", "simulated", "--rate", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_cluster_bench_functional_mode(self, capsys, tmp_path):
        # Functional replicas need decoded payloads on the corpus examples;
        # regression test for the payload-less functional corpus.
        assert main(["cluster-bench", "--mode", "functional",
                     "--workers", "1", "--images", "24", "--rate", "200",
                     "--duration", "0.1", "--pool-size", "8",
                     "--max-batch", "8",
                     "--bench-json", str(tmp_path / "b.json")]) == 0
        assert "Smol-Cluster scaling" in capsys.readouterr().out

    def test_cluster_bench_bad_workers_exits_2(self, capsys, tmp_path):
        assert main(["cluster-bench", "--workers", "0",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_numeric_flag_value_exits_2_via_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--images", "a-lot"])
        assert excinfo.value.code == 2


class TestQueryCommand:
    def test_aggregate_query_sweep_is_bit_identical(self, capsys, tmp_path):
        import json

        bench = tmp_path / "BENCH_query.json"
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--workers", "1", "2",
                     "--frame-limit", "2000", "--max-batch", "128",
                     "--bench-json", str(bench)]) == 0
        output = capsys.readouterr().out
        assert "bit-identical across worker counts: OK" in output
        assert "Smol-Query sweep" in output
        payload = json.loads(bench.read_text())
        assert payload["bench"] == "query"
        assert [row["workers"] for row in payload["rows"]] == [1, 2]
        assert len({row["headline"] for row in payload["rows"]}) == 1
        by_workers = {row["workers"]: row for row in payload["rows"]}
        assert by_workers[2]["cheap_pass_speedup"] > 1.5

    def test_limit_query_command(self, capsys, tmp_path):
        assert main(["query", "--kind", "limit", "--dataset", "rialto",
                     "--min-count", "5", "--limit", "5",
                     "--workers", "1", "2", "--frame-limit", "2000",
                     "--bench-json", str(tmp_path / "b.json")]) == 0
        assert "found" in capsys.readouterr().out

    def test_cascade_query_command(self, capsys, tmp_path):
        assert main(["query", "--kind", "cascade", "--dataset", "animals-10",
                     "--num-classes", "10", "--images", "256",
                     "--workers", "1", "2",
                     "--bench-json", str(tmp_path / "b.json")]) == 0
        assert "cascade" in capsys.readouterr().out

    def test_limit_query_missing_flags_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "limit", "--dataset", "rialto",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_aggregate_missing_error_bound_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert "--error" in capsys.readouterr().err

    def test_unknown_video_dataset_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "aggregate", "--dataset", "nope",
                     "--error", "0.05",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_worker_count_exits_2(self, capsys, tmp_path):
        assert main(["query", "--workers", "0", "--error", "0.05",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_store_warm_query_stats_gc_roundtrip(self, capsys, tmp_path):
        root = str(tmp_path / "store")
        # warm: plans the spec, persists the score table, materializes a
        # rendition sample.
        assert main(["store", "warm", "--root", root, "--dataset", "taipei",
                     "--frames", "2000", "--rendition-frames", "4"]) == 0
        output = capsys.readouterr().out
        assert "warmed taipei" in output
        assert "1 score tables, 1 renditions" in output
        # A warmed store makes the query sweep a pure cache hit and streams
        # shards through the chunk reader.
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--workers", "1", "2",
                     "--frame-limit", "2000", "--store-root", root,
                     "--bench-json", str(tmp_path / "b.json")]) == 0
        output = capsys.readouterr().out
        assert "bit-identical across worker counts: OK" in output
        assert "read-through:" in output
        # stats + gc close the loop.
        assert main(["store", "stats", "--root", root]) == 0
        assert "score tables" in capsys.readouterr().out
        assert main(["store", "gc", "--root", root]) == 0
        assert "gc:" in capsys.readouterr().out

    def test_store_warm_without_rendition_frames(self, capsys, tmp_path):
        root = str(tmp_path / "store")
        assert main(["store", "warm", "--root", root, "--dataset",
                     "amsterdam", "--frames", "1500",
                     "--rendition-frames", "0"]) == 0
        output = capsys.readouterr().out
        assert "warmed amsterdam" in output
        assert "0 renditions" in output

    def test_store_warm_unknown_dataset_exits_2(self, capsys, tmp_path):
        assert main(["store", "warm", "--root", str(tmp_path / "s"),
                     "--dataset", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_store_stats_on_missing_root_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "typo-dir"
        for action in ("stats", "gc"):
            assert main(["store", action, "--root", str(missing)]) == 2
            assert "no store at" in capsys.readouterr().err
        # The mistyped path must not have been conjured into being.
        assert not missing.exists()

    def test_query_non_positive_frame_limit_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--frame-limit", "0",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert "frame_limit" in capsys.readouterr().err

    def test_query_non_positive_batch_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--max-batch", "0",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_query_bad_specialized_accuracy_exits_2(self, capsys, tmp_path):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--specialized-accuracy", "1.5",
                     "--bench-json", str(tmp_path / "b.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestAdaptCli:
    def test_serving_scenario_reports_recovery_and_scorecard(self, capsys,
                                                             tmp_path):
        bench = tmp_path / "BENCH_adapt.json"
        assert main(["adapt", "--scenario", "serving", "--waves", "4",
                     "--wave-requests", "64", "--drift-wave", "1",
                     "--hysteresis", "1",
                     "--bench-json", str(bench)]) == 0
        output = capsys.readouterr().out
        assert "drift recovery" in output
        assert "hot-swap" in output
        assert bench.exists()
        import json

        payload = json.loads(bench.read_text())
        assert payload["bench"] == "adapt-drift-recovery"
        modes = {row["mode"]: row for row in payload["rows"]}
        assert modes["adaptive"]["recovery"] > modes["frozen"]["recovery"]
        assert modes["adaptive"]["swaps"] == 1
        # Same row schema as benchmarks/bench_adapt.py.
        assert modes["adaptive"]["scenario"] == "serving"
        assert "initial_plan" in modes["adaptive"]

    def test_scan_scenario_verifies_bit_identity(self, capsys, tmp_path):
        bench = tmp_path / "b.json"
        assert main(["adapt", "--scenario", "scan", "--frames", "900",
                     "--segments", "3", "--drift-segment", "1",
                     "--max-batch", "128",
                     "--bench-json", str(bench)]) == 0
        output = capsys.readouterr().out
        assert "results bit-identical across the hot-swap: OK" in output
        import json

        meta = json.loads(bench.read_text())["meta"]
        assert meta["scores_identical"] and meta["estimate_identical"]

    @pytest.mark.parametrize("argv", [
        ["adapt", "--drift-factor", "0"],
        ["adapt", "--drift-factor", "-2"],
        ["adapt", "--waves", "2"],
        ["adapt", "--drift-wave", "0"],
        ["adapt", "--drift-wave", "9", "--waves", "5"],
        ["adapt", "--wave-requests", "0"],
        ["adapt", "--hysteresis", "0"],
        ["adapt", "--threshold", "1.0"],
        ["adapt", "--min-improvement", "-0.5"],
        ["adapt", "--scenario", "scan", "--segments", "2"],
        ["adapt", "--scenario", "scan", "--drift-segment", "0"],
        ["adapt", "--scenario", "scan", "--frames", "2", "--segments", "3"],
    ])
    def test_invalid_flags_exit_2_with_one_line_error(self, capsys, argv,
                                                      tmp_path):
        assert main(argv + ["--bench-json", str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_unknown_scenario_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt", "--scenario", "warp"])


class TestObsCommands:
    def test_obs_demo_exports_one_connected_tree(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        chrome = tmp_path / "chrome.json"
        prom = tmp_path / "metrics.prom"
        assert main([
            "obs", "demo", "--frames", "1200", "--workers", "2",
            "--requests", "8",
            "--store-root", str(tmp_path / "store"),
            "--trace-out", str(trace), "--chrome-out", str(chrome),
            "--metrics-out", str(prom),
        ]) == 0
        output = capsys.readouterr().out
        assert "scores bit-identical to the untraced run: OK" in output
        assert ("single connected span tree covering serving, cluster, "
                "query, store, adapt: OK") in output
        # All three export formats were written and are loadable.
        import json

        document = json.loads(chrome.read_text())
        events = document["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert len(trace.read_text().splitlines()) == len(events)
        assert "# TYPE stage_seconds_total counter" in prom.read_text()

        # The exported file round-trips through summarize and export.
        assert main(["obs", "summarize", "--trace", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "single connected span tree: OK" in summary
        assert "serving.request" in summary
        out2 = tmp_path / "chrome2.json"
        assert main(["obs", "export", "--trace", str(trace),
                     "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["traceEvents"]

    def test_query_trace_out_writes_span_log(self, capsys, tmp_path):
        trace = tmp_path / "query-trace.jsonl"
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--workers", "2",
                     "--frame-limit", "1200",
                     "--bench-json", str(tmp_path / "b.json"),
                     "--trace-out", str(trace)]) == 0
        output = capsys.readouterr().out
        assert str(trace) in output
        lines = trace.read_text().splitlines()
        assert lines
        import json

        names = {json.loads(line)["name"] for line in lines}
        assert "query.execute" in names

    def test_obs_summarize_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["obs", "summarize",
                     "--trace", str(tmp_path / "missing.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def demo_trace(tmp_path_factory):
    """One obs-demo span log shared by the analyze/slo CLI tests."""
    root = tmp_path_factory.mktemp("sentinel")
    trace = root / "trace.jsonl"
    assert main([
        "obs", "demo", "--frames", "1200", "--workers", "2",
        "--requests", "8", "--store-root", str(root / "store"),
        "--trace-out", str(trace), "--chrome-out", str(root / "chrome.json"),
    ]) == 0
    return trace


class TestObsAnalyze:
    def test_analyze_attributes_and_sums(self, capsys, demo_trace,
                                         tmp_path):
        json_out = tmp_path / "report.json"
        assert main(["obs", "analyze", "--trace", str(demo_trace),
                     "--top-k", "3", "--json-out", str(json_out)]) == 0
        output = capsys.readouterr().out
        assert "Critical-path blame" in output
        assert "Top 3 slowest requests" in output
        assert "attribution sums to request durations" in output
        assert ": OK" in output
        import json

        payload = json.loads(json_out.read_text())
        assert payload["requests"] > 0
        assert len(payload["slowest"]) == 3
        assert sum(payload["blame_share"].values()) == pytest.approx(1.0)

    def test_analyze_empty_trace_is_graceful(self, capsys, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert main(["obs", "analyze", "--trace", str(trace)]) == 0
        assert "no request spans" in capsys.readouterr().out

    def test_analyze_missing_trace_exits_2(self, capsys, tmp_path):
        assert main(["obs", "analyze",
                     "--trace", str(tmp_path / "missing.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestObsSlo:
    def test_slo_replay_healthy(self, capsys, demo_trace):
        assert main(["obs", "slo", "--trace", str(demo_trace),
                     "--latency-target-ms", "10000"]) == 0
        output = capsys.readouterr().out
        assert "SLO 'serving-latency'" in output
        assert "verdict: healthy" in output

    def test_slo_burning_with_fail_on_burn_exits_1(self, capsys,
                                                   demo_trace):
        # An absurdly tight target makes every request bad.
        assert main(["obs", "slo", "--trace", str(demo_trace),
                     "--latency-target-ms", "0.000001",
                     "--min-events", "1", "--fail-on-burn"]) == 1
        output = capsys.readouterr().out
        assert "verdict: BURNING" in output

    def test_slo_burning_without_flag_exits_0(self, capsys, demo_trace):
        assert main(["obs", "slo", "--trace", str(demo_trace),
                     "--latency-target-ms", "0.000001",
                     "--min-events", "1"]) == 0


class TestBenchDiff:
    def _write(self, path, payload):
        import json

        path.write_text(json.dumps(payload))
        return str(path)

    def test_self_diff_is_clean(self, capsys, tmp_path):
        payload = {"bench": "demo",
                   "rows": [{"mode": "a", "throughput": 100.0}]}
        base = self._write(tmp_path / "base.json", payload)
        assert main(["bench-diff", base, base]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_1(self, capsys, tmp_path):
        base = self._write(tmp_path / "base.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 100.0}]})
        cand = self._write(tmp_path / "cand.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 50.0}]})
        assert main(["bench-diff", base, cand]) == 1
        output = capsys.readouterr().out
        assert "REGRESSION" in output
        assert "1 regression(s)" in output

    def test_field_tolerance_override(self, capsys, tmp_path):
        base = self._write(tmp_path / "base.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 100.0}]})
        cand = self._write(tmp_path / "cand.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 50.0}]})
        assert main(["bench-diff", base, cand,
                     "--field-tolerance", "throughput=0.9"]) == 0

    def test_bad_field_tolerance_exits_2(self, capsys, tmp_path):
        payload = {"bench": "demo", "rows": []}
        base = self._write(tmp_path / "base.json", payload)
        assert main(["bench-diff", base, base,
                     "--field-tolerance", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exits_2(self, capsys, tmp_path):
        payload = {"bench": "demo", "rows": []}
        base = self._write(tmp_path / "base.json", payload)
        assert main(["bench-diff", base,
                     str(tmp_path / "missing.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verbose_shows_non_regressions(self, capsys, tmp_path):
        base = self._write(tmp_path / "base.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 100.0}]})
        cand = self._write(tmp_path / "cand.json",
                           {"bench": "demo",
                            "rows": [{"throughput": 101.0}]})
        assert main(["bench-diff", base, cand, "--verbose"]) == 0
        output = capsys.readouterr().out
        assert "[ok]" in output

    def test_real_bench_obs_self_diff(self, capsys):
        from pathlib import Path

        bench = Path(__file__).resolve().parent.parent / "BENCH_obs.json"
        assert bench.exists()
        assert main(["bench-diff", str(bench), str(bench)]) == 0
        assert "no regressions" in capsys.readouterr().out


class TestServingTraceOut:
    def test_serve_bench_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "serve.jsonl"
        assert main(["serve-bench", "--mode", "simulated",
                     "--requests", "64", "--rate", "2000",
                     "--bench-json", str(tmp_path / "b.json"),
                     "--trace-out", str(trace)]) == 0
        assert str(trace) in capsys.readouterr().out
        import json

        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()}
        assert "serving.request" in names

    def test_loadtest_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "load.jsonl"
        assert main(["loadtest", "--mode", "simulated", "--rate", "400",
                     "--duration", "0.2",
                     "--bench-json", str(tmp_path / "b.json"),
                     "--trace-out", str(trace)]) == 0
        assert str(trace) in capsys.readouterr().out
        assert trace.read_text().splitlines()

    def test_cluster_bench_trace_out(self, capsys, tmp_path):
        trace = tmp_path / "cluster.jsonl"
        assert main(["cluster-bench", "--images", "256", "--workers", "2",
                     "--rate", "2000", "--duration", "0.2",
                     "--bench-json", str(tmp_path / "b.json"),
                     "--trace-out", str(trace)]) == 0
        assert str(trace) in capsys.readouterr().out
        import json

        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()}
        assert "cluster.item" in names


class TestChaosCli:
    def test_chaos_run_sweeps_and_summarizes(self, capsys):
        assert main(["chaos", "run", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "3/3 seeds ok" in out
        assert "faults fired" in out

    def test_chaos_replay_seed_passes_and_lists_firings(self, capsys):
        assert main(["chaos", "replay", "14"]) == 0
        out = capsys.readouterr().out
        assert "seed 14" in out and "ok" in out
        # Seed 14 is the duplicate-outcome ambush: its kill must fire.
        assert "kill@worker.ack" in out

    def test_chaos_replay_from_scenario_file(self, capsys, tmp_path):
        import json

        from repro.chaos import ScenarioGen

        scenario = ScenarioGen().generate(3)
        plain = tmp_path / "scenario.json"
        plain.write_text(json.dumps(scenario.to_dict()))
        assert main(["chaos", "replay", "--scenario", str(plain)]) == 0
        # The bundle form (a dumped report wrapping the scenario) loads
        # identically.
        wrapped = tmp_path / "bundle.json"
        wrapped.write_text(json.dumps({"scenario": scenario.to_dict()}))
        assert main(["chaos", "replay", "--scenario", str(wrapped)]) == 0

    def test_chaos_replay_without_target_exits_2(self, capsys):
        assert main(["chaos", "replay"]) == 2
        assert "seed or --scenario" in capsys.readouterr().err

    def test_chaos_shrink_of_a_passing_seed_is_a_no_op(self, capsys):
        assert main(["chaos", "shrink", "0"]) == 0
        assert "nothing to shrink" in capsys.readouterr().out
