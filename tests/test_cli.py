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

    @pytest.mark.parametrize("command", [
        "serve-bench", "loadtest", "cluster-bench", "adapt", "measure",
        "costs", "video",
    ])
    def test_benchmark_duplicating_command_is_gone(self, command):
        # These ran the benchmarks/ drivers' workloads a second time; the
        # drivers are now the only way to run them.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command])
        assert excinfo.value.code == 2

    def test_no_subcommand_writes_a_scorecard_by_default(self):
        # Committed BENCH_*.json files belong to the benchmarks/ drivers; a
        # CLI command may write one only where --bench-json points.
        import argparse

        def walk(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from walk(sub)
                elif action.dest == "bench_json":
                    yield action

        flags = list(walk(build_parser()))
        assert flags
        assert all(action.default is None for action in flags)


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


class TestCliErrorHandling:
    def test_unknown_dataset_exits_2_with_one_line_error(self, capsys):
        assert main(["plan", "--dataset", "definitely-not-a-dataset"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "definitely-not-a-dataset" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["run", "--dataset", "imagenet", "--accuracy-floor", "0.999"],
        ["query", "--kind", "limit", "--dataset", "rialto"],
        ["query", "--kind", "aggregate", "--dataset", "taipei"],
        ["query", "--workers", "0", "--error", "0.05"],
        ["query", "--error", "0.05", "--frame-limit", "0"],
        ["store", "stats", "--root", "no-such-store"],
        ["bench-diff", "no-such-a.json", "no-such-b.json"],
    ])
    def test_library_error_is_one_line_on_stderr(self, capsys, tmp_path,
                                                 monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_constraint_exits_2(self, capsys):
        assert main(["run", "--dataset", "imagenet",
                     "--accuracy-floor", "0.999"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

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

    def test_query_without_bench_json_writes_no_file(self, capsys,
                                                      tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["query", "--kind", "limit", "--dataset", "rialto",
                     "--min-count", "5", "--limit", "5",
                     "--workers", "1", "--frame-limit", "1000"]) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_limit_query_command(self, capsys):
        assert main(["query", "--kind", "limit", "--dataset", "rialto",
                     "--min-count", "5", "--limit", "5",
                     "--workers", "1", "2", "--frame-limit", "2000"]) == 0
        assert "found" in capsys.readouterr().out

    def test_cascade_query_command(self, capsys):
        assert main(["query", "--kind", "cascade", "--dataset", "animals-10",
                     "--num-classes", "10", "--images", "256",
                     "--workers", "1", "2"]) == 0
        assert "cascade" in capsys.readouterr().out

    def test_limit_query_missing_flags_exits_2(self, capsys):
        assert main(["query", "--kind", "limit", "--dataset", "rialto"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_aggregate_missing_error_bound_exits_2(self, capsys):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei"]) == 2
        assert "--error" in capsys.readouterr().err

    def test_unknown_video_dataset_exits_2(self, capsys):
        assert main(["query", "--kind", "aggregate", "--dataset", "nope",
                     "--error", "0.05"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_worker_count_exits_2(self, capsys):
        assert main(["query", "--workers", "0", "--error", "0.05"]) == 2
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
                     "--frame-limit", "2000", "--store-root", root]) == 0
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

    def test_query_non_positive_frame_limit_exits_2(self, capsys):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--frame-limit", "0"]) == 2
        assert "frame_limit" in capsys.readouterr().err

    def test_query_non_positive_batch_exits_2(self, capsys):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--max-batch", "0"]) == 2
        assert "batch_size" in capsys.readouterr().err

    def test_query_bad_specialized_accuracy_exits_2(self, capsys):
        assert main(["query", "--kind", "aggregate", "--dataset", "taipei",
                     "--error", "0.05", "--specialized-accuracy", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")


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
