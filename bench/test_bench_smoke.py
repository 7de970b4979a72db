"""Smoke test of the benchmark: ``run.py --quick`` (one round of tiny
workloads) emits exactly the workloads and metrics ``BENCHMARK.json`` lists,
with units, and nothing fails."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def quick_runs():
    """(stdout lines, parsed last line) of the plain and the traced quick
    run; the two run side by side to keep the test short."""
    started = {
        trace: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--quick",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        for trace in (0, 1)}
    runs = {}
    for trace, process in started.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, stdout
        lines = stdout.splitlines()
        runs[trace] = (lines, json.loads(lines[-1])["workloads"])
    return runs


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emits_exactly_what_benchmark_json_lists(quick_runs, trace, section):
    lines, results = quick_runs[trace]
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert list(results) == WORKLOADS
    for workload, result in results.items():
        assert NAME.fullmatch(workload)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected
        assert all(NAME.fullmatch(name) for name in units)
        assert f"{workload}/failed_share 0 share" in lines
        for name, unit in expected.items():
            assert any(line.startswith(f"{workload}/{name} ")
                       and line.endswith(f" {unit}") for line in lines)
        if section == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_provenance_and_raw_rounds_are_printed(quick_runs):
    _, results = quick_runs[0]
    for result in results.values():
        detail = result["detail"]
        assert {"git_sha", "nproc", "python", "numpy", "blas_threads_env",
                "seed", "loadavg_1m"} <= set(detail["provenance"])
        assert detail["rounds"] == 1 and detail["ops_per_round"] >= 1
        assert set(detail["per_round"]) == {
            "wall_s", "cpu_s", "latency_p50_ms", "latency_p90_ms"}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
