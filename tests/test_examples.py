"""Smoke tests: the examples the README's recipes point at run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    # The example puts src/ on sys.path itself, as a reader running it does.
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cluster_quickstart_runs():
    stdout = run_example("cluster_quickstart.py")
    assert "all 200 requests still completed" in stdout
    assert "served 200 requests through the cluster" in stdout


# Each example's output lines that do not depend on wall-clock timing.
REPORTS = {
    "adaptive_serving.py": (
        "=== adaptive (stage bus -> calibrate -> drift -> swap)",
        "after 1 hot-swap(s)"),
    "classification_cascade.py": (
        "Smol plan meeting a 99% accuracy floor: "
        "resnet-50 on 161-jpeg-q75 [lowres]",
        "161-png   : accuracy"),
    "lowres_training.py": (
        "Calibrated ImageNet accuracy by format and training (Table 7)",
        "recovered: +"),
    "online_serving.py": (
        "resubmitted 8 requests: 8 served from cache",
        "after swapping to resnet-50 on 161-png [lowres]:"),
    "partial_decoding.py": (
        "ROI covers 82% of macroblocks",
        "rows required for the central crop: 241 / 256"),
    "quickstart.py": (
        "Selected plan: resnet-50 on 161-png [lowres]",
        "Speedup at no accuracy loss"),
    "store_warmup.py": (
        "warm results bit-identical to cold",
        "store catalog (taipei): materialized 480p-h264"),
    "video_aggregation.py": (
        "Where the speedup comes from (error bound 0.03, taipei):",),
}


def test_every_example_is_run_here():
    examples = {path.name for path in EXAMPLES.glob("*.py")}
    assert examples == {"cluster_quickstart.py", *REPORTS}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_example_runs_and_reports(name):
    stdout = run_example(name)
    for line in REPORTS[name]:
        assert line in stdout
