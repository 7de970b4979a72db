"""Smoke tests: the examples the README's recipes point at run end to end."""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_cluster_quickstart_runs():
    # The example puts src/ on sys.path itself, as a reader running it does.
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / "cluster_quickstart.py")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "all 200 requests still completed" in done.stdout
    assert "served 200 requests through the cluster" in done.stdout
