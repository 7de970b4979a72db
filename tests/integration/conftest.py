"""Integration tests share the cluster suite's session fakes
(``tests/cluster/cluster_testlib.py``)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "cluster"))
