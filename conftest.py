"""Repository-root pytest configuration.

Makes the ``src`` layout importable even when the package has not been
installed (offline environments without a working editable install), and
registers the ``--update-golden`` flag used by the golden plan-trace
regression tests (``tests/core/test_golden_plans.py``).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    """Register ``--update-golden``: rewrite golden snapshots instead of
    comparing against them (run the golden tests, review the diff, commit)."""
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden plan-trace snapshots instead of asserting",
    )


def pytest_configure(config):
    """Register ``exhaustive``: cases tier-1 runs in full and CI's 20x flake
    loop deselects (``-m "not exhaustive"``), keeping a sample of them."""
    config.addinivalue_line(
        "markers", "exhaustive: a full sweep the flake loop samples instead",
    )
