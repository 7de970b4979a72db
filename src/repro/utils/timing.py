"""A wall-clock timer for the functional (real numpy) paths.

:func:`wall_timer` measures **seconds** of real elapsed time and yields them
under the ``"seconds"`` key; the cost models speak per-image
**microseconds**.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def wall_timer() -> Iterator[dict[str, float]]:
    """Context manager measuring elapsed wall-clock **seconds**.

    Yields a dict whose ``"seconds"`` key holds the elapsed wall time on
    exit.

    >>> with wall_timer() as elapsed:
    ...     do_work()
    >>> elapsed["seconds"]  # doctest: +SKIP
    """
    result: dict[str, float] = {"seconds": 0.0}
    start = time.perf_counter()
    try:
        yield result
    finally:
        result["seconds"] = time.perf_counter() - start
