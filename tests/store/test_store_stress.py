"""Threads and processes on one store root, all at once.

Two writer processes commit to the root while, in this process, reader
threads scan it through one shared handle and another thread loops
``invalidate`` + ``gc`` through a second.  Invariants a lost update or a
torn read would break: every value a reader gets is exactly one a writer
put; every committed put is there at the end, under one gap-free sequence;
and the reader threads never took ``manifest.lock``.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.store.store as store_module
from repro.store import Manifest, RenditionStore, ScoreKey

SRC = Path(__file__).resolve().parents[2] / "src"
PUTS_PER_WRITER = 120
WRITER = """
import sys
import numpy as np
from repro.store import RenditionStore, ScoreKey
root, tag, puts = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = RenditionStore(root, chunk_frames=4)
for index in range(puts):
    store.put_scores(ScoreKey(f"{tag}-{index}", "m", "r"),
                     np.full((6, 3), index, dtype=np.float32))
"""


class FlockCensus:
    """``fcntl`` stand-in that notes which threads take the flock."""

    def __init__(self, real) -> None:
        self._real = real
        self.lockers: set[str] = set()

    def __getattr__(self, name):
        return getattr(self._real, name)

    def flock(self, handle, operation):
        if operation == self._real.LOCK_EX:
            self.lockers.add(threading.current_thread().name)
        return self._real.flock(handle, operation)


@pytest.mark.skipif(store_module.fcntl is None, reason="needs flock")
def test_writers_readers_and_gc_share_a_root(tmp_path, monkeypatch):
    census = FlockCensus(store_module.fcntl)
    monkeypatch.setattr(store_module, "fcntl", census)
    root = tmp_path / "store"
    shared = RenditionStore(root, chunk_frames=4)
    sweeper = RenditionStore(root, chunk_frames=4)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    writers = [subprocess.Popen(
        [sys.executable, "-c", WRITER, str(root), tag, str(PUTS_PER_WRITER)],
        env=env) for tag in ("left", "right")]
    done = threading.Event()
    errors: list[str] = []
    reads = [0, 0]

    def read(slot: int) -> None:
        tag = ("left", "right")[slot]
        try:
            while not done.is_set():
                for index in range(0, PUTS_PER_WRITER, 7):
                    got = shared.get_scores(ScoreKey(f"{tag}-{index}",
                                                     "m", "r"))
                    if got is None:
                        continue
                    reads[slot] += 1
                    if got.tobytes() != np.full((6, 3), index,
                                                np.float32).tobytes():
                        errors.append(f"torn read of {tag}-{index}")
                shared.materialized_renditions()
                shared.stats()
        except Exception as exc:      # a thread must report, not vanish
            errors.append(f"reader {tag}: {exc!r}")

    def sweep() -> None:
        try:
            round_ = 0
            while not done.is_set():
                key = ScoreKey(f"victim-{round_ % 3}", "m", "r")
                sweeper.put_scores(key, np.full((6, 3), -1.0, np.float32))
                sweeper.invalidate("scores/victim-")
                sweeper.gc()    # age-guarded: other writers are active
                round_ += 1
        except Exception as exc:
            errors.append(f"sweeper: {exc!r}")

    threads = [threading.Thread(target=read, args=(slot,),
                                name=f"reader-{slot}") for slot in (0, 1)]
    threads.append(threading.Thread(target=sweep, name="sweeper"))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120
        for writer in writers:
            writer.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
    assert [writer.returncode for writer in writers] == [0, 0]
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert min(reads) > 0
    # Readers never waited on a writer's lock; the sweeper (and only a
    # thread that commits) did.
    assert census.lockers == {"sweeper"}
    # No committed put is lost, whoever's handle looks.
    for handle in (shared, RenditionStore(root, chunk_frames=4)):
        for tag in ("left", "right"):
            for index in range(PUTS_PER_WRITER):
                got = handle.get_scores(ScoreKey(f"{tag}-{index}", "m", "r"))
                assert got is not None, (tag, index)
                assert got.tobytes() == np.full((6, 3), index,
                                                np.float32).tobytes()
    version = Manifest.load(root).version
    stats = shared.stats()
    assert stats.manifest_sequence == version.sequence \
        >= 2 * PUTS_PER_WRITER
    assert stats.manifest_checkpoints >= 2     # the log was folded under load
    assert len(version.entries) == 2 * PUTS_PER_WRITER
