"""Deterministic session fakes and waits shared by the cluster test suite."""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.hardware.instance import get_instance
from repro.inference.mpmc import MpmcQueue
from repro.inference.perfmodel import PerformanceModel
from repro.nn.zoo import get_model_profile
from repro.serving.session import (
    BatchResult,
    EngineSession,
    SimulatedSession,
    simulated_session_for_format,
)
from repro.utils.rng import stable_hash


def simulated_session(num_classes: int = 8) -> SimulatedSession:
    """A warmed simulated replica session: ResNet-18 on 161-px JPEG,
    priced on a g4dn.xlarge."""
    return simulated_session_for_format(
        get_model_profile("resnet-18"), THUMB_JPEG_161_Q75,
        PerformanceModel(get_instance("g4dn.xlarge")),
        num_classes=num_classes)


def wait_until(predicate: Callable[[], bool], timeout: float = 5.0,
               interval: float = 0.002, message: str = "condition") -> None:
    """Condition-based wait replacing fixed ``time.sleep`` synchronization.

    Returns as soon as ``predicate()`` holds; fails the test with a
    descriptive error after ``timeout`` seconds.  Generous timeouts with
    early exit make these waits immune to scheduler jitter, where a fixed
    sleep is either flaky (too short) or slow (too long).
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


def replica_threads(worker_id: str) -> list[str]:
    """Names of live threads belonging to replica ``worker_id``."""
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith(f"cluster-{worker_id}")]


class FullResultsQueue(MpmcQueue):
    """A capacity-1 results queue, already full, that signals the first
    attempt to post into it -- the instant a replica holds a computed
    outcome it cannot deliver."""

    def __init__(self) -> None:
        super().__init__(1)
        super().put("filler")
        self.attempted = threading.Event()

    def put(self, item, timeout=None):
        self.attempted.set()
        super().put(item, timeout=timeout)

    def drain(self) -> list:
        """Everything queued right now (the filler excluded)."""
        items = []
        while len(self):
            items.append(self.get(timeout=1.0))
        return [item for item in items if item != "filler"]


class GatedSession(EngineSession):
    """A session whose ``execute`` blocks until the test releases it.

    Gives kill/pending-item tests real synchronization points (events)
    instead of sleep-tuned races: ``started`` is set when a batch enters
    execution, and the batch does not finish until ``release`` is set.
    """

    def __init__(self, plan_key: str = "gated-plan") -> None:
        super().__init__(plan_key)
        self.started = threading.Event()
        self.release = threading.Event()

    def execute(self, requests):
        self.started.set()
        if not self.release.wait(timeout=30.0):
            raise RuntimeError("GatedSession was never released")
        predictions = np.zeros(len(requests), dtype=np.int64)
        return BatchResult(predictions=predictions, modelled_seconds=0.0)


class ScriptedSession(EngineSession):
    """A deterministic in-test session with injectable failures.

    Predictions are ``stable_hash(image_id, plan_key) % num_classes`` --
    the same convention as :class:`SimulatedSession` -- so any two scripted
    sessions on the same plan key agree, which is what replica failover
    correctness relies on.  ``delay_s`` holds each batch that long in wall
    time, so a kill lands while the replica is occupied.
    """

    def __init__(self, plan_key: str = "test-plan", num_classes: int = 7,
                 fail_times: int = 0,
                 seconds_per_image: float = 1e-3,
                 delay_s: float = 0.0) -> None:
        super().__init__(plan_key)
        self._num_classes = num_classes
        self._fail_remaining = fail_times
        self._seconds_per_image = seconds_per_image
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self.executed_batches = 0

    def execute(self, requests):
        if self._delay_s:
            time.sleep(self._delay_s)
        with self._lock:
            if self._fail_remaining > 0:
                self._fail_remaining -= 1
                raise RuntimeError("injected session failure")
            self.executed_batches += 1
        predictions = np.array(
            [stable_hash(r.image_id, self.plan_key) % self._num_classes
             for r in requests],
            dtype=np.int64,
        )
        return BatchResult(
            predictions=predictions,
            modelled_seconds=len(requests) * self._seconds_per_image,
        )


def expected_prediction(image_id: str, plan_key: str = "test-plan",
                        num_classes: int = 7) -> int:
    """The prediction every healthy scripted replica must produce."""
    return stable_hash(image_id, plan_key) % num_classes
