"""Tests for the zero-copy shared-memory batch transport.

Round trips must be bit-exact for every IEEE-754 payload (scan scores ride
the channel as float64 bit patterns), segments must never outlive delivery
or a worker kill, and the inline fallback must be indistinguishable apart
from the segment names.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.cluster import ProcessWorker, WorkItem
from repro.fuse.shm import (
    HAS_SHM,
    SHM_DIR,
    ShmBatchRef,
    ShmBatchTransport,
    worker_shm_prefix,
)
from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.hardware.instance import get_instance
from repro.inference.mpmc import MpmcQueue
from repro.inference.perfmodel import PerformanceModel
from repro.nn.zoo import get_model_profile
from repro.serving.request import InferenceRequest
from repro.serving.session import simulated_session_for_format

needs_shm = pytest.mark.skipif(
    not (HAS_SHM and os.path.isdir(SHM_DIR)),
    reason="POSIX shared memory not available",
)

#: Bit patterns that break any repr/float round-trip: NaN with payload
#: bits, infinities, subnormals, signed zero.
SPECIAL_FLOATS = np.array(
    [np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.0, -0.0,
     np.finfo(np.float64).max],
    dtype=np.float64,
)


@pytest.fixture()
def transport():
    """A sweeping transport: no segment survives the test."""
    transport = ShmBatchTransport(worker_shm_prefix("shm-test"))
    yield transport
    transport.sweep()


def _segments(prefix: str) -> list[str]:
    if not os.path.isdir(SHM_DIR):
        return []
    return [name for name in os.listdir(SHM_DIR)
            if name.startswith(prefix)]


class TestRoundTrip:
    @needs_shm
    def test_special_float_bits_survive_exactly(self, transport):
        scores = SPECIAL_FLOATS.view(np.int64)
        ref = transport.publish(scores)
        assert ref.name is not None and ref.inline is None
        back = transport.attach(ref)
        assert back.dtype == scores.dtype
        assert back.tobytes() == scores.tobytes()
        # Round-tripped bit patterns reinterpret to the same specials.
        assert np.array_equal(back.view(np.float64), SPECIAL_FLOATS,
                              equal_nan=True)

    def test_inline_fallback_is_bit_identical(self):
        transport = ShmBatchTransport("inline-test-", force_inline=True)
        assert not transport.uses_shm
        scores = SPECIAL_FLOATS.view(np.int64)
        ref = transport.publish(scores)
        assert ref.inline is not None and ref.name is None
        back = transport.attach(ref)
        assert back.tobytes() == scores.tobytes()
        assert transport.inline_batches == 1

    @needs_shm
    def test_multidimensional_and_noncontiguous_arrays(self, transport):
        rng = np.random.default_rng(5)
        batch = rng.integers(-(2 ** 62), 2 ** 62, size=(6, 8),
                             dtype=np.int64)[::2]  # non-contiguous view
        back = transport.attach(transport.publish(batch))
        assert back.shape == (3, 8)
        assert back.tobytes() == np.ascontiguousarray(batch).tobytes()

    def test_empty_batch_rides_inline(self, transport):
        # Zero-byte segments cannot be created; empties inline regardless.
        ref = transport.publish(np.empty(0, dtype=np.int64))
        assert ref.inline is not None
        assert transport.attach(ref).size == 0

    def test_ref_reports_payload_size(self):
        ref = ShmBatchRef(shape=(4, 2), dtype="<i8", inline=b"\0" * 64)
        assert ref.nbytes == 64


class TestLifecycle:
    @needs_shm
    def test_attach_unlinks_the_segment(self, transport):
        ref = transport.publish(np.arange(16, dtype=np.int64))
        assert _segments(transport.prefix) == [ref.name]
        transport.attach(ref)
        assert _segments(transport.prefix) == []

    @needs_shm
    def test_sweep_reclaims_undelivered_segments(self, transport):
        refs = [transport.publish(np.arange(8, dtype=np.int64))
                for _ in range(3)]
        assert len(_segments(transport.prefix)) == 3
        removed = transport.sweep()
        assert sorted(removed) == sorted(ref.name for ref in refs)
        assert _segments(transport.prefix) == []
        assert transport.swept == 3

    @needs_shm
    def test_attach_after_sweep_reports_the_crash(self, transport):
        ref = transport.publish(np.arange(4, dtype=np.int64))
        transport.sweep()
        with pytest.raises(FileNotFoundError):
            transport.attach(ref)

    def test_sweep_ignores_other_prefixes(self, transport):
        other = ShmBatchTransport(worker_shm_prefix("shm-other"))
        try:
            ref = other.publish(np.arange(4, dtype=np.int64))
            assert transport.sweep() == []
            if ref.name is not None:
                assert _segments(other.prefix) == [ref.name]
        finally:
            other.sweep()

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            ShmBatchTransport("")
        with pytest.raises(ValueError):
            ShmBatchTransport("bad/prefix")

    def test_prefix_is_deterministic_per_parent(self):
        assert (worker_shm_prefix("w-0", pid=123)
                == worker_shm_prefix("w-0", pid=123))
        assert (worker_shm_prefix("w-0", pid=123)
                != worker_shm_prefix("w-0", pid=124))
        # Arbitrary worker ids sanitize into valid segment names.
        assert "/" not in worker_shm_prefix("w/0", pid=123)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process workers need the fork start method",
)
class TestProcessWorkerLifecycle:
    @pytest.fixture()
    def results(self):
        return MpmcQueue(64)

    @pytest.fixture()
    def session(self):
        return simulated_session_for_format(
            get_model_profile("resnet-18"), THUMB_JPEG_161_Q75,
            PerformanceModel(get_instance("g4dn.xlarge")), num_classes=16)

    def _item(self, item_id: int, count: int = 3) -> WorkItem:
        return WorkItem(
            item_id=item_id,
            requests=tuple(InferenceRequest(image_id=f"shm/img-{item_id}-{i}")
                           for i in range(count)),
        )

    @needs_shm
    def test_delivery_leaves_no_segments(self, results, session):
        worker = ProcessWorker("shm-pw", session, results)
        try:
            for item_id in range(4):
                worker.submit(self._item(item_id))
            got = {results.get(timeout=20.0).item_id for _ in range(4)}
            assert got == set(range(4))
        finally:
            worker.close()
        assert _segments(worker.transport.prefix) == []
        assert worker.transport.attached == 4

    @needs_shm
    def test_kill_sweeps_in_flight_segments(self, results, session):
        worker = ProcessWorker("shm-kill", session, results)
        try:
            worker.submit(self._item(0))
            results.get(timeout=20.0)
            worker.kill()
            worker._thread.join(timeout=10.0)
        finally:
            worker.close()
        assert _segments(worker.transport.prefix) == []

    def test_inline_worker_matches_shm_worker(self, results, session,
                                              monkeypatch):
        shm_worker = ProcessWorker("shm-a", session, results)
        inline_results = MpmcQueue(64)
        # shm vs inline is the platform's choice, not a worker option: a
        # worker built (and forked) where shared memory is missing rides
        # inline bytes on both sides of the process boundary.
        monkeypatch.setattr("repro.fuse.shm.HAS_SHM", False)
        inline_worker = ProcessWorker("shm-b", session, inline_results)
        monkeypatch.undo()
        try:
            assert not inline_worker.transport.uses_shm
            shm_worker.submit(self._item(0))
            inline_worker.submit(self._item(0))
            via_shm = results.get(timeout=20.0)
            via_inline = inline_results.get(timeout=20.0)
            assert via_shm.ok and via_inline.ok
            assert np.array_equal(via_shm.predictions,
                                  via_inline.predictions)
        finally:
            shm_worker.close()
            inline_worker.close()
