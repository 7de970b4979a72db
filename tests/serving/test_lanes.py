"""A session-backed SmolServer serves on its session's ``streams`` lanes.

Each lane is one copy of the serve loop: it forms a batch only when idle and
executes it inline, so k lanes form and execute batches side by side.  These
tests hold the lanes to the serial oracle, to ``swap_plan``'s meaning, to a
session's declared ``streams``, and to a shutdown census.
"""

import threading
import time

import numpy as np
import pytest

from repro.chaos.faults import ChaosFault, FaultHook
from repro.chaos.runner import HashSession
from repro.errors import ServingError
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import BatchPolicy
from repro.serving.server import SmolServer
from repro.serving.session import SessionManager
from repro.tenant import LadderRung, PlanLadder
from repro.utils.rng import stable_hash

from test_server import GateSession, build_functional_session


def lanes() -> set[threading.Thread]:
    """Every live serving lane, from this test's servers or any other."""
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("smol-serve-")}


def new_lane_names(before: set[threading.Thread]) -> list[str]:
    """Names of the lanes alive now that were not alive in ``before``."""
    return sorted(thread.name for thread in lanes() - before)


class CountingSession(HashSession):
    """Counts how many threads are inside ``execute`` at once.

    ``dwell_s`` keeps each batch inside long enough for a second lane to
    arrive if one can; ``streams`` is the declared lane budget.
    """

    def __init__(self, plan_key: str = "count", streams: int = 2,
                 dwell_s: float = 0.002) -> None:
        super().__init__(plan_key)
        self.streams = streams
        self._dwell_s = dwell_s
        self._lock = threading.Lock()
        self.inside = 0
        self.peak = 0

    def execute(self, requests):
        with self._lock:
            self.inside += 1
            self.peak = max(self.peak, self.inside)
        try:
            time.sleep(self._dwell_s)
            return super().execute(requests)
        finally:
            with self._lock:
                self.inside -= 1


def drive(server: SmolServer, clients: int = 2, requests: int = 40) -> list:
    """``clients`` threads each submitting ``requests`` unique ids."""
    responses: list = []

    def client(name: str) -> None:
        futures = [server.submit(InferenceRequest(image_id=f"{name}-{n}"))
                   for n in range(requests)]
        responses.extend(future.result(timeout=30.0) for future in futures)

    threads = [threading.Thread(target=client, args=(f"c{n}",))
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    return responses


class TestLanes:
    def test_a_session_server_runs_one_lane_per_declared_stream(self):
        session = build_functional_session()
        assert session.streams == 2
        before = lanes()
        with SmolServer(session, cache_capacity=0):
            assert new_lane_names(before) == ["smol-serve-0", "smol-serve-1"]
        before = lanes()
        with SmolServer(CountingSession(streams=1), cache_capacity=0):
            assert new_lane_names(before) == ["smol-serve-0"]

    def test_two_lanes_match_the_serial_oracle(self):
        session = build_functional_session()
        rng = np.random.default_rng(5)
        payloads = [rng.integers(0, 256, (40, 40, 3), dtype=np.uint8)
                    for _ in range(12)]
        expected = [int(session.model.predict(
            session.preprocessing.execute(p)[None])[0]) for p in payloads]
        # Ids repeat across waves, so later waves mix cache hits with
        # batches the two lanes execute side by side.
        picks = rng.integers(len(payloads), size=(3, 48))
        with SmolServer(session, cache_capacity=256) as server:
            for wave in picks:
                futures = [server.submit(InferenceRequest(
                    image_id=f"img-{i}", payload=payloads[i])) for i in wave]
                for i, future in zip(wave, futures):
                    assert future.result(timeout=30.0).prediction == \
                        expected[i]
            stats = server.stats()
        assert stats.cache_hits > 0
        assert stats.executed + stats.cache_hits == picks.size

    def test_lanes_execute_side_by_side(self):
        session = CountingSession(streams=2)
        with SmolServer(session, policy=BatchPolicy("one", 1, 0.0),
                        cache_capacity=0) as server:
            responses = drive(server)
        assert len(responses) == 80
        assert session.peak == 2

    def test_a_one_stream_session_is_never_entered_twice(self):
        session = CountingSession(streams=1)
        with SmolServer(session, policy=BatchPolicy("one", 1, 0.0),
                        cache_capacity=0) as server:
            responses = drive(server)
        assert len(responses) == 80
        assert session.peak == 1

    def test_a_session_with_fewer_streams_is_refused(self):
        with SmolServer(CountingSession("two", streams=2),
                        cache_capacity=0) as server:
            with pytest.raises(ServingError, match="1 stream"):
                server.swap_plan(CountingSession("one", streams=1))
            assert server.sessions.current().plan_key == "two"
            # The manager refuses it too, whichever way the swap arrives.
            with pytest.raises(ServingError, match="1 stream"):
                server.sessions.swap(CountingSession("one", streams=1))
            with pytest.raises(ServingError, match="1 stream"):
                server.sessions.ensure(
                    "one", lambda: CountingSession("one", streams=1))
            assert server.sessions.current().plan_key == "two"
            server.swap_plan(CountingSession("three", streams=3))
            assert server.stats().plan_swaps == 1

    def test_a_prebuilt_manager_refuses_fewer_streams(self):
        manager = SessionManager(CountingSession("two", streams=2))
        with SmolServer(manager, cache_capacity=0) as server:
            with pytest.raises(ServingError, match="for 2 serving lanes"):
                manager.swap(CountingSession("one", streams=1))
            assert server.sessions.current().plan_key == "two"

    def test_a_ladder_rung_with_fewer_streams_is_refused_before_a_lane(
            self):
        ladder = PlanLadder([
            LadderRung(CountingSession("fast", streams=1), 0.001),
            LadderRung(CountingSession("slow", streams=2), 0.01),
        ])
        before = lanes()
        with pytest.raises(ServingError, match="'fast'"):
            SmolServer(CountingSession(streams=2), ladder=ladder)
        assert new_lane_names(before) == []

    def test_a_batch_runs_on_the_session_current_when_it_formed(self):
        inner = build_functional_session("plan-a")
        first = GateSession("plan-a", inner.preprocessing, inner.model)
        second = build_functional_session("plan-b", seed=4)
        payload = np.zeros((40, 40, 3), np.uint8)
        with SmolServer(first, cache_capacity=0) as server:
            held = []
            for n in range(2):
                held.append(server.submit(InferenceRequest(
                    image_id=f"held-{n}", payload=payload)))
                assert first.wait_entered(1)
            # Both lanes are inside plan-a's execute with a batch each.
            server.swap_plan(second)
            after = server.submit(InferenceRequest(image_id="after",
                                                   payload=payload))
            first.release.set()
            assert after.result(timeout=30.0).plan_key == "plan-b"
            assert [f.result(timeout=30.0).plan_key for f in held] == \
                ["plan-a", "plan-a"]

    def test_concurrent_swaps_answer_from_a_plan_current_in_flight(self):
        # Plans swap in order plan-0, plan-1, ...: a response must come
        # from a plan made live no earlier than the last swap finished
        # before its submit and no later than the last swap begun before
        # it resolved -- and carry that plan's own prediction.
        plans = [CountingSession(f"plan-{g}", dwell_s=0.0005)
                 for g in range(30)]
        begun = [0]
        finished = [0]
        records: list = []
        with SmolServer(plans[0], policy=BatchPolicy("small", 4, 0.0),
                        cache_capacity=0) as server:
            stop = threading.Event()

            def swapper() -> None:
                for g in range(1, len(plans)):
                    begun[0] = g
                    server.swap_plan(plans[g])
                    finished[0] = g
                    time.sleep(0.002)
                stop.set()

            def client(name: str) -> None:
                n = 0
                while not stop.is_set():
                    low = finished[0]
                    future = server.submit(InferenceRequest(
                        image_id=f"{name}-{n}"))
                    response = future.result(timeout=30.0)
                    records.append((low, begun[0], response))
                    n += 1

            threads = [threading.Thread(target=swapper)] + [
                threading.Thread(target=client, args=(f"c{k}",))
                for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        assert len({r.plan_key for _, _, r in records}) > 5
        for low, high, response in records:
            generation = int(response.plan_key.split("-")[1])
            assert low <= generation <= high
            assert response.prediction == \
                stable_hash(response.image_id, response.plan_key) % 13

    def test_cancelling_a_request_does_not_kill_a_lane(self):
        inner = build_functional_session()
        session = GateSession("serve-test", inner.preprocessing, inner.model)
        payload = np.zeros((40, 40, 3), np.uint8)
        before = lanes()
        with SmolServer(session, cache_capacity=0) as server:
            blockers = []
            for n in range(2):
                blockers.append(server.submit(InferenceRequest(
                    image_id=f"blocker-{n}", payload=payload)))
                assert session.wait_entered(1)
            # Both lanes are inside execute(): the doomed request is
            # provably still queued when the cancel lands.
            doomed = server.submit(InferenceRequest(image_id="doomed",
                                                    payload=payload))
            assert doomed.cancel()
            session.release.set()
            survivors = [server.submit(InferenceRequest(
                image_id=f"survivor-{n}", payload=payload))
                for n in range(16)]
            for future in blockers + survivors:
                assert future.result(timeout=30.0).prediction >= 0
            assert new_lane_names(before) == ["smol-serve-0", "smol-serve-1"]
            stats = server.stats()
        assert stats.cancelled == 1
        assert stats.completed == 18


class TestLaneCensus:
    def test_no_lane_survives_a_clean_close(self):
        before = lanes()
        server = SmolServer(CountingSession(), cache_capacity=0)
        assert new_lane_names(before) == ["smol-serve-0", "smol-serve-1"]
        assert len(drive(server, requests=4)) == 8
        server.close(timeout=10.0)
        assert new_lane_names(before) == []

    def test_a_failing_batcher_neither_spins_nor_leaves_a_lane(self):
        class BrokenBatcher(FaultHook):
            """Every ``next_batch`` raises; keeps each lane's CPU clock
            (``hit`` runs on the lane)."""

            __slots__ = ("cpu_s",)

            def __init__(self) -> None:
                self.cpu_s: dict[str, list[float]] = {}

            def hit(self, site: str, **ctx) -> None:
                if site == "serving.batch":
                    self.cpu_s.setdefault(threading.current_thread().name,
                                          []).append(time.thread_time())
                    raise ChaosFault("batcher is broken")

        faults = BrokenBatcher()
        before = lanes()
        server = SmolServer(build_functional_session(), cache_capacity=0,
                            faults=faults)
        time.sleep(0.6)
        begin = time.monotonic()
        server.close(timeout=10.0)
        assert time.monotonic() - begin < 5.0
        assert new_lane_names(before) == []
        assert sorted(faults.cpu_s) == ["smol-serve-0", "smol-serve-1"]
        for clock in faults.cpu_s.values():
            # Backed off, not spinning: a spin makes tens of thousands of
            # attempts; next to no CPU on either lane.
            assert 3 <= len(clock) < 60
            assert clock[-1] - clock[0] < 0.1

    def test_close_names_the_lanes_still_alive(self):
        inner = build_functional_session()
        session = GateSession("serve-test", inner.preprocessing, inner.model)
        before = lanes()
        server = SmolServer(session, cache_capacity=0)
        futures = []
        for n in range(2):
            futures.append(server.submit(InferenceRequest(
                image_id=f"stuck-{n}",
                payload=np.zeros((40, 40, 3), np.uint8))))
            assert session.wait_entered(1)
        with pytest.raises(ServingError, match="2 of 2 serving lanes"):
            server.close(timeout=0.05)
        session.release.set()
        for future in futures:
            future.result(timeout=30.0)
        wait = time.monotonic() + 10.0
        while new_lane_names(before) and time.monotonic() < wait:
            time.sleep(0.01)
        assert new_lane_names(before) == []
