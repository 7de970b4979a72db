"""Tests for the SmolServer facade, including the end-to-end serving path."""

import statistics
import threading
import time

import pytest

from repro.codecs.formats import FULL_JPEG, THUMB_PNG_161
from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import AdmissionError, ServingError
from repro.inference.engine import SmolRuntimeEngine
from repro.inference.perfmodel import EngineConfig
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import (
    FunctionalSession,
    serving_pipeline_ops,
    simulated_session_for_format,
)
from repro.utils.rng import deterministic_rng

POOL_SIZE = 48


@pytest.fixture(scope="module")
def image_pool():
    generator = SyntheticImageGenerator(num_classes=2, image_size=40, seed=21)
    return [(f"img-{i}", generator.generate_image(i % 2, i).pixels)
            for i in range(POOL_SIZE)]


def build_functional_session(plan_key: str = "serve-test",
                             seed: int = 3) -> FunctionalSession:
    dag = PreprocessingDAG.from_ops(serving_pipeline_ops(input_size=36,
                                                         crop_size=32))
    model = build_mini_resnet(18, num_classes=2, input_size=32, seed=seed)
    session = FunctionalSession(plan_key, dag, model)
    session.warmup()
    return session


class GateSession(FunctionalSession):
    """A functional session whose every ``execute`` waits for the test.

    :meth:`wait_entered` returns once that many batches have entered
    execution, and each runs once ``release`` is set -- so a test knows
    which lanes are inside ``execute``, and that whatever it submits
    meanwhile is still queued if every lane is.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self._entered = threading.Semaphore(0)

    def wait_entered(self, count: int, timeout: float = 10.0) -> bool:
        return all(self._entered.acquire(timeout=timeout)
                   for _ in range(count))

    def execute(self, requests):
        self._entered.release()
        if not self.release.wait(timeout=30.0):
            raise RuntimeError("GateSession was never released")
        return super().execute(requests)


class TestEndToEnd:
    def test_thousand_requests_match_direct_engine_run(self, image_pool):
        """Acceptance: >=1000 requests, all futures resolve, predictions match
        a direct engine run, cache hits occur on repeated image ids."""
        session = build_functional_session()

        # Ground truth: the same pixels through the offline batch engine with
        # the same preprocessing DAG and model.
        engine = SmolRuntimeEngine(EngineConfig(num_producers=2, batch_size=16,
                                                queue_capacity=2))
        direct = engine.run_functional_batched(
            [payload for _, payload in image_pool],
            session.preprocessing, session.model,
        )
        expected = {image_id: int(prediction) for (image_id, _), prediction
                    in zip(image_pool, direct.predictions)}

        rng = deterministic_rng("serve-e2e", seed=1)
        with SmolServer(session, policy=BatchPolicy(name="t",
                                                    max_batch_size=16,
                                                    max_wait_ms=2.0),
                        queue_capacity=128, cache_capacity=256) as server:
            responses = []
            # Four waves of 250; waves after the first re-request seen images,
            # so the prediction cache must start hitting.
            for wave in range(4):
                futures = []
                for _ in range(250):
                    image_id, payload = image_pool[
                        int(rng.integers(0, len(image_pool)))
                    ]
                    futures.append(server.submit(InferenceRequest(
                        image_id=image_id, payload=payload,
                        format_name="full-jpeg",
                    )))
                responses.extend(f.result(timeout=60.0) for f in futures)
            stats = server.stats()

        assert len(responses) == 1000
        for response in responses:
            assert response.prediction == expected[response.image_id]
        assert stats.completed == 1000
        assert stats.cache_hits > 0
        assert stats.cache.hit_rate > 0
        assert stats.executed + stats.cache_hits == 1000
        assert stats.batcher.items == stats.executed
        assert stats.latency.count == 1000
        assert stats.latency.p50_ms <= stats.latency.p99_ms

    def test_cached_responses_are_instant_and_flagged(self, image_pool):
        session = build_functional_session()
        with SmolServer(session, cache_capacity=64) as server:
            image_id, payload = image_pool[0]
            request = InferenceRequest(image_id=image_id, payload=payload)
            first = server.submit(request).result(timeout=30.0)
            second = server.submit(
                InferenceRequest(image_id=image_id, payload=payload)
            ).result(timeout=30.0)
        assert not first.cached
        assert second.cached
        assert second.prediction == first.prediction
        assert second.batch_size == 0


class TestServerBehavior:
    def test_submit_after_close_rejected(self, image_pool):
        server = SmolServer(build_functional_session())
        server.close()
        image_id, payload = image_pool[0]
        with pytest.raises(ServingError):
            server.submit(InferenceRequest(image_id=image_id, payload=payload))

    def test_close_is_idempotent(self):
        server = SmolServer(build_functional_session())
        server.close()
        server.close()

    def test_load_shedding_at_capacity(self, image_pool):
        session = build_functional_session()
        with SmolServer(session, policy=BatchPolicy(name="tiny",
                                                    max_batch_size=4,
                                                    max_wait_ms=0.0),
                        queue_capacity=2, cache_capacity=0,
                        block_on_full=False) as server:
            rejected = 0
            futures = []
            for index in range(60):
                image_id, payload = image_pool[index % len(image_pool)]
                try:
                    futures.append(server.submit(InferenceRequest(
                        image_id=f"shed-{index}", payload=payload,
                    )))
                except AdmissionError:
                    rejected += 1
            for future in futures:
                future.result(timeout=60.0)
            stats = server.stats()
        assert rejected > 0
        assert stats.rejected == rejected
        assert stats.completed == 60 - rejected

    def test_closed_loop_windows_never_wait_out_the_bound(self, image_pool):
        # Two closed-loop clients of window 8 cannot fill two batches of
        # 8 between them while one is executing, so the stragglers a held
        # batch would wait for are blocked on that very batch: a server
        # that holds pays the full 200 ms bound in every window.
        windows_per_client = 6
        durations: list[float] = []
        with SmolServer(build_functional_session(),
                        policy=BatchPolicy(name="closed", max_batch_size=8,
                                           max_wait_ms=200.0),
                        cache_capacity=0) as server:
            def client(name: str) -> None:
                for window in range(windows_per_client):
                    begin = time.monotonic()
                    futures = [server.submit(InferenceRequest(
                        image_id=f"{name}-{window}-{n}",
                        payload=image_pool[n][1])) for n in range(8)]
                    for future in futures:
                        future.result(timeout=30.0)
                    durations.append(time.monotonic() - begin)

            clients = [threading.Thread(target=client, args=(f"c{n}",),
                                        daemon=True) for n in range(2)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(60.0)
                assert not thread.is_alive()
            stats = server.stats()
        assert len(durations) == 2 * windows_per_client
        assert stats.completed == 16 * windows_per_client
        assert stats.batcher.hold_s == 0.0
        assert stats.batcher.timeout_batches == 0
        # A window is ~5 ms of numpy; the median forgives a host stall.
        assert statistics.median(durations) < 0.1

    def test_cache_disabled(self, image_pool):
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0) as server:
            image_id, payload = image_pool[0]
            first = server.submit(
                InferenceRequest(image_id=image_id, payload=payload)
            ).result(timeout=30.0)
            second = server.submit(
                InferenceRequest(image_id=image_id, payload=payload)
            ).result(timeout=30.0)
            stats = server.stats()
        assert stats.cache is None
        assert not second.cached
        assert second.prediction == first.prediction

    def test_deadline_missed_is_flagged(self, perf_model, resnet50):
        session = simulated_session_for_format(resnet50, FULL_JPEG, perf_model)
        with SmolServer(session, policy=BatchPolicy(name="t", max_batch_size=4,
                                                    max_wait_ms=0.0),
                        cache_capacity=0) as server:
            # The modelled per-image service time on full-res JPEG is ~1ms;
            # a 1 microsecond deadline cannot be met.
            response = server.submit(InferenceRequest(
                image_id="late", deadline_s=1e-6,
            )).result(timeout=30.0)
            stats = server.stats()
        assert response.deadline_missed
        assert stats.deadline_missed == 1

    def test_execution_failure_propagates_to_futures(self):
        # A functional session handed a payload-less request fails the whole
        # micro-batch; every affected future must carry the error.
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0) as server:
            future = server.submit(InferenceRequest(image_id="no-pixels"))
            with pytest.raises(ServingError):
                future.result(timeout=30.0)
            stats = server.stats()
        assert stats.errors == 1

    def test_hot_swap_switches_plan_and_cache_namespace(self, image_pool):
        first = build_functional_session("plan-a", seed=3)
        second = build_functional_session("plan-b", seed=4)
        image_id, payload = image_pool[0]
        with SmolServer(first, cache_capacity=64) as server:
            before = server.submit(
                InferenceRequest(image_id=image_id, payload=payload)
            ).result(timeout=30.0)
            server.swap_plan(second)
            after = server.submit(
                InferenceRequest(image_id=image_id, payload=payload)
            ).result(timeout=30.0)
            stats = server.stats()
        assert before.plan_key == "plan-a"
        assert after.plan_key == "plan-b"
        assert not after.cached      # old plan's cache entry must not leak
        assert stats.plan_swaps == 1

    def test_simulated_latency_includes_modelled_service_time(self, perf_model,
                                                              resnet50):
        full = simulated_session_for_format(resnet50, FULL_JPEG, perf_model)
        thumb = simulated_session_for_format(resnet50, THUMB_PNG_161,
                                             perf_model)
        policy = BatchPolicy(name="one", max_batch_size=1, max_wait_ms=0.0)
        # Thumbnails are modelled much faster than full decode ...
        assert thumb.batch_costs(1)[0] < full.batch_costs(1)[0]
        for session in (full, thumb):
            with SmolServer(session, policy=policy, cache_capacity=0) as server:
                futures = [server.submit(InferenceRequest(image_id=f"i{n}"))
                           for n in range(32)]
                latencies = [future.result(timeout=30.0).latency_s
                             for future in futures]
            # ... and every reported latency carries its batch's modelled
            # service time on top of the measured queueing.
            assert min(latencies) >= session.batch_costs(1)[0]


class TestServerSlo:
    def _engine(self, latency_target_s=10.0):
        from repro.obs import SloEngine, SloSpec, SloWindow

        return SloEngine([SloSpec(
            name="latency", latency_target_s=latency_target_s,
            objective=0.9,
            windows=(SloWindow(seconds=60.0, max_burn_rate=1.0),),
            min_events=1,
        )])

    def test_resolved_requests_feed_the_slo_engine(self, image_pool):
        session = build_functional_session()
        engine = self._engine()
        with SmolServer(session, cache_capacity=0, slo=engine) as server:
            futures = [
                server.submit(InferenceRequest(image_id=image_id,
                                               payload=payload))
                for image_id, payload in image_pool[:8]
            ]
            for future in futures:
                future.result(timeout=30.0)
        (status,) = engine.evaluate()
        (burn,) = status.windows
        assert burn.events == 8
        assert burn.bad == 0
        assert not status.burning

    def test_failed_batch_spends_error_budget(self):
        session = build_functional_session()
        engine = self._engine()
        with SmolServer(session, cache_capacity=0, slo=engine) as server:
            future = server.submit(InferenceRequest(image_id="no-pixels"))
            with pytest.raises(ServingError):
                future.result(timeout=30.0)
        (status,) = engine.evaluate()
        assert status.windows[0].bad == 1
        assert status.burning

    def test_deadline_miss_spends_error_budget(self, perf_model, resnet50):
        session = simulated_session_for_format(resnet50, FULL_JPEG,
                                               perf_model)
        engine = self._engine()
        with SmolServer(session, policy=BatchPolicy(name="t",
                                                    max_batch_size=4,
                                                    max_wait_ms=0.0),
                        cache_capacity=0, slo=engine) as server:
            response = server.submit(InferenceRequest(
                image_id="late", deadline_s=1e-6,
            )).result(timeout=30.0)
        assert response.deadline_missed
        (status,) = engine.evaluate()
        assert status.windows[0].bad == 1


class TestOnlineAnalyticsQueries:
    def test_query_resolves_to_the_engine_result(self):
        from repro.query import QueryEngine, QuerySpec

        engine = QueryEngine(frame_limit=1500, batch_size=128)
        spec = QuerySpec.aggregate("amsterdam", error_bound=0.05)
        reference = engine.execute_single(spec)
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0) as server:
            result = server.query(spec, num_workers=2,
                                  engine=engine).result(timeout=60.0)
            stats = server.stats()
        assert result.estimate == reference.estimate
        assert result.ci_half_width == reference.ci_half_width
        assert stats.queries == 1
        assert "queries" in stats.describe()

    def test_query_warms_from_an_attached_store(self, tmp_path):
        from repro.query import QuerySpec
        from repro.store import RenditionStore

        store = RenditionStore(tmp_path / "store", chunk_frames=500)
        spec = QuerySpec.aggregate("amsterdam", error_bound=0.05)
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0, store=store) as server:
            first = server.query(spec, num_workers=2).result(timeout=60.0)
            second = server.query(spec, num_workers=1).result(timeout=60.0)
        # The server's lazily-built engine writes through the store on the
        # first query; the second is a warm hit -- and answers match.
        assert second.estimate == first.estimate
        assert second.ci_half_width == first.ci_half_width
        stats = store.stats()
        assert stats.score_entries == 1
        assert stats.read_through_misses == 1
        assert stats.read_through_hits >= 1

    def test_query_failure_surfaces_as_serving_error(self):
        from repro.query import QueryEngine, QuerySpec

        engine = QueryEngine(frame_limit=1500, batch_size=128)
        spec = QuerySpec.aggregate("not-a-dataset", error_bound=0.05)
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0) as server:
            future = server.query(spec, engine=engine)
            with pytest.raises(ServingError):
                future.result(timeout=60.0)
            assert server.stats().queries == 0

    def test_query_after_close_rejected(self):
        from repro.query import QuerySpec

        server = SmolServer(build_functional_session(), cache_capacity=0)
        server.close()
        with pytest.raises(ServingError):
            server.query(QuerySpec.aggregate("taipei", error_bound=0.05))

    def test_point_requests_keep_serving_while_a_query_runs(self, image_pool):
        from repro.query import QueryEngine, QuerySpec

        engine = QueryEngine(frame_limit=2000, batch_size=64)
        session = build_functional_session()
        with SmolServer(session, cache_capacity=0) as server:
            query_future = server.query(
                QuerySpec.aggregate("taipei", error_bound=0.05),
                num_workers=2, engine=engine,
            )
            responses = [
                server.submit(InferenceRequest(image_id=image_id,
                                               payload=payload))
                for image_id, payload in image_pool[:16]
            ]
            for future in responses:
                assert future.result(timeout=30.0).prediction in (0, 1)
            assert query_future.result(timeout=60.0).estimate > 0
