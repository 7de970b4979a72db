"""Tests for the open-loop load generator."""

import pytest

from repro.codecs.formats import THUMB_PNG_161
from repro.errors import ServingError
from repro.serving.scheduler import BatchPolicy
from repro.serving.loadgen import (
    ArrivalTrace,
    LoadGenerator,
    burst_arrivals,
    poisson_arrivals,
)
from repro.serving.server import SmolServer
from repro.serving.session import simulated_session_for_format
from repro.utils.rng import deterministic_rng


class TestArrivalProcesses:
    def test_poisson_arrivals_cover_the_window(self):
        rng = deterministic_rng("test-poisson", seed=0)
        times = poisson_arrivals(1000.0, 1.0, rng)
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)
        # Poisson(1000): count is within a loose 5-sigma band.
        assert 800 <= len(times) <= 1200

    def test_poisson_is_deterministic_per_seed(self):
        first = poisson_arrivals(
            500.0, 0.5, deterministic_rng("test-poisson", seed=1)
        )
        second = poisson_arrivals(
            500.0, 0.5, deterministic_rng("test-poisson", seed=1)
        )
        assert first == second

    def test_burst_arrivals_group_and_keep_rate(self):
        times = burst_arrivals(1000.0, 1.0, burst_size=10)
        assert len(times) == pytest.approx(1000, rel=0.05)
        # Arrivals come in simultaneous groups of burst_size.
        assert times[:10] == [0.0] * 10
        assert len(set(times)) * 10 == len(times)

    def test_invalid_parameters_rejected(self):
        rng = deterministic_rng("test", seed=0)
        with pytest.raises(ServingError):
            poisson_arrivals(0.0, 1.0, rng)
        with pytest.raises(ServingError):
            burst_arrivals(100.0, 1.0, burst_size=0)


class TestArrivalTraceDeterminism:
    def test_same_parameters_replay_identical_traces(self):
        first = ArrivalTrace.build("poisson", 800.0, 0.5, pool_size=16, seed=3)
        second = ArrivalTrace.build("poisson", 800.0, 0.5, pool_size=16, seed=3)
        assert first == second
        assert len(first) > 0

    def test_seed_changes_the_trace(self):
        base = ArrivalTrace.build("poisson", 800.0, 0.5, pool_size=16, seed=3)
        other = ArrivalTrace.build("poisson", 800.0, 0.5, pool_size=16, seed=4)
        assert base.offsets != other.offsets

    def test_schedule_parameters_key_independent_streams(self):
        slow = ArrivalTrace.build("poisson", 400.0, 0.5, pool_size=16, seed=3)
        fast = ArrivalTrace.build("poisson", 800.0, 0.5, pool_size=16, seed=3)
        # Different rates draw from independent streams, not a shared one.
        assert slow.offsets[:5] != fast.offsets[:5]

    def test_burst_choices_are_deterministic(self):
        first = ArrivalTrace.build("burst", 500.0, 0.2, pool_size=8, seed=9,
                                   burst_size=4)
        second = ArrivalTrace.build("burst", 500.0, 0.2, pool_size=8, seed=9,
                                    burst_size=4)
        assert first.choices == second.choices
        assert all(0 <= c < 8 for c in first.choices)

    def test_generator_trace_matches_across_instances(self, simulated_server):
        pool = [(f"img-{i}", None) for i in range(8)]
        one = LoadGenerator(simulated_server, pool, seed=5)
        two = LoadGenerator(simulated_server, pool, seed=5)
        assert one.trace(300.0, 0.5) == two.trace(300.0, 0.5)

    def test_invalid_trace_parameters_rejected(self):
        with pytest.raises(ServingError):
            ArrivalTrace.build("sawtooth", 100.0, 0.1, pool_size=4)
        with pytest.raises(ServingError):
            ArrivalTrace.build("poisson", 100.0, 0.1, pool_size=0)


@pytest.fixture()
def simulated_server(perf_model, resnet18):
    session = simulated_session_for_format(resnet18, THUMB_PNG_161, perf_model)
    server = SmolServer(session, policy=BatchPolicy.latency(),
                        cache_capacity=256)
    yield server
    server.close()


class TestLoadGenerator:
    def test_empty_pool_rejected(self, simulated_server):
        with pytest.raises(ServingError):
            LoadGenerator(simulated_server, [])

    def test_unknown_pattern_rejected(self, simulated_server):
        generator = LoadGenerator(simulated_server, [("img-0", None)])
        with pytest.raises(ServingError):
            generator.run(100.0, 0.1, pattern="sawtooth")

    def test_poisson_run_produces_full_report(self, simulated_server):
        pool = [(f"img-{i}", None) for i in range(16)]
        generator = LoadGenerator(simulated_server, pool, seed=3)
        report = generator.run(rate_per_s=1000.0, duration_s=0.25,
                               pattern="poisson")
        assert report.offered > 0
        assert report.completed == report.submitted == report.offered
        assert report.rejected == 0
        assert report.latency.count == report.completed
        assert report.throughput > 0
        assert report.cache_hits > 0          # 16 images, many more requests
        assert "p99" in report.describe()

    def test_burst_run(self, simulated_server):
        pool = [(f"img-{i}", None) for i in range(8)]
        generator = LoadGenerator(simulated_server, pool, seed=4)
        report = generator.run(rate_per_s=800.0, duration_s=0.2,
                               pattern="burst", burst_size=16)
        assert report.pattern == "burst"
        assert report.completed == report.offered

    def test_time_scale_compresses_wall_clock(self, simulated_server):
        pool = [(f"img-{i}", None) for i in range(8)]
        generator = LoadGenerator(simulated_server, pool, seed=5)
        report = generator.run(rate_per_s=200.0, duration_s=2.0,
                               pattern="poisson", time_scale=0.05)
        assert report.offered > 0
        assert report.duration_s < 2.0

    def test_invalid_time_scale_rejected(self, simulated_server):
        generator = LoadGenerator(simulated_server, [("img-0", None)])
        with pytest.raises(ServingError):
            generator.run(100.0, 0.1, time_scale=0.0)

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_non_positive_rate_rejected(self, simulated_server, rate):
        generator = LoadGenerator(simulated_server, [("img-0", None)])
        with pytest.raises(ServingError):
            generator.run(rate_per_s=rate, duration_s=0.1)

    @pytest.mark.parametrize("pattern", ["poisson", "burst"])
    def test_traced_run_records_one_request_span_per_submission(
            self, perf_model, resnet18, pattern):
        from repro.obs import Observability

        obs = Observability()
        session = simulated_session_for_format(resnet18, THUMB_PNG_161,
                                               perf_model)
        pool = [(f"img-{i}", None) for i in range(8)]
        with SmolServer(session, policy=BatchPolicy.latency(),
                        cache_capacity=256, obs=obs) as server:
            report = LoadGenerator(server, pool, seed=7).run(
                rate_per_s=400.0, duration_s=0.2, pattern=pattern)
        requests = [span for span in obs.spans()
                    if span.name == "serving.request"]
        assert report.submitted > 0
        assert len(requests) == report.submitted

    def test_deadline_accounting(self, perf_model, resnet50):
        from repro.codecs.formats import FULL_JPEG

        session = simulated_session_for_format(resnet50, FULL_JPEG, perf_model)
        with SmolServer(session, policy=BatchPolicy(name="t", max_batch_size=4),
                        cache_capacity=0) as server:
            generator = LoadGenerator(server, [(f"img-{i}", None)
                                               for i in range(8)], seed=6)
            # Modelled service time is ~1ms/image; a 1us deadline always misses.
            report = generator.run(rate_per_s=500.0, duration_s=0.1,
                                   pattern="poisson", deadline_s=1e-6)
        assert report.deadline_missed == report.completed
