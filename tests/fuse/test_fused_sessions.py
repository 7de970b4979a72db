"""Fused execution on every surface, against the serial oracle.

Functional sessions, the serving server, the scan session, and the sharded
cluster runner have one execution path each -- the compiled kernel, the
vectorized frame-id parse -- and it must produce results bit-identical to
the serial reference (per-image ``dag.execute`` then ``model.predict``;
the dataset's own score table for scans).
"""

import numpy as np
import pytest

from repro.analytics.scan import compute_scan_costs
from repro.datasets.video import load_video_dataset
from repro.codecs.formats import VIDEO_480P_H264
from repro.hardware.instance import get_instance
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.model import build_mini_resnet
from repro.nn.zoo import get_model_profile
from repro.preprocessing.dag import PreprocessingDAG
from repro.errors import QueryError
from repro.query.scan import (
    ClusterScanRunner,
    ScanSession,
    encode_scores,
    frame_id,
)
from repro.serving.scheduler import BatchPolicy
from repro.serving.request import InferenceRequest
from repro.serving.server import SmolServer
from repro.serving.session import FunctionalSession, serving_pipeline_ops


def _stack():
    dag = PreprocessingDAG.from_ops(serving_pipeline_ops(input_size=24,
                                                         crop_size=16))
    model = build_mini_resnet(18, num_classes=9, input_size=16, seed=5)
    return dag, model


def _requests(count: int, seed: int = 9):
    rng = np.random.default_rng(seed)
    shapes = [(28, 28, 3), (26, 30, 3)]
    return [
        InferenceRequest(
            image_id=f"fused/img-{i}",
            payload=rng.integers(0, 256,
                                 size=shapes[i % 2]).astype(np.uint8),
        )
        for i in range(count)
    ]


class TestFunctionalSession:
    def test_predictions_match_the_serial_oracle(self, serial_oracle):
        dag, model = _stack()
        session = FunctionalSession("plan", dag, model)
        requests = _requests(8)
        assert np.array_equal(session.execute(requests).predictions,
                              serial_oracle(dag, model, requests))

    def test_every_session_runs_a_compiled_kernel(self):
        dag, model = _stack()
        assert FunctionalSession("plan", dag, model).kernel is not None

    def test_sessions_of_one_plan_share_the_compiled_kernel(self):
        dag_a, model = _stack()
        dag_b, _ = _stack()
        one = FunctionalSession("plan", dag_a, model)
        two = FunctionalSession("plan", dag_b, model)
        assert one.kernel is two.kernel

    def test_the_fuse_keyword_is_gone(self):
        dag, model = _stack()
        with pytest.raises(TypeError):
            FunctionalSession("plan", dag, model, fuse=True)


class TestServer:
    def _server(self) -> SmolServer:
        dag, model = _stack()
        return SmolServer(
            session=FunctionalSession("plan", dag, model),
            policy=BatchPolicy(name="t", max_batch_size=4, max_wait_ms=1.0),
            queue_capacity=32, cache_capacity=0,
        )

    def test_server_serves_the_serial_oracles_predictions(self,
                                                          serial_oracle):
        server = self._server()
        try:
            requests = _requests(8)
            got = [f.result(timeout=10.0).prediction
                   for f in [server.submit(r) for r in requests]]
        finally:
            server.close()
        assert got == [int(p) for p in serial_oracle(*_stack(), requests)]

    def test_swapped_in_plans_serve_the_oracles_predictions(self,
                                                            serial_oracle):
        server = self._server()
        try:
            dag = PreprocessingDAG.from_ops(
                serving_pipeline_ops(input_size=20, crop_size=16))
            _, model = _stack()
            server.swap_plan(FunctionalSession("plan-2", dag, model))
            requests = _requests(4)
            responses = [f.result(timeout=10.0)
                         for f in [server.submit(r) for r in requests]]
        finally:
            server.close()
        assert {r.plan_key for r in responses} == {"plan-2"}
        assert [r.prediction for r in responses] \
            == [int(p) for p in serial_oracle(dag, model, requests)]


@pytest.fixture(scope="module")
def scan_setup():
    perf = PerformanceModel(get_instance("g4dn.xlarge"))
    dataset = load_video_dataset("amsterdam")
    costs = compute_scan_costs(
        perf, EngineConfig(num_producers=4),
        get_model_profile("resnet-18"), VIDEO_480P_H264, dataset,
        frames_used=600,
    )
    return dataset, costs


class TestScan:
    def _session(self, dataset, costs) -> ScanSession:
        return ScanSession(
            dataset, specialized_accuracy=0.9,
            frames_used=costs.frames_used,
            seconds_per_frame=costs.seconds_per_scanned_frame,
            plan_key="scan:fused",
        )

    def test_scan_scores_are_bit_identical_to_the_score_table(
            self, scan_setup):
        dataset, costs = scan_setup
        frames = (0, 7, 599, 311)
        requests = [InferenceRequest(image_id=frame_id(dataset.name, i))
                    for i in frames]
        got = self._session(dataset, costs).execute(requests).predictions
        table = dataset.specialized_nn_predictions(
            accuracy_factor=0.9, limit=costs.frames_used)
        assert got.tobytes() == encode_scores(table[list(frames)]).tobytes()

    @pytest.mark.parametrize("suffix", [" 7", "+7", "0_7", "007"])
    def test_ids_only_the_strict_parse_reads_still_resolve(
            self, scan_setup, suffix):
        # Whatever int() accepts keeps working: the vectorized cast and
        # the strict per-request fallback agree on every such id.
        dataset, costs = scan_setup
        session = self._session(dataset, costs)
        plain = session.execute(
            [InferenceRequest(image_id=frame_id(dataset.name, 7))])
        odd = session.execute(
            [InferenceRequest(image_id=f"{dataset.name}:{suffix}")])
        assert odd.predictions.tobytes() == plain.predictions.tobytes()

    @pytest.mark.parametrize("image_id", ["amsterdam:x7", "amsterdam:",
                                          "no-colon", "other:1:2:x"])
    def test_malformed_ids_raise_the_strict_parse_error(self, scan_setup,
                                                        image_id):
        dataset, costs = scan_setup
        with pytest.raises(QueryError, match="malformed frame id"):
            self._session(dataset, costs).execute(
                [InferenceRequest(image_id=frame_id(dataset.name, 3)),
                 InferenceRequest(image_id=image_id)])

    def test_cluster_runner_scores_match_the_score_table(self, scan_setup):
        dataset, costs = scan_setup
        report = ClusterScanRunner(
            dataset, specialized_accuracy=0.9, costs=costs,
            plan_key="scan:fused", num_workers=2, batch_size=128).run()
        expected = dataset.specialized_nn_predictions(
            accuracy_factor=0.9, limit=costs.frames_used)
        assert np.array_equal(report.scores, expected)
