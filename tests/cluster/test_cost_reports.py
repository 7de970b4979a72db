"""Tests for worker cost reports flowing through the dispatcher heartbeat."""

from cluster_testlib import wait_until
from repro.cluster.dispatcher import Dispatcher
from repro.cluster.worker import ThreadWorker, WorkerCostReport, WorkItem
from repro.codecs.formats import THUMB_JPEG_161_Q75
from repro.core.plans import Plan
from repro.hardware.instance import get_instance
from repro.inference.mpmc import MpmcQueue
from repro.inference.perfmodel import EngineConfig, PerformanceModel
from repro.nn.zoo import resnet_profile
from repro.obs import FlightRecorder, Observability
from repro.serving.request import InferenceRequest
from repro.serving.session import BatchResult, EngineSession, SimulatedSession


def make_session() -> SimulatedSession:
    instance = get_instance("g4dn.xlarge")
    session = SimulatedSession(
        Plan.single(resnet_profile(18), THUMB_JPEG_161_Q75),
        PerformanceModel(instance),
        config=EngineConfig(num_producers=instance.vcpus),
    )
    session.warmup()
    return session


def item(item_id: int, count: int = 4) -> WorkItem:
    return WorkItem(
        item_id=item_id,
        requests=tuple(InferenceRequest(image_id=f"img-{item_id}-{i}")
                       for i in range(count)),
    )


class TestThreadWorkerCostReports:
    def test_report_is_a_delta_and_names_subjects(self):
        results: MpmcQueue = MpmcQueue(64)
        worker = ThreadWorker("w0", make_session(), results)
        try:
            worker.submit(item(0, count=4))
            wait_until(lambda: worker.queue_depth() == 0,
                       message="item to execute")
            report = worker.take_cost_report()
            assert isinstance(report, WorkerCostReport)
            assert report.images == 4
            assert report.format_name == "161-jpeg-q75"
            assert report.model_name == "resnet-18"
            assert set(report.stage_seconds) == {"decode", "preprocess",
                                                 "inference"}
            assert all(seconds > 0
                       for seconds in report.stage_seconds.values())
            # Taking resets the accumulation: nothing new means no report.
            assert worker.take_cost_report() is None
        finally:
            worker.close()

    def test_stage_free_sessions_produce_no_report(self):
        from cluster_testlib import ScriptedSession

        results: MpmcQueue = MpmcQueue(64)
        worker = ThreadWorker("w0", ScriptedSession(), results)
        try:
            worker.submit(item(0))
            wait_until(lambda: worker.queue_depth() == 0,
                       message="item to execute")
            assert worker.take_cost_report() is None
        finally:
            worker.close()


class SwappingSession(EngineSession):
    """Charges 'decode' for the first batches, 'read' after a swap --
    models a pace hot-swap landing mid-report-window."""

    def __init__(self):
        super().__init__("swapping-plan")
        self.format_name = "480p-h264"
        self.model_name = "specialized-nn"
        self.warm = False

    def execute(self, requests):
        import numpy as np

        n = len(requests)
        stage = "read" if self.warm else "decode"
        per_image = 1e-4 if self.warm else 4e-4
        return BatchResult(
            predictions=np.zeros(n, dtype=np.int64),
            modelled_seconds=n * per_image,
            stage_seconds={stage: n * per_image},
        )


class TestMixedStageWindows:
    def test_per_stage_image_counts_survive_a_mid_window_swap(self):
        """A report window spanning a hot-swap must keep each stage's
        seconds paired with the images that actually paid it -- pooling
        them under one total would dilute both per-image costs."""
        session = SwappingSession()
        results: MpmcQueue = MpmcQueue(64)
        worker = ThreadWorker("w0", session, results)
        try:
            worker.submit(item(0, count=4))     # cold: 4 images of decode
            wait_until(lambda: worker.queue_depth() == 0,
                       message="cold batch")
            session.warm = True                  # the hot-swap lands
            worker.submit(item(1, count=12))    # warm: 12 images of read
            wait_until(lambda: worker.queue_depth() == 0,
                       message="warm batch")
            report = worker.take_cost_report()
            assert report.stage_images == {"decode": 4, "read": 12}
            assert report.images == 12
            assert report.images_for("decode") == 4
            # Per-image costs are exact for both stages, not diluted by
            # the other stage's images.
            assert report.stage_seconds["decode"] / 4 == 4e-4
            assert report.stage_seconds["read"] / 12 == 1e-4
        finally:
            worker.close()

    def test_bus_events_use_per_stage_image_counts(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        session = SwappingSession()
        with Dispatcher(
            lambda wid, results: ThreadWorker(wid, session, results),
            num_workers=1, monitor_interval_s=0, obs=obs,
        ) as dispatcher:
            dispatcher.submit(item(0, count=4).requests).result(timeout=10.0)
            session.warm = True
            dispatcher.submit(item(1, count=12).requests).result(timeout=10.0)
            dispatcher.check_workers()
        assert {(e.stage, e.images) for e in events} == {("decode", 4),
                                                          ("read", 12)}


class TestProcessWorkerCostReports:
    def test_child_process_costs_reach_the_parent_report(self):
        from repro.cluster.worker import ProcessWorker, SessionSpec

        results: MpmcQueue = MpmcQueue(64)
        worker = ProcessWorker("pw0", SessionSpec(), results)
        try:
            worker.submit(item(0, count=3))
            wait_until(lambda: worker.queue_depth() == 0, timeout=20.0,
                       message="child to execute the item")
            report = worker.take_cost_report()
            assert report is not None
            assert report.images == 3
            assert report.format_name == "161-jpeg-q75"
            assert report.model_name == "resnet-18"
            assert report.stage_seconds["decode"] > 0
            assert worker.take_cost_report() is None
        finally:
            worker.close()


def bus_dispatcher(obs, num_workers=1):
    return Dispatcher(
        lambda wid, results: ThreadWorker(wid, make_session(), results),
        num_workers=num_workers, monitor_interval_s=0, obs=obs,
    )


def inference_images(events) -> int:
    return sum(event.images for event in events
               if event.stage == "inference")


class TestDispatcherStageBus:
    def test_heartbeat_pass_publishes_worker_costs(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        with bus_dispatcher(obs, num_workers=2) as dispatcher:
            futures = [
                dispatcher.submit(
                    tuple(InferenceRequest(image_id=f"b{i}-{j}")
                          for j in range(8))
                )
                for i in range(4)
            ]
            for future in futures:
                future.result(timeout=10.0)
            dispatcher.check_workers()  # one heartbeat pass
            assert inference_images(events) == 32
            assert {event.source for event in events} == {"cluster"}
            assert {(event.stage, event.subject) for event in events} == {
                ("decode", "161-jpeg-q75"), ("preprocess", "161-jpeg-q75"),
                ("inference", "resnet-18")}

    def test_close_flushes_the_final_delta(self):
        obs = Observability()
        events = []
        obs.add_stage_listener(events.append)
        dispatcher = bus_dispatcher(obs)
        dispatcher.submit(
            tuple(InferenceRequest(image_id=f"x-{j}") for j in range(5))
        ).result(timeout=10.0)
        dispatcher.close()
        assert inference_images(events) == 5

    def test_a_raising_listener_never_breaks_health_checks(self):
        def explode(event):
            raise RuntimeError("listener bug")

        obs = Observability(recorder=FlightRecorder())
        events = []
        obs.add_stage_listener(explode)
        obs.add_stage_listener(events.append)
        with bus_dispatcher(obs, num_workers=2) as dispatcher:
            for i in range(2):
                dispatcher.submit(
                    tuple(InferenceRequest(image_id=f"z{i}-{j}")
                          for j in range(3))
                ).result(timeout=10.0)
            assert dispatcher.check_workers() == []  # no deaths, no raise
            # Every replica's report was published, not just the first.
            assert inference_images(events) == 6

    def test_outcomes_carry_stage_seconds(self):
        with Dispatcher(
            lambda wid, results: ThreadWorker(wid, make_session(), results),
            num_workers=1, monitor_interval_s=0,
        ) as dispatcher:
            result = dispatcher.submit(
                tuple(InferenceRequest(image_id=f"y-{j}") for j in range(3))
            ).result(timeout=10.0)
            assert result.predictions.shape == (3,)
