"""Shared fixtures for the cluster test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster import ProcessWorker, SessionSpec, ThreadWorker

from cluster_testlib import ScriptedSession


@pytest.fixture()
def scripted_factory():
    """Factory building scripted thread workers (records built sessions)."""
    sessions: list[ScriptedSession] = []

    def factory(worker_id, results):
        session = ScriptedSession()
        sessions.append(session)
        return ThreadWorker(worker_id, session, results)

    factory.sessions = sessions
    return factory


@pytest.fixture(scope="session")
def simulated_spec():
    """A small-arity simulated session spec shared by cluster tests."""
    return SessionSpec(num_classes=8)


@pytest.fixture(params=[
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process workers need the fork start method")),
])
def replica_factory(request, simulated_spec):
    """``factory(worker_id, results)`` for each replica kind in turn.

    Both kinds run a session built from the same :class:`SessionSpec`, so
    a contract test states its expectation once.  Replicas still open at
    teardown are crashed and closed.
    """
    made = []

    def factory(worker_id, results):
        if request.param == "thread":
            worker = ThreadWorker(worker_id, simulated_spec.build(), results)
        else:
            worker = ProcessWorker(worker_id, simulated_spec, results)
        made.append(worker)
        return worker

    yield factory
    for worker in made:
        worker.kill()
        worker.close()
