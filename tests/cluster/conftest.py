"""Shared fixtures for the cluster test suite."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cluster import ProcessWorker, ThreadWorker

from cluster_testlib import ScriptedSession, simulated_session


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
def simulated():
    """A small-arity warmed simulated session shared by cluster tests."""
    return simulated_session()


@pytest.fixture(params=[
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process workers need the fork start method")),
])
def replica_factory(request, simulated):
    """``factory(worker_id, results, session=simulated)`` for each replica
    kind in turn.

    Both kinds take the same arguments and run the session they are given
    (a process replica its forked copy), so a contract test states its
    expectation once.  Replicas still open at teardown are crashed and
    closed.
    """
    kind = ThreadWorker if request.param == "thread" else ProcessWorker
    made = []

    def factory(worker_id, results, session=simulated):
        worker = kind(worker_id, session, results)
        made.append(worker)
        return worker

    yield factory
    for worker in made:
        worker.kill()
        worker.close()
