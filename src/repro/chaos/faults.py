"""Fault injection: NULL-by-default seams the chaos harness drives.

Components that participate in chaos testing accept a ``faults=`` handle
(default :data:`NULL_FAULTS`, mirroring :data:`repro.obs.NULL_OBS`) and
call :meth:`FaultHook.hit` at named *sites* on their hot paths::

    self._faults.hit("worker.execute", worker=self, item_id=item.item_id)

The null hook makes every site a no-op attribute check, so production
paths pay nothing.  Under chaos, a :class:`FaultInjector` built from a
:class:`FaultPlan` counts hits per site and fires the planned action --
a slowdown/stall, an injected :class:`ChaosFault`, a worker kill, or a
torn manifest write -- at the planned hit index.  Plans are plain data
(``to_dict``/``from_dict``), so a failing scenario replays bit-for-bit.

Sites instrumented across the stack:

======================  ====================================================
``queue.put/get``       :class:`~repro.inference.mpmc.MpmcQueue` entry
``worker.execute``      the replica body, before the session runs --
                        in-thread replicas only, a child process runs it
                        with the null hook (kill here simulates a crash
                        mid-batch; raise simulates a session failure)
``worker.ack``          either replica kind, after the outcome is delivered
                        but before the worker acknowledges it (kill here
                        opens the duplicate-delivery window failover must
                        absorb)
``dispatcher.outcome``  :meth:`~repro.cluster.dispatcher.Dispatcher`
                        collector, after the in-flight lookup (stall here
                        races the collector against the health monitor)
``store.manifest.save`` :class:`~repro.store.store.RenditionStore`, inside
                        the manifest lock before the commit (torn writes)
``store.checkpoint``    :class:`~repro.store.manifest.Manifest`, between
                        replacing the checkpoint and resetting the log (a
                        raise is a writer dying between the two steps)
``serving.admit``       :class:`~repro.serving.scheduler.DrrScheduler`, on
                        the submitter's thread before an item enters its
                        class queue (a raise is a clean shed; a stall
                        backpressures the submitter)
``serving.batch``       :class:`~repro.serving.scheduler.DrrScheduler`, at
                        the top of ``next_batch`` before any dequeue (a
                        raise aborts the attempt with no request in hand)
``fuse.execute``        :class:`~repro.fuse.kernel.FusedKernel`, once per
                        executed batch before any segment runs (a raise
                        fails the batch; a stall holds the executing thread)
======================  ====================================================
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "ChaosFault",
    "Fault",
    "FaultClock",
    "FaultHook",
    "FaultInjector",
    "FaultPlan",
    "NULL_FAULTS",
    "VirtualFaultClock",
]

#: Actions a fault may perform when its site/hit match.
FAULT_ACTIONS = ("stall", "raise", "kill", "torn-manifest")


class ChaosFault(ReproError):
    """The error an injected ``"raise"`` / ``"torn-manifest"`` fault throws.

    Deliberately a :class:`~repro.errors.ReproError` subclass: components
    must survive it the same way they survive any runtime failure, and
    invariant checks can tell injected failures from organic bugs.
    """


class FaultHook:
    """Null fault seam: every :meth:`hit` is a no-op.

    The base class *is* the null object (:data:`NULL_FAULTS` is a shared
    instance); :class:`FaultInjector` overrides :meth:`hit` to fire
    planned faults, and tests subclass it to park threads on events at
    exact interleaving points.
    """

    __slots__ = ()

    def hit(self, site: str, **ctx) -> None:
        """Called by instrumented components at ``site``; does nothing."""


#: The process-wide disabled-faults singleton (the default wiring).
NULL_FAULTS = FaultHook()


class FaultClock:
    """The clock stalls sleep on; swappable so tests can run stall-free."""

    def now(self) -> float:
        """Monotonic seconds."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Block the calling thread for ``seconds``."""
        if seconds > 0:
            time.sleep(seconds)


class VirtualFaultClock(FaultClock):
    """A clock whose sleeps only advance a counter (instant stalls).

    Lets unit tests assert *which* faults fired, and for how long, without
    paying the wall-clock cost of the stalls.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._lock = threading.Lock()

    @property
    def elapsed(self) -> float:
        """Total virtual seconds slept so far."""
        with self._lock:
            return self._elapsed

    def now(self) -> float:
        with self._lock:
            return self._elapsed

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self._elapsed += max(0.0, seconds)


@dataclass(frozen=True)
class Fault:
    """One planned fault: fire ``action`` at the ``at_hit``-th hit of ``site``.

    Attributes
    ----------
    site:
        The seam name the fault arms (see the module table).
    action:
        ``"stall"`` (sleep ``seconds`` on the hitting thread), ``"raise"``
        (throw :class:`ChaosFault`), ``"kill"`` (call ``ctx["worker"]
        .kill()``), or ``"torn-manifest"`` (append a torn record to
        the manifest log under ``ctx["root"]`` and throw, simulating a
        writer crashing mid-commit).
    at_hit:
        1-based hit index at the site when the fault fires; each fault
        fires at most once.
    seconds:
        Stall duration for ``"stall"`` (ignored otherwise).
    """

    site: str
    action: str
    at_hit: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ReproError(
                f"unknown fault action {self.action!r} "
                f"(expected one of {FAULT_ACTIONS})"
            )
        if self.at_hit < 1:
            raise ReproError("at_hit is 1-based and must be >= 1")
        if self.seconds < 0:
            raise ReproError("fault seconds must be non-negative")

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe)."""
        return {"site": self.site, "action": self.action,
                "at_hit": self.at_hit, "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        """Inverse of :meth:`to_dict`."""
        return cls(site=data["site"], action=data["action"],
                   at_hit=int(data.get("at_hit", 1)),
                   seconds=float(data.get("seconds", 0.0)))


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable set of :class:`Fault` records."""

    faults: tuple[Fault, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def sites(self) -> set[str]:
        """Every site this plan arms."""
        return {fault.site for fault in self.faults}

    def actions(self) -> set[str]:
        """Every action this plan can perform."""
        return {fault.action for fault in self.faults}

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe)."""
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(faults=tuple(Fault.from_dict(item)
                                for item in data.get("faults", [])))


@dataclass(frozen=True)
class FiredFault:
    """Evidence one fault fired: the fault plus the hit that triggered it."""

    fault: Fault
    hit: int
    context: dict = field(default_factory=dict)


class FaultInjector(FaultHook):
    """A live :class:`FaultHook` executing a :class:`FaultPlan`.

    Thread-safe: hit counters and the fired log are guarded by a lock,
    and each planned fault fires exactly once even under concurrent hits
    of its site.  The injector records every firing (:attr:`fired`), so a
    run's report can show which faults actually landed -- a fault whose
    hit index was never reached is planned-but-idle, not a harness bug.
    """

    def __init__(self, plan: FaultPlan,
                 clock: FaultClock | None = None) -> None:
        self._plan = plan
        self._clock = clock if clock is not None else FaultClock()
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._armed: dict[str, list[Fault]] = {}
        for fault in plan.faults:
            self._armed.setdefault(fault.site, []).append(fault)
        self._fired: list[FiredFault] = []

    @property
    def plan(self) -> FaultPlan:
        """The plan this injector executes."""
        return self._plan

    @property
    def fired(self) -> list[FiredFault]:
        """Faults that actually fired, in firing order."""
        with self._lock:
            return list(self._fired)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been hit so far."""
        with self._lock:
            return self._hits.get(site, 0)

    def hit(self, site: str, **ctx) -> None:
        """Count the hit; fire (at most) the one fault armed for it."""
        with self._lock:
            count = self._hits.get(site, 0) + 1
            self._hits[site] = count
            due = None
            for fault in self._armed.get(site, ()):
                if fault.at_hit == count:
                    due = fault
                    break
            if due is not None:
                self._armed[site].remove(due)
                self._fired.append(FiredFault(fault=due, hit=count,
                                              context=dict(ctx)))
        if due is not None:
            self._perform(due, ctx)

    # -- actions (outside the lock: stalls and kills must not serialize) --
    def _perform(self, fault: Fault, ctx: dict) -> None:
        if fault.action == "stall":
            self._clock.sleep(fault.seconds)
            return
        if fault.action == "raise":
            raise ChaosFault(
                f"injected fault at {fault.site} (hit {fault.at_hit})"
            )
        if fault.action == "kill":
            worker = ctx.get("worker")
            if worker is not None:
                worker.kill()
            return
        if fault.action == "torn-manifest":
            root = ctx.get("root")
            log = os.path.join(str(root), "manifest.log")
            if root is not None and os.path.exists(log):
                # What a writer that died mid-commit leaves at the log's
                # tail: half a record, or (odd hits) a whole line whose
                # check does not match.  A root with no log yet has no
                # tail to tear.
                torn = b'00000000 {"seq":1,"op":"put","key":"torn'
                with open(log, "ab") as handle:
                    handle.write(torn + b'"}\n' * (fault.at_hit % 2))
            raise ChaosFault(
                f"injected torn manifest write at {fault.site} "
                f"(hit {fault.at_hit})"
            )
