"""Scenario model + seed-driven generator for the chaos harness.

A :class:`Scenario` is plain frozen data: every dimension of one randomized
run -- the cluster workload (items, batch size, replicas, tenant/arrival
mix), a preprocessing DAG recipe, a drift schedule, a store op sequence, an
optional contended-queue probe, and the :class:`~repro.chaos.faults
.FaultPlan` to inject.  ``ScenarioGen.generate(seed)`` is a pure function
of the seed (``random.Random(seed)``), so ``chaos replay <seed>`` rebuilds
the identical scenario, and a scenario serializes to JSON
(:meth:`Scenario.to_dict`) for postmortem bundles.

Generated scenarios are *survivable by construction*: kill faults never
exceed ``workers - 1`` (the pool must retain a replica to fail over to)
and injected session failures stay below ``max_attempts`` per item, so a
clean stack passes every invariant on every seed -- a failing seed means
a real bug, not an impossible workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.chaos.faults import Fault, FaultPlan
from repro.errors import ReproError

__all__ = [
    "DriftPhase",
    "Scenario",
    "ScenarioGen",
]

#: Sites a generated stall fault may land on (all tolerate delay).
_STALL_SITES = ("queue.put", "queue.get", "worker.execute",
                "dispatcher.outcome")

#: Sites the serving pass hits (armed only when the scenario serves).
_SERVING_SITES = ("serving.admit", "serving.batch", "fuse.execute")

#: Sites the multi-tenant serving pass hits (armed only when it runs):
#: the same scheduler seams, reached through a multi-class server.
_TENANT_SITES = ("serving.admit", "serving.batch")

#: Tenant names the arrival mix draws from.
_TENANTS = ("tenant-a", "tenant-b", "tenant-c")


@dataclass(frozen=True)
class DriftPhase:
    """One phase of a drift schedule fed to the calibrator.

    ``scale`` multiplies the baseline per-image cost of ``stage`` for
    ``observations`` consecutive observations of ``images`` images each.
    """

    stage: str
    subject: str
    scale: float
    observations: int
    images: int = 16

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe)."""
        return {"stage": self.stage, "subject": self.subject,
                "scale": self.scale, "observations": self.observations,
                "images": self.images}

    @classmethod
    def from_dict(cls, data: dict) -> "DriftPhase":
        """Inverse of :meth:`to_dict`."""
        return cls(stage=data["stage"], subject=data["subject"],
                   scale=float(data["scale"]),
                   observations=int(data["observations"]),
                   images=int(data.get("images", 16)))


@dataclass(frozen=True)
class Scenario:
    """One fully specified chaos run (see the module docstring).

    Attributes
    ----------
    seed:
        The generator seed this scenario came from (identity for replay).
    items / batch / workers / max_attempts:
        Cluster workload shape: ``items`` micro-batches of ``batch``
        requests across ``workers`` replicas with ``max_attempts`` tries.
    tenants / arrival:
        The tenant names in play and, per item, which tenant submitted it
        (the arrival mix; ``len(arrival) == items``).
    dag_ops / dag_image / dag_candidate:
        Preprocessing DAG recipe (op specs), the input image spec
        ``(height, width, image_seed)``, and which optimizer candidate to
        execute against the naive ordering.
    drift:
        Drift schedule phases for the calibrator/detector pass.
    store_ops:
        Store op sequence: ``("put", key)``, ``("invalidate", prefix)``,
        or ``("gc", "")``.
    queue:
        Contended-queue probe ``(capacity, timeout_s, storm_s)``, or ``()``
        to skip the probe on this seed.
    serving:
        When True the run includes the serving pass: the scenario's items
        through a live :class:`~repro.serving.server.SmolServer` with the
        ``serving.admit`` / ``serving.batch`` seams armed.
    fuse:
        When True the run includes the fused-execution pass: the
        kernel-vs-interpretation differential on the scenario's DAG plus a
        cluster pass on functional sessions (a per-seed gate on the pass's
        cost, not an execution mode).
    proc_kill:
        When True the run includes the process-worker kill pass: real
        child-process replicas, one killed mid-run, with failover,
        exactly-once, and no-orphaned-child invariants.  Rides a small
        minority of seeds (forking is expensive next to thread workers).
    tenant_serving / tenant_classes:
        When ``tenant_serving`` is True the run includes the multi-tenant
        serving pass: the scenario's tenants submit through a DRR-scheduled
        :class:`~repro.serving.server.SmolServer` with the
        ``serving.admit`` / ``serving.batch`` seams armed, checked for
        exactly-once bit-identical answers and no starved class.
        ``tenant_classes`` maps each tenant (by position) to a priority
        class index (0=interactive, 1=standard, 2=batch).
    faults:
        The fault plan injected during the cluster and store passes.
    """

    seed: int
    items: int
    batch: int
    workers: int
    max_attempts: int = 3
    tenants: tuple[str, ...] = ("tenant-a",)
    arrival: tuple[int, ...] = ()
    dag_ops: tuple[tuple, ...] = ()
    dag_image: tuple[int, int, int] = (16, 16, 0)
    dag_candidate: int = 0
    drift: tuple[DriftPhase, ...] = ()
    store_ops: tuple[tuple[str, str], ...] = ()
    queue: tuple = ()
    serving: bool = False
    fuse: bool = False
    proc_kill: bool = False
    tenant_serving: bool = False
    tenant_classes: tuple[int, ...] = ()
    faults: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        if self.items < 1 or self.batch < 1 or self.workers < 1:
            raise ReproError("items, batch, and workers must be >= 1")
        if self.max_attempts < 1:
            raise ReproError("max_attempts must be >= 1")
        if len(self.arrival) != self.items:
            raise ReproError("arrival must assign a tenant to every item")
        if any(t < 0 or t >= len(self.tenants) for t in self.arrival):
            raise ReproError("arrival indexes out of tenant range")
        if self.tenant_serving:
            if len(self.tenant_classes) != len(self.tenants):
                raise ReproError(
                    "tenant_classes must assign a class to every tenant")
            if any(c < 0 or c > 2 for c in self.tenant_classes):
                raise ReproError("tenant_classes indexes out of range")

    def kill_faults(self) -> int:
        """Planned kill-action faults (bounded by ``workers - 1``)."""
        return sum(1 for f in self.faults.faults if f.action == "kill")

    def dimensions(self) -> dict[str, int]:
        """Size of every shrinkable dimension (the shrinker's partial order).

        A shrunk scenario must be <= the original in *every* key returned
        here; the hypothesis property test in ``tests/property`` holds the
        shrinker to that contract.
        """
        return {
            "items": self.items,
            "batch": self.batch,
            "workers": self.workers,
            "tenants": len(self.tenants),
            "dag_ops": len(self.dag_ops),
            "drift_phases": len(self.drift),
            "store_ops": len(self.store_ops),
            "faults": len(self.faults),
            "queue_probe": 1 if self.queue else 0,
            "serving": 1 if self.serving else 0,
            "fuse": 1 if self.fuse else 0,
            "proc_kill": 1 if self.proc_kill else 0,
            "tenant_serving": 1 if self.tenant_serving else 0,
        }

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe), inverse of :meth:`from_dict`."""
        return {
            "seed": self.seed,
            "items": self.items,
            "batch": self.batch,
            "workers": self.workers,
            "max_attempts": self.max_attempts,
            "tenants": list(self.tenants),
            "arrival": list(self.arrival),
            "dag_ops": [list(op) for op in self.dag_ops],
            "dag_image": list(self.dag_image),
            "dag_candidate": self.dag_candidate,
            "drift": [phase.to_dict() for phase in self.drift],
            "store_ops": [list(op) for op in self.store_ops],
            "queue": list(self.queue),
            "serving": self.serving,
            "fuse": self.fuse,
            "proc_kill": self.proc_kill,
            "tenant_serving": self.tenant_serving,
            "tenant_classes": list(self.tenant_classes),
            "faults": self.faults.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a scenario serialized by :meth:`to_dict`."""
        return cls(
            seed=int(data["seed"]),
            items=int(data["items"]),
            batch=int(data["batch"]),
            workers=int(data["workers"]),
            max_attempts=int(data.get("max_attempts", 3)),
            tenants=tuple(data.get("tenants", ("tenant-a",))),
            arrival=tuple(int(t) for t in data.get("arrival", ())),
            dag_ops=tuple(tuple(op) for op in data.get("dag_ops", ())),
            dag_image=tuple(data.get("dag_image", (16, 16, 0))),
            dag_candidate=int(data.get("dag_candidate", 0)),
            drift=tuple(DriftPhase.from_dict(p)
                        for p in data.get("drift", ())),
            store_ops=tuple(tuple(op) for op in data.get("store_ops", ())),
            queue=tuple(data.get("queue", ())),
            serving=bool(data.get("serving", False)),
            fuse=bool(data.get("fuse", False)),
            proc_kill=bool(data.get("proc_kill", False)),
            tenant_serving=bool(data.get("tenant_serving", False)),
            tenant_classes=tuple(int(c)
                                 for c in data.get("tenant_classes", ())),
            faults=FaultPlan.from_dict(data.get("faults", {})),
        )


class ScenarioGen:
    """Deterministic scenario generator: ``generate(seed)`` is pure.

    Parameters bound the workload so a single scenario runs in tens of
    milliseconds (the 1000-seed sweep and the CI smoke job both depend on
    that); ``fault_rate`` is the probability a seed carries any faults at
    all, and ``queue_rate`` the probability it carries the contended-queue
    probe (the probe costs real wall-clock, so it rides a minority of
    seeds).  ``serving_rate`` / ``fuse_rate`` / ``proc_rate`` gate the
    serving pass, fused execution, and the process-worker kill pass the
    same way -- ``proc_rate`` is smallest because forking real child
    processes dominates a scenario's wall-clock.
    """

    def __init__(self, max_items: int = 6, max_batch: int = 4,
                 max_workers: int = 3, fault_rate: float = 0.7,
                 queue_rate: float = 0.125, serving_rate: float = 0.4,
                 fuse_rate: float = 0.5, proc_rate: float = 0.05,
                 tenant_rate: float = 0.35) -> None:
        if max_items < 1 or max_batch < 1 or max_workers < 1:
            raise ReproError("generator bounds must be >= 1")
        self._max_items = max_items
        self._max_batch = max_batch
        self._max_workers = max_workers
        self._fault_rate = fault_rate
        self._queue_rate = queue_rate
        self._serving_rate = serving_rate
        self._fuse_rate = fuse_rate
        self._proc_rate = proc_rate
        self._tenant_rate = tenant_rate

    def generate(self, seed: int) -> Scenario:
        """The scenario for ``seed`` (same seed, same scenario, always)."""
        rng = random.Random(seed)
        items = rng.randint(1, self._max_items)
        batch = rng.randint(1, self._max_batch)
        workers = rng.randint(1, self._max_workers)
        tenants = tuple(_TENANTS[:rng.randint(1, len(_TENANTS))])
        arrival = tuple(rng.randrange(len(tenants)) for _ in range(items))
        dag_ops, dag_image = self._dag(rng)
        scenario = Scenario(
            seed=seed, items=items, batch=batch, workers=workers,
            max_attempts=rng.randint(2, 3),
            tenants=tenants, arrival=arrival,
            dag_ops=dag_ops, dag_image=dag_image,
            dag_candidate=rng.randrange(1 << 16),
            drift=self._drift(rng),
            store_ops=self._store_ops(rng),
            queue=((1, 0.02, 0.1) if rng.random() < self._queue_rate
                   else ()),
        )
        scenario = replace(scenario, faults=self._faults(rng, scenario))
        # The serving / fuse / proc-kill dimensions (and the serving-site
        # faults they unlock) draw *after* everything above, so pre-existing
        # seeds keep their exact historical workloads and fault plans.
        serving = rng.random() < self._serving_rate
        fuse = rng.random() < self._fuse_rate
        proc_kill = rng.random() < self._proc_rate
        extra = self._serving_faults(rng, scenario) if serving else ()
        # The multi-tenant dimension draws after every earlier dimension
        # (same append-only discipline), so its addition left historical
        # seeds' scenarios bit-identical.
        tenant_serving = rng.random() < self._tenant_rate
        tenant_classes = ()
        tenant_extra: tuple[Fault, ...] = ()
        if tenant_serving:
            tenant_classes = tuple(rng.randrange(3)
                                   for _ in range(len(tenants)))
            tenant_extra = self._tenant_faults(rng, scenario)
        # The checkpoint seam draws last (same append-only discipline):
        # a store's first commit checkpoints, so hit 1 kills that writer
        # between the checkpoint's rename and the log's.
        store_extra: tuple[Fault, ...] = ()
        if any(op == "put" for op, _ in scenario.store_ops) \
                and scenario.faults.faults and rng.random() < 0.3:
            store_extra = (Fault(site="store.checkpoint", action="raise",
                                 at_hit=1),)
        return replace(
            scenario, serving=serving, fuse=fuse, proc_kill=proc_kill,
            tenant_serving=tenant_serving, tenant_classes=tenant_classes,
            faults=FaultPlan(faults=scenario.faults.faults + extra
                             + tenant_extra + store_extra),
        )

    # -- dimension generators -------------------------------------------
    def _dag(self, rng: random.Random) -> tuple[tuple, tuple]:
        # The legal serving order (resize, crop, convert, normalize,
        # reorder) with each stage optionally present -- the same chain
        # family the DAG-equivalence property tests fuzz.
        height = rng.randint(16, 32)
        width = rng.randint(16, 32)
        ops: list[tuple] = []
        short_side = None
        if rng.random() < 0.6:
            short_side = rng.randint(8, 16)
            ops.append(("resize", short_side))
        max_crop = short_side if short_side is not None \
            else min(height, width)
        if rng.random() < 0.6:
            ops.append(("crop", rng.randint(4, max_crop)))
        if rng.random() < 0.6:
            ops.append(("convert",))
        if rng.random() < 0.6:
            ops.append(("normalize",))
        if rng.random() < 0.6:
            ops.append(("reorder",))
        if not ops:
            ops.append(("normalize",))
        return tuple(ops), (height, width, rng.randrange(1 << 16))

    def _drift(self, rng: random.Random) -> tuple[DriftPhase, ...]:
        phases = []
        for _ in range(rng.randint(0, 3)):
            stage = rng.choice(("decode", "inference"))
            phases.append(DriftPhase(
                stage=stage,
                subject="161-jpeg-q75" if stage == "decode" else "resnet-18",
                scale=round(rng.uniform(0.5, 4.0), 3),
                observations=rng.randint(3, 6),
            ))
        return tuple(phases)

    def _store_ops(self, rng: random.Random) -> tuple[tuple[str, str], ...]:
        ops: list[tuple[str, str]] = []
        keys = [f"key-{i}" for i in range(3)]
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.6:
                ops.append(("put", rng.choice(keys)))
            elif roll < 0.8:
                ops.append(("invalidate", rng.choice(("key-", "key-0"))))
            else:
                ops.append(("gc", ""))
        return tuple(ops)

    def _faults(self, rng: random.Random,
                scenario: Scenario) -> FaultPlan:
        if rng.random() >= self._fault_rate:
            return FaultPlan()
        # Duplicate-outcome ambush (single-item shapes only, so fault hit
        # counts line up with attempts): a raise burns the item's first
        # attempt, a kill at the ack seam crashes the replica *after* the
        # retried outcome was delivered but while the item is still
        # pending, and a stall in the collector holds that outcome in
        # hand while drain's health pass fails the orphan (attempts
        # exhausted).  Exactly-once resolution then rests entirely on the
        # dispatcher's atomic pop-and-recheck.
        if scenario.workers >= 2 and scenario.max_attempts == 2 \
                and scenario.items == 1 and rng.random() < 0.3:
            return FaultPlan(faults=(
                Fault(site="worker.execute", action="raise", at_hit=1),
                Fault(site="worker.ack", action="kill", at_hit=2),
                Fault(site="dispatcher.outcome", action="stall", at_hit=2,
                      seconds=0.03),
            ))
        faults: list[Fault] = []
        executions = scenario.items  # first-attempt hits at worker.execute
        # Kills: strictly fewer than the pool size, so failover always has
        # a surviving replica to land on.
        for _ in range(rng.randint(0, min(2, scenario.workers - 1))):
            site = rng.choice(("worker.execute", "worker.ack"))
            faults.append(Fault(site=site, action="kill",
                                at_hit=rng.randint(1, max(1, executions))))
        # Session failures: at most max_attempts - 1 per run keeps every
        # item resolvable even if all failures land on one item.
        for _ in range(rng.randint(0, scenario.max_attempts - 1)):
            faults.append(Fault(site="worker.execute", action="raise",
                                at_hit=rng.randint(1, max(1, executions))))
        # Stalls: short (<= 5 ms) delays that shake out ordering
        # assumptions without dominating the run's wall-clock.
        for _ in range(rng.randint(0, 2)):
            faults.append(Fault(
                site=rng.choice(_STALL_SITES), action="stall",
                at_hit=rng.randint(1, max(1, executions * 2)),
                seconds=round(rng.uniform(0.001, 0.005), 4),
            ))
        # Torn manifest writes: only meaningful when the scenario puts.
        puts = sum(1 for op, _ in scenario.store_ops if op == "put")
        if puts and rng.random() < 0.5:
            faults.append(Fault(site="store.manifest.save",
                                action="torn-manifest",
                                at_hit=rng.randint(1, puts)))
        return FaultPlan(faults=tuple(faults))

    def _serving_faults(self, rng: random.Random,
                        scenario: Scenario) -> tuple[Fault, ...]:
        # Serving-pass seams: a raise at serving.admit is a clean shed the
        # pass resubmits past; a raise at serving.batch is absorbed by the
        # serving loop; a raise at fuse.execute fails one micro-batch (the
        # pass resubmits its requests).  Each planned fault fires once, so
        # bounded retries always converge.  at_hit is bounded by the total
        # request count -- later hits simply stay planned-but-idle when
        # batching lands fewer attempts at a site.
        total = scenario.items * scenario.batch
        faults: list[Fault] = []
        for _ in range(rng.randint(0, 2)):
            site = rng.choice(_SERVING_SITES)
            if rng.random() < 0.5:
                faults.append(Fault(site=site, action="raise",
                                    at_hit=rng.randint(1, max(1, total))))
            else:
                faults.append(Fault(
                    site=site, action="stall",
                    at_hit=rng.randint(1, max(1, total)),
                    seconds=round(rng.uniform(0.001, 0.004), 4),
                ))
        return tuple(faults)

    def _tenant_faults(self, rng: random.Random,
                       scenario: Scenario) -> tuple[Fault, ...]:
        # Scheduler seams: a raise at serving.admit sheds one submit
        # (the pass resubmits), a raise at serving.batch aborts one batching
        # attempt before any dequeue (the serving loop retries), and a
        # stall at either site delays a class's progress -- exactly the
        # wedge the no-starvation invariant must survive.
        total = scenario.items * scenario.batch
        faults: list[Fault] = []
        for _ in range(rng.randint(0, 2)):
            site = rng.choice(_TENANT_SITES)
            if rng.random() < 0.5:
                faults.append(Fault(site=site, action="raise",
                                    at_hit=rng.randint(1, max(1, total))))
            else:
                faults.append(Fault(
                    site=site, action="stall",
                    at_hit=rng.randint(1, max(1, total)),
                    seconds=round(rng.uniform(0.001, 0.004), 4),
                ))
        return tuple(faults)
