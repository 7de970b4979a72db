"""Smol-Tenant benchmark: weighted-fair scheduling and flood isolation.

Not a paper figure: this benchmarks the multi-tenant serving layer the
repo adds on top of the paper's engine.  Two phases, both CI-gated:

* **mixed load** -- three tenants (one per priority class) build equal
  backlogs on one server; deficit round-robin must drain them so tail
  latency comes out ordered ``interactive < standard < batch``;
* **isolation** -- an interactive victim runs alone (baseline) and then
  against a quota-limited flood tenant in the batch class.  The flood
  must be visibly throttled, and the victim's p99 must stay within a
  bounded factor of its baseline (``5x + 25ms``) -- the multi-tenant
  promise that one tenant's flood cannot take another's tail hostage.

The scorecard is recorded as ``BENCH_tenant.json`` at the repo root so
the fairness trajectory is machine-trackable.
"""

from pathlib import Path

from benchlib import emit

from repro.datasets.synthetic import SyntheticImageGenerator
from repro.errors import AdmissionError
from repro.nn.model import build_mini_resnet
from repro.preprocessing.dag import PreprocessingDAG
from repro.serving import BatchPolicy, SmolServer
from repro.serving.request import InferenceRequest
from repro.serving.session import FunctionalSession, serving_pipeline_ops
from repro.tenant import ClassPolicy, TenantConfig, TenantSpec
from repro.utils.benchio import write_bench_json
from repro.utils.tables import Table

REQUESTS_PER_TENANT = 64
VICTIM_REQUESTS = 48
FLOOD_OFFERS_PER_STEP = 8
POOL_SIZE = 32
MAX_BATCH = 8
ISOLATION_FACTOR = 5.0
ISOLATION_SLACK_MS = 25.0
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_tenant.json"

#: Deadline-free classes: both phases measure pure scheduling.
CLASSES = (
    ClassPolicy("interactive", weight=8.0, rank=0),
    ClassPolicy("standard", weight=4.0, rank=1),
    ClassPolicy("batch", weight=1.0, rank=2),
)


def build_session():
    dag = PreprocessingDAG.from_ops(
        serving_pipeline_ops(input_size=36, crop_size=32))
    model = build_mini_resnet(18, num_classes=2, input_size=32, seed=3)
    session = FunctionalSession("bench-tenant", dag, model)
    session.warmup()
    return session


def build_pool():
    generator = SyntheticImageGenerator(num_classes=2, image_size=40,
                                        seed=17)
    return [(f"img-{i}", generator.generate_image(i % 2, i).pixels)
            for i in range(POOL_SIZE)]


def run_mixed_load(session, pool):
    """Equal backlogs per class; returns the per-class latency stats."""
    config = TenantConfig(
        tenants=(TenantSpec(name="dashboard", priority="interactive"),
                 TenantSpec(name="api", priority="standard"),
                 TenantSpec(name="backfill", priority="batch")),
        classes=CLASSES,
    )
    policy = BatchPolicy(name="bench-tenant", max_batch_size=MAX_BATCH)
    with SmolServer(session, policy=policy,
                    queue_capacity=3 * REQUESTS_PER_TENANT + 8,
                    cache_capacity=0, tenants=config) as server:
        futures = []
        for index in range(REQUESTS_PER_TENANT):
            for tenant in ("dashboard", "api", "backfill"):
                image_id, payload = pool[index % POOL_SIZE]
                futures.append(server.submit(InferenceRequest(
                    image_id=image_id, payload=payload, tenant=tenant)))
        for future in futures:
            future.result(timeout=120.0)
        return server.tenant_stats()


def run_isolation(session, pool, with_flood):
    """The victim's interactive workload, optionally under a flood.

    Returns ``(victim_latency, flood_quota_stats)``.  The flood tenant is
    quota-limited (rate + in-flight cap) and rides the 1x batch class, so
    its pressure is bounded at admission *and* at scheduling.
    """
    config = TenantConfig(
        tenants=(TenantSpec(name="victim", priority="interactive"),
                 TenantSpec(name="flood", priority="batch",
                            rate_per_s=200.0, burst=16, max_in_flight=8)),
        classes=CLASSES,
    )
    policy = BatchPolicy(name="bench-tenant", max_batch_size=MAX_BATCH)
    with SmolServer(session, policy=policy, queue_capacity=4096,
                    cache_capacity=0, tenants=config,
                    block_on_full=False) as server:
        victim_futures = []
        flood_futures = []
        for index in range(VICTIM_REQUESTS):
            if with_flood:
                for j in range(FLOOD_OFFERS_PER_STEP):
                    image_id, payload = pool[(index + j) % POOL_SIZE]
                    try:
                        flood_futures.append(server.submit(
                            InferenceRequest(image_id=image_id,
                                             payload=payload,
                                             tenant="flood")))
                    except AdmissionError:
                        pass  # throttled or shed: the quota doing its job
            image_id, payload = pool[index % POOL_SIZE]
            victim_futures.append(server.submit(InferenceRequest(
                image_id=image_id, payload=payload, tenant="victim"),
                block=True))
        for future in victim_futures:
            future.result(timeout=120.0)
        for future in flood_futures:
            future.result(timeout=120.0)
        stats = server.tenant_stats()
    return stats.class_latency["interactive"], stats.quotas["flood"]


def run_phases():
    session = build_session()
    pool = build_pool()
    mixed = run_mixed_load(session, pool)
    base_latency, _ = run_isolation(session, pool, with_flood=False)
    flood_latency, flood_quota = run_isolation(session, pool,
                                               with_flood=True)
    return mixed, base_latency, flood_latency, flood_quota


def test_tenant_fairness_and_isolation(benchmark):
    mixed, base_latency, flood_latency, flood_quota = benchmark(run_phases)

    table = Table(
        "Smol-Tenant: per-class tails under mixed load + flood isolation",
        ["Phase", "Class", "Weight", "Served", "p50 (ms)", "p95 (ms)",
         "p99 (ms)"],
    )
    rows = []
    weights = {"interactive": 8, "standard": 4, "batch": 1}
    for name in ("interactive", "standard", "batch"):
        latency = mixed.class_latency[name]
        table.add_row("mixed", name, f"{weights[name]}x",
                      mixed.class_served[name],
                      round(latency.p50_ms, 3), round(latency.p95_ms, 3),
                      round(latency.p99_ms, 3))
        rows.append({
            "phase": "mixed", "class": name, "weight": weights[name],
            "served": mixed.class_served[name],
            "p50_ms": round(latency.p50_ms, 4),
            "p95_ms": round(latency.p95_ms, 4),
            "p99_ms": round(latency.p99_ms, 4),
        })
    for phase, latency in (("victim-alone", base_latency),
                           ("victim-flooded", flood_latency)):
        table.add_row(phase, "interactive", "8x", latency.count,
                      round(latency.p50_ms, 3), round(latency.p95_ms, 3),
                      round(latency.p99_ms, 3))
        rows.append({
            "phase": phase, "class": "interactive", "weight": 8,
            "served": latency.count,
            "p50_ms": round(latency.p50_ms, 4),
            "p95_ms": round(latency.p95_ms, 4),
            "p99_ms": round(latency.p99_ms, 4),
        })
    bound_ms = ISOLATION_FACTOR * base_latency.p99_ms + ISOLATION_SLACK_MS
    rows.append({
        "phase": "isolation-gate", "class": "interactive", "weight": 8,
        "served": flood_quota.admitted,
        "p50_ms": 0.0, "p95_ms": 0.0,
        "p99_ms": round(bound_ms, 4),
    })
    emit(table)
    emit(f"flood quota: admitted {flood_quota.admitted}, "
         f"throttled {flood_quota.throttled} "
         f"(rate {flood_quota.throttled_rate} / in-flight "
         f"{flood_quota.throttled_in_flight})")
    write_bench_json(
        BENCH_PATH, "tenant-fairness", rows,
        meta={
            "requests_per_tenant": REQUESTS_PER_TENANT,
            "victim_requests": VICTIM_REQUESTS,
            "max_batch_size": MAX_BATCH,
            "isolation_bound": f"{ISOLATION_FACTOR}x + "
                               f"{ISOLATION_SLACK_MS}ms",
            "flood_admitted": flood_quota.admitted,
            "flood_throttled": flood_quota.throttled,
        },
    )

    # Gate 1: weighted-fair scheduling orders the class tails.
    p99 = {name: mixed.class_latency[name].p99_ms
           for name in ("interactive", "standard", "batch")}
    assert p99["interactive"] < p99["standard"] < p99["batch"], p99
    for name in ("interactive", "standard", "batch"):
        assert mixed.class_served[name] == REQUESTS_PER_TENANT

    # Gate 2: the flood is throttled AND the victim's tail stays within
    # the bounded degradation factor.
    assert flood_quota.throttled > 0
    assert flood_quota.admitted > 0  # some flood work really ran
    assert flood_latency.p99_ms <= bound_ms, (
        f"victim p99 {flood_latency.p99_ms:.2f}ms exceeded isolation "
        f"bound {bound_ms:.2f}ms (baseline {base_latency.p99_ms:.2f}ms)")
