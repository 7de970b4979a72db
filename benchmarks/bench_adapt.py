"""Smol-Adapt drift recovery: frozen-plan vs adaptive replanning.

Not a paper figure: this benchmarks the online cost-feedback replanning
subsystem the repo adds on top of the paper's offline planner.  Both
scenarios inject a 4x decode slowdown mid-run (and materialize a decoded
rendition in the store, the "becomes warm mid-query" trigger) and compare a
frozen-plan run against an adaptive run through the identical schedule:

* **serving** -- a :class:`~repro.serving.server.SmolServer` serves waves
  of requests; the adaptive run detects the drift through the batches'
  stage costs on the stage bus, replans, and hot-swaps the live session
  onto the warm rendition.
* **scan** -- an aggregate query's cheap pass streams over the cluster
  runtime in segments; the adaptive run hot-swaps the shared
  :class:`~repro.query.scan.ScanPace` onto warm chunk reads.  Scores and
  the aggregate estimate must be **bit-identical** to the frozen run --
  a plan swap changes costs, never values.

Acceptance: the adaptive run recovers at least 70% of its pre-drift
throughput (the frozen run is pinned near ``1/3.5`` -- decode dominates
preprocessing per the paper's Figure 1); scan results match bit for bit.
Everything is modelled time, so the numbers are deterministic.

The comparison is recorded as ``BENCH_adapt.json`` at the repo root so the
adaptation trajectory is machine-trackable.
"""

from pathlib import Path

from benchlib import emit

from repro.adapt import (
    ScanDriftConfig,
    ServingDriftConfig,
    run_scan_drift_scenario,
    run_serving_drift_scenario,
    scan_identity,
)
from repro.utils.benchio import write_bench_json
from repro.utils.tables import Table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_adapt.json"
DRIFT_FACTOR = 4.0
RECOVERY_FLOOR = 0.70

SERVING_CONFIG = ServingDriftConfig(drift_factor=DRIFT_FACTOR,
                                    wave_requests=192)
SCAN_CONFIG = ScanDriftConfig(drift_factor=DRIFT_FACTOR, frames=2400,
                              batch_size=128)


def run_drift_recovery() -> tuple[Table, list[dict], dict]:
    serving_frozen = run_serving_drift_scenario(False, SERVING_CONFIG)
    serving_adaptive = run_serving_drift_scenario(True, SERVING_CONFIG)
    scan_frozen = run_scan_drift_scenario(False, SCAN_CONFIG)
    scan_adaptive = run_scan_drift_scenario(True, SCAN_CONFIG)
    table = Table(
        f"Smol-Adapt recovery after a {DRIFT_FACTOR:g}x decode slowdown",
        ["Scenario", "Mode", "Pre (im/s)", "Post (im/s)", "Recovery",
         "Swaps"],
    )
    rows: list[dict] = []
    for scenario, frozen, adaptive in (
        ("serving", serving_frozen, serving_adaptive),
        ("scan", scan_frozen, scan_adaptive),
    ):
        for mode, report in (("frozen", frozen), ("adaptive", adaptive)):
            table.add_row(scenario, mode,
                          round(report.pre_drift_throughput),
                          round(report.post_drift_throughput),
                          f"{report.recovery * 100:.0f}%", report.swaps)
            # ScenarioReport.scorecard_row is the shared schema source
            # (also used by the `adapt` CLI).
            rows.append(report.scorecard_row(scenario))
    identity = scan_identity(scan_frozen, scan_adaptive)
    return table, rows, identity


def test_adaptive_drift_recovery(benchmark):
    table, rows, identity = benchmark(run_drift_recovery)
    emit(table)
    write_bench_json(
        BENCH_PATH, "adapt-drift-recovery", rows,
        meta={"drift_factor": DRIFT_FACTOR,
              "recovery_floor": RECOVERY_FLOOR, **identity},
    )
    by_key = {(row["scenario"], row["mode"]): row for row in rows}
    # The headline acceptance: adaptive runs recover >= 70% of pre-drift
    # throughput on every execution surface; frozen runs stay pinned under
    # the drifted decode (well below 50%).
    for scenario in ("serving", "scan"):
        assert by_key[(scenario, "adaptive")]["recovery"] >= RECOVERY_FLOOR
        assert by_key[(scenario, "frozen")]["recovery"] < 0.5
        # Exactly one hot-swap each: drift is absorbed once, no thrash.
        assert by_key[(scenario, "adaptive")]["swaps"] == 1
        assert by_key[(scenario, "frozen")]["swaps"] == 0
    # Replan safety: the hot-swap moved costs, not values -- the adaptive
    # scan's scores and aggregate estimate match the frozen run bit for
    # bit.
    assert identity["scores_identical"]
    assert identity["estimate_identical"]
