#!/usr/bin/env python3
"""Smol-Adapt walkthrough: a server that replans itself out of a slowdown.

The offline planner picks a plan once, from calibrated constants.  This
walkthrough (referenced from ``docs/adaptive.md``) shows what happens when
the world then moves -- and how the adaptive loop reacts, step by step:

1. Serve two waves of traffic on the planner's cold choice: the server
   publishes per-stage costs on the stage bus, the calibrator's scales sit
   at 1.0, the drift detector stays quiet.
2. Inject a 4x decode slowdown for the live plan's rendition and warm a
   decoded rendition of a *different* format in the store.
3. Watch the loop fire: the calibrator folds the slow decode observations
   into the cost model, the store subscription flags the catalog change,
   the replanner re-prices every candidate against the observed world and
   the live catalog, and the server hot-swaps onto the recovered plan.
4. Compare against a frozen-plan run through the identical schedule: it
   stays pinned at roughly 29% of its pre-drift throughput.

Run with:  python examples/adaptive_serving.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.adapt import (                                      # noqa: E402
    ServingDriftConfig,
    run_serving_drift_scenario,
)


def main() -> None:
    config = ServingDriftConfig(drift_factor=4.0, wave_requests=192)

    print("=== frozen plan (no adaptation) " + "=" * 34)
    frozen = run_serving_drift_scenario(False, config)
    print(frozen.describe())
    print()

    print("=== adaptive (stage bus -> calibrate -> drift -> swap) " + "=" * 11)
    adaptive = run_serving_drift_scenario(True, config)
    print(adaptive.describe())
    print()

    print("wave-by-wave (modelled images/second):")
    print(f"  {'wave':>4}  {'frozen':>8}  {'adaptive':>8}  decision")
    for f, a in zip(frozen.phases, adaptive.phases):
        print(f"  {f.index:>4}  {f.throughput:>8,.0f}  "
              f"{a.throughput:>8,.0f}  {a.decision or '-'}")
    print()
    print(f"frozen recovery:   {frozen.recovery * 100:5.1f}%")
    print(f"adaptive recovery: {adaptive.recovery * 100:5.1f}% "
          f"after {adaptive.swaps} hot-swap(s): "
          f"{adaptive.initial_plan_key} -> {adaptive.final_plan_key}")


if __name__ == "__main__":
    main()
