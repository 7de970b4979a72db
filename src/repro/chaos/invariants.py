"""Global-contract checks the chaos harness asserts after every run.

The VDBMS bug studies locate most real failures in cross-component
interaction paths; the invariants here are the *system-wide* contracts
those interactions must preserve no matter which faults fired:

* **exactly-once resolution** -- every submitted item resolves exactly
  once (no lost futures, no double-retired counters), even though
  execution is at-least-once under failover;
* **bit-identical scores** -- items the faulted cluster completed must
  predict exactly what the unfaulted single-process engine predicts;
* **connected traces** -- the run's span tree validates (one trace, one
  root, no orphans, no duplicate span ids) via
  :func:`repro.obs.validate_span_tree`;
* **crash-safe manifests** -- a store that absorbed torn manifest writes
  still loads, still serves every committed entry, and survives GC;
* **convergent replans** -- the drift detector, once acknowledged, stops
  demanding replans for the same scales, and calibrated scales respect
  the calibrator's hard bounds.

Each check returns :class:`InvariantViolation` records rather than
raising, so one run reports *all* broken contracts and the shrinker can
target the specific invariant a seed first violated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import validate_span_tree

__all__ = [
    "InvariantViolation",
    "check_exactly_once",
    "check_predictions",
    "check_span_tree",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken contract: which invariant, and the evidence."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def check_exactly_once(stats, outcomes: list,
                       allow_failures: bool) -> list[InvariantViolation]:
    """Every submitted item resolved exactly once, and counters agree.

    ``stats`` is a :class:`~repro.cluster.dispatcher.DispatcherStats`
    snapshot taken after the drain; ``outcomes`` is the per-item list of
    ``("ok", predictions)`` / ``("failed", error)`` / ``("lost", ...)``
    tuples the runner resolved from the futures.  ``allow_failures`` is
    True when the fault plan could legitimately exhaust an item's
    attempts (kill or raise actions present).
    """
    violations: list[InvariantViolation] = []
    lost = sum(1 for kind, _ in outcomes if kind == "lost")
    if lost:
        violations.append(InvariantViolation(
            "resolution.exactly_once",
            f"{lost} of {len(outcomes)} futures never resolved",
        ))
    if stats.completed + stats.failed != stats.submitted:
        violations.append(InvariantViolation(
            "resolution.exactly_once",
            f"completed ({stats.completed}) + failed ({stats.failed}) != "
            f"submitted ({stats.submitted}) -- an item was double-retired "
            "or dropped",
        ))
    if stats.inflight != 0:
        violations.append(InvariantViolation(
            "resolution.exactly_once",
            f"{stats.inflight} items still in flight after drain",
        ))
    failed = sum(1 for kind, _ in outcomes if kind == "failed")
    if failed and not allow_failures:
        detail = next(d for kind, d in outcomes if kind == "failed")
        violations.append(InvariantViolation(
            "resolution.spurious_failure",
            f"{failed} items failed with no kill/raise fault planned "
            f"(first: {detail})",
        ))
    return violations


def check_predictions(reference: list[np.ndarray],
                      outcomes: list) -> list[InvariantViolation]:
    """Completed items must match the unfaulted serial engine bit-for-bit."""
    violations: list[InvariantViolation] = []
    for index, (kind, value) in enumerate(outcomes):
        if kind != "ok":
            continue
        expected = reference[index]
        actual = np.asarray(value, dtype=np.int64)
        if actual.shape != expected.shape or \
                not np.array_equal(actual, expected):
            violations.append(InvariantViolation(
                "predictions.bit_identical",
                f"item {index} predicted {actual.tolist()} but the serial "
                f"engine predicted {expected.tolist()}",
            ))
    return violations


def check_span_tree(spans: list) -> list[InvariantViolation]:
    """The run's spans must form one connected, duplicate-free trace."""
    if not spans:
        return [InvariantViolation("trace.connected",
                                   "the traced run produced no spans")]
    tree = validate_span_tree(spans)
    if tree.connected:
        return []
    return [InvariantViolation("trace.connected", "; ".join(tree.problems))]
