"""Trace analytics: critical-path latency attribution and bench diffing.

Smol-Scope made every subsystem emit connected span trees; this module is
the layer that *interprets* them.

Critical-path analysis
----------------------
:func:`analyze_critical_path` walks an exported span log and attributes
each request's end-to-end latency to pipeline categories -- queueing,
batching, dispatch, decode, preprocess, inference, store, query, replan.
A *request* is a ``serving.request`` or ``cluster.item`` span with no
such span among its ancestors (a cluster item executing on behalf of a
serving request is accounted inside that request, not double-counted).

The attribution must satisfy one invariant: **every request's category
breakdown sums exactly to its span duration**.  That is non-trivial
because the stack mixes wall-clock spans with *modelled* spans
(``Tracer.record``) whose durations can legitimately exceed the parent's
wall time -- e.g. a ``serving.batch`` span carries the modelled cost of a
whole batch under a single request's wall interval.  The walk therefore
budget-scales: each span gets a time *budget* (the root's budget is its
duration); if its children's durations exceed the budget, every child is
scaled proportionally and the span keeps no self-time; otherwise children
keep their own durations and the remainder is the span's self-time,
attributed to the span's category.  Scaling preserves *proportions* --
which stage dominates -- which is the question the paper's joint
optimization actually needs answered.

Bench diffing
-------------
:func:`bench_diff` compares two ``BENCH_*.json`` payloads
(:mod:`repro.utils.benchio` schema) row by row and flags numeric fields
that moved beyond tolerance in the *bad* direction.  Direction is
inferred from the field name (throughput-like fields regress downward,
latency-like fields regress upward); unrecognized numeric fields are
reported as drift but never as regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = [
    "CATEGORIES",
    "category_of",
    "RequestAttribution",
    "CriticalPathReport",
    "analyze_critical_path",
    "FieldDelta",
    "BenchDiff",
    "bench_diff",
]

#: Attribution categories, in report order.
CATEGORIES: tuple[str, ...] = (
    "queueing", "batching", "dispatch", "decode", "preprocess",
    "inference", "store", "query", "replan", "other",
)

#: Span names whose subtrees constitute one request.
REQUEST_ROOT_NAMES = frozenset({"serving.request", "cluster.item"})

_EXACT_CATEGORIES = {
    "stage.decode": "decode",
    "stage.preprocess": "preprocess",
    "stage.inference": "inference",
    "stage.read": "store",
    "serving.request": "queueing",
    "cluster.item": "queueing",
    "serving.batch": "batching",
    "cluster.execute": "batching",
    "cluster.dispatch": "dispatch",
    "cluster.retry": "dispatch",
    "cluster.failover": "dispatch",
}

_PREFIX_CATEGORIES = (
    ("store.", "store"),
    ("query.", "query"),
    ("adapt.", "replan"),
    ("stage.", "other"),
)


def category_of(name: str) -> str:
    """Map a span name to its attribution category.

    The *self-time* of a request span is queueing (admission wait, batch
    formation wait); the self-time of a batch/execute span is batching
    overhead; modelled stage spans carry the pipeline's real work.
    """
    category = _EXACT_CATEGORIES.get(name)
    if category is not None:
        return category
    for prefix, prefixed in _PREFIX_CATEGORIES:
        if name.startswith(prefix):
            return prefixed
    return "other"


@dataclass(frozen=True)
class RequestAttribution:
    """One request's end-to-end latency split across categories."""

    trace_id: int
    span_id: int
    name: str
    duration_s: float
    breakdown: dict[str, float]
    spans: int

    @property
    def dominant(self) -> str:
        """The category blamed for the largest share of this request."""
        return max(CATEGORIES, key=lambda cat: self.breakdown.get(cat, 0.0))

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "duration_ms": self.duration_s * 1000.0,
            "dominant": self.dominant,
            "spans": self.spans,
            "breakdown_ms": {cat: seconds * 1000.0
                             for cat, seconds in self.breakdown.items()
                             if seconds > 0.0},
        }


@dataclass(frozen=True)
class CriticalPathReport:
    """Fleet-level attribution: per-request rows plus aggregate blame."""

    requests: list[RequestAttribution]
    blame: dict[str, float]
    total_s: float
    spans_seen: int
    spans_attributed: int
    slowest: list[RequestAttribution] = field(default_factory=list)

    def blame_shares(self) -> dict[str, float]:
        """Per-category fraction of total attributed time (sums to 1)."""
        if self.total_s <= 0.0:
            return {cat: 0.0 for cat in CATEGORIES}
        return {cat: self.blame.get(cat, 0.0) / self.total_s
                for cat in CATEGORIES}

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``obs analyze --json`` payload)."""
        return {
            "requests": len(self.requests),
            "spans_seen": self.spans_seen,
            "spans_attributed": self.spans_attributed,
            "total_ms": self.total_s * 1000.0,
            "blame_ms": {cat: self.blame.get(cat, 0.0) * 1000.0
                         for cat in CATEGORIES},
            "blame_share": self.blame_shares(),
            "slowest": [row.to_dict() for row in self.slowest],
        }


def _index_children(spans: list[dict]) -> dict[int | None, list[dict]]:
    children: dict[int | None, list[dict]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    # Deterministic walk order regardless of export ordering.
    for siblings in children.values():
        siblings.sort(key=lambda span: span["span_id"])
    return children


def _attribute(span: dict, budget: float,
               children: dict[int | None, list[dict]],
               breakdown: dict[str, float]) -> int:
    """Recursively split ``budget`` seconds over ``span``'s subtree.

    Returns the number of spans visited.  Children whose durations total
    more than the budget are scaled proportionally (modelled spans may
    exceed wall time); otherwise the remainder is self-time.
    """
    kids = children.get(span["span_id"], ())
    visited = 1
    child_total = sum(max(0.0, kid["duration_s"]) for kid in kids)
    if child_total > budget and child_total > 0.0:
        scale = budget / child_total
        self_time = 0.0
    else:
        scale = 1.0
        self_time = budget - child_total
    if self_time > 0.0:
        category = category_of(span["name"])
        breakdown[category] = breakdown.get(category, 0.0) + self_time
    for kid in kids:
        visited += _attribute(kid, max(0.0, kid["duration_s"]) * scale,
                              children, breakdown)
    return visited


def _find_request_roots(spans: list[dict]) -> list[dict]:
    by_id = {span["span_id"]: span for span in spans}
    roots = []
    for span in spans:
        if span["name"] not in REQUEST_ROOT_NAMES:
            continue
        parent = span.get("parent_id")
        nested = False
        hops = 0
        while parent is not None and hops < len(by_id) + 1:
            ancestor = by_id.get(parent)
            if ancestor is None:
                break
            if ancestor["name"] in REQUEST_ROOT_NAMES:
                nested = True
                break
            parent = ancestor.get("parent_id")
            hops += 1
        if not nested:
            roots.append(span)
    roots.sort(key=lambda span: (span["trace_id"], span["span_id"]))
    return roots


def analyze_critical_path(spans, top_k: int = 10) -> CriticalPathReport:
    """Attribute request latency to pipeline categories across a span log.

    ``spans`` is a sequence of span dicts (the :meth:`Span.to_dict` /
    JSONL schema) or Span objects.  Each request's breakdown sums exactly
    to its span duration; spans outside any request subtree (adapt steps,
    standalone query runs, open spans) are not attributed.
    """
    if top_k < 0:
        raise ReproError("top_k must be non-negative")
    records = [span if isinstance(span, dict) else span.to_dict()
               for span in spans]
    children = _index_children(records)
    roots = _find_request_roots(records)
    requests: list[RequestAttribution] = []
    blame: dict[str, float] = {}
    attributed = 0
    for root in roots:
        breakdown: dict[str, float] = {}
        visited = _attribute(root, max(0.0, root["duration_s"]),
                             children, breakdown)
        attributed += visited
        requests.append(RequestAttribution(
            trace_id=root["trace_id"],
            span_id=root["span_id"],
            name=root["name"],
            duration_s=max(0.0, root["duration_s"]),
            breakdown=breakdown,
            spans=visited,
        ))
        for category, seconds in breakdown.items():
            blame[category] = blame.get(category, 0.0) + seconds
    slowest = sorted(requests, key=lambda row: -row.duration_s)[:top_k]
    return CriticalPathReport(
        requests=requests,
        blame=blame,
        total_s=sum(row.duration_s for row in requests),
        spans_seen=len(records),
        spans_attributed=attributed,
        slowest=slowest,
    )


# ----------------------------------------------------------------------
# BENCH_*.json regression diffing
# ----------------------------------------------------------------------

#: Name fragments marking fields where *lower* values are regressions.
LOWER_IS_REGRESSION = (
    "throughput", "speedup", "recovery", "accuracy", "hit_rate", "images",
)

#: Name fragments marking fields where *higher* values are regressions.
HIGHER_IS_REGRESSION = (
    "latency", "_ms", "wall", "seconds", "missed", "rejected",
    "failed", "dropped", "overhead",
)


def _direction(field_name: str) -> str:
    lowered = field_name.lower()
    for fragment in LOWER_IS_REGRESSION:
        if fragment in lowered:
            return "higher_is_better"
    for fragment in HIGHER_IS_REGRESSION:
        if fragment in lowered:
            return "lower_is_better"
    return "unknown"


@dataclass(frozen=True)
class FieldDelta:
    """One numeric field's movement between baseline and candidate."""

    row: int
    field: str
    baseline: float
    candidate: float
    rel_change: float
    direction: str
    regression: bool

    def describe(self) -> str:
        """One-line human rendering."""
        verdict = "REGRESSION" if self.regression else "ok"
        return (f"row {self.row} {self.field}: {self.baseline:g} -> "
                f"{self.candidate:g} ({self.rel_change:+.1%}, "
                f"{self.direction}) [{verdict}]")


@dataclass(frozen=True)
class BenchDiff:
    """Result of diffing two BENCH payloads."""

    bench: str
    deltas: list[FieldDelta]
    problems: list[str]

    @property
    def regressions(self) -> list[FieldDelta]:
        """Deltas flagged as regressions."""
        return [delta for delta in self.deltas if delta.regression]

    @property
    def ok(self) -> bool:
        """True when no regressions and no structural problems."""
        return not self.regressions and not self.problems

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "bench": self.bench,
            "ok": self.ok,
            "problems": list(self.problems),
            "regressions": [delta.describe() for delta in self.regressions],
            "deltas": [
                {"row": delta.row, "field": delta.field,
                 "baseline": delta.baseline, "candidate": delta.candidate,
                 "rel_change": delta.rel_change,
                 "direction": delta.direction,
                 "regression": delta.regression}
                for delta in self.deltas
            ],
        }


def bench_diff(baseline: dict, candidate: dict,
               tolerance: float = 0.1,
               field_tolerances: dict[str, float] | None = None) -> BenchDiff:
    """Diff two BENCH payloads; flag out-of-tolerance bad-direction moves.

    Rows are matched by position; a row whose identity (string/bool
    fields) differs from its baseline counterpart is reported as a
    structural problem rather than compared numerically.  ``tolerance``
    is the default relative tolerance; ``field_tolerances`` overrides it
    per field name.
    """
    if tolerance < 0:
        raise ReproError("tolerance must be non-negative")
    overrides = field_tolerances or {}
    problems: list[str] = []
    bench = str(baseline.get("bench", "?"))
    if baseline.get("bench") != candidate.get("bench"):
        problems.append(
            f"bench name mismatch: {baseline.get('bench')!r} vs "
            f"{candidate.get('bench')!r}"
        )
    base_rows = baseline.get("rows", [])
    cand_rows = candidate.get("rows", [])
    if len(base_rows) != len(cand_rows):
        problems.append(
            f"row count mismatch: {len(base_rows)} vs {len(cand_rows)}"
        )
    deltas: list[FieldDelta] = []
    for index, (base, cand) in enumerate(zip(base_rows, cand_rows)):
        identity_diff = [
            key for key in sorted(set(base) | set(cand))
            if isinstance(base.get(key), (str, bool))
            or isinstance(cand.get(key), (str, bool))
            if base.get(key) != cand.get(key)
        ]
        if identity_diff:
            problems.append(
                f"row {index} identity mismatch on {identity_diff}; "
                "skipped numeric comparison"
            )
            continue
        for key in sorted(set(base) & set(cand)):
            base_value, cand_value = base[key], cand[key]
            if isinstance(base_value, bool) or isinstance(cand_value, bool):
                continue
            if not isinstance(base_value, (int, float)):
                continue
            if not isinstance(cand_value, (int, float)):
                problems.append(
                    f"row {index} field {key}: numeric in baseline, "
                    f"{type(cand_value).__name__} in candidate"
                )
                continue
            denom = abs(base_value) if base_value else 1.0
            rel = (cand_value - base_value) / denom
            direction = _direction(key)
            limit = overrides.get(key, tolerance)
            regression = (
                (direction == "higher_is_better" and rel < -limit)
                or (direction == "lower_is_better" and rel > limit)
            )
            if rel != 0.0 or regression:
                deltas.append(FieldDelta(
                    row=index, field=key,
                    baseline=float(base_value),
                    candidate=float(cand_value),
                    rel_change=rel, direction=direction,
                    regression=regression,
                ))
    return BenchDiff(bench=bench, deltas=deltas, problems=problems)
