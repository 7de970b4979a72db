"""Shared utilities: deterministic RNG, Pareto frontiers, tables, a wall
timer, the BLAS thread pin, and machine-readable benchmark artifacts."""

from repro import _lazy_exports

_EXPORTS = {
    "latency_metrics": "repro.utils.benchio",
    "write_bench_json": "repro.utils.benchio",
    "deterministic_rng": "repro.utils.rng",
    "stable_hash": "repro.utils.rng",
    "pareto_frontier": "repro.utils.pareto",
    "Table": "repro.utils.tables",
    "wall_timer": "repro.utils.timing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
