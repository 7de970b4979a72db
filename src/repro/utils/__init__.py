"""Shared utilities: units, deterministic RNG, Pareto frontiers, tables,
timing, and machine-readable benchmark artifacts."""

from repro import _lazy_exports

_EXPORTS = {
    "bench_payload": "repro.utils.benchio",
    "latency_metrics": "repro.utils.benchio",
    "write_bench_json": "repro.utils.benchio",
    "us_to_s": "repro.utils.units",
    "s_to_us": "repro.utils.units",
    "images_per_second": "repro.utils.units",
    "per_image_us": "repro.utils.units",
    "megapixels": "repro.utils.units",
    "Throughput": "repro.utils.units",
    "deterministic_rng": "repro.utils.rng",
    "stable_hash": "repro.utils.rng",
    "pareto_frontier": "repro.utils.pareto",
    "dominates": "repro.utils.pareto",
    "Table": "repro.utils.tables",
    "format_table": "repro.utils.tables",
    "SimTimer": "repro.utils.timing",
    "wall_timer": "repro.utils.timing",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
