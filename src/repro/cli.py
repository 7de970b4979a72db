"""Command-line interface for the Smol reproduction.

Subcommands:

* ``plan``          -- print the Pareto frontier and the selected plan for a dataset.
* ``run``           -- execute the selected plan in the simulated runtime.
* ``query``         -- run a declarative analytics query sharded over the
  cluster runtime, verifying bit-identical results across worker counts.
* ``store``         -- inspect (``stats``), garbage-collect (``gc``), or
  pre-materialize (``warm``) the persistent rendition & score store.
* ``obs``           -- observability tooling: ``demo`` runs a fully traced
  workload across every subsystem (serving, cluster, query, store, adapt)
  and exports the span log, Chrome trace, and Prometheus metrics;
  ``summarize`` prints the per-span-name duration table of a saved JSONL
  trace; ``export`` converts a JSONL trace to Chrome ``trace_event`` JSON;
  ``analyze`` attributes each request's latency across pipeline categories
  (critical-path blame, verified to sum to the request durations);
  ``slo`` replays a span log through a multi-window SLO burn-rate engine
  (``--fail-on-burn`` exits 1 when the log burns); ``postmortem``
  reconstructs the failure trace from a flight-recorder bundle.
* ``chaos``         -- scenario fuzzing + fault injection: ``run`` sweeps a
  fixed seed range through every global invariant (exactly-once
  resolution, bit-identical scores, connected traces, crash-safe
  manifests), ``replay`` re-runs one seed or a dumped scenario
  deterministically, ``shrink`` minimizes a failing seed to the smallest
  scenario that still violates the same invariant.
* ``bench-diff``    -- compare two ``BENCH_*.json`` scorecards field by
  field and exit 1 on regressions beyond tolerance.

Scorecards (``BENCH_*.json``) are written by the ``benchmarks/`` drivers;
the paper's measurement, cost and video tables, and the serving, cluster
and adaptive-replanning studies, live there too
(``pytest benchmarks/bench_*.py --benchmark-disable``).  ``query`` writes
its sweep as a scorecard only when ``--bench-json`` names a path.

Errors from the library (unknown datasets, infeasible constraints, bad
serving parameters) exit with status 2 and a one-line message rather than a
traceback.

Examples
--------
    python -m repro.cli plan --dataset imagenet --accuracy-floor 0.74
    python -m repro.cli run --dataset bike-bird --images 8192
    python -m repro.cli query --kind aggregate --dataset taipei --error 0.05 \
        --workers 1 4
    python -m repro.cli store warm --root .smol-store --dataset taipei
    python -m repro.cli query --kind aggregate --dataset taipei --error 0.05 \
        --store-root .smol-store      # warm cache hit, streamed shards
    python -m repro.cli store stats --root .smol-store
    python -m repro.cli obs demo --dataset taipei --frames 2400
    python -m repro.cli query --kind aggregate --dataset taipei --error 0.05 \
        --trace-out TRACE_query.jsonl
    python -m repro.cli obs summarize --trace TRACE_query.jsonl
    python -m repro.cli obs export --trace TRACE_query.jsonl \
        --out TRACE_query_chrome.json
    python -m repro.cli obs analyze --trace TRACE_query.jsonl --top-k 10
    python -m repro.cli obs slo --trace TRACE_query.jsonl \
        --latency-target-ms 50 --objective 0.99 --fail-on-burn
    python -m repro.cli obs postmortem --bundle postmortems/postmortem-0001
    python -m repro.cli chaos run --seeds 1000 --postmortem-dir postmortems
    python -m repro.cli chaos replay 137
    python -m repro.cli chaos shrink 137 --out postmortems/minimal-137
    python -m repro.cli bench-diff BENCH_obs.json BENCH_obs.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.smol import Smol
from repro.datasets.video import load_video_dataset
from repro.errors import ReproError, ServingError
from repro.obs import (
    NULL_OBS,
    Observability,
    read_spans_jsonl,
    summarize_spans,
    validate_span_tree,
    write_chrome_trace,
)
from repro.query import QueryEngine, QuerySpec
from repro.serving import BatchPolicy, SmolServer
from repro.utils.benchio import write_bench_json
from repro.utils.tables import Table


def _cmd_plan(args: argparse.Namespace) -> int:
    smol = Smol(instance=args.instance, dataset_name=args.dataset)
    report = smol.report(accuracy_floor=args.accuracy_floor)
    print(report.describe())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    smol = Smol(instance=args.instance, dataset_name=args.dataset)
    estimate = smol.best_plan(accuracy_floor=args.accuracy_floor)
    result = smol.run(estimate, limit=args.images)
    print(f"plan:       {estimate.plan.describe()}")
    print(f"estimated:  {estimate.throughput:,.0f} im/s at "
          f"{estimate.accuracy * 100:.2f}% accuracy")
    print(f"simulated:  {result.throughput:,.0f} im/s over "
          f"{result.num_images} images")
    return 0


def _finish_trace(obs, trace_out: str | None) -> None:
    """Write ``obs``'s finished spans as JSONL when a path was given."""
    if not trace_out:
        return
    from repro.obs import write_spans_jsonl

    count = write_spans_jsonl(obs.spans(), trace_out)
    print(f"wrote {count} spans to {trace_out}")


def _query_spec(args: argparse.Namespace) -> QuerySpec:
    """Build the declarative spec the ``query`` subcommand describes."""
    if args.kind == "aggregate":
        if args.error is None:
            raise ServingError("aggregate queries need --error")
        return QuerySpec.aggregate(
            args.dataset, error_bound=args.error,
            specialized_accuracy=args.specialized_accuracy,
            accuracy_floor=args.accuracy_floor,
        )
    if args.kind == "limit":
        if args.min_count is None or args.limit is None:
            raise ServingError("limit queries need --min-count and --limit")
        return QuerySpec.limit(
            args.dataset, min_count=args.min_count, limit=args.limit,
            specialized_accuracy=args.specialized_accuracy,
            accuracy_floor=args.accuracy_floor,
        )
    return QuerySpec.cascade(
        args.dataset, num_classes=args.num_classes, images=args.images,
        specialized_accuracy=args.specialized_accuracy,
        accuracy_floor=args.accuracy_floor,
    )


def _query_signature(result) -> tuple:
    """The statistics that must be bit-identical across worker counts."""
    if hasattr(result, "estimate"):
        return (result.estimate, result.ci_half_width,
                result.target_invocations, result.population_proxy_mean)
    if hasattr(result, "found_frames"):
        return (result.found_frames, result.frames_scanned,
                result.target_invocations)
    return (result.accuracy, result.accuracy_ci_half_width,
            result.mean_prediction, result.confusion.tobytes())


def _query_headline(result) -> str:
    """The one-cell summary of a query result for the sweep table."""
    if hasattr(result, "estimate"):
        return f"{result.estimate:.4f} ± {result.ci_half_width:.4f}"
    if hasattr(result, "found_frames"):
        return (f"{len(result.found_frames)}/{result.spec.limit} found, "
                f"{result.frames_scanned} scanned")
    return (f"acc {result.accuracy * 100:.2f}% "
            f"± {result.accuracy_ci_half_width * 100:.2f}%")


def _open_store(root: str | None, obs=NULL_OBS):
    """A RenditionStore handle for ``root``, or None when no root given."""
    if root is None:
        return None
    from repro.store import RenditionStore

    return RenditionStore(root, obs=obs)


def _span_summary_table(title: str, spans) -> Table:
    """The per-span-name duration table of a span export."""
    table = Table(title, ["Span", "Count", "Total (ms)", "Mean (ms)",
                          "p50 (ms)", "p95 (ms)", "Max (ms)"])
    for row in summarize_spans(spans):
        table.add_row(row["name"], row["count"], round(row["total_ms"], 2),
                      round(row["mean_ms"], 3), round(row["p50_ms"], 3),
                      round(row["p95_ms"], 3), round(row["max_ms"], 3))
    return table


def _cmd_query(args: argparse.Namespace) -> int:
    if any(count <= 0 for count in args.workers):
        raise ServingError("--workers counts must be positive")
    spec = _query_spec(args)
    obs = Observability() if args.trace_out else NULL_OBS
    engine = QueryEngine(instance=args.instance,
                         frame_limit=args.frame_limit,
                         batch_size=args.max_batch,
                         store=_open_store(args.store_root, obs=obs),
                         obs=obs)
    reference = engine.execute_single(spec, seed=args.seed)
    print(f"query: {spec.describe()}")
    print(reference.plans.describe())
    table = Table(
        f"Smol-Query sweep ({spec.kind} on {spec.dataset})",
        ["Workers", "Result (must be identical)", "Makespan (s)", "Speedup",
         "Wall (s)"],
    )
    rows = []
    baseline_makespan = None
    expected = _query_signature(reference)
    result = reference
    for count in args.workers:
        result = engine.execute(spec, num_workers=count, seed=args.seed)
        if _query_signature(result) != expected:
            raise ServingError(
                f"sharded execution on {count} workers diverged from the "
                "single-process engines -- merge exactness is broken"
            )
        makespan = result.execution.cheap_pass_makespan_s
        if baseline_makespan is None:
            baseline_makespan = makespan
        speedup = baseline_makespan / makespan if makespan > 0 else 0.0
        table.add_row(count, _query_headline(result), round(makespan, 3),
                      round(speedup, 2),
                      round(result.execution.wall_seconds, 3))
        rows.append({
            "workers": count,
            "cheap_pass_makespan_s": round(makespan, 6),
            "cheap_pass_speedup": round(speedup, 3),
            "modelled_speedup": round(result.execution.modelled_speedup, 3),
            "wall_seconds": round(result.execution.wall_seconds, 4),
            "frames_scanned": result.execution.frames_scanned,
            "headline": _query_headline(result),
        })
    print(table)
    print("bit-identical across worker counts: OK")
    print()
    print(result.describe())
    if args.bench_json:
        written = write_bench_json(
            args.bench_json, "query", rows,
            meta={"spec": spec.describe(),
                  "cheap_plan": reference.plans.cheap.plan.describe(),
                  "accurate_plan": reference.plans.accurate.plan.describe(),
                  "frame_limit": args.frame_limit, "seed": args.seed},
        )
        print(f"wrote {written}")
    _finish_trace(obs, args.trace_out)
    if engine.store is not None:
        print()
        print(engine.store.stats().describe())
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import StoreError
    from repro.store import RenditionStore

    if args.action in ("stats", "gc") and not Path(args.root).exists():
        # Opening a store creates it; inspecting a mistyped path must not
        # silently conjure an empty store and report all-zero stats.
        raise StoreError(
            f"no store at {args.root!r} ('store warm' creates one)"
        )
    store = RenditionStore(args.root)
    if args.action == "stats":
        print(f"store: {store.root}")
        print(store.stats().describe())
        return 0
    if args.action == "gc":
        report = store.gc()
        print(f"gc: removed {report.removed_objects} unreferenced objects "
              f"({report.freed_bytes / 1e6:.2f} MB freed), "
              f"{report.live_objects} live")
        return 0
    # warm: plan the spec, persist its cheap-pass score table, and
    # materialize a decoded rendition sample so later plans price it
    # cache-aware.
    engine = QueryEngine(instance=args.instance,
                         frame_limit=args.frames, store=store)
    spec = QuerySpec.aggregate(
        args.dataset, error_bound=args.error,
        specialized_accuracy=args.specialized_accuracy,
    )
    plans = engine.warm(spec, rendition_frames=args.rendition_frames)
    print(f"warmed {args.dataset}: cheap pass "
          f"{plans.cheap.plan.describe()} over {args.frames} frames"
          + (f", {args.rendition_frames} rendition frames materialized"
             if args.rendition_frames else ""))
    print(store.stats().describe())
    return 0


#: Span-name prefixes the ``obs demo`` trace must cover -- one per
#: subsystem layer (the acceptance gate of the observability PR).
DEMO_COVERAGE = ("serving.", "cluster.", "query.", "store.", "adapt.")


def _cmd_obs_demo(args: argparse.Namespace) -> int:
    """One traced workload through every layer, exported three ways.

    Runs the same aggregate query untraced first, then traced (with a
    warm store, a serving wave, and one adaptive-controller step) under a
    single root span -- and fails loudly if the traced scores differ by a
    bit, or if the exported spans do not form one connected tree covering
    every subsystem.
    """
    import tempfile

    from repro.adapt import (
        AdaptiveController,
        DriftDetector,
        OnlineCalibrator,
        Replanner,
    )
    from repro.core.accuracy import AccuracyEstimator
    from repro.core.costmodel import SmolCostModel
    from repro.core.planner import PlanGenerator
    from repro.query.engine import VIDEO_SENSITIVITY, VIDEO_TOP_ACCURACY
    from repro.query.scan import scan_store_fingerprint
    from repro.serving import InferenceRequest, SimulatedSession
    from repro.store import RenditionStore

    spec = QuerySpec.aggregate(args.dataset, error_bound=args.error,
                               specialized_accuracy=args.specialized_accuracy)
    # The untraced reference first: tracing must not perturb a single bit
    # of any query statistic.
    untraced = QueryEngine(instance=args.instance,
                           frame_limit=args.frames,
                           batch_size=args.max_batch)
    expected = _query_signature(
        untraced.execute(spec, num_workers=args.workers, seed=args.seed)
    )

    obs = Observability()
    store_root = args.store_root or tempfile.mkdtemp(prefix="smol-obs-demo-")
    store = RenditionStore(store_root, obs=obs)
    engine = QueryEngine(instance=args.instance, frame_limit=args.frames,
                         batch_size=args.max_batch, store=store, obs=obs)
    dataset = load_video_dataset(args.dataset)
    formats = dataset.available_formats

    def planner_factory(observations=None) -> PlanGenerator:
        return PlanGenerator(
            cost_model=SmolCostModel(engine.performance_model, engine.config),
            accuracy=AccuracyEstimator(args.dataset,
                                       top_accuracy=VIDEO_TOP_ACCURACY,
                                       sensitivity=VIDEO_SENSITIVITY),
            catalog=store.catalog(item=args.dataset,
                                  fingerprint=scan_store_fingerprint()),
            observations=observations,
        )

    planner = planner_factory()
    candidates = planner.score(planner.generate(formats))
    initial = max(candidates, key=lambda e: (e.throughput, e.accuracy))
    controller = AdaptiveController(
        calibrator=OnlineCalibrator(),
        replanner=Replanner(planner_factory, formats=formats),
        current_plan=initial,
        detector=DriftDetector(),
        obs=obs,
    )
    controller.watch_store(store)

    root = obs.span("demo", dataset=args.dataset, workers=args.workers)
    with obs.activate(root.context):
        plans = engine.warm(spec)          # traced store writes
        result = engine.execute(spec, num_workers=args.workers,
                                seed=args.seed)
        session = SimulatedSession(plans.cheap.plan,
                                   engine.performance_model,
                                   config=engine.config)
        session.warmup()
        with SmolServer(session, policy=BatchPolicy.latency(),
                        obs=obs) as server:
            futures = [
                server.submit(InferenceRequest(image_id=f"demo-{i}"))
                for i in range(args.requests)
            ]
            for future in futures:
                future.result(timeout=30.0)
        decision = controller.step()
    root.finish()
    controller.close()

    if _query_signature(result) != expected:
        raise ServingError(
            "traced execution diverged from the untraced run -- tracing "
            "perturbed query results"
        )
    spans = obs.spans()
    tree = validate_span_tree(spans)
    print(f"query: {spec.describe()}")
    print(f"adapt: {decision.reason}")
    print(_span_summary_table(
        f"Traced demo on {args.dataset} ({tree.spans} spans)", spans))
    print("scores bit-identical to the untraced run: OK")
    if not tree.connected:
        raise ServingError("trace is not a single connected tree: "
                           + "; ".join(tree.problems))
    if not tree.covers(*DEMO_COVERAGE):
        missing = [prefix for prefix in DEMO_COVERAGE
                   if not tree.covers(prefix)]
        raise ServingError(
            f"trace does not cover every subsystem; missing {missing}"
        )
    print("single connected span tree covering "
          + ", ".join(p.rstrip(".") for p in DEMO_COVERAGE) + ": OK")
    _finish_trace(obs, args.trace_out)
    events = write_chrome_trace(spans, args.chrome_out)
    print(f"wrote {events} trace events to {args.chrome_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.prometheus())
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    """Critical-path attribution of a span log (blame + slowest requests)."""
    from repro.obs import analyze_critical_path
    from repro.obs.analyze import CATEGORIES

    spans = read_spans_jsonl(args.trace)
    report = analyze_critical_path(spans, top_k=args.top_k)
    if not report.requests:
        print(f"{args.trace}: no request spans "
              "(serving.request / cluster.item) to attribute")
        return 0
    # The invariant the analysis stands on: every request's category
    # breakdown sums exactly to its end-to-end span duration.
    worst_residual = max(
        abs(sum(row.breakdown.values()) - row.duration_s)
        for row in report.requests
    )
    if worst_residual > 1e-9 + 1e-6 * report.total_s:
        raise ServingError(
            f"attribution does not sum to request durations "
            f"(worst residual {worst_residual:.3e}s)"
        )
    shares = report.blame_shares()
    blame = Table(
        f"Critical-path blame over {len(report.requests)} requests "
        f"({report.spans_attributed}/{report.spans_seen} spans attributed)",
        ["Category", "Total (ms)", "Share"],
    )
    for category in CATEGORIES:
        seconds = report.blame.get(category, 0.0)
        if seconds <= 0.0:
            continue
        blame.add_row(category, round(seconds * 1000.0, 3),
                      f"{shares[category]:.1%}")
    print(blame)
    slow = Table(
        f"Top {len(report.slowest)} slowest requests",
        ["Trace", "Span", "Name", "ms", "Dominant", "Spans"],
    )
    for row in report.slowest:
        slow.add_row(row.trace_id, row.span_id, row.name,
                     round(row.duration_s * 1000.0, 3), row.dominant,
                     row.spans)
    print(slow)
    print(f"attribution sums to request durations "
          f"(worst residual {worst_residual:.1e}s): OK")
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    """Replay a span log against an SLO spec; report burn-rate windows."""
    from repro.obs import SloSpec, SloWindow, replay_spans

    spans = read_spans_jsonl(args.trace)
    spec = SloSpec(
        name=args.slo_name,
        latency_target_s=args.latency_target_ms / 1000.0,
        objective=args.objective,
        windows=(
            SloWindow(seconds=args.short_window_s,
                      max_burn_rate=args.short_burn),
            SloWindow(seconds=args.long_window_s,
                      max_burn_rate=args.long_burn),
        ),
        min_events=args.min_events,
    )
    statuses = replay_spans(spans, [spec])
    status = statuses[0]
    table = Table(
        f"SLO '{spec.name}' (p{spec.objective * 100:g} under "
        f"{args.latency_target_ms:g} ms) over {args.trace}",
        ["Window (s)", "Events", "Bad", "Burn rate", "Alarm at", "Burning"],
    )
    for burn in status.windows:
        table.add_row(burn.window_s, burn.events, burn.bad,
                      round(burn.burn_rate, 3), burn.max_burn_rate,
                      "YES" if burn.burning else "no")
    print(table)
    verdict = "BURNING" if status.burning else "healthy"
    print(f"verdict: {verdict} "
          f"({status.alerts_total} alert(s) would have fired)")
    return 1 if status.burning and args.fail_on_burn else 0


def _cmd_obs_postmortem(args: argparse.Namespace) -> int:
    """Inspect a flight-recorder bundle; reconstruct the failure trace."""
    from repro.obs import load_postmortem

    bundle = load_postmortem(args.bundle)
    manifest = bundle.manifest
    print(f"bundle: {bundle.path}")
    print(f"reason: {bundle.reason}  context: {manifest.get('context', {})}")
    print(f"spans: {manifest.get('spans', len(bundle.spans))} "
          f"({manifest.get('open_spans', 0)} still open)  "
          f"events: {manifest.get('events', len(bundle.events))}  "
          f"trips: {manifest.get('trips', 0)}")
    trace = bundle.trace_spans()
    if trace:
        tree = validate_span_tree(trace)
        trace_id = trace[0]["trace_id"]
        print(_span_summary_table(
            f"Failure trace {trace_id} ({tree.spans} spans)", trace))
        if tree.connected:
            print(f"trace {trace_id}: single connected span tree: OK")
        else:
            print(f"trace {trace_id}: not a single connected tree: "
                  + "; ".join(tree.problems))
        open_spans = [span for span in trace if span.get("open")]
        if open_spans:
            print("in flight at dump time: "
                  + ", ".join(f"{span['name']}#{span['span_id']}"
                              for span in open_spans))
    else:
        print("no spans in the bundle")
    errors = bundle.error_spans()
    if errors:
        print("error spans: "
              + ", ".join(f"{span['name']}#{span['span_id']}"
                          f"({span['attrs'].get('error')})"
                          for span in errors[:8]))
    tail = bundle.events[-args.events:] if args.events else []
    if tail:
        events = Table(f"Last {len(tail)} recorded events",
                       ["Kind", "Detail"])
        for event in tail:
            kind = event.get("kind", "?")
            detail = {key: value for key, value in event.items()
                      if key not in ("kind", "time")}
            events.add_row(kind, str(detail))
        print(events)
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.action == "demo":
        return _cmd_obs_demo(args)
    if args.action == "analyze":
        return _cmd_obs_analyze(args)
    if args.action == "slo":
        return _cmd_obs_slo(args)
    if args.action == "postmortem":
        return _cmd_obs_postmortem(args)
    spans = read_spans_jsonl(args.trace)
    if args.action == "export":
        events = write_chrome_trace(spans, args.out)
        print(f"wrote {events} trace events to {args.out}")
        return 0
    tree = validate_span_tree(spans)
    print(_span_summary_table(f"{args.trace} ({tree.spans} spans)", spans))
    if tree.connected:
        print("single connected span tree: OK")
    else:
        print("not a single connected tree: " + "; ".join(tree.problems))
    return 0


def _chaos_scenario(args: argparse.Namespace, gen):
    """The scenario a chaos subcommand targets: a file, or a seed."""
    if getattr(args, "scenario", None):
        import json
        from pathlib import Path

        from repro.chaos import Scenario

        data = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
        if "scenario" in data:  # a dumped report (scenario.json bundle)
            data = data["scenario"]
        return Scenario.from_dict(data)
    if getattr(args, "seed", None) is None:
        raise ReproError("chaos needs a seed or --scenario <json>")
    return gen.generate(args.seed)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos harness: sweep seeds, replay one, or shrink a failure."""
    import time
    from pathlib import Path

    from repro.chaos import ChaosRunner, ScenarioGen
    from repro.chaos import shrink as chaos_shrink
    from repro.chaos.runner import dump_report

    runner = ChaosRunner()
    gen = ScenarioGen()
    if args.action == "run":
        start = time.monotonic()
        failures = 0
        fired = 0
        for seed in range(args.start, args.start + args.seeds):
            report = runner.run(gen.generate(seed))
            fired += len(report.fired)
            if not report.ok:
                failures += 1
                print(report.describe())
                if args.postmortem_dir:
                    bundle = dump_report(
                        report, Path(args.postmortem_dir) / f"seed-{seed}")
                    print(f"  postmortem bundle: {bundle}")
        elapsed = time.monotonic() - start
        print(f"{args.seeds - failures}/{args.seeds} seeds ok "
              f"({fired} faults fired, {elapsed:.1f}s)")
        return 1 if failures else 0
    scenario = _chaos_scenario(args, gen)
    if args.action == "replay":
        report = runner.run(scenario)
        print(report.describe())
        for violation in report.violations:
            print(f"  violated {violation}")
        for firing in report.fired:
            print(f"  fired {firing['action']}@{firing['site']} "
                  f"(hit {firing['hit']})")
        if not report.ok and args.postmortem_dir:
            bundle = dump_report(
                report,
                Path(args.postmortem_dir) / f"seed-{scenario.seed}")
            print(f"postmortem bundle: {bundle}")
        return 0 if report.ok else 1
    # shrink: minimize the scenario while it keeps failing the same
    # invariant the original run failed first.
    first = runner.run(scenario)
    if first.ok:
        print(f"seed {scenario.seed}: no invariant violated; "
              "nothing to shrink")
        return 0
    target = first.violations[0].invariant
    print(f"seed {scenario.seed}: shrinking against {target}")

    def fails(candidate) -> bool:
        for _ in range(args.retries):
            report = runner.run(candidate)
            if any(v.invariant == target for v in report.violations):
                return True
        return False

    result = chaos_shrink(scenario, fails, max_attempts=args.max_attempts)
    before = scenario.dimensions()
    after = result.minimal.dimensions()
    table = Table(f"Shrunk seed {scenario.seed} "
                  f"({result.steps} reductions, {result.attempts} re-runs)",
                  ["Dimension", "Before", "After"])
    for name in before:
        table.add_row(name, str(before[name]), str(after[name]))
    print(table)
    final = runner.run(result.minimal)
    print(final.describe())
    if args.out:
        bundle = dump_report(final, args.out)
        print(f"minimal reproducer bundle: {bundle}")
    return 1


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """Diff two BENCH_*.json scorecards; exit 1 on metric regressions."""
    import json

    from repro.obs import bench_diff

    def load(path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(f"cannot read bench file {path}: {exc}") \
                from exc

    overrides = {}
    for item in args.field_tolerance or ():
        name, _, value = item.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ServingError(
                f"--field-tolerance wants NAME=FLOAT, got {item!r}"
            ) from None
    diff = bench_diff(load(args.baseline), load(args.candidate),
                      tolerance=args.tolerance,
                      field_tolerances=overrides)
    print(f"bench: {diff.bench}  ({args.baseline} -> {args.candidate}, "
          f"tolerance {args.tolerance:.0%})")
    for problem in diff.problems:
        print(f"problem: {problem}")
    shown = diff.deltas if args.verbose else diff.regressions
    for delta in shown:
        print(delta.describe())
    if diff.ok:
        print("no regressions")
        return 0
    print(f"{len(diff.regressions)} regression(s), "
          f"{len(diff.problems)} problem(s)")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Smol reproduction command-line interface"
    )
    parser.add_argument("--instance", default="g4dn.xlarge",
                        help="cloud instance to model (default: g4dn.xlarge)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan = subparsers.add_parser("plan", help="print the Pareto frontier")
    plan.add_argument("--dataset", default="imagenet")
    plan.add_argument("--accuracy-floor", type=float, default=None)
    plan.set_defaults(func=_cmd_plan)

    run = subparsers.add_parser("run", help="execute the selected plan")
    run.add_argument("--dataset", default="imagenet")
    run.add_argument("--accuracy-floor", type=float, default=None)
    run.add_argument("--images", type=int, default=4096)
    run.set_defaults(func=_cmd_run)

    query = subparsers.add_parser(
        "query",
        help="run a declarative analytics query sharded over the cluster "
             "runtime (estimates must be bit-identical at every worker "
             "count)",
    )
    query.add_argument("--kind", choices=("aggregate", "limit", "cascade"),
                       default="aggregate")
    query.add_argument("--dataset", default="taipei",
                       help="video dataset (aggregate/limit) or corpus name "
                            "(cascade)")
    query.add_argument("--error", type=float, default=None,
                       help="absolute error bound (required for aggregate)")
    query.add_argument("--min-count", type=int, default=None,
                       help="per-frame object predicate (limit)")
    query.add_argument("--limit", type=int, default=None,
                       help="frames to find (limit)")
    query.add_argument("--num-classes", type=int, default=8,
                       help="label arity (cascade)")
    query.add_argument("--images", type=int, default=2048,
                       help="corpus size (cascade)")
    query.add_argument("--workers", type=int, nargs="+", default=[1, 4],
                       help="worker counts to sweep")
    query.add_argument("--frame-limit", type=int, default=12_000,
                       help="functional scan length bound")
    query.add_argument("--max-batch", type=int, default=256,
                       help="frames per dispatched micro-batch")
    query.add_argument("--specialized-accuracy", type=float, default=0.9)
    query.add_argument("--accuracy-floor", type=float, default=None)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--bench-json", default=None,
                       help="also write the sweep as a machine-readable "
                            "scorecard here")
    query.add_argument("--store-root", default=None,
                       help="rendition/score store directory; when given, "
                            "the cheap pass reads/writes the store and "
                            "shards stream score chunks, bounding "
                            "per-worker memory by the store's chunk size "
                            "(default 2048 frames x 8 bytes) instead of "
                            "the full frame range")
    query.add_argument("--trace-out", default=None,
                       help="trace the sweep and write the span log here "
                            "as JSONL (see 'obs summarize' / 'obs export')")
    query.set_defaults(func=_cmd_query)

    store = subparsers.add_parser(
        "store",
        help="inspect, garbage-collect, or warm the persistent "
             "rendition & score store",
    )
    store.add_argument("action", choices=("stats", "gc", "warm"))
    store.add_argument("--root", default=".smol-store",
                       help="store directory (default: .smol-store)")
    store.add_argument("--dataset", default="taipei",
                       help="video dataset to warm")
    store.add_argument("--frames", type=int, default=12_000,
                       help="functional scan length to warm")
    store.add_argument("--error", type=float, default=0.05,
                       help="error bound of the planned warm query")
    store.add_argument("--specialized-accuracy", type=float, default=0.9)
    store.add_argument("--rendition-frames", type=int, default=64,
                       help="decoded rendition frames to materialize "
                            "(0 disables; enables cache-aware planning)")
    store.set_defaults(func=_cmd_store)

    obs = subparsers.add_parser(
        "obs",
        help="observability tooling: traced end-to-end demo, span-log "
             "summaries, Chrome trace export, critical-path analysis, "
             "SLO replay, postmortem inspection",
    )
    obs.add_argument("action", choices=("demo", "summarize", "export",
                                        "analyze", "slo", "postmortem"))
    obs.add_argument("--trace", default="TRACE_obs.jsonl",
                     help="JSONL span log to summarize/export")
    obs.add_argument("--out", default="TRACE_obs_chrome.json",
                     help="export: Chrome trace_event output path")
    obs.add_argument("--dataset", default="taipei",
                     help="demo: video dataset to query")
    obs.add_argument("--error", type=float, default=0.05,
                     help="demo: error bound of the traced aggregate query")
    obs.add_argument("--frames", type=int, default=2400,
                     help="demo: functional scan length bound")
    obs.add_argument("--workers", type=int, default=2,
                     help="demo: shard replicas for the traced query")
    obs.add_argument("--requests", type=int, default=32,
                     help="demo: requests in the traced serving wave")
    obs.add_argument("--max-batch", type=int, default=256,
                     help="demo: frames per dispatched micro-batch")
    obs.add_argument("--specialized-accuracy", type=float, default=0.9)
    obs.add_argument("--store-root", default=None,
                     help="demo: store directory (default: a fresh temp "
                          "directory)")
    obs.add_argument("--seed", type=int, default=0)
    obs.add_argument("--trace-out", default="TRACE_obs.jsonl",
                     help="demo: JSONL span log output path")
    obs.add_argument("--chrome-out", default="TRACE_obs_chrome.json",
                     help="demo: Chrome trace_event output path")
    obs.add_argument("--metrics-out", default=None,
                     help="demo: Prometheus text metrics output path")
    obs.add_argument("--top-k", type=int, default=10,
                     help="analyze: slowest requests to report")
    obs.add_argument("--json-out", default=None,
                     help="analyze: also write the report as JSON here")
    obs.add_argument("--slo-name", default="serving-latency",
                     help="slo: objective name")
    obs.add_argument("--latency-target-ms", type=float, default=50.0,
                     help="slo: per-request latency target")
    obs.add_argument("--objective", type=float, default=0.99,
                     help="slo: promised good fraction (error budget is "
                          "1 - objective)")
    obs.add_argument("--short-window-s", type=float, default=60.0,
                     help="slo: short burn window")
    obs.add_argument("--short-burn", type=float, default=14.4,
                     help="slo: short-window burn-rate alarm threshold")
    obs.add_argument("--long-window-s", type=float, default=300.0,
                     help="slo: long burn window")
    obs.add_argument("--long-burn", type=float, default=6.0,
                     help="slo: long-window burn-rate alarm threshold")
    obs.add_argument("--min-events", type=int, default=10,
                     help="slo: samples required before alerting")
    obs.add_argument("--fail-on-burn", action="store_true",
                     help="slo: exit 1 when the objective is burning")
    obs.add_argument("--bundle", default="postmortem-0001",
                     help="postmortem: bundle directory to inspect")
    obs.add_argument("--events", type=int, default=10,
                     help="postmortem: recorded events to show")
    obs.set_defaults(func=_cmd_obs)

    chaos = subparsers.add_parser(
        "chaos",
        help="scenario fuzzing + fault injection: run a seed sweep, "
             "replay one seed, or shrink a failing seed to a minimal "
             "reproducer (exit 1 when an invariant breaks)",
    )
    chaos_actions = chaos.add_subparsers(dest="action", required=True)
    chaos_run = chaos_actions.add_parser(
        "run", help="sweep a fixed seed range through every invariant")
    chaos_run.add_argument("--seeds", type=int, default=200,
                           help="how many consecutive seeds to run")
    chaos_run.add_argument("--start", type=int, default=0,
                           help="first seed of the range")
    chaos_run.add_argument("--postmortem-dir", default=None,
                           help="dump a flight-recorder bundle per "
                                "failing seed under this directory")
    chaos_replay = chaos_actions.add_parser(
        "replay", help="re-run one seed (or a dumped scenario.json) "
                       "deterministically")
    chaos_replay.add_argument("seed", type=int, nargs="?", default=None,
                              help="generator seed to replay")
    chaos_replay.add_argument("--scenario", default=None,
                              help="scenario JSON from a postmortem "
                                   "bundle (overrides the seed)")
    chaos_replay.add_argument("--postmortem-dir", default=None,
                              help="dump a bundle if the replay fails")
    chaos_shrink = chaos_actions.add_parser(
        "shrink", help="minimize a failing seed to the smallest scenario "
                       "that still violates the same invariant")
    chaos_shrink.add_argument("seed", type=int, nargs="?", default=None,
                              help="failing generator seed")
    chaos_shrink.add_argument("--scenario", default=None,
                              help="scenario JSON to shrink instead of a "
                                   "seed")
    chaos_shrink.add_argument("--retries", type=int, default=3,
                              help="runs per candidate before declaring "
                                   "it non-failing (races reproduce "
                                   "probabilistically)")
    chaos_shrink.add_argument("--max-attempts", type=int, default=200,
                              help="total candidate re-runs to budget")
    chaos_shrink.add_argument("--out", default=None,
                              help="write the minimal reproducer bundle "
                                   "here")
    chaos.set_defaults(func=_cmd_chaos)

    bench_diff = subparsers.add_parser(
        "bench-diff",
        help="compare two BENCH_*.json scorecards and flag metric "
             "regressions beyond per-field tolerances (exit 1 on "
             "regression)",
    )
    bench_diff.add_argument("baseline", help="baseline BENCH_*.json")
    bench_diff.add_argument("candidate", help="candidate BENCH_*.json")
    bench_diff.add_argument("--tolerance", type=float, default=0.1,
                            help="default relative tolerance (0.1 = 10%%)")
    bench_diff.add_argument("--field-tolerance", action="append",
                            metavar="NAME=FLOAT", default=None,
                            help="per-field tolerance override "
                                 "(repeatable)")
    bench_diff.add_argument("--verbose", action="store_true",
                            help="print every delta, not only regressions")
    bench_diff.set_defaults(func=_cmd_bench_diff)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Library failures (unknown dataset, infeasible constraints, invalid
    serving parameters) print a one-line error and exit with status 2,
    matching argparse's own usage-error convention.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
