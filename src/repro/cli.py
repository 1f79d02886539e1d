"""Command-line interface: run and inspect the paper's experiments.

Usage (after installing the package)::

    python -m repro list
    python -m repro run s4 --variant adapt
    python -m repro run s1,s3,s4 --jobs 4
    python -m repro compare s4
    python -m repro fig1 --scenarios s1,s4
    python -m repro run s3 --json out.json
    python -m repro trace s4 --variant adapt --out s4.jsonl
    python -m repro metrics s1
    python -m repro profile s4 --explain-decisions
    python -m repro sweep s1,s4 --variants none,adapt --seeds 0-4 --cache
    python -m repro serve --workers 2 --cache-dir .repro-cache

``run`` executes one scenario under one variant and prints the run
summary (plus the full measurement record as JSON if requested);
``compare`` runs the non-adaptive and adaptive variants and prints the
paper-figure iteration series; ``fig1`` assembles the runtime table
across scenarios and variants; ``trace`` dumps a run's full adaptation
timeline as typed events (JSONL/CSV); ``metrics`` prints a run's
counters, gauges and histogram summaries; ``profile`` runs with the
full profiling tier and prints the per-node/per-period attribution
table, the critical path, and (on request) per-decision explanations.

``sweep`` runs a scenario × variant × seed grid through the serving
layer: a warm worker pool plus the content-addressed result cache, so
re-running a sweep returns cached summaries (byte-identical to fresh
runs) without simulating; ``serve`` keeps that service alive as a
long-running process speaking JSONL on stdin/stdout.

Performance is measured outside the package, by the repo benchmark
(``python3 bench/run.py``; see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .config import RunConfig
from .experiments import (
    SCENARIOS,
    SUBSTRATES,
    VARIANTS,
    RunResult,
    format_fig1,
    format_iteration_series,
    format_large_grid_summary,
    format_profile,
    format_time_shares,
    improvement,
    profile_scenario,
    result_to_dict,
    run_large_grid,
    run_scenario,
    run_scenarios_parallel,
    scenario,
)
from .obs import (
    EVENT_KINDS,
    JsonlSink,
    MetricsRegistry,
    Observability,
    TraceBus,
    write_events,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Self-adaptive applications on the grid' "
            "(PPoPP 2007): run the paper's scenarios on the simulated grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the available scenarios")

    p_run = sub.add_parser("run", help="run one scenario under one variant")
    p_run.add_argument(
        "scenario", help="scenario id, e.g. s4, or a comma-separated list"
    )
    p_run.add_argument(
        "--variant", choices=VARIANTS, default="adapt",
        help="none = plain run, monitor = statistics only, adapt = full",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for multi-scenario runs (0 = all CPUs); "
             "results are identical to --jobs 1, just faster",
    )
    p_run.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full measurement record as JSON "
             "(a list when several scenarios are given)",
    )
    p_run.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition a substrate scenario's clusters across N processes "
             "(large_grid only); results are byte-identical to --shards 1",
    )

    p_cmp = sub.add_parser(
        "compare", help="run none vs adapt and print the figure series"
    )
    p_cmp.add_argument("scenario", help="scenario id, e.g. s4")
    p_cmp.add_argument("--seed", type=int, default=0)

    p_fig1 = sub.add_parser("fig1", help="assemble the Figure-1 runtime table")
    p_fig1.add_argument(
        "--scenarios", default=",".join(sorted(SCENARIOS)),
        help="comma-separated scenario ids (default: all)",
    )
    p_fig1.add_argument("--seed", type=int, default=0)
    p_fig1.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the scenario × variant grid (0 = all CPUs)",
    )

    p_trace = sub.add_parser(
        "trace", help="run one scenario and dump its typed event stream"
    )
    p_trace.add_argument("scenario", help="scenario id, e.g. s4")
    p_trace.add_argument("--variant", choices=VARIANTS, default="adapt")
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="output file (default: stdout); .csv selects CSV format",
    )
    p_trace.add_argument(
        "--format", choices=("jsonl", "csv"), default=None,
        help="output format (default: inferred from --out, else jsonl)",
    )
    p_trace.add_argument(
        "--events", default="lifecycle",
        help=(
            "which event kinds to record: 'lifecycle' (everything except "
            "per-steal events, the default), 'all', or a comma-separated "
            f"subset of {', '.join(EVENT_KINDS)}"
        ),
    )
    p_trace.add_argument(
        "--stream", action="store_true",
        help="stream events to --out as they happen instead of buffering "
             "the run's full stream in memory (requires --out, jsonl only)",
    )

    p_met = sub.add_parser(
        "metrics", help="run one scenario and print its telemetry metrics"
    )
    p_met.add_argument("scenario", help="scenario id, e.g. s4")
    p_met.add_argument("--variant", choices=VARIANTS, default="adapt")
    p_met.add_argument("--seed", type=int, default=0)
    p_met.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the metric rows as JSON",
    )
    p_met.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="cap the in-memory event stream at the newest N events "
             "(the bounded-memory mode; evictions are reported on the "
             "'bus:' line instead of passing silently)",
    )
    p_met.add_argument(
        "--histogram-window", type=int, default=None, metavar="N",
        help="cap each histogram's retained sample window at N "
             "observations (count/sum stay exact; percentiles come from "
             "the window and rows gain window=/dropped= columns)",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one scenario with profiling and print the attribution",
    )
    p_prof.add_argument("scenario", help="scenario id, e.g. s4")
    p_prof.add_argument("--variant", choices=VARIANTS, default="adapt")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument(
        "--format", choices=("table", "json", "csv"), default="table",
        help="table = rollups + critical path, json = full machine-readable "
             "profile, csv = the raw per-period ledger",
    )
    p_prof.add_argument(
        "--top", type=int, default=5,
        help="how many critical-path segments to show (default 5)",
    )
    p_prof.add_argument(
        "--explain-decisions", action="store_true",
        help="name, per coordinator decision, the dominating WAE/badness term",
    )
    p_prof.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the profile to FILE instead of stdout",
    )

    p_exp = sub.add_parser(
        "export", help="run scenarios and export tidy CSVs for plotting"
    )
    p_exp.add_argument("scenarios", help="comma-separated scenario ids")
    p_exp.add_argument("--variants", default="none,adapt",
                       help="comma-separated variants (default none,adapt)")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the scenario × variant grid (0 = all CPUs)",
    )
    p_exp.add_argument("--out", default="results", help="output directory")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a scenario × variant × seed grid through the caching "
             "simulation service",
    )
    p_sweep.add_argument(
        "scenarios",
        help="comma-separated scenario ids (classic and/or substrate)",
    )
    p_sweep.add_argument(
        "--variants", default="adapt",
        help="comma-separated variants for classic scenarios "
             "(default adapt; substrate scenarios have no variants)",
    )
    p_sweep.add_argument(
        "--seeds", default="0", metavar="SPEC",
        help="seeds: comma list and/or A-B ranges, e.g. '0,2,5-7' "
             "(default 0)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="warm-pool worker processes; 0 runs jobs inline in this "
             "process (no spawn cost — right for mostly-cached sweeps)",
    )
    p_sweep.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="serve repeated jobs from the content-addressed result "
             "cache (the default)",
    )
    p_sweep.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="compute every job fresh, bypassing the cache entirely",
    )
    p_sweep.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="disk cache directory (default .repro-cache); entries "
             "persist across invocations",
    )
    p_sweep.add_argument(
        "--json", metavar="FILE", default=None,
        help="write per-job records (summary, cache_hit, elapsed_ms) "
             "as a JSON list",
    )

    p_serve = sub.add_parser(
        "serve",
        help="long-running simulation service: JSONL requests on stdin, "
             "results on stdout",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="warm-pool worker processes (default 1; 0 = inline)",
    )
    p_serve.add_argument(
        "--cache", dest="cache", action="store_true", default=True,
        help="serve repeated requests from the result cache (default)",
    )
    p_serve.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the result cache",
    )
    p_serve.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="disk cache directory (default .repro-cache)",
    )
    p_serve.add_argument(
        "--events", metavar="FILE", default=None,
        help="stream one serving_job trace event per settled request "
             "to FILE as JSONL",
    )
    return parser


# historical alias: the canonical summarizer lives in experiments.report
# (the serving layer's worker processes use it without importing the CLI)
_result_to_dict = result_to_dict


def _print_run_summary(result: RunResult) -> None:
    status = "completed" if result.completed else "HIT TIME GUARD"
    print(f"{result.scenario_id}/{result.variant} (seed {result.seed}): {status}")
    print(f"  runtime:        {result.runtime_seconds:.1f} s "
          f"({result.iterations_done} iterations)")
    print(f"  mean iteration: {result.mean_iteration_duration:.1f} s")
    print(f"  final workers:  {len(result.final_workers)}")
    if result.time_by_category:
        print(f"  time shares:    {format_time_shares(result.time_by_category)}")
    if len(result.wae):
        print("  wae:            "
              + " ".join(f"{v:.2f}" for v in result.wae.values))
    for t, d in result.decisions:
        kind = type(d).__name__
        if kind == "NoAction":
            continue
        print(f"  t={t:6.0f}s {kind:<14} {d.reason}")
    if result.blacklisted_clusters:
        print(f"  blacklisted clusters: {sorted(result.blacklisted_clusters)}")
    if result.learned_min_bandwidth is not None:
        print(f"  learned min bandwidth: {result.learned_min_bandwidth:.0f} B/s")


def _scenario(sid: str):
    """Scenario lookup with a clean CLI error instead of a traceback."""
    try:
        return scenario(sid)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None


def _cmd_list() -> int:
    for sid in sorted(SCENARIOS):
        spec = SCENARIOS[sid]
        print(f"{sid:<5} [{spec.paper_ref}]")
        print(f"      {spec.description}")
    print("substrate scenarios (monitoring/adaptation only, shardable):")
    for sid in sorted(SUBSTRATES):
        print(f"{sid}")
        print(f"      {SUBSTRATES[sid].description}")
    return 0


def _cmd_run_substrate(args: argparse.Namespace, sids: list[str]) -> int:
    """Run substrate scenarios (large_grid): no variants, shardable."""
    payloads = []
    for sid in sids:
        summary = run_large_grid(
            SUBSTRATES[sid], seed=args.seed, shards=args.shards
        )
        print(format_large_grid_summary(summary))
        payloads.append(summary)
    if args.json is not None:
        payload = payloads[0] if len(payloads) == 1 else payloads
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    sids = [s.strip() for s in args.scenario.split(",") if s.strip()]
    substrate_sids = [sid for sid in sids if sid in SUBSTRATES]
    if substrate_sids:
        if len(substrate_sids) != len(sids):
            raise SystemExit(
                "substrate scenarios cannot be mixed with classic scenarios "
                "in one run invocation"
            )
        return _cmd_run_substrate(args, substrate_sids)
    if args.shards != 1:
        raise SystemExit(
            "--shards applies to substrate scenarios only "
            f"(known: {', '.join(sorted(SUBSTRATES))}); classic scenarios "
            "run the full application simulation in one process"
        )
    specs = [_scenario(sid) for sid in sids]
    results = run_scenarios_parallel(
        [(spec, args.variant, args.seed) for spec in specs],
        n_jobs=args.jobs,
        config=RunConfig(shards=args.shards),
    )
    for result in results:
        _print_run_summary(result)
    if args.json is not None:
        # a single scenario keeps the historical dict payload; a list of
        # scenarios writes a list in the order they were given.
        payload = (
            _result_to_dict(results[0])
            if len(results) == 1
            else [_result_to_dict(r) for r in results]
        )
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec = _scenario(args.scenario)
    none = run_scenario(spec, "none", seed=args.seed)
    adapt = run_scenario(spec, "adapt", seed=args.seed)
    print(format_iteration_series(
        none, adapt,
        figure=f"scenario {spec.id}",
        caption=spec.description,
    ))
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    sids = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    jobs = [
        (_scenario(sid), v, args.seed) for sid in sids for v in VARIANTS
    ]
    results = iter(run_scenarios_parallel(jobs, n_jobs=args.jobs))
    table = {sid: {v: next(results) for v in VARIANTS} for sid in sids}
    print(format_fig1(table))
    return 0


def _parse_event_kinds(spec: str) -> Optional[list[str]]:
    """--events value → kinds filter (None = record everything).

    Unknown (or no) kinds are a usage error: one line on stderr naming
    the valid kinds, exit status 2 (argparse's usage-error convention).
    """
    spec = spec.strip()
    if spec == "all":
        return None
    if spec == "lifecycle":
        # everything except the two per-occurrence firehoses
        return [k for k in EVENT_KINDS if k not in ("steal_attempt", "span")]
    kinds = [k.strip() for k in spec.split(",") if k.strip()]
    unknown = sorted(set(kinds) - set(EVENT_KINDS))
    if unknown or not kinds:
        what = (
            f"unknown event kind(s) {', '.join(unknown)}"
            if unknown
            else "no event kinds given"
        )
        print(
            f"repro trace: error: {what}; valid kinds: "
            f"{', '.join(EVENT_KINDS)} (or 'all' / 'lifecycle')",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return kinds


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = _scenario(args.scenario)
    kinds = _parse_event_kinds(args.events)
    if args.stream:
        # bounded-memory path: events go straight to the sink, nothing
        # accumulates in the bus (the 100k-node / long-horizon mode).
        if args.out is None:
            print(
                "repro trace: error: --stream requires --out FILE",
                file=sys.stderr,
            )
            raise SystemExit(2)
        if (args.format or "jsonl") != "jsonl" or args.out.endswith(".csv"):
            print(
                "repro trace: error: --stream writes jsonl only",
                file=sys.stderr,
            )
            raise SystemExit(2)
        sink = JsonlSink(args.out)
        try:
            obs = Observability.streaming(sink=sink, kinds=kinds)
            run_scenario(
                spec, args.variant, seed=args.seed, config=RunConfig(obs=obs)
            )
        finally:
            sink.close()
        print(f"streamed {obs.bus.emitted} events to {args.out}")
        return 0
    obs = Observability.enabled(kinds=kinds)
    run_scenario(spec, args.variant, seed=args.seed, config=RunConfig(obs=obs))
    events = obs.bus.events
    if args.out is None:
        write_events(events, sys.stdout, fmt=args.format or "jsonl")
        return 0
    n = write_events(events, args.out, fmt=args.format)
    counts = ", ".join(f"{k}={v}" for k, v in obs.bus.counts().items())
    print(f"wrote {n} events to {args.out} ({counts})")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    spec = _scenario(args.scenario)
    if args.max_events is not None or args.histogram_window is not None:
        # capped mode: bounded event ring and/or histogram windows, with
        # the evictions surfaced below instead of silently discarded
        obs = Observability(
            metrics=MetricsRegistry(
                enabled=True, histogram_max_samples=args.histogram_window
            ),
            bus=TraceBus(enabled=True, max_events=args.max_events),
        )
    else:
        obs = Observability.enabled()
    run_scenario(spec, args.variant, seed=args.seed, config=RunConfig(obs=obs))
    rows = obs.metrics.to_rows()
    if not rows:
        print("no metrics recorded")
        return 0
    name_w = max(len(r["name"]) for r in rows)
    label_w = max(len(r["labels"]) for r in rows)
    for row in rows:
        stats = " ".join(
            f"{k}={row[k]:.6g}"
            for k in ("value", "count", "sum", "min", "max", "p50", "p90",
                      "p99", "window", "dropped")
            if k in row
        )
        print(f"{row['name']:<{name_w}}  {row['labels']:<{label_w}}  {stats}")
    # the bus accounting line: how many events the run emitted, how many
    # the in-memory stream retained, and how many the ring evicted —
    # dropped events must be visible, not silent
    bus = obs.bus
    print(f"bus: emitted={bus.emitted} kept={len(bus)} "
          f"dropped={bus.dropped_events}")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    spec = _scenario(args.scenario)
    profile = profile_scenario(spec, args.variant, seed=args.seed)
    text = format_profile(
        profile, fmt=args.format, top=args.top, explain=args.explain_decisions
    )
    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import export_runs

    sids = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise SystemExit(f"unknown variant {v!r}; choose from {VARIANTS}")
    runs = run_scenarios_parallel(
        [
            (_scenario(sid), v, args.seed)
            for sid in sids
            for v in variants
        ],
        n_jobs=args.jobs,
    )
    for path in export_runs(runs, args.out):
        print(f"wrote {path}")
    return 0


def _parse_seeds(spec: str) -> list[int]:
    """``"0,2,5-7"`` → ``[0, 2, 5, 6, 7]`` (order kept, duplicates too)."""
    seeds: list[int] = []
    for part in (p.strip() for p in spec.split(",")):
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            if dash:
                first, last = int(lo), int(hi)
                if last < first:
                    raise ValueError
                seeds.extend(range(first, last + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise SystemExit(
                f"repro sweep: error: bad --seeds element {part!r} "
                "(expected an integer or an A-B range)"
            ) from None
    if not seeds:
        raise SystemExit("repro sweep: error: --seeds selected no seeds")
    return seeds


def _sweep_jobs(args: argparse.Namespace) -> list:
    """The sweep's job list: scenarios × variants × seeds, input order."""
    from .serving import SweepJob

    sids = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            raise SystemExit(
                f"repro sweep: error: unknown variant {v!r}; "
                f"choose from {VARIANTS}"
            )
    unknown = [s for s in sids if s not in SCENARIOS and s not in SUBSTRATES]
    if unknown or not sids:
        raise SystemExit(
            f"repro sweep: error: unknown scenario(s) "
            f"{', '.join(unknown) or '(none given)'}; known: "
            f"{', '.join(sorted(SCENARIOS) + sorted(SUBSTRATES))}"
        )
    seeds = _parse_seeds(args.seeds)
    jobs = []
    for sid in sids:
        if sid in SUBSTRATES:
            # substrate scenarios have no application variants: one job
            # per seed, however many --variants were asked for
            jobs.extend(SweepJob(sid, seed=seed) for seed in seeds)
        else:
            jobs.extend(
                SweepJob(sid, variant, seed)
                for variant in variants
                for seed in seeds
            )
    return jobs


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .serving import ResultCache, SimulationService

    jobs = _sweep_jobs(args)
    cache = ResultCache(directory=args.cache_dir) if args.cache else None
    # no context manager: entering would spawn the pool eagerly, and a
    # fully-cached sweep should answer without paying any spawn cost
    service = SimulationService(args.workers, cache=cache)
    try:
        results = service.sweep(jobs)
    finally:
        service.close()
    errors = 0
    for served in results:
        if served.ok:
            source = "cached  " if served.cache_hit else "computed"
            runtime = served.summary.get("runtime_seconds")
            tail = f" runtime={runtime:.1f}s" if runtime is not None else ""
            print(
                f"{served.scenario}/{served.variant} seed {served.seed}: "
                f"{source} ({served.elapsed_ms:.1f} ms){tail}"
            )
        else:
            errors += 1
            print(
                f"{served.scenario}/{served.variant} seed {served.seed}: "
                f"ERROR {served.error.error_type}: {served.error.message}"
            )
    hits = sum(1 for r in results if r.cache_hit)
    print(
        f"sweep: {len(results)} jobs, {hits} cached, "
        f"{len(results) - hits - errors} computed, {errors} errors"
    )
    if args.json is not None:
        payload = [
            {
                "scenario": r.scenario,
                "variant": r.variant,
                "seed": r.seed,
                "ok": r.ok,
                "cache_hit": r.cache_hit,
                "elapsed_ms": r.elapsed_ms,
                "summary": r.summary,
                "error": (
                    None
                    if r.ok
                    else {
                        "stage": r.error.stage,
                        "type": r.error.error_type,
                        "message": r.error.message,
                    }
                ),
            }
            for r in results
        ]
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The service loop: JSONL requests on stdin, JSONL results on stdout.

    One request per line: ``{"scenario": "s1", "variant": "adapt",
    "seed": 0}`` (variant/seed optional). Responses carry the request's
    ``ticket`` so they remain attributable when computations finish out
    of order; malformed requests get an error response with no ticket.
    Stats go to stderr at EOF so stdout stays a pure result stream.
    """
    import queue as queue_mod

    from .serving import ResultCache, SimulationService, SweepJob

    cache = ResultCache(directory=args.cache_dir) if args.cache else None
    sink = JsonlSink(args.events) if args.events is not None else None
    obs = Observability.streaming(sink=sink, kinds=["serving_job"])

    def respond(ticket: int, served) -> None:
        payload = {
            "ticket": ticket,
            "scenario": served.scenario,
            "variant": served.variant,
            "seed": served.seed,
            "ok": served.ok,
            "cache_hit": served.cache_hit,
            "elapsed_ms": round(served.elapsed_ms, 3),
        }
        if served.ok:
            payload["summary"] = served.summary
        else:
            payload["error"] = {
                "stage": served.error.stage,
                "type": served.error.error_type,
                "message": served.error.message,
            }
        print(json.dumps(payload, sort_keys=True), flush=True)

    served_count = 0
    try:
        with SimulationService(args.workers, cache=cache, obs=obs) as service:
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    ticket = service.submit(
                        SweepJob(
                            scenario=request["scenario"],
                            variant=request.get("variant", "adapt"),
                            seed=int(request.get("seed", 0)),
                        )
                    )
                except Exception as exc:  # noqa: BLE001 - protocol boundary
                    print(
                        json.dumps(
                            {"ok": False, "error": {"stage": "request",
                             "type": type(exc).__name__,
                             "message": str(exc)}},
                            sort_keys=True,
                        ),
                        flush=True,
                    )
                    continue
                # drain whatever has settled (cache hits settle at once);
                # in-flight computations keep overlapping with stdin reads
                while service.ready:
                    respond(*service.poll())
                    served_count += 1
                if service.outstanding:
                    try:
                        respond(*service.poll(timeout=0))
                        served_count += 1
                    except queue_mod.Empty:
                        pass
            while service.outstanding:
                respond(*service.poll())
                served_count += 1
            stats = service.stats()
    finally:
        if sink is not None:
            sink.close()
    print(
        f"repro serve: {served_count} requests served; {json.dumps(stats)}",
        file=sys.stderr,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fig1":
        return _cmd_fig1(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "export":
        return _cmd_export(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
