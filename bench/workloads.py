"""The four workloads: job plans, the closed-loop phases, and the checks.

A *job* is one public call that yields one run summary. Job lists are a
pure function of ``(workload, --seed, --seconds)``: the count comes from
a table of nominal per-job costs (seconds on the reference box), never
from the clock, so the same arguments always do the same work and the
count metrics repeat exactly. Everything the program sees is generated
here. ``--seed`` draws the inputs that are a sample — the large grid's
node dynamics and the sweep's seeds, ``1000 * seed + i`` — while the two
paper workloads run the paper's scenarios at the repo's default seeds
(what ``repro run`` and ``repro fig1`` use): a simulation seed moves a
paper-scale job's event count by up to ±11 % (s4/adapt: 806 k to 1 001 k
events over six seeds), more than the bound a three-job run is held to.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from probes import canonical_digest

WORKLOADS = ("paper_steady", "paper_events", "large_grid", "serving_sweep")

#: paper_events, in priority order: (scenario, variant, nominal seconds).
#: A run takes the longest prefix whose nominal cost reaches ``--seconds``.
EVENT_JOBS = (
    ("s6", "adapt", 6.0),    # two clusters crash: fault recovery, re-joins
    ("s4", "adapt", 7.0),    # 25 kB/s uplink: whole-cluster removal, blacklist
    ("s4", "none", 11.0),    # the same uplink with nobody adapting (fig1's long pole)
    ("s3", "adapt", 7.0),    # CPU overload: per-node evictions
    ("s2a", "adapt", 3.5),   # start on 4 nodes: joins only
    ("s5", "adapt", 8.0),    # throttle + load: dead-band regime
)
STEADY_VARIANTS = ("adapt", "monitor", "none")
STEADY_NOMINAL = 7.0
LARGE_GRID_NOMINAL = 0.24
#: one s2a none/monitor miss on one of two workers, per job of the sweep
SERVING_NOMINAL = 1.0 / 3.0
SERVING_VARIANTS = ("none", "monitor")

N_WORKERS = 2
OUTSTANDING = 2
HIT_ROUNDS = 100        # serving_sweep re-queries every key this often
DISK_ROUNDS = 10        # fresh ResultCache objects over the same directory
MIN_REQUERY_HITS = 2000  # the other workloads' re-query epilogue
SMOKE_HITS = 40
WARM_ITERATIONS = 2     # of 24: the warm-up run of a paper scenario


@dataclass(frozen=True)
class Job:
    scenario: str
    variant: str
    seed: int

    @property
    def key(self) -> str:
        return f"{self.scenario}/{self.variant}/{self.seed}"

    @property
    def kind(self) -> str:
        return f"{self.scenario}-{self.variant}"


def plan(workload: str, seed: int, budget: float) -> list[Job]:
    """The job list: table rows until their nominal cost reaches ``budget``
    (always at least one, so ``budget=0`` is the one-job smoke plan)."""
    base = 1000 * seed
    if workload == "paper_steady":
        table = (
            ("s1", STEADY_VARIANTS[i % 3], i // 3, STEADY_NOMINAL)
            for i in range(10**6)
        )
    elif workload == "paper_events":
        table = ((s, v, 0, cost) for s, v, cost in EVENT_JOBS)
    elif workload == "large_grid":
        table = (
            ("large_grid", "-", base + i, LARGE_GRID_NOMINAL)
            for i in range(10**6)
        )
    elif workload == "serving_sweep":
        table = (
            ("s2a", SERVING_VARIANTS[i % 2], base + i // 2, SERVING_NOMINAL)
            for i in range(10**6)
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    jobs: list[Job] = []
    total = 0.0
    for scenario, variant, sim_seed, cost in table:
        if jobs and total >= budget - 1e-9:
            break
        jobs.append(Job(scenario, variant, sim_seed))
        total += cost
    return jobs


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- bench-side spans ---------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self.tracer, self.record = tracer, record

    def __enter__(self) -> None:
        self.tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()


class _NoSpan:
    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc_info) -> None:
        pass


class Tracer:
    """Spans around each public call: ``name, start, end, parent, job``.

    Kept in memory; ``run.py`` writes them out when the run ends. Off
    (the end-to-end runs) every ``span()`` is one shared no-op object.
    """

    _OFF = _NoSpan()

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name: str, job: Optional[str] = None):
        if not self.enabled:
            return self._OFF
        record = {
            "id": len(self.spans),
            "name": name,
            "job": job,
            "parent": self.stack[-1] if self.stack else None,
        }
        self.spans.append(record)
        return _Span(self, record)


# -- running jobs -------------------------------------------------------------


@dataclass
class Context:
    """What set-up built: the façade, the inputs, and (serving) the service."""

    api: Any
    result_to_dict: Any
    workload: str
    jobs: list[Job]
    specs: dict[str, Any]
    tracer: Tracer
    service: Any = None
    cache_dir: Optional[str] = None
    expected: dict[str, str] = field(default_factory=dict)
    _leaves: dict[str, int] = field(default_factory=dict)

    def expected_leaves(self, scenario: str) -> int:
        """Leaf tasks of the scenario's spawn trees: a run that loses no
        work executes exactly these, a run that recovers from faults more."""
        if scenario not in self._leaves:
            app = self.specs[scenario].app_factory()
            self._leaves[scenario] = sum(
                it.tree.leaf_count() for it in app.iterations()
            )
        return self._leaves[scenario]


@dataclass
class Done:
    """One finished job; ``counts`` holds the traced run's layer counters."""

    job: Job
    wall: float
    summary: dict
    digest: str
    problems: list[str]
    counts: dict[str, float] = field(default_factory=dict)


def run_job(ctx: Context, job: Job, traced: bool) -> Done:
    """One job, timed from the public call to its summary dict."""
    api, span = ctx.api, ctx.tracer.span
    spec = ctx.specs[job.scenario]
    counts: dict[str, float] = {}
    gc.collect()
    with span("job", job.key):
        if job.scenario == "large_grid":
            t0 = time.perf_counter()
            with span("run_large_grid", job.key):
                summary = api.run_large_grid(spec, job.seed, shards=1)
            wall = time.perf_counter() - t0
            problems = check_large_grid(spec, summary)
            if traced:
                counts = large_grid_counts(summary)
        else:
            obs = api.Observability.enabled() if traced else None
            config = api.RunConfig(obs=obs) if traced else None
            t0 = time.perf_counter()
            with span("run_scenario", job.key):
                result = api.run_scenario(spec, job.variant, job.seed, config=config)
            with span("result_to_dict", job.key):
                summary = ctx.result_to_dict(result)
            wall = time.perf_counter() - t0
            problems = check_scenario(ctx, job, summary)
            if traced:
                counts = scenario_counts(result, obs)
        with span("digest", job.key):
            digest = canonical_digest(summary)
    want = ctx.expected.get(job.key)
    if want is not None and want != digest:
        problems.append(f"digest {digest[:12]} != expected {want[:12]}")
    return Done(job, wall, summary, digest, problems, counts)


def check_scenario(ctx: Context, job: Job, summary: dict) -> list[str]:
    spec = ctx.specs[job.scenario]
    problems = []
    if not summary["completed"]:
        problems.append("did not complete")
    want_iterations = spec.app_factory.config.n_iterations
    if summary["iterations_done"] != want_iterations:
        problems.append(
            f"{summary['iterations_done']} of {want_iterations} iterations"
        )
    want_leaves = ctx.expected_leaves(job.scenario)
    if summary["executed_leaves"] < want_leaves:
        problems.append(f"{summary['executed_leaves']} of {want_leaves} leaves")
    return problems


def check_large_grid(spec: Any, summary: dict) -> list[str]:
    problems = []
    if len(summary["periods"]) != spec.periods:
        problems.append(f"{len(summary['periods'])} of {spec.periods} periods")
    if summary["final_nodes"] <= 0:
        problems.append("no nodes left")
    return problems


def scenario_counts(result: Any, obs: Any) -> dict[str, float]:
    """The layer counters of one traced scenario run (exact for a seed)."""
    reg = obs.metrics
    counts = {
        "events": reg.value("engine_events_processed"),
        "scheduled": reg.value("engine_scheduled"),
        "rebuilds": reg.value("engine_rebuilds"),
        "tombstones": reg.value("engine_cancelled_tombstones"),
        "max_queue_len": reg.value("engine_max_queue_len"),
        "pool_reuses": reg.value("engine_timeout_pool_reuses"),
        "reports": reg.total("monitoring_reports"),
        "leaves": float(result.executed_leaves),
        "emitted": float(obs.bus.emitted),
        "sim_total": sum(result.time_by_category.values()),
    }
    for category in ("busy", "idle", "comm_inter"):
        counts[f"sim_{category}"] = result.time_by_category.get(category, 0.0)
    for instrument in reg:
        if instrument.name in ("steals_attempted", "steals_successful"):
            name = f"{instrument.name}.{dict(instrument.labels)['mode']}"
            counts[name] = counts.get(name, 0.0) + instrument.value
    for _, decision in result.decisions:
        name = f"decisions.{type(decision).__name__}"
        counts[name] = counts.get(name, 0.0) + 1.0
    return counts


def large_grid_counts(summary: dict) -> dict[str, float]:
    counts = {
        f"decisions.{kind}": float(n)
        for kind, n in summary["decision_counts"].items()
    }
    counts["refolds"] = float(summary["refolds"])
    counts["final_nodes"] = float(summary["final_nodes"])
    counts["total_churned"] = float(summary["total_churned"])
    counts["node_periods"] = float(sum(row["nodes"] for row in summary["periods"]))
    return counts


def warm_up(ctx: Context, service: Any = None) -> None:
    """The last step of set-up: one small run of the plan's first kind, so
    that lazy imports and first-call costs are paid before the first timed
    job, and set-up time is more than one cold import (whose cost drifts
    by 20 % over minutes on the reference box). A paper scenario is cut to
    ``WARM_ITERATIONS`` iterations; a large-grid run is small as it is;
    serving_sweep sends one cut-down request per pool worker through the
    service, which makes each worker import the simulator."""
    api, first = ctx.api, ctx.jobs[0]
    service = service or ctx.service
    spec = ctx.specs[first.scenario]
    if first.scenario == "large_grid":
        api.run_large_grid(spec, first.seed, shards=1)
        return
    factory = spec.app_factory
    config = replace(factory.config, n_iterations=WARM_ITERATIONS)
    small = replace(spec, app_factory=replace(factory, config=config))
    if service is None:
        api.run_scenario(small, first.variant, first.seed)
        return
    for worker in range(N_WORKERS):
        service.submit(api.SweepJob(small, first.variant, first.seed + worker))
    for _ in range(N_WORKERS):
        _, served = service.poll(timeout=120.0)
        if not served.ok:
            raise RuntimeError(f"warm-up request failed: {served.error}")


def run_jobs(ctx: Context, jobs: list[Job], traced: bool, gate: Any = None) -> list[Done]:
    """Every job in turn. With a ``probes.QuietGate`` each job waits for a
    quiet host, and one that a slow episode caught up with runs again while
    the gate's budget lasts: the fastest attempt is the job's measurement,
    and all attempts must agree on the digest."""
    if gate is None:
        return [run_job(ctx, job, traced) for job in jobs]
    done = []
    for job in jobs:
        best, *others = gate.undisturbed(
            lambda: run_job(ctx, job, traced), lambda d: d.wall
        )
        for other in others:
            best.problems += other.problems
            if other.digest != best.digest:
                best.problems.append("a same-seed rerun gave another digest")
        done.append(best)
    return done


# -- the serving front --------------------------------------------------------


def sweep_job(ctx: Context, job: Job) -> Any:
    """The serving request for ``job`` (substrate runs ignore the variant;
    "adapt" is ``SweepJob``'s own default, which the cache key includes)."""
    variant = "adapt" if job.scenario == "large_grid" else job.variant
    return ctx.api.SweepJob(ctx.specs[job.scenario], variant, job.seed)


@dataclass
class Hits:
    """One phase of cache hits: per-request latency and what went wrong."""

    seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def hit_phase(
    ctx: Context, service: Any, done: list[Done], rounds: int,
    name: str, by_digest: bool, limit: Optional[int] = None,
) -> Hits:
    """Re-query every finished job ``rounds`` times, one outstanding.

    Each hit must be a cache hit and equal the freshly computed summary:
    by canonical digest (byte for byte) when ``by_digest``, else by value.
    """
    span = ctx.tracer.span
    requests = [(d, sweep_job(ctx, d.job)) for d in done]
    hits = Hits()
    for _ in range(rounds):
        for d, request in requests:
            if limit is not None and len(hits.seconds) >= limit:
                return hits
            t0 = time.perf_counter()
            with span(name, d.job.key):
                service.submit(request)
                _, served = service.poll()
            hits.seconds.append(time.perf_counter() - t0)
            if not (served.ok and served.cache_hit):
                hits.problems.append(f"{d.job.key}: {name} was not a cache hit")
            elif by_digest and canonical_digest(served.summary) != d.digest:
                hits.problems.append(f"{d.job.key}: {name} differs from its miss")
            elif not by_digest and served.summary != d.summary:
                hits.problems.append(f"{d.job.key}: {name} differs from its miss")
    return hits


def memory_hits(
    ctx: Context, service: Any, done: list[Done], rounds: int, smoke: bool,
    gate: Any = None,
) -> Hits:
    """``rounds`` rounds of hits: the first checked byte for byte, the
    rest by value (a memory hit hands back the stored object). With a
    ``probes.QuietGate`` the phase waits for a quiet host and is repeated
    if a slow episode caught up with it; the fastest attempt is reported."""
    if smoke:
        return hit_phase(ctx, service, done, SMOKE_HITS, "hit",
                         by_digest=True, limit=SMOKE_HITS)

    def phase() -> Hits:
        first = hit_phase(ctx, service, done, 1, "hit", by_digest=True)
        rest = hit_phase(ctx, service, done, rounds - 1, "hit", by_digest=False)
        return Hits(first.seconds + rest.seconds, first.problems + rest.problems)

    if gate is None:
        return phase()
    best, *others = gate.undisturbed(phase, lambda hits: sum(hits.seconds))
    for other in others:
        best.problems += other.problems
    return best


def requery(
    ctx: Context, done: list[Done], smoke: bool, gate: Any = None
) -> tuple[Hits, Any]:
    """The epilogue of the three simulation workloads: serve their own
    summaries back through an inline service over a memory cache — what a
    re-run of ``repro sweep`` costs per job of this kind. Returns the hits
    and the cache (for its counters)."""
    api = ctx.api
    cache = api.ResultCache(max_memory_entries=max(512, len(done)))
    service = api.SimulationService(n_workers=0, cache=cache)
    for d in done:
        request = sweep_job(ctx, d.job)
        key = api.cache_key(
            request.scenario, request.variant, request.seed,
            service.default_config,
        )
        cache.put(key, d.summary)
    rounds = math.ceil(MIN_REQUERY_HITS / len(done))
    return memory_hits(ctx, service, done, rounds, smoke, gate), cache


@dataclass
class Sweep:
    """What one serving_sweep pass measured."""

    done: list[Done]
    miss_wall: float
    memory: Hits
    disk: Hits
    cache_stats: dict[str, int]
    pool_stats: dict[str, int]


def miss_phase(ctx: Context, service: Any, jobs: list[Job]) -> tuple[list[Done], float]:
    """Submit every job through ``submit``/``poll`` with two outstanding."""
    span = ctx.tracer.span
    requests = [sweep_job(ctx, job) for job in jobs]
    submitted: dict[int, tuple[int, float]] = {}
    done: dict[int, Done] = {}
    next_index = 0
    t_phase = time.perf_counter()
    while len(done) < len(jobs):
        while next_index < len(jobs) and len(submitted) < OUTSTANDING:
            with span("submit", jobs[next_index].key):
                ticket = service.submit(requests[next_index])
            submitted[ticket] = (next_index, time.perf_counter())
            next_index += 1
        with span("poll"):
            ticket, served = service.poll(timeout=120.0)
        index, t_submit = submitted.pop(ticket)
        wall = time.perf_counter() - t_submit
        job = jobs[index]
        if served.ok:
            summary, problems = served.summary, []
            if served.cache_hit:
                problems.append("a first request was served from the cache")
        else:
            summary, problems = {}, [f"{served.error}"]
        done[index] = Done(job, wall, summary, "", problems)
    miss_wall = time.perf_counter() - t_phase
    ordered = [done[i] for i in range(len(jobs))]
    # checks after the phase, so they do not sit between two submissions
    for d in ordered:
        if not d.summary:
            continue
        d.digest = canonical_digest(d.summary)
        want = ctx.expected.get(d.job.key)
        if want is not None and want != d.digest:
            d.problems.append(f"digest {d.digest[:12]} != expected {want[:12]}")
        d.problems += check_scenario(ctx, d.job, d.summary)
    return ordered, miss_wall


def serving_sweep(ctx: Context, smoke: bool, gate: Any = None) -> Sweep:
    """Miss phase, memory-hit phase, then disk hits from fresh caches. A
    ``probes.QuietGate`` holds the miss phase back until the host is quiet
    (its keys are misses only once, so it is not repeated) and guards the
    memory hits."""
    api, service = ctx.api, ctx.service
    if gate is not None:
        gate.wait()
    done, miss_wall = miss_phase(ctx, service, ctx.jobs)
    served = [d for d in done if d.summary]
    memory = memory_hits(ctx, service, served, HIT_ROUNDS, smoke, gate)
    disk_rounds = 1 if smoke else DISK_ROUNDS
    disk = Hits()
    stats = dict(service.cache.stats.to_dict())
    for _ in range(disk_rounds):
        fresh = api.ResultCache(directory=ctx.cache_dir)
        inline = api.SimulationService(n_workers=0, cache=fresh)
        one = hit_phase(ctx, inline, served, 1, "disk_hit", by_digest=True)
        disk.seconds += one.seconds
        disk.problems += one.problems
        if fresh.stats.disk_hits != len(one.seconds):
            disk.problems.append("a disk round was not served from disk")
        for name, value in fresh.stats.to_dict().items():
            stats[name] += value
    return Sweep(done, miss_wall, memory, disk, stats, dict(service.pool.stats))


# -- per-layer metrics of a traced run ----------------------------------------


def _ratio(useful: float, attempts: float) -> float:
    return useful / attempts if attempts else 0.0


def layer_metrics(
    traced: list[Done], reference: list[Done], hits: Hits,
    cache_stats: dict[str, int], sweep: Optional[Sweep],
) -> dict[str, float]:
    """Every workload-derived per-layer metric (probes are added by the
    caller); a layer the workload does not run reports 0."""
    total: defaultdict[str, float] = defaultdict(float)
    for d in traced:
        for name, value in d.counts.items():
            if name == "max_queue_len":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    get = total.__getitem__

    # reference jobs are the untraced re-runs of the first traced kind
    ref_keys = {d.job.key for d in reference}
    ref_wall = sum(d.wall for d in reference)
    paired = [d for d in traced if d.job.key in ref_keys]
    paired_wall = sum(d.wall for d in paired)
    paired_events = sum(d.counts.get("events", 0.0) for d in paired)
    paired_node_periods = sum(d.counts.get("node_periods", 0.0) for d in paired)

    attempts = get("steals_attempted.sync") + get("steals_attempted.async")
    useful = get("steals_successful.sync") + get("steals_successful.async")
    out = {
        "simgrid.engine.events": get("events"),
        "simgrid.engine.scheduled": get("scheduled"),
        "simgrid.engine.rebuilds": get("rebuilds"),
        "simgrid.engine.tombstones": get("tombstones"),
        "simgrid.engine.max_queue_len": get("max_queue_len"),
        "simgrid.engine.timeout_pool_reuse_ratio": _ratio(get("pool_reuses"), get("scheduled")),
        "experiments.runner.host_us_per_event": _ratio(ref_wall, paired_events) * 1e6,
        "satin.steals_attempted.sync": get("steals_attempted.sync"),
        "satin.steals_attempted.async": get("steals_attempted.async"),
        "satin.steals_successful.sync": get("steals_successful.sync"),
        "satin.steals_successful.async": get("steals_successful.async"),
        "satin.steal_success_ratio": _ratio(useful, attempts),
        "satin.leaves_executed": get("leaves"),
        "satin.monitoring_reports": get("reports"),
        "satin.sim_busy_frac": _ratio(get("sim_busy"), get("sim_total")),
        "satin.sim_idle_frac": _ratio(get("sim_idle"), get("sim_total")),
        "satin.sim_comm_inter_frac": _ratio(get("sim_comm_inter"), get("sim_total")),
        "core.decisions.add_nodes": get("decisions.AddNodes"),
        "core.decisions.remove_nodes": get("decisions.RemoveNodes"),
        "core.decisions.remove_cluster": get("decisions.RemoveCluster"),
        "core.decisions.no_action": get("decisions.NoAction"),
        "core.refolds": get("refolds"),
        "core.us_per_node_period": _ratio(ref_wall, paired_node_periods) * 1e6,
        "experiments.largegrid.final_nodes": get("final_nodes"),
        "experiments.largegrid.total_churned": get("total_churned"),
        "experiments.largegrid.job_s.p90": 0.0,
        "experiments.runner.job_s.s4-adapt": 0.0,
        "experiments.runner.job_s.s6-adapt": 0.0,
        "obs.events_emitted": get("emitted"),
        "obs.trace_overhead_frac": _ratio(paired_wall, ref_wall) - 1.0 if ref_wall else 0.0,
    }
    grid_walls = [d.wall for d in traced if d.job.scenario == "large_grid"]
    if grid_walls:
        out["experiments.largegrid.job_s.p90"] = percentile(grid_walls, 90)
    for d in traced:
        name = f"experiments.runner.job_s.{d.job.kind}"
        if name in out:
            out[name] = d.wall

    lookups = cache_stats["hits"] + cache_stats["misses"]
    out.update({
        f"serving.cache.{name}": float(cache_stats[name])
        for name in ("hits", "memory_hits", "disk_hits", "misses", "stores", "evictions")
    })
    out["serving.cache.hit_ratio"] = _ratio(cache_stats["hits"], lookups)
    out["serving.service.hit_ms.p99"] = percentile(hits.seconds, 99) * 1e3
    out["serving.service.disk_hit_ms.p50"] = 0.0
    out["serving.service.miss_job_s.p90"] = 0.0
    out["serving.pool.worker_busy_frac"] = 0.0
    out["serving.pool.retries"] = 0.0
    out["serving.pool.spawned"] = 0.0
    if sweep is not None:
        walls = [d.wall for d in sweep.done]
        out["serving.service.disk_hit_ms.p50"] = statistics.median(sweep.disk.seconds) * 1e3
        out["serving.service.miss_job_s.p90"] = percentile(walls, 90)
        # share of the phase each of the two request slots held a job
        out["serving.pool.worker_busy_frac"] = sum(walls) / (N_WORKERS * sweep.miss_wall)
        out["serving.pool.retries"] = float(sweep.pool_stats["retries"])
        out["serving.pool.spawned"] = float(sweep.pool_stats["spawned"])
    return out
