"""Experiment runner: one scenario × one variant → one measured run.

The paper compares, per scenario, three variants of the same application:

* ``"none"`` — no monitoring, no benchmarking, no coordinator: the plain
  non-adaptive run (*runtime 1* in the paper);
* ``"adapt"`` — full adaptation support (*runtime 2*);
* ``"monitor"`` — statistics collection and benchmarking on, but the
  coordinator never acts (*runtime 3*): isolates the monitoring overhead
  from the adaptation benefit.

Each run is completely self-contained (fresh environment, network,
registry, runtime, application) and deterministic given the seed.
"""

from __future__ import annotations

import os
import traceback
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Sequence, Union

import numpy as np

from ..config import RunConfig
from ..core.bwestimator import BandwidthEstimator
from ..core.coordinator import AdaptationCoordinator, CoordinatorConfig
from ..core.policy import AdaptationPolicy, Decision
from ..harness import Harness
from ..obs import Observability
from ..satin.app import AppDriver
from ..satin.benchmarking import BenchmarkConfig
from ..satin.runtime import SatinRuntime
from ..satin.worker import WorkerConfig
from ..simgrid.engine import AnyOf
from ..simgrid.events import CrashEvent, EventInjector, GridEvent
from ..simgrid.trace import Series
from ..zorilla.scheduler import ResourcePool
from .scenarios import ScenarioSpec

__all__ = ["RunResult", "VARIANTS", "run_scenario", "run_scenarios_parallel"]

VARIANTS = ("none", "monitor", "adapt")


@dataclass
class RunResult:
    """Everything measured in one run."""

    scenario_id: str
    variant: str
    seed: int
    completed: bool
    runtime_seconds: float
    iterations_done: int
    iteration_times: np.ndarray      # wall-clock (sim) time of each barrier
    iteration_durations: np.ndarray  # seconds per iteration
    wae: Series
    nworkers: Series
    decisions: list[tuple[float, Decision]]
    adaptation_log: list[tuple[float, str, dict[str, Any]]]
    final_workers: list[str]
    executed_leaves: int
    time_by_category: dict[str, float]
    blacklisted_nodes: frozenset[str] = frozenset()
    blacklisted_clusters: frozenset[str] = frozenset()
    learned_min_bandwidth: Optional[float] = None
    #: GridSnapshots index-aligned with ``decisions`` (empty without a
    #: coordinator)
    decision_snapshots: list[Any] = field(default_factory=list)

    @property
    def mean_iteration_duration(self) -> float:
        return float(np.mean(self.iteration_durations)) if len(
            self.iteration_durations
        ) else float("nan")

    def bench_overhead_fraction(self) -> float:
        """Benchmark time as a fraction of total accounted worker time."""
        total = sum(self.time_by_category.values())
        return self.time_by_category.get("bench", 0.0) / total if total else 0.0


class _CrashBridge:
    """Connects injected crash events to the runtime's crash handling."""

    def __init__(self, runtime: SatinRuntime) -> None:
        self.runtime = runtime

    def on_grid_event(self, event: GridEvent, details: dict[str, Any]) -> None:
        if isinstance(event, CrashEvent):
            for node in details["nodes"]:
                self.runtime.crash_node(node)


def _worker_config(spec: ScenarioSpec, variant: str) -> WorkerConfig:
    if variant == "none":
        return WorkerConfig(
            monitoring_period=spec.monitoring_period,
            collect_stats=False,
            benchmark=None,
        )
    # The benchmark is "the same application with a small problem size":
    # ~1.5 work units ≈ a small Barnes-Hut step. A 3% overhead budget makes
    # it run 1-2 times per monitoring period (the paper's cadence), so a
    # speed change is detected within about one period.
    return WorkerConfig(
        monitoring_period=spec.monitoring_period,
        collect_stats=True,
        benchmark=BenchmarkConfig(work=1.5, max_overhead=0.03, noise=0.02),
    )


def run_scenario(
    spec: ScenarioSpec, variant: str, seed: int = 0,
    *,
    config: Optional[RunConfig] = None,
    obs: Optional[Observability] = None,
) -> RunResult:
    """Execute one scenario under one variant; returns the measurements.

    ``config`` (a :class:`~repro.config.RunConfig`) controls how the
    stack is wired: pass an enabled :class:`~repro.obs.Observability` via
    ``RunConfig(obs=...)`` to capture the run's full event stream and
    metrics (``repro trace`` / ``repro metrics`` do; by default telemetry
    is disabled and costs nothing). Fields the scenario itself determines
    (worker config, crash detection delay) default from ``spec`` and
    ``variant`` unless the config overrides them.

    The loose ``obs=`` keyword is a deprecated shim for the same field.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if obs is not None:
        if config is not None:
            raise TypeError("pass obs inside RunConfig, not as a loose keyword")
        warnings.warn(
            "run_scenario(obs=...) is deprecated; pass config=RunConfig(obs=...)",
            DeprecationWarning,
            stacklevel=2,
        )
        config = RunConfig(obs=obs)
    cfg = config if config is not None else RunConfig()

    harness = Harness.build(
        spec.grid,
        seed=seed,
        config=replace(
            cfg,
            worker=(
                cfg.worker
                if cfg.worker is not None
                else _worker_config(spec, variant)
            ),
            detection_delay=(
                cfg.detection_delay
                if cfg.detection_delay is not None
                else spec.crash_detection_delay
            ),
        ),
    )
    env, network, runtime = harness.env, harness.network, harness.runtime
    trace = harness.trace

    injector = EventInjector(env, network, list(spec.events))
    injector.add_listener(_CrashBridge(runtime))
    injector.start()

    pool = ResourcePool(network)
    initial = spec.initial_nodes()
    pool.mark_allocated(initial)
    runtime.add_nodes(initial)

    coordinator: Optional[AdaptationCoordinator] = None
    if variant in ("monitor", "adapt"):
        coordinator = AdaptationCoordinator(
            runtime=runtime,
            pool=pool,
            policy=AdaptationPolicy(spec.policy),
            config=CoordinatorConfig(
                monitoring_period=spec.monitoring_period,
                # enough slack for the period's reports (including from
                # workers that roll over a few seconds late, mid-task) to
                # cross the WAN before the decision is taken
                decision_slack=spec.monitoring_period * 0.15,
                node_startup_delay=2.0,
                adaptation_enabled=(variant == "adapt"),
            ),
        )
        estimator = BandwidthEstimator(window_seconds=spec.monitoring_period * 2)
        estimator.attach(network)
        coordinator.bandwidth_estimator = estimator
        coordinator.start()

    app = spec.app_factory()
    driver = AppDriver(runtime, app)
    proc = driver.start()

    guard = env.timeout(spec.max_sim_time)
    env.run(until=AnyOf(env, [proc, guard]))
    completed = proc.triggered

    # Close every ledger recorder's trailing period (no-op when the
    # attribution tier is disabled); departed workers already finalized.
    harness.obs.attribution.finalize(float(env.now))

    # Streaming-export sinks flush at end of run (CsvSink buffers rows
    # until close to compute its union header).
    for sink in cfg.sinks:
        sink.close()

    if harness.obs.is_enabled:
        harness.capture_engine_metrics()
        harness.obs.metrics.gauge("run_completed").set(1.0 if completed else 0.0)
        harness.obs.metrics.gauge("final_workers").set(runtime.size)

    iteration_series = trace.series("iteration_duration")
    time_by_category: dict[str, float] = {}
    for worker in runtime.all_workers_ever():
        for cat in ("busy", "idle", "comm_intra", "comm_inter", "bench"):
            time_by_category[cat] = (
                time_by_category.get(cat, 0.0) + worker.account.lifetime(cat)
            )

    return RunResult(
        scenario_id=spec.id,
        variant=variant,
        seed=seed,
        completed=completed,
        runtime_seconds=(
            driver.runtime_seconds if completed else float(env.now)
        ),
        iterations_done=driver.iterations_done,
        iteration_times=iteration_series.times,
        iteration_durations=iteration_series.values,
        wae=trace.series("wae"),
        nworkers=trace.series("nworkers"),
        decisions=list(coordinator.decisions) if coordinator else [],
        adaptation_log=trace.entries(),
        final_workers=runtime.alive_worker_names(),
        executed_leaves=runtime.total_executed_leaves(),
        time_by_category=time_by_category,
        blacklisted_nodes=(
            coordinator.blacklist.banned_nodes if coordinator else frozenset()
        ),
        blacklisted_clusters=(
            coordinator.blacklist.banned_clusters if coordinator else frozenset()
        ),
        learned_min_bandwidth=(
            coordinator.blacklist.min_bandwidth if coordinator else None
        ),
        decision_snapshots=(
            list(coordinator.decision_snapshots) if coordinator else []
        ),
    )


#: one parallel-runner job: (scenario, variant, seed) — optionally with a
#: trailing RunConfig as a fourth element.
RunJob = Union[
    tuple[ScenarioSpec, str, int],
    tuple[ScenarioSpec, str, int, RunConfig],
]


def _run_job(job: RunJob) -> RunResult:
    """Module-level worker entry so the pool can pickle it by reference."""
    spec, variant, seed = job[:3]
    config = job[3] if len(job) > 3 else None
    return run_scenario(spec, variant, seed=seed, config=config)


#: the pool-protocol path of :func:`_run_job` (``module:qualname``).
_RUN_JOB_PATH = "repro.experiments.runner:_run_job"


def run_scenarios_parallel(
    jobs: Sequence[RunJob],
    n_jobs: Optional[int] = None,
    *,
    config: Optional[RunConfig] = None,
    pool: Optional[Any] = None,
    on_error: str = "raise",
) -> list[Any]:
    """Fan independent scenario runs across processes.

    Every run is already self-contained and deterministic given its seed
    (fresh environment, network, runtime), so runs can execute in any
    process in any order; results come back **in input order**, making
    the output invariant in ``n_jobs``. Worker processes use the
    ``spawn`` start method: each run sees the same fresh-interpreter
    module state as a standalone ``repro run``, so a parallel run's
    per-scenario results are byte-identical to serial ones.

    ``config`` applies one :class:`~repro.config.RunConfig` to every job
    that does not carry its own (as a fourth tuple element); it must be
    picklable when runs fan out across processes. When ``n_jobs`` is not
    given, ``config.jobs`` decides. ``n_jobs <= 0`` means one process per
    available CPU; ``n_jobs == 1`` (or a single job) runs serially
    in-process with no pool overhead.

    ``pool`` reuses an already-warm :class:`~repro.serving.pool.WarmPool`
    (spawned once, shared across batches — the serving layer's mode)
    instead of spawning a throwaway one for this batch.

    A worker process dying mid-job no longer loses the batch: the job is
    retried once on a fresh worker, and if that also dies its slot
    resolves to a :class:`~repro.serving.pool.JobError`. With the default
    ``on_error="raise"`` any failed job (exception or double
    worker-death) raises ``RuntimeError`` *after* all jobs settle;
    ``on_error="return"`` instead leaves the structured ``JobError`` in
    that job's result slot, so callers can tell exactly which runs failed
    and why while keeping every other result.
    """
    jobs = list(jobs)
    if config is not None:
        jobs = [
            job if len(job) > 3 else (*job, config)
            for job in jobs
        ]
    if n_jobs is None:
        n_jobs = config.jobs if config is not None else 0
    if n_jobs <= 0:
        n_jobs = os.cpu_count() or 1
    n_jobs = min(n_jobs, len(jobs))
    if on_error not in ("raise", "return"):
        raise ValueError(
            f'on_error must be "raise" or "return", got {on_error!r}'
        )
    if pool is None and n_jobs <= 1:
        if on_error == "raise":
            return [_run_job(job) for job in jobs]
        from ..serving.pool import JobError

        results: list[Any] = []
        for i, job in enumerate(jobs):
            try:
                results.append(_run_job(job))
            except Exception as exc:  # structured, like the pool path
                results.append(
                    JobError(
                        job_id=i,
                        stage="run",
                        error_type=type(exc).__name__,
                        message=str(exc),
                        traceback=traceback.format_exc(),
                    )
                )
        return results
    if pool is not None:
        return pool.map(_RUN_JOB_PATH, jobs, on_error=on_error)
    from ..serving.pool import WarmPool

    with WarmPool(n_jobs) as own_pool:
        return own_pool.map(_RUN_JOB_PATH, jobs, on_error=on_error)
