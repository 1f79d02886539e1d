"""Simulation-as-a-service: warm pool + result cache behind one front end.

:class:`SimulationService` is the serving layer's composition root. It
owns a :class:`~repro.serving.pool.WarmPool` (spawned once, reused for
every job) and an optional :class:`~repro.serving.cache.ResultCache`;
jobs are ``(scenario, variant, seed, config)`` requests and results are
the canonical run summaries (the ``repro run --json`` payload), so a
cache hit is *byte-identical* to a fresh computation.

Two call styles:

* **async** — :meth:`SimulationService.submit` returns a ticket at once
  (cache hits resolve immediately, misses go to the pool) and
  :meth:`SimulationService.poll` yields ``(ticket, ServedResult)`` in
  completion order. This is what ``repro serve`` drives: requests stream
  in, results stream out, the pool stays busy.
* **batch** — :meth:`SimulationService.sweep` takes a job list and
  returns input-ordered results (what ``repro sweep`` uses).

Telemetry goes through a normal :class:`~repro.obs.Observability`:
``serving_cache_hits`` / ``serving_cache_misses`` / ``serving_errors``
counters, a ``serving_job_ms`` latency histogram labelled by source
(``cache`` vs ``computed``), and one
:class:`~repro.obs.events.ServingJob` trace event per settled job — all
compatible with :meth:`Observability.streaming`'s bounded-memory mode
for long-running service processes.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from ..config import RunConfig
from ..obs import Observability, ServingJob
from .cache import ResultCache, cache_key
from .pool import JobError, WarmPool

__all__ = ["ServedResult", "SimulationService", "SweepJob"]

#: the one function worker processes execute (module:qualname protocol).
JOB_FUNC = "repro.serving.service:_execute"


@dataclass(frozen=True)
class SweepJob:
    """One serving request.

    ``scenario`` is a scenario id (looked up in the registries), a
    :class:`~repro.experiments.scenarios.ScenarioSpec`, or a
    :class:`~repro.experiments.largegrid.LargeGridSpec`. ``variant`` is
    ignored for substrate scenarios (they have no application layer).
    ``config=None`` takes the service's default.
    """

    scenario: Any
    variant: str = "adapt"
    seed: int = 0
    config: Optional[RunConfig] = None


@dataclass
class ServedResult:
    """One settled request: either ``summary`` or ``error`` is set."""

    scenario: str
    variant: str
    seed: int
    summary: Optional[dict] = None
    error: Optional[JobError] = None
    cache_hit: bool = False
    #: wall-clock submission → settlement
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute(payload: dict) -> dict:
    """Worker-side job body: run the simulation, return its summary.

    Runs in a pool worker (or inline when the service has no pool);
    imports stay inside so pool workers only pay for what the job uses.
    """
    config: Optional[RunConfig] = payload["config"]
    if payload["kind"] == "substrate":
        from ..experiments.largegrid import run_large_grid

        shards = config.shards if config is not None else 1
        return run_large_grid(
            payload["spec"], seed=payload["seed"], shards=shards
        )
    from ..experiments.report import result_to_dict
    from ..experiments.runner import run_scenario

    return result_to_dict(
        run_scenario(
            payload["spec"],
            payload["variant"],
            seed=payload["seed"],
            config=config,
        )
    )


class SimulationService:
    """Warm-pool simulation service with a content-addressed cache.

    ``n_workers >= 1`` runs jobs on a persistent spawn pool;
    ``n_workers=0`` executes inline in this process (no spawn cost —
    what the benchmark's re-query epilogue and small scripts use).
    ``cache=None`` disables caching entirely.

    Usable as a context manager; :meth:`close` shuts the pool down.
    """

    def __init__(
        self,
        n_workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        obs: Optional[Observability] = None,
        default_config: Optional[RunConfig] = None,
    ) -> None:
        self.pool: Optional[WarmPool] = (
            WarmPool(n_workers) if n_workers >= 1 else None
        )
        self.cache = cache
        self.obs = obs if obs is not None else Observability.disabled()
        self.default_config = (
            default_config if default_config is not None else RunConfig()
        )
        self._started_at = time.monotonic()
        self._tickets = itertools.count()
        #: pool job id → (ticket, normalized job payload context)
        self._in_flight: dict[int, tuple[int, "_Context"]] = {}
        #: settled results awaiting poll(): (ticket, ServedResult)
        self._ready: deque[tuple[int, ServedResult]] = deque()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SimulationService":
        """Spawn the pool workers now instead of on the first miss."""
        if self.pool is not None:
            self.pool.start()
        return self

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- async interface ---------------------------------------------------

    def submit(self, job: Union[SweepJob, tuple]) -> int:
        """Enqueue one request; returns its ticket.

        Cache hits settle immediately (the next :meth:`poll` returns
        them without touching the pool); misses are dispatched to the
        pool, or computed inline when the service has none.
        """
        ctx = self._normalize(job)
        ticket = next(self._tickets)
        if self.cache is not None and ctx.key is not None:
            summary = self.cache.get(ctx.key)
            if summary is not None:
                self._settle_hit(ticket, ctx, summary)
                return ticket
            self.obs.metrics.counter("serving_cache_misses").inc()
        if self.pool is None:
            try:
                summary = _execute(ctx.payload)
            except Exception as exc:
                self._settle_error(
                    ticket,
                    ctx,
                    JobError(
                        job_id=-1,
                        stage="run",
                        error_type=type(exc).__name__,
                        message=str(exc),
                    ),
                )
                return ticket
            self._settle_computed(ticket, ctx, summary)
            return ticket
        job_id = self.pool.submit(JOB_FUNC, ctx.payload)
        self._in_flight[job_id] = (ticket, ctx)
        return ticket

    def poll(self, timeout: Optional[float] = None) -> tuple[int, ServedResult]:
        """Next settled request, in completion order.

        Raises ``RuntimeError`` when nothing is outstanding and
        ``queue.Empty`` on timeout (pool mode only).
        """
        if self._ready:
            return self._ready.popleft()
        if self.pool is None or not self._in_flight:
            raise RuntimeError("no outstanding jobs")
        while True:
            result = self.pool.next_result(timeout)
            entry = self._in_flight.pop(result.job_id, None)
            if entry is None:  # not one of ours (cannot normally happen)
                continue
            ticket, ctx = entry
            if result.ok:
                self._settle_computed(ticket, ctx, result.value)
            else:
                self._settle_error(ticket, ctx, result.error)
            return self._ready.popleft()

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet returned by :meth:`poll`."""
        return len(self._in_flight) + len(self._ready)

    @property
    def ready(self) -> int:
        """Settled results :meth:`poll` would return without blocking."""
        return len(self._ready)

    # -- batch interface ---------------------------------------------------

    def sweep(
        self, jobs: Sequence[Union[SweepJob, tuple]]
    ) -> list[ServedResult]:
        """Run every job; results in input order (errors in-slot)."""
        tickets = [self.submit(job) for job in jobs]
        slots = {ticket: i for i, ticket in enumerate(tickets)}
        results: list[Optional[ServedResult]] = [None] * len(tickets)
        remaining = len(tickets)
        while remaining:
            ticket, served = self.poll()
            if ticket in slots:
                results[slots[ticket]] = served
                remaining -= 1
        return results  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------

    def _normalize(self, job: Union[SweepJob, tuple]) -> "_Context":
        if isinstance(job, tuple):
            job = SweepJob(*job)
        spec = job.scenario
        if isinstance(spec, str):
            from ..experiments.largegrid import SUBSTRATES
            from ..experiments.scenarios import SCENARIOS

            if spec in SCENARIOS:
                spec = SCENARIOS[spec]
            elif spec in SUBSTRATES:
                spec = SUBSTRATES[spec]
            else:
                raise KeyError(
                    f"unknown scenario {spec!r}; known: "
                    f"{sorted(SCENARIOS) + sorted(SUBSTRATES)}"
                )
        from ..experiments.largegrid import LargeGridSpec
        from ..experiments.runner import VARIANTS

        kind = "substrate" if isinstance(spec, LargeGridSpec) else "scenario"
        if kind == "scenario" and job.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {job.variant!r}"
            )
        config = job.config if job.config is not None else self.default_config
        payload = {
            "kind": kind,
            "spec": spec,
            "variant": job.variant,
            "seed": job.seed,
            "config": config,
        }
        key = (
            cache_key(spec, job.variant, job.seed, config)
            if self.cache is not None
            else None
        )
        try:
            scenario_id = spec.id
        except AttributeError:
            scenario_id = str(spec)
        return _Context(
            payload=payload,
            key=key,
            scenario_id=scenario_id,
            variant=job.variant if kind == "scenario" else "-",
            seed=job.seed,
            submitted=time.monotonic(),
        )

    def _settle_hit(self, ticket: int, ctx: "_Context", summary: dict) -> None:
        served = self._served(ctx, summary=summary, cache_hit=True)
        self.obs.metrics.counter("serving_cache_hits").inc()
        self.obs.metrics.histogram("serving_job_ms", source="cache").observe(
            served.elapsed_ms
        )
        self._emit(ctx, "hit", served)
        self._ready.append((ticket, served))

    def _settle_computed(
        self, ticket: int, ctx: "_Context", summary: dict
    ) -> None:
        served = self._served(ctx, summary=summary)
        if self.cache is not None and ctx.key is not None:
            self.cache.put(
                ctx.key,
                summary,
                meta={
                    "scenario": ctx.scenario_id,
                    "variant": ctx.variant,
                    "seed": ctx.seed,
                },
            )
        self.obs.metrics.histogram(
            "serving_job_ms", source="computed"
        ).observe(served.elapsed_ms)
        self._emit(ctx, "computed", served)
        self._ready.append((ticket, served))

    def _settle_error(
        self, ticket: int, ctx: "_Context", error: JobError
    ) -> None:
        served = self._served(ctx, error=error)
        self.obs.metrics.counter("serving_errors").inc()
        self._emit(ctx, "error", served)
        self._ready.append((ticket, served))

    def _served(self, ctx: "_Context", **kw: Any) -> ServedResult:
        return ServedResult(
            scenario=ctx.scenario_id,
            variant=ctx.variant,
            seed=ctx.seed,
            elapsed_ms=(time.monotonic() - ctx.submitted) * 1000.0,
            **kw,
        )

    def _emit(self, ctx: "_Context", outcome: str, served: ServedResult) -> None:
        bus = self.obs.bus
        if not bus.wants(ServingJob.kind):
            return
        bus.emit(
            ServingJob(
                time=time.monotonic() - self._started_at,
                outcome=outcome,
                scenario=ctx.scenario_id,
                variant=ctx.variant,
                seed=ctx.seed,
                elapsed_ms=served.elapsed_ms,
                error=(
                    f"{served.error.error_type}: {served.error.message}"
                    if served.error is not None
                    else ""
                ),
            )
        )

    def stats(self) -> dict[str, Any]:
        """Service, pool, and cache lifetime counters (one dict)."""
        out: dict[str, Any] = {
            "cache_hits": self.obs.metrics.value("serving_cache_hits"),
            "cache_misses": self.obs.metrics.value("serving_cache_misses"),
            "errors": self.obs.metrics.value("serving_errors"),
        }
        if self.pool is not None:
            out["pool"] = dict(self.pool.stats)
        if self.cache is not None:
            out["cache"] = self.cache.stats.to_dict()
        return out


@dataclass
class _Context:
    """Parent-side bookkeeping for one submitted request."""

    payload: dict
    key: Optional[str]
    scenario_id: str
    variant: str
    seed: int
    submitted: float
    extra: dict = field(default_factory=dict)
