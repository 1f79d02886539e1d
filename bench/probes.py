"""Per-layer probes: each times one layer's public functions directly.

A probe is the cheapest honest use of a layer through ``repro.api``: it
tells which layer a moved end-to-end number belongs to, and it is the
same on every workload, so four traced runs give four samples of each.
Every probe reports the median of a few repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable


def canonical_digest(summary: dict) -> str:
    """SHA-256 of the summary's canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def median_seconds(
    fn: Callable[[], object], repeats: int, prepared: bool = False
) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls.

    With ``prepared``, ``fn()`` builds the inputs untimed and returns the
    thunk that is timed.
    """
    samples = []
    for _ in range(repeats):
        thunk = fn() if prepared else fn
        gc.collect()
        t0 = time.perf_counter()
        thunk()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def per_call_seconds(fn: Callable[[], object], calls: int, batches: int = 1) -> float:
    """Seconds per call of a microsecond-scale ``fn``: each batch times
    ``calls`` back-to-back calls; the median batch is reported. The
    collector is off inside a batch (as ``timeit`` does), so the size of
    the heap the workload left behind does not leak into the probe."""
    means = []
    for _ in range(batches):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            means.append((time.perf_counter() - t0) / calls)
        finally:
            gc.enable()
    return statistics.median(means)


def canary_run() -> int:
    """Frozen copy of the microbench canary (``repro bench``).

    Measures the interpreter on this host, not the repo: it must never
    change, or stored ``host.canary_ms`` values stop being comparable.
    """
    acc = 0
    table: dict[int, int] = {}
    stack: list[int] = []
    for i in range(30000):
        acc = (acc + i * 7) & 0xFFFFF
        if i & 7 == 0:
            table[acc & 1023] = i
            stack.append(acc)
        elif i & 31 == 1 and stack:
            acc ^= stack.pop()
    for k in range(1024):
        acc += table.get(k, 0)
    return acc


def canary_ms() -> float:
    return median_seconds(canary_run, 15) * 1e3


class QuietGate:
    """Keeps timed sections out of the host's slow episodes.

    The reference box slows by 25–50 % for 20–50 s at a time (a neighbour
    on the shared core; CPU time stretches with wall time, so neither
    clock helps). A *reading* is the median of a few canary runs; the host
    is quiet while a reading stays within ``SLOW`` of the fastest reading
    this process has seen. ``wait`` holds a section back until then,
    ``undisturbed`` also repeats a section an episode caught up with and
    keeps its fastest attempt. Both draw on one budget of seconds per run,
    so a run's length stays bounded; once it is spent the gate only
    watches. The gate never looks at the program's own times.
    """

    RUNS = 5      # canary runs per reading, ~17 ms
    SLOW = 1.08
    LOOKS = 3     # an episode makes this many readings in a row slow
    FRESH_S = 0.1

    def __init__(self, budget_s: float) -> None:
        self.left = budget_s
        self.best = float("inf")
        self.quiet_at = float("-inf")
        self.waited_s = 0.0
        self.repeats = 0

    def reading_is_quiet(self) -> bool:
        runs = []
        for _ in range(self.RUNS):
            t0 = time.perf_counter()
            canary_run()
            runs.append(time.perf_counter() - t0)
        reading = statistics.median(runs)
        self.best = min(self.best, reading)
        return reading <= self.SLOW * self.best

    def quiet(self) -> bool:
        """Is the host quiet now? One slow reading may be a blip."""
        if time.perf_counter() - self.quiet_at < self.FRESH_S:
            return True
        if any(self.reading_is_quiet() for _ in range(self.LOOKS)):
            self.quiet_at = time.perf_counter()
            return True
        return False

    def wait(self) -> bool:
        """Return once the host is quiet, or not quiet and out of budget."""
        while True:
            t0 = time.perf_counter()
            if self.quiet():
                return True
            if self.left <= 0.0:
                return False
            spent = time.perf_counter() - t0
            self.left -= spent
            self.waited_s += spent

    def afford(self, seconds: float) -> bool:
        if self.left < seconds:
            return False
        self.left -= seconds
        return True

    def undisturbed(self, measure: Callable[[], object], seconds_of) -> list:
        """``measure()`` on a quiet host; every attempt, fastest first."""
        self.wait()
        attempts = [measure()]
        while not self.quiet() and self.afford(seconds_of(attempts[-1])):
            self.repeats += 1
            self.wait()
            attempts.append(measure())
        return sorted(attempts, key=seconds_of)


# -- simgrid -----------------------------------------------------------------

_ENGINE_PROCESSES = 20
_ENGINE_TIMEOUTS = 10_000


def engine_ns_per_event(api) -> float:
    """``Environment.process/timeout/run`` over 200 k timeouts."""

    def run() -> None:
        env = api.Environment()

        def ticker(offset: int):
            for i in range(_ENGINE_TIMEOUTS):
                yield env.timeout(1.0 + ((i + offset) % 7) * 0.25)

        for p in range(_ENGINE_PROCESSES):
            env.process(ticker(p))
        env.run()

    events = _ENGINE_PROCESSES * _ENGINE_TIMEOUTS
    return median_seconds(run, 3) / events * 1e9


def network_us_per_transfer(api, wan: bool) -> float:
    """``Network.transfer`` between two hosts of one cluster (LAN) or of
    two clusters (WAN: uplink requests on both sides)."""
    transfers, senders = 500, 4

    def prepare() -> Callable[[], object]:
        harness = api.Harness.build(api.scaled_das2(), seed=0)
        net = harness.network
        src, dst = "vu/n00", ("uva/n00" if wan else "vu/n01")

        def sender():
            for _ in range(transfers):
                yield from net.transfer(src, dst, 4096.0)

        for _ in range(senders):
            harness.env.process(sender())
        return harness.env.run

    wall = median_seconds(prepare, 3, prepared=True)
    return wall / (transfers * senders) * 1e6


def harness_build_ms(api) -> float:
    return median_seconds(
        lambda: api.Harness.build(api.scaled_das2(), seed=0), 9
    ) * 1e3


# -- satin -------------------------------------------------------------------


class _TreeApp:
    """One iteration of a fixed spawn tree (an ``IterativeApplication``)."""

    name = "bench-probe"

    def __init__(self, api, depth: int) -> None:
        def tree(d: int):
            if d == 0:
                return api.TaskNode(work=0.01)
            kids = (tree(d - 1), tree(d - 1))
            return api.TaskNode(work=0.001, children=kids, combine_work=0.001)

        self._iteration = api.Iteration(tree=tree(depth))

    def iterations(self):
        yield self._iteration


def satin_us_per_task(api) -> float:
    """A 1 023-task tree on one 8-node cluster through ``Harness`` +
    ``AppDriver``: the worker/steal loop with no WAN and no coordinator."""
    app = _TreeApp(api, depth=9)

    def prepare() -> Callable[[], object]:
        harness = api.Harness.build(api.build_grid((8,)), seed=0)
        harness.runtime.add_nodes(harness.all_node_names())
        done = api.AppDriver(harness.runtime, app).start()
        return lambda: harness.env.run(until=done)

    return median_seconds(prepare, 3, prepared=True) / 1023 * 1e6


# -- core --------------------------------------------------------------------


def core_us_per_report(api) -> float:
    """``StreamingDecisionState`` ingest + sync + decide at 10^4 nodes,
    four periods (the large_grid inner loop without its node dynamics)."""
    import numpy as np

    periods, seconds = 4, 60.0
    spec = api.LargeGridSpec()
    clusters = [
        (c.name, [n.name for n in c.nodes])
        for c in api.synthetic_grid(100, 100).clusters
    ]
    rng = np.random.default_rng(11)
    batches = []
    for p in range(periods):
        batch = {}
        for name, nodes in clusters:
            n = len(nodes)
            ic = np.clip(rng.normal(0.01, 0.004, n), 0.0, 0.25)
            busy = np.clip(rng.normal(0.8 - 0.1 * p, 0.08, n), 0.02, 0.98)
            busy = np.minimum(busy, 1.0 - ic)
            batch[name] = (rng.uniform(0.5, 4.0, n), busy * seconds, ic * seconds)
        batches.append(batch)
    order = [n for _, nodes in clusters for n in nodes]
    full = {name: np.full(len(nodes), seconds) for name, nodes in clusters}

    def run() -> None:
        state = api.StreamingDecisionState()
        grid = state.grid
        slots = {
            name: np.fromiter(
                (grid.ensure(n, name) for n in nodes), dtype=np.intp,
                count=len(nodes),
            )
            for name, nodes in clusters
        }
        for p, batch in enumerate(batches):
            for name, (speed, busy, comm_inter) in batch.items():
                grid.ingest_arrays(
                    slots[name], speed=speed, busy=busy, comm_inter=comm_inter,
                    period_seconds=full[name], period_index=float(p),
                )
            state.sync(p + 1, lambda: order)
            state.weighted_wae()
            state.decide((), spec.policy)

    return median_seconds(run, 3) / (len(order) * periods) * 1e6


# -- apps --------------------------------------------------------------------


def apps_iteration_build_ms(api) -> float:
    """One ``next()`` of the s1 application's iteration generator."""

    def run() -> None:
        next(iter(api.scenario("s1").app_factory().iterations()))

    return median_seconds(run, 5) * 1e3


def apps_octree_build_ms(api) -> float:
    app = api.scenario("s1").app_factory()
    return median_seconds(
        lambda: api.build_flat_octree(app.positions, app.masses), 9
    ) * 1e3


# -- experiments.report + serving.cache ---------------------------------------


def summary_and_cache(api, result_to_dict, scratch: Path) -> dict[str, float]:
    """Summarise one short run, then time the cache's four operations on
    that summary. ``scratch`` is a directory this probe creates and removes."""
    spec = api.scenario("s2a")
    result = api.run_scenario(spec, "none", 0)
    summary = result_to_dict(result)
    out = {
        "experiments.report.summary_ms": median_seconds(
            lambda: canonical_digest(result_to_dict(result)), 9
        ) * 1e3,
    }
    config = api.RunConfig()
    seeds = iter(range(10**6))
    out["serving.cache.key_us"] = per_call_seconds(
        lambda: api.cache_key(spec, "none", next(seeds), config), 100, batches=3
    ) * 1e6

    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(64)]
    try:
        cache = api.ResultCache(directory=str(scratch))
        pending = iter(keys)
        out["serving.cache.put_us"] = per_call_seconds(
            lambda: cache.put(next(pending), summary), len(keys)
        ) * 1e6
        hot = iter(keys * 48)
        out["serving.cache.get_mem_us"] = per_call_seconds(
            lambda: cache.get(next(hot)), len(keys) * 16, batches=3
        ) * 1e6
        cold_cache = api.ResultCache(directory=str(scratch))
        cold = iter(keys)
        out["serving.cache.get_disk_us"] = per_call_seconds(
            lambda: cold_cache.get(next(cold)), len(keys)
        ) * 1e6
        if cold_cache.stats.disk_hits != len(keys):
            raise RuntimeError("cache probe: a stored entry was not found on disk")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return out


# -- serving.pool ------------------------------------------------------------

NOOP = ("builtins:len", ())


def warm(pool) -> None:
    """One no-op job per worker, so every worker has started and imported."""
    for _ in range(pool.n_workers):
        pool.submit(*NOOP)
    for _ in range(pool.n_workers):
        if not pool.next_result(timeout=120.0).ok:
            raise RuntimeError("pool warm-up job failed")


def pool_spawn_and_roundtrip(api) -> dict[str, float]:
    """Spawn a 2-worker ``WarmPool`` until both answer, then time no-op
    jobs through it one at a time."""
    t0 = time.perf_counter()
    with api.WarmPool(2) as pool:
        warm(pool)
        spawn_s = time.perf_counter() - t0

        def roundtrip() -> None:
            pool.submit(*NOOP)
            pool.next_result(timeout=60.0)

        roundtrip_us = per_call_seconds(roundtrip, 100, batches=3) * 1e6
    return {
        "serving.pool.spawn_s": spawn_s,
        "serving.pool.roundtrip_us": roundtrip_us,
    }


def run_all(api, result_to_dict, scratch: Path) -> dict[str, float]:
    """Every probe metric, by its ``BENCHMARK.json`` name."""
    out = {
        "host.canary_ms": canary_ms(),
        "host.nproc": float(os.cpu_count() or 1),
        "simgrid.engine.probe_ns_per_event": engine_ns_per_event(api),
        "simgrid.network.probe_us_per_transfer_lan": network_us_per_transfer(api, wan=False),
        "simgrid.network.probe_us_per_transfer_wan": network_us_per_transfer(api, wan=True),
        "satin.probe_us_per_task": satin_us_per_task(api),
        "core.probe_us_per_report": core_us_per_report(api),
        "apps.iteration_build_ms": apps_iteration_build_ms(api),
        "apps.octree_build_ms": apps_octree_build_ms(api),
        "harness.build_ms": harness_build_ms(api),
    }
    out.update(summary_and_cache(api, result_to_dict, scratch))
    out.update(pool_spawn_and_roundtrip(api))
    return out
