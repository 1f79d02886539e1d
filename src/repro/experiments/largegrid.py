"""The ``large_grid`` stress scenario: 10^4-node monitoring + sharding.

The classic scenarios (s1–s6) run the full work-stealing application on a
faithfully simulated grid — the right tool at the paper's ~100-node
scale, but the event-per-message engine cannot reach the ROADMAP's
10^4–10^5-node target. ``large_grid`` is the *substrate* stress scenario
for that scale: it drops the application layer and simulates exactly the
machinery the tentpole optimises — per-period monitoring reports from
every node of a many-cluster grid (with churn, load spikes, and an
uplink-storm cluster), folded through :class:`~repro.core.gridstate.\
GridState` into :class:`~repro.core.streaming.StreamingDecisionState`,
driving real :class:`~repro.core.policy.PolicyConfig` adaptation
decisions that feed back into grid membership.

**Cluster-sharded execution.** One large run can be partitioned across
processes (``RunConfig(shards=N)`` / ``repro run large_grid --shards N``):
each shard owns a subset of clusters and steps their node dynamics; the
parent process is the coordinator. Clusters interact *only* through
per-period reports (up) and adaptation commands (down), so the monitoring
period itself is a conservative lockstep window — vastly wider than the
physical lower bound :func:`~repro.simgrid.network.conservative_lookahead`
derives from uplink latencies. Byte-identical results for every shard
count hold by construction:

* each cluster's RNG stream is seeded ``(seed, cluster_index)`` —
  independent of which shard hosts it;
* a cluster's per-period draw sequence depends only on its own membership
  history, which is driven by the (shard-independent) coordinator
  commands;
* the coordinator folds payloads and applies commands in canonical
  cluster-index order, regardless of arrival interleaving;
* payload floats cross the process boundary as pickled float64 arrays —
  bit-exact.

The run summary (``repro run large_grid --json``) is therefore a golden:
committed under ``tests/golden/`` and asserted byte-identical across
``--shards 1`` vs ``--shards 4`` in CI.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from ..core.policy import AddNodes, PolicyConfig, RemoveCluster, RemoveNodes
from ..core.streaming import StreamingDecisionState
from ..satin.benchmarking import measured_speeds
from ..simgrid.resources import GridSpec, synthetic_grid

__all__ = [
    "LargeGridSpec",
    "SUBSTRATES",
    "substrate",
    "run_large_grid",
    "format_large_grid_summary",
]


#: The large-grid policy: scenario-calibrated ic-overhead threshold (see
#: ``scenarios.DEFAULT_POLICY``), per-decision volume caps so one period
#: cannot swing thousands of nodes, and a floor well above the protected
#: master.
LARGE_GRID_POLICY = PolicyConfig(
    e_min=0.30,
    e_max=0.50,
    cluster_removal_ic_overhead=0.05,
    min_nodes=64,
    max_add_per_decision=400,
    max_remove_per_decision=400,
)


@dataclass(frozen=True)
class LargeGridSpec:
    """A complete, reproducible large-grid substrate run definition.

    ``busy_profile`` scripts the grid-wide mean busy fraction per period
    (clamped to its last value for longer horizons): the default starts
    busy enough to trigger growth, decays through the dead band, and ends
    low enough to trigger shrinking — so one run exercises AddNodes,
    RemoveNodes *and* (via the scripted uplink storm on
    ``storm_cluster``) RemoveCluster, all over live churn.
    """

    id: str = "large_grid"
    description: str = (
        "Substrate stress: 10k nodes over 100 clusters, per-period "
        "monitoring folds with churn, load spikes and an uplink storm; "
        "shardable across processes with byte-identical results."
    )
    n_clusters: int = 100
    nodes_per_cluster: int = 120
    initial_per_cluster: int = 100
    periods: int = 8
    monitoring_period: float = 60.0
    #: per-node probability of leaving (owner reclaim / crash) per period.
    leave_prob: float = 0.002
    #: per-cluster probability of a one-period external load spike.
    spike_prob: float = 0.02
    spike_load: float = 9.0
    #: scripted mean busy fraction per period (see class docstring).
    busy_profile: tuple[float, ...] = (
        0.90, 0.85, 0.75, 0.65, 0.55, 0.45, 0.40, 0.35,
    )
    busy_jitter: float = 0.08
    ic_mean: float = 0.010
    ic_jitter: float = 0.004
    #: from ``storm_period`` on, ``storm_cluster``'s uplink is starved:
    #: its nodes report ``storm_ic`` mean inter-cluster overhead.
    storm_cluster: int = 3
    storm_period: int = 4
    storm_ic: float = 0.12
    bench_work: float = 1.5
    bench_noise: float = 0.02
    policy: PolicyConfig = field(default_factory=lambda: LARGE_GRID_POLICY)

    def __post_init__(self) -> None:
        if self.initial_per_cluster > self.nodes_per_cluster:
            raise ValueError("initial_per_cluster exceeds nodes_per_cluster")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        if not self.busy_profile:
            raise ValueError("busy_profile must not be empty")

    def grid(self) -> GridSpec:
        return synthetic_grid(self.n_clusters, self.nodes_per_cluster)


class ShardPayload(NamedTuple):
    """One cluster's per-period report batch, shipped shard → coordinator."""

    index: int               # cluster index (canonical ordering key)
    cluster: str
    left: tuple[str, ...]    # members churned out this period
    names: list[str]         # active members, in membership order
    speed: np.ndarray        # measured benchmark speeds
    busy: np.ndarray         # busy seconds this period
    comm_inter: np.ndarray   # inter-cluster communication seconds


#: coordinator → shard, per cluster: (leaves, joins) to apply at the
#: next period start.
Commands = dict[str, tuple[tuple[str, ...], tuple[str, ...]]]


class ClusterSim:
    """One cluster's node dynamics, stepped once per monitoring period.

    All randomness comes from a generator seeded ``(seed, cluster
    index)`` so the draw sequence is independent of shard placement.
    """

    def __init__(self, spec: LargeGridSpec, grid: GridSpec, ci: int, seed: int):
        cspec = grid.clusters[ci]
        self.spec = spec
        self.index = ci
        self.name = cspec.name
        self.node_names = [n.name for n in cspec.nodes]
        self.base_speed = np.array([n.base_speed for n in cspec.nodes])
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, ci]))
        self._idx_of = {n: i for i, n in enumerate(self.node_names)}
        self.active = list(range(spec.initial_per_cluster))
        self.period = 0

    def apply(self, commands: Optional[tuple[tuple, tuple]]) -> None:
        """Apply the coordinator's (leaves, joins) for this period."""
        if commands is None:
            return
        leaves, joins = commands
        for name in leaves:
            self.active.remove(self._idx_of[name])
        for name in joins:
            self.active.append(self._idx_of[name])

    def step(self) -> ShardPayload:
        spec = self.spec
        rng = self.rng
        p = self.period
        self.period += 1
        period = spec.monitoring_period

        # churn: every member may be reclaimed/crash this period
        departures = rng.random(len(self.active)) < spec.leave_prob
        left = tuple(
            self.node_names[i]
            for i, gone in zip(self.active, departures)
            if gone
        )
        if left:
            self.active = [
                i for i, gone in zip(self.active, departures) if not gone
            ]

        # occasional cluster-wide external load spike (scenario-3 analog):
        # time-sharing divides every node's effective speed by (1 + load).
        load = spec.spike_load if rng.random() < spec.spike_prob else 0.0
        n = len(self.active)
        idx = np.asarray(self.active, dtype=np.intp)
        effective = self.base_speed[idx] / (1.0 + load)
        speed = measured_speeds(
            spec.bench_work, spec.bench_work / effective, rng, spec.bench_noise
        )

        busy_mean = spec.busy_profile[min(p, len(spec.busy_profile) - 1)]
        ic_mean = (
            spec.storm_ic
            if self.index == spec.storm_cluster and p >= spec.storm_period
            else spec.ic_mean
        )
        ic_frac = np.clip(rng.normal(ic_mean, spec.ic_jitter, n), 0.0, 0.25)
        busy_frac = np.clip(rng.normal(busy_mean, spec.busy_jitter, n), 0.02, 0.98)
        busy_frac = np.minimum(busy_frac, 1.0 - ic_frac)

        return ShardPayload(
            index=self.index,
            cluster=self.name,
            left=left,
            names=[self.node_names[i] for i in self.active],
            speed=speed,
            busy=busy_frac * period,
            comm_inter=ic_frac * period,
        )


def _step_shard(sims: list[ClusterSim], commands: Commands) -> list[ShardPayload]:
    payloads = []
    for sim in sims:
        sim.apply(commands.get(sim.name))
        payloads.append(sim.step())
    return payloads


def _shard_main(conn, spec: LargeGridSpec, seed: int, indices: list[int]) -> None:
    """Shard process body: step owned clusters at each barrier message."""
    grid = spec.grid()
    sims = [ClusterSim(spec, grid, ci, seed) for ci in indices]
    try:
        while True:
            commands = conn.recv()
            if commands is None:
                return
            conn.send(_step_shard(sims, commands))
    finally:
        conn.close()


class _ShardPool:
    """The lockstep barrier: one exchange per monitoring period.

    ``shards == 1`` steps every cluster inline; otherwise clusters are
    partitioned round-robin across spawned processes and each period is
    one scatter (commands) / gather (payloads) over pipes. Either way
    :meth:`exchange` returns payloads in canonical cluster-index order.
    """

    def __init__(
        self, spec: LargeGridSpec, grid: GridSpec, seed: int, shards: int
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        shards = min(shards, spec.n_clusters)
        self._procs: list = []
        self._conns: list = []
        self._sims: list[ClusterSim] = []
        if shards == 1:
            self._sims = [
                ClusterSim(spec, grid, ci, seed) for ci in range(spec.n_clusters)
            ]
            return
        ctx = multiprocessing.get_context("spawn")
        try:
            for s in range(shards):
                indices = list(range(s, spec.n_clusters, shards))
                parent_conn, child_conn = ctx.Pipe()
                self._conns.append(parent_conn)
                try:
                    proc = ctx.Process(
                        target=_shard_main,
                        args=(child_conn, spec, seed, indices),
                        daemon=True,
                    )
                    proc.start()
                finally:
                    child_conn.close()
                self._procs.append(proc)
        except BaseException:
            # a failed start must not leak the shards already running
            self.close()
            raise

    def exchange(self, commands: Commands) -> list[ShardPayload]:
        if self._sims:
            payloads = _step_shard(self._sims, commands)
        else:
            for conn in self._conns:
                conn.send(commands)
            payloads = [p for conn in self._conns for p in conn.recv()]
        payloads.sort(key=lambda payload: payload.index)
        return payloads

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()


def run_large_grid(
    spec: LargeGridSpec, seed: int = 0, shards: int = 1
) -> dict:
    """Execute one large-grid substrate run; returns the summary dict.

    The summary is deterministic given ``(spec, seed)`` and — by the
    construction documented in the module docstring — independent of
    ``shards``, byte for byte once JSON-serialised.
    """
    grid_spec = spec.grid()
    cluster_names = [c.name for c in grid_spec.clusters]
    protected = (grid_spec.clusters[0].nodes[0].name,)
    state = StreamingDecisionState()
    grid = state.grid

    #: per-cluster reserve of nodes never yet activated, in index order.
    pools: dict[str, list[str]] = {
        c.name: [n.name for n in c.nodes[spec.initial_per_cluster:]]
        for c in grid_spec.clusters
    }
    blacklisted: set[str] = set()
    cached_names: dict[str, list[str]] = {}
    cached_slots: dict[str, np.ndarray] = {}
    alive: dict[str, list[str]] = {}
    decision_counts: dict[str, int] = {}
    total_churned = 0
    period_rows: list[dict] = []
    commands: Commands = {}

    shard_pool = _ShardPool(spec, grid_spec, seed, shards)
    try:
        for p in range(spec.periods):
            payloads = shard_pool.exchange(commands)
            commands = {}
            churn_left = 0
            for payload in payloads:
                for name in payload.left:
                    state.forget(name)
                churn_left += len(payload.left)
                if payload.names != cached_names.get(payload.cluster):
                    # membership changed: (re)bind names to grid slots
                    cached_names[payload.cluster] = payload.names
                    cached_slots[payload.cluster] = grid.ensure_many(
                        payload.names, payload.cluster
                    )
                grid.ingest_arrays(
                    cached_slots[payload.cluster],
                    speed=payload.speed,
                    busy=payload.busy,
                    comm_inter=payload.comm_inter,
                    period_seconds=np.full(
                        len(payload.names), spec.monitoring_period
                    ),
                    period_index=float(p),
                )
                alive[payload.cluster] = payload.names
            total_churned += churn_left

            order = [n for c in cluster_names for n in alive.get(c, ())]
            state.sync(p + 1, lambda: order)
            wae = state.weighted_wae() if state.size else 0.0
            decision = state.decide(protected, spec.policy)
            kind = type(decision).__name__
            decision_counts[kind] = decision_counts.get(kind, 0) + 1
            row: dict = {
                "period": p,
                "time": (p + 1) * spec.monitoring_period,
                "nodes": state.size,
                "wae": float(wae),
                "churn_left": churn_left,
                "decision": kind,
                "reason": decision.reason,
            }

            if isinstance(decision, AddNodes):
                # round-robin over clusters in index order so growth
                # spreads evenly; blacklisted clusters never re-join.
                joins: dict[str, list[str]] = {}
                to_add = decision.count
                progress = True
                while to_add > 0 and progress:
                    progress = False
                    for cluster in cluster_names:
                        if to_add == 0:
                            break
                        if cluster in blacklisted or not pools[cluster]:
                            continue
                        joins.setdefault(cluster, []).append(
                            pools[cluster].pop(0)
                        )
                        to_add -= 1
                        progress = True
                commands = {
                    cluster: ((), tuple(names))
                    for cluster, names in joins.items()
                }
                row["added"] = decision.count - to_add
            elif isinstance(decision, RemoveCluster):
                blacklisted.add(decision.cluster)
                for name in decision.nodes:
                    state.forget(name)
                commands = {decision.cluster: (decision.nodes, ())}
                row["cluster"] = decision.cluster
                row["removed"] = len(decision.nodes)
            elif isinstance(decision, RemoveNodes):
                leaves: dict[str, list[str]] = {}
                for name in decision.nodes:
                    state.forget(name)
                    leaves.setdefault(name.partition("/")[0], []).append(name)
                commands = {
                    cluster: (tuple(names), ())
                    for cluster, names in leaves.items()
                }
                row["removed"] = len(decision.nodes)
            period_rows.append(row)
    finally:
        shard_pool.close()

    return {
        "scenario": spec.id,
        "seed": seed,
        "spec": {
            "clusters": spec.n_clusters,
            "nodes_per_cluster": spec.nodes_per_cluster,
            "initial_per_cluster": spec.initial_per_cluster,
            "periods": spec.periods,
            "monitoring_period": spec.monitoring_period,
        },
        "periods": period_rows,
        "final_nodes": state.size,
        "total_churned": total_churned,
        "decision_counts": {
            k: decision_counts[k] for k in sorted(decision_counts)
        },
        "blacklisted_clusters": sorted(blacklisted),
        "registry": {
            "slots": grid.registry.capacity,
            "acquires": grid.registry.acquires,
            "reuses": grid.registry.reuses,
        },
        "refolds": state.refolds,
    }


def format_large_grid_summary(summary: dict) -> str:
    """Human-readable run summary (what ``repro run large_grid`` prints)."""
    spec = summary["spec"]
    lines = [
        f"{summary['scenario']} (seed {summary['seed']}): "
        f"{spec['clusters']} clusters x {spec['initial_per_cluster']} nodes, "
        f"{spec['periods']} periods",
    ]
    for row in summary["periods"]:
        extra = ""
        if "added" in row:
            extra = f" +{row['added']} nodes"
        elif "cluster" in row:
            extra = f" -{row['removed']} nodes ({row['cluster']})"
        elif "removed" in row:
            extra = f" -{row['removed']} nodes"
        lines.append(
            f"  t={row['time']:6.0f}s wae={row['wae']:.3f} "
            f"nodes={row['nodes']:5d} churn={row['churn_left']:3d} "
            f"{row['decision']}{extra}"
        )
    lines.append(
        f"  final nodes: {summary['final_nodes']} "
        f"(churned {summary['total_churned']}, "
        f"slot reuses {summary['registry']['reuses']})"
    )
    if summary["blacklisted_clusters"]:
        lines.append(
            f"  blacklisted clusters: {summary['blacklisted_clusters']}"
        )
    return "\n".join(lines)


#: substrate scenario registry (kept separate from ``SCENARIOS``: these
#: are not work-stealing application runs and take no variant).
SUBSTRATES: dict[str, LargeGridSpec] = {
    "large_grid": LargeGridSpec(),
}


def substrate(substrate_id: str) -> LargeGridSpec:
    """Look up a registered substrate scenario by id."""
    try:
        return SUBSTRATES[substrate_id]
    except KeyError:
        raise KeyError(
            f"unknown substrate scenario {substrate_id!r}; "
            f"known: {sorted(SUBSTRATES)}"
        ) from None
