"""The adaptation coordinator (paper Sections 3 and 4).

An extra process added to the computation that:

1. **collects** the per-monitoring-period statistics every worker ships to
   its mailbox (speed, overhead, inter-cluster overhead);
2. once per monitoring period folds the most recent report of each live
   worker into a :class:`~repro.core.policy.GridSnapshot` and computes the
   **weighted average efficiency** and the other aggregates from it — a
   worker whose report for the current period has not arrived is
   represented by its previous one, exactly as the paper handles
   unsynchronised clocks;
3. **decides** by handing that snapshot to
   :class:`~repro.core.policy.AdaptationPolicy` (or a subclass) and
4. **acts**: asks the Zorilla pool for new nodes (honouring the blacklist
   and the learned bandwidth requirement), or signals the worst nodes to
   leave, or evicts a badly-connected cluster wholesale while recording
   the observed bandwidth to it as the application's new minimum
   requirement.

The ``large_grid`` substrate takes the same decision at 10^4 nodes on
resident arrays instead of a snapshot (:mod:`repro.core.streaming`).

Growth hysteresis: after requesting nodes the coordinator waits until the
new nodes' first reports arrive before growing again — this is what makes
expansion "gradual" in the paper's scenario 2 rather than a blind
doubling every period.

The coordinator runs on (the host of) the master node; statistics messages
pay the network cost of getting there. Disabling ``adaptation_enabled``
yields the paper's *monitoring-only* variant — statistics and benchmarking
run, no resource changes — used to separate monitoring overhead from
adaptation benefit in scenario 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Generator, Optional

from ..obs import CoordinatorDecision, WaeSample
from ..satin.accounting import NodeReport
from ..satin.runtime import SatinRuntime
from ..simgrid.engine import Event
from ..simgrid.queues import Store
from ..zorilla.scheduler import ResourcePool
from .blacklist import Blacklist
from .efficiency import wae_components
from .opportunistic import Migrate
from .policy import (
    AdaptationPolicy,
    AddNodes,
    Decision,
    GridSnapshot,
    NodeView,
    NoAction,
    RemoveCluster,
    RemoveNodes,
)

__all__ = ["AdaptationCoordinator", "CoordinatorConfig"]


@dataclass(frozen=True)
class CoordinatorConfig:
    """Coordinator-side tunables."""

    #: how often decisions are taken; should equal the workers'
    #: monitoring period (paper: "periodically").
    monitoring_period: float = 180.0
    #: slack after the nominal period end before the first decision, so the
    #: first round of reports has time to arrive.
    decision_slack: float = 10.0
    #: simulated seconds between a successful allocation and the new
    #: workers joining (process launch; Satin: "little overhead").
    node_startup_delay: float = 2.0
    #: size of a leave-signal message.
    leave_signal_bytes: float = 128.0
    #: False = monitoring-only variant (collect, never act).
    adaptation_enabled: bool = True
    #: pass the application benchmark to the scheduler before each growth
    #: round (paper §3.4): one free node per eligible cluster runs it, and
    #: the allocation prefers the fastest-*measured* clusters. 0 disables
    #: probing (the paper's implemented behaviour: "currently we add any
    #: nodes the scheduler gives us").
    probe_benchmark_work: float = 0.0

    def __post_init__(self) -> None:
        if self.monitoring_period <= 0:
            raise ValueError("monitoring period must be > 0")
        if self.decision_slack < 0 or self.node_startup_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.probe_benchmark_work < 0:
            raise ValueError("probe_benchmark_work must be >= 0")
        if self.leave_signal_bytes < 0:
            raise ValueError("leave_signal_bytes must be >= 0")


class AdaptationCoordinator:
    """Collect → compute WAE → decide → act, once per monitoring period."""

    def __init__(
        self,
        runtime: SatinRuntime,
        pool: ResourcePool,
        policy: Optional[AdaptationPolicy] = None,
        config: Optional[CoordinatorConfig] = None,
        blacklist: Optional[Blacklist] = None,
        tuner: Optional[Any] = None,
    ) -> None:
        self.runtime = runtime
        self.env = runtime.env
        self.pool = pool
        self.policy = policy if policy is not None else AdaptationPolicy()
        self.config = config if config is not None else CoordinatorConfig()
        self.blacklist = blacklist if blacklist is not None else Blacklist()
        #: optional feedback controller (core.feedback.BadnessTuner): its
        #: current coefficients are applied before every decision, and it
        #: observes each decision + the following WAE reading.
        self.tuner = tuner
        #: optional windowed bandwidth estimator
        #: (core.bwestimator.BandwidthEstimator, attached to the network);
        #: preferred over the whole-run average when learning the
        #: minimum-bandwidth requirement.
        self.bandwidth_estimator: Optional[Any] = None
        self.trace = runtime.trace
        self.obs = runtime.obs

        self.latest: dict[str, NodeReport] = {}
        #: nodes we added whose first report has not arrived yet
        self._awaiting_first_report: set[str] = set()
        self.decisions: list[tuple[float, Decision]] = []
        #: the exact GridSnapshot each decision was taken on, index-aligned
        #: with :attr:`decisions` — what lets the profile explainer
        #: recompute every WAE/badness term the policy actually saw.
        self.decision_snapshots: list[GridSnapshot] = []
        #: messages that arrived at the coordinator's mailbox (the load a
        #: hierarchical collector reduces — see ABL-4).
        self.messages_received = 0
        self.mailbox: Optional[Store] = None
        self._procs: list[Any] = []
        #: True while an action (allocation round-trip, leave signals) is in
        #: flight; the decide loop skips decisions meanwhile, so a slow
        #: eviction (e.g. signals crossing a congested uplink) can neither
        #: block the loop nor stack conflicting actions.
        self._acting = False

    # ------------------------------------------------------------------ wiring
    def start(self) -> None:
        """Attach to the runtime and spawn collector + decider processes.

        Must be called after the initial nodes are added (the mailbox lives
        on the master's host).
        """
        master = self.runtime.master
        if master is None:
            raise RuntimeError("start the coordinator after adding the first node")
        self.mailbox = Store(self.env, owner=master)
        self.runtime.stats_mailbox = self.mailbox
        self._procs.append(self.env.process(self._collect(), name="coord:collect"))
        self._procs.append(self.env.process(self._decide_loop(), name="coord:decide"))

    # ---------------------------------------------------------------- collect
    def _collect(self) -> Generator[Event, Any, None]:
        """Drain the mailbox: plain NodeReports, or (under the hierarchical
        extension) per-cluster aggregates carrying several reports."""
        assert self.mailbox is not None
        while True:
            message = yield self.mailbox.get()
            self.messages_received += 1
            reports = getattr(message, "reports", None)
            if reports is None:
                reports = (message,)
            for report in reports:
                self.latest[report.worker] = report
                self._awaiting_first_report.discard(report.worker)

    # ----------------------------------------------------------------- decide
    def snapshot(self) -> GridSnapshot:
        """Current view: the latest report of every live worker.

        Workers that have never reported (just joined) are absent — the
        paper's coordinator equally knows nothing about them yet.
        """
        views = []
        for name in self.runtime.alive_worker_names():
            report = self.latest.get(name)
            if report is None:
                continue
            views.append(
                NodeView(
                    name=name,
                    cluster=report.cluster,
                    speed=report.speed,
                    overhead=report.overhead,
                    ic_overhead=report.ic_overhead,
                )
            )
        return GridSnapshot(time=self.env.now, nodes=tuple(views))

    def _decide_loop(self) -> Generator[Event, Any, None]:
        """Once per period: fold the latest reports into a snapshot and
        hand it to the policy."""
        cfg = self.config
        delay = cfg.monitoring_period + cfg.decision_slack
        while True:
            yield self.env.timeout(delay)
            delay = cfg.monitoring_period
            snap = self.snapshot()
            if not snap.nodes:
                continue
            wae = snap.wae()
            self.trace.record("wae", self.env.now, wae)
            if self.obs.bus.wants(WaeSample.kind):
                comps = wae_components(
                    [n.speed for n in snap.nodes],
                    [n.overhead for n in snap.nodes],
                )
                self.obs.bus.emit(WaeSample(
                    time=self.env.now, wae=wae, nodes=len(snap.nodes),
                    spread=float(comps.max() - comps.min()),
                ))
            self._apply_tuner(wae)
            if self._acting:
                self.trace.log(
                    self.env.now, "adaptation_skip",
                    reason="previous action still in flight",
                )
                continue
            decision = self.policy.decide(
                snap, protected=self._protected_nodes()
            )
            if self.tuner is not None:
                self.tuner.on_decision(self.env.now, decision, snap)
            self._commit_decision(decision, snap)

    def _apply_tuner(self, wae: float) -> None:
        if self.tuner is None:
            return
        event = self.tuner.on_wae(self.env.now, wae)
        if event is not None:
            self.trace.log(
                self.env.now,
                "badness_tuned",
                effective=event.effective,
                dominant=event.dominant_term,
            )
        self.policy.config = replace(
            self.policy.config, coefficients=self.tuner.current
        )

    def _commit_decision(self, decision: Decision, snap: GridSnapshot) -> None:
        if self.config.adaptation_enabled and not isinstance(decision, NoAction):
            self.env.process(self._act_guarded(decision), name="coord:act")
        self.decisions.append((self.env.now, decision))
        self.decision_snapshots.append(snap)
        described = decision.describe()
        self.obs.metrics.counter(
            "coordinator_decisions", decision=described["decision"]
        ).inc()
        if self.obs.bus.wants(CoordinatorDecision.kind):
            self.obs.bus.emit(CoordinatorDecision(
                time=self.env.now, **described
            ))

    def _act_guarded(self, decision: Decision) -> Generator[Event, Any, None]:
        self._acting = True
        try:
            yield from self._act(decision)
        finally:
            self._acting = False

    def _protected_nodes(self) -> tuple[str, ...]:
        master = self.runtime.master
        return (master,) if master is not None else ()

    # -------------------------------------------------------------------- act
    def _act(self, decision: Decision) -> Generator[Event, Any, None]:
        if isinstance(decision, NoAction):
            return
        if isinstance(decision, Migrate):
            yield from self._migrate(decision)
        elif isinstance(decision, AddNodes):
            yield from self._grow(decision)
        elif isinstance(decision, RemoveCluster):
            self._learn_bandwidth_requirement(decision.cluster)
            yield from self._evict(decision.nodes, f"cluster {decision.cluster}")
        elif isinstance(decision, RemoveNodes):
            for node in decision.nodes:
                self.blacklist.ban_node(node)
            yield from self._evict(decision.nodes, "worst nodes")

    def _grow(self, decision: AddNodes) -> Generator[Event, Any, None]:
        if self._awaiting_first_report & set(self.runtime.alive_worker_names()):
            self.trace.log(
                self.env.now,
                "adaptation_skip",
                reason="awaiting first reports from recently added nodes",
            )
            return
        current_clusters = {
            self.runtime.worker(n).cluster for n in self.runtime.alive_worker_names()
        }
        if self.config.probe_benchmark_work > 0:
            from ..zorilla.probing import probe_and_allocate

            granted, measured = yield from probe_and_allocate(
                self.pool,
                self.runtime.network,
                decision.count,
                self.config.probe_benchmark_work,
                constraints=self.blacklist.constraints(),
            )
            self.trace.log(
                self.env.now, "scheduler_probe",
                measured={c: round(v, 3) for c, v in measured.items()},
            )
        else:
            granted = self.pool.allocate(
                decision.count,
                constraints=self.blacklist.constraints(),
                prefer_clusters=sorted(current_clusters),
            )
        self.trace.log(
            self.env.now,
            "add_nodes",
            requested=decision.count,
            granted=len(granted),
            nodes=list(granted),
            wae=decision.wae,
        )
        if not granted:
            return
        yield self.env.timeout(self.config.node_startup_delay)
        for node in granted:
            if self.runtime.network.host(node).alive:
                self.runtime.add_node(node)
                self._awaiting_first_report.add(node)

    def _migrate(self, decision: Migrate) -> Generator[Event, Any, None]:
        """Opportunistic migration: add faster free nodes, drop the slow.

        The slow nodes are only released after the fast replacements have
        actually joined — if the pool cannot deliver, nothing is removed.
        """
        granted = self.pool.allocate(
            decision.count,
            constraints=self.blacklist.constraints(),
            prefer_fast=True,
        )
        self.trace.log(
            self.env.now,
            "opportunistic_migration",
            requested=decision.count,
            granted=len(granted),
            fast=list(granted),
            slow=list(decision.nodes),
        )
        if not granted:
            return
        yield self.env.timeout(self.config.node_startup_delay)
        joined = 0
        for node in granted:
            if self.runtime.network.host(node).alive:
                self.runtime.add_node(node)
                self._awaiting_first_report.add(node)
                joined += 1
        if joined:
            victims = tuple(decision.nodes[:joined])
            for node in victims:
                self.blacklist.ban_node(node)
            yield from self._evict(victims, "opportunistic migration")

    def _evict(self, nodes: tuple[str, ...], why: str) -> Generator[Event, Any, None]:
        master = self.runtime.master
        victims = [n for n in nodes if n != master and self.runtime.worker_alive(n)]
        self.trace.log(self.env.now, "remove_nodes", nodes=victims, why=why)
        net = self.runtime.network
        for node in victims:
            # The leave signal travels from the coordinator (master host).
            if master is not None:
                yield from net.transfer(
                    master, node, self.config.leave_signal_bytes
                )
            if self.runtime.worker_alive(node):
                self.runtime.remove_node(node)
            self.latest.pop(node, None)
        self.pool.release(victims)

    def _learn_bandwidth_requirement(self, cluster: str) -> None:
        """Ban the cluster; tighten the learned min-bandwidth bound.

        The bound is the bandwidth the application *observed* towards the
        removed cluster during the run — measured from data transfer
        times, as the paper prescribes. The master's own cluster is never
        banned (it hosts the root frame and the coordinator).
        """
        master = self.runtime.master
        master_cluster = (
            self.runtime.worker(master).cluster if master is not None else None
        )
        if cluster == master_cluster:
            return
        observed = None
        if self.bandwidth_estimator is not None:
            observed = self.bandwidth_estimator.estimate_to_cluster(
                cluster, now=self.env.now
            )
        if observed is None and master_cluster is not None:
            observed = self.runtime.network.observed_bandwidth(
                master_cluster, cluster
            )
        self.blacklist.ban_cluster(cluster, observed_bandwidth=observed)
