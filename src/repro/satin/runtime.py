"""The Satin runtime: workers + membership + routing + malleability.

``SatinRuntime`` wires together everything a running divide-and-conquer
application needs on the simulated grid:

* a :class:`~repro.satin.worker.Worker` per participating node, created
  through :meth:`add_node` (the malleability join path) and removed through
  :meth:`remove_node` (graceful leave) or killed by crash events;
* frame routing — steals, result deliveries, departures' hand-offs — with
  the epoch checks of :class:`~repro.satin.fault.RecoveryManager` guarding
  against stale results after fault recovery;
* root-task submission with completion events (the application driver's
  iteration barrier);
* statistics forwarding to the adaptation coordinator's mailbox.

The runtime never *decides* anything about the resource set — that is the
adaptation coordinator's job (:mod:`repro.core.coordinator`); the runtime
only provides the mechanisms (add/remove/report).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..obs import Crash, NodeAdd, NodeRemove, Observability
from ..registry.registry import Registry
from ..simgrid.engine import Environment, Event, SimulationError
from ..simgrid.network import Network
from ..simgrid.queues import Store
from ..simgrid.rng import RngStreams
from ..simgrid.trace import Trace
from .accounting import NodeReport
from .fault import RecoveryManager
from .malleability import DefaultHandoff, HandoffStrategy
from .stealing import ClusterAwareRandomStealing, StealPolicy, steal_scope
from .task import Frame, FrameState, TaskNode
from .worker import Worker, WorkerConfig

__all__ = ["SatinRuntime"]


class _Peers:
    """PeerDirectory view over the runtime's live workers.

    Victim selection runs on every idle iteration of every worker, so the
    per-thief candidate lists are memoized and only rebuilt when the
    membership actually changes (tracked by the runtime's membership
    version counter). The cached lists preserve membership order exactly,
    so the rng draws — and therefore whole seeded runs — are unchanged.
    """

    def __init__(self, runtime: "SatinRuntime") -> None:
        self._runtime = runtime
        self._memo: dict[str, tuple[int, list[str], list[str], list[str]]] = {}

    def alive_workers(self) -> Sequence[str]:
        return self._runtime.alive_worker_names()

    def cluster_of(self, worker: str) -> str:
        return self._runtime._workers[worker].cluster

    def _candidates(self, me: str) -> tuple[int, list[str], list[str], list[str]]:
        rt = self._runtime
        version = rt._membership_version
        hit = self._memo.get(me)
        if hit is not None and hit[0] == version:
            return hit
        workers = rt._workers
        my_cluster = workers[me].cluster
        intra: list[str] = []
        inter: list[str] = []
        others: list[str] = []
        for w in rt._alive:
            if w == me:
                continue
            others.append(w)
            if workers[w].cluster == my_cluster:
                intra.append(w)
            else:
                inter.append(w)
        hit = (version, intra, inter, others)
        self._memo[me] = hit
        return hit

    def intra_peers(self, me: str) -> list[str]:
        """Live same-cluster peers of ``me``, in membership order."""
        return self._candidates(me)[1]

    def inter_peers(self, me: str) -> list[str]:
        """Live other-cluster peers of ``me``, in membership order."""
        return self._candidates(me)[2]

    def other_peers(self, me: str) -> list[str]:
        """All live peers except ``me``, in membership order."""
        return self._candidates(me)[3]


class SatinRuntime:
    """Mechanism layer for one application run on the simulated grid."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        registry: Registry,
        config: WorkerConfig,
        rng: RngStreams,
        trace: Optional[Trace] = None,
        policy: Optional[StealPolicy] = None,
        handoff: Optional[HandoffStrategy] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.registry = registry
        self.config = config
        self.rng = rng
        self.trace = trace if trace is not None else Trace()
        #: telemetry handles shared by every layer of this run; disabled
        #: by default so un-instrumented use pays only no-op calls.
        self.obs = obs if obs is not None else Observability.disabled()
        #: cached span tracker: ``deliver_result`` runs once per task, and
        #: the three-attribute chain ``self.obs.spans.enabled`` shows up in
        #: profiles at scale.
        self._spans = self.obs.spans
        self.policy = policy if policy is not None else ClusterAwareRandomStealing()
        self.handoff_strategy = handoff if handoff is not None else DefaultHandoff()

        self.peers = _Peers(self)
        self.recovery = RecoveryManager(self)
        self._workers: dict[str, Worker] = {}
        self._alive: list[str] = []
        #: bumped on every join/leave so cached peer candidate lists (in
        #: :class:`_Peers`) know when to rebuild.
        self._membership_version = 0
        self._waiting: dict[str, set[Frame]] = {}
        self._root_events: dict[int, Event] = {}
        self.master: Optional[str] = None
        #: where NodeReports are sent; set by the adaptation coordinator.
        self.stats_mailbox: Optional[Store] = None
        #: optional per-worker mailbox routing (hierarchical coordinators
        #: send each worker's reports to its cluster's sub-coordinator);
        #: returning None falls back to :attr:`stats_mailbox`.
        self.stats_router: Optional[Callable[[str], Optional[Store]]] = None
        #: direct (same-process) stats callback, used when the coordinator
        #: is co-located or in unit tests; bypasses the network.
        self.stats_callback: Optional[Callable[[NodeReport], None]] = None
        self._departed_workers: list[Worker] = []
        self._rng_handoff = rng.stream("runtime/handoff")

        registry.add_listener(self)

    # ------------------------------------------------------------- membership
    def add_node(self, node_name: str) -> Worker:
        """Join ``node_name`` to the computation (malleability: add)."""
        host = self.network.host(node_name)
        if not host.alive:
            raise SimulationError(f"cannot add dead node {node_name!r}")
        existing = self._workers.get(node_name)
        if existing is not None and existing.alive:
            raise SimulationError(f"node {node_name!r} already participates")
        if (
            existing is not None
            and existing.leaving
            and self.registry.is_member(node_name)
        ):
            # The previous incarnation's graceful departure is still in
            # flight (its hand-off transfers take simulated time). Finalize
            # its membership now so the node can rejoin; the old worker
            # object keeps draining its frames and is recognised as
            # superseded when it finally reports its departure.
            self.registry.leave(node_name)
        worker = Worker(
            runtime=self,
            host=host,
            policy=self.policy,
            config=self.config,
            rng=self.rng.stream(f"worker/{node_name}"),
        )
        self._workers[node_name] = worker
        if node_name not in self._alive:
            self._alive.append(node_name)
            self._membership_version += 1
        self._waiting.setdefault(node_name, set())
        if self.master is None:
            self.master = node_name
        self.registry.join(node_name, host.cluster)
        worker.start()
        self.trace.record("nworkers", self.env.now, len(self._alive))
        self.obs.metrics.counter("nodes_added", cluster=host.cluster).inc()
        if self.obs.bus.wants(NodeAdd.kind):
            self.obs.bus.emit(NodeAdd(
                time=self.env.now, node=node_name, cluster=host.cluster,
                nworkers=len(self._alive),
            ))
        return worker

    def add_nodes(self, node_names: Sequence[str]) -> list[Worker]:
        return [self.add_node(n) for n in node_names]

    def remove_node(self, node_name: str) -> None:
        """Gracefully remove a node (malleability: leave signal)."""
        worker = self._workers.get(node_name)
        if worker is None or not worker.alive:
            return
        if node_name == self.master:
            raise SimulationError("the master node cannot be removed")
        worker.process.interrupt("leave")

    def crash_node(self, node_name: str) -> None:
        """A node died (grid event). Stop its processes; start detection."""
        worker = self._workers.get(node_name)
        if worker is not None and worker.alive and not worker.leaving:
            worker.alive = False  # no hand-off bounce-back during teardown
            worker.interrupt_helpers()
            if worker.process is not None and worker.process.is_alive:
                worker.process.interrupt("crash")
            self.obs.metrics.counter("nodes_crashed", cluster=worker.cluster).inc()
            if self.obs.bus.wants(Crash.kind):
                self.obs.bus.emit(Crash(time=self.env.now, node=node_name))
        self.registry.report_crash(node_name)

    def worker_departed(self, worker: Worker, cause: str) -> None:
        """Called by the worker at the end of its departure handling."""
        name = worker.name
        self._departed_workers.append(worker)
        if self._workers.get(name) is not worker:
            # A newer incarnation of this node joined while our graceful
            # departure was in flight: membership, the waiting set, and the
            # _alive entry now belong to it — only retire this worker object.
            return
        if name in self._alive:
            self._alive.remove(name)
            self._membership_version += 1
        if cause == "leave":
            # Re-home frames divided at the leaver that still wait for
            # children: their combine must run somewhere alive, and child
            # results must find them. (Frame state is small — no transfer.)
            # Sorted by frame id: Frame uses identity hashing, so bare set
            # iteration order would depend on memory addresses and make
            # re-homing (and every RNG draw after it) non-deterministic.
            for frame in sorted(self._waiting.get(name, ()), key=lambda f: f.id):
                self._waiting[name].discard(frame)
                if self.recovery.is_stale(frame):
                    # An orphan of a superseded attempt: its combine result
                    # would be dropped anyway, so let it die with the leaver
                    # instead of carrying its bookkeeping forward.
                    self.recovery.untrack(frame)
                    continue
                target = self.choose_handoff_target(frame, exclude={name})
                if target is None:
                    raise SimulationError("no live workers left to re-home frames")
                frame.owner = target
                self._waiting.setdefault(target, set()).add(frame)
                self.recovery.track(frame, target)
            self.registry.leave(name)
        self.trace.record("nworkers", self.env.now, len(self._alive))
        self.obs.metrics.counter("nodes_removed", cause=cause).inc()
        if self.obs.bus.wants(NodeRemove.kind):
            self.obs.bus.emit(NodeRemove(
                time=self.env.now, node=name, cause=cause,
                nworkers=len(self._alive),
            ))

    # registry listener ------------------------------------------------------
    def on_crash(self, member: str) -> None:
        """Crash *detected* (after the registry's detection delay)."""
        # Lose the crashed node's waiting set: those frames' subtrees are
        # regenerated by re-executing the tracked frames. Their spans end
        # here (sorted for deterministic transition order).
        waiting = self._waiting.pop(member, None)
        if waiting and self.obs.spans.enabled:
            for frame in sorted(waiting, key=lambda f: f.id):
                self.obs.spans.aborted(frame, self.env.now)
        requeued = self.recovery.recover_from_crash(member)
        self.trace.log(
            self.env.now, "crash_recovery", member=member, requeued=len(requeued)
        )
        self.trace.record("nworkers", self.env.now, len(self._alive))

    # ---------------------------------------------------------------- lookups
    def alive_worker_names(self) -> list[str]:
        return list(self._alive)

    def worker(self, name: str) -> Worker:
        return self._workers[name]

    def worker_alive(self, name: str) -> bool:
        w = self._workers.get(name)
        return w is not None and w.alive

    def host(self, name: str):
        return self.network.host(name)

    @property
    def size(self) -> int:
        return len(self._alive)

    def all_workers_ever(self) -> list[Worker]:
        current = list(self._workers.values())
        seen = {id(w) for w in current}
        return current + [w for w in self._departed_workers if id(w) not in seen]

    # -------------------------------------------------------------- frame flow
    def submit_root(self, tree: TaskNode, at: Optional[str] = None) -> Event:
        """Queue a root task; returns an event firing when it completes."""
        target = at if at is not None else self.master
        if target is None or not self.worker_alive(target):
            raise SimulationError("no live master worker to submit work to")
        frame = Frame(tree)
        done = self.env.event()
        self._root_events[frame.id] = done
        if self.obs.spans.enabled:
            self.obs.spans.spawn(frame, self.env.now, target)
        self.place_frame(frame, target)
        return done

    def root_done(self, frame: Frame) -> None:
        self.recovery.untrack(frame)
        if self.obs.spans.enabled:
            self.obs.spans.result_returned(frame, self.env.now)
        done = self._root_events.pop(frame.id, None)
        if done is not None and not done.triggered:
            done.succeed(frame)

    def try_steal(self, victim: str, thief: str) -> Optional[Frame]:
        """Atomically take the oldest frame from ``victim``'s deque."""
        w = self._workers.get(victim)
        if w is None or not w.alive or w.leaving:
            return None
        frame = w.deque.steal()
        if frame is None:
            return None
        frame.stolen = True
        frame.executor = thief
        if self.obs.spans.enabled:
            thief_cluster = self._workers[thief].cluster if thief in self._workers else ""
            self.obs.spans.stolen(
                frame, self.env.now, thief, steal_scope(thief_cluster, w.cluster)
            )
        self.recovery.track(frame, thief)
        return frame

    def return_stolen(self, frame: Frame, victim: str) -> None:
        """Undo a steal whose thief was interrupted mid-protocol."""
        self.recovery.untrack(frame)
        if self.worker_alive(victim):
            self._workers[victim].push_frame(frame)
        else:
            target = self.choose_handoff_target(frame, exclude=set())
            if target is not None:
                self.place_frame(frame, target)

    def deliver_result(self, frame: Frame) -> None:
        """Apply a completed frame's result to its parent (with staleness
        checks), enabling the parent's combine when it was the last child."""
        self.recovery.untrack(frame)
        parent = frame.parent
        if parent is None:
            self.root_done(frame)
            return
        owner = parent.owner
        owner_worker = self._workers.get(owner) if owner is not None else None
        # A gracefully departing owner's frames are still valid — they are
        # being re-homed, so the result must be applied; only a crashed
        # owner's frames are lost (their subtree is re-executed).
        owner_ok = owner_worker is not None and (
            owner_worker.alive or owner_worker.departure_cause == "leave"
        )
        if not owner_ok or not self.recovery.delivery_valid(frame):
            if self._spans.enabled:
                self._spans.orphaned(frame, self.env.now)
            self.recovery.note_dropped()
            return
        if self._spans.enabled:
            self._spans.result_returned(frame, self.env.now)
        parent.pending_children -= 1
        if parent.pending_children == 0:
            parent.state = FrameState.COMBINE_READY
            self._waiting.get(owner, set()).discard(parent)
            # push_frame bounces to a live worker if the owner is departing
            owner_worker.push_frame(parent)

    # ------------------------------------------------------------- hand-off
    def choose_handoff_target(
        self, frame: Frame, exclude: Optional[set[str]] = None
    ) -> Optional[str]:
        exclude = exclude or set()
        # _alive may still list workers that are mid-departure (their flag
        # is already down while they hand work off); filter on the flag.
        candidates = [
            n for n in self._alive if n not in exclude and self.worker_alive(n)
        ]
        cluster_of = {n: self._workers[n].cluster for n in candidates}
        from_worker = next(iter(exclude)) if exclude else None
        return self.handoff_strategy.choose(
            frame, candidates, cluster_of, from_worker, self._rng_handoff
        )

    def place_frame(self, frame: Frame, target: str) -> None:
        """Put ``frame`` into ``target``'s deque and update fault tracking."""
        if not self.worker_alive(target):
            raise SimulationError(f"cannot place frame at dead worker {target!r}")
        if self.obs.spans.enabled and frame.executor not in (None, target):
            # A frame that already had an executor is moving (hand-off /
            # re-homing); fresh placements and recovery restarts (executor
            # reset to None) are recorded by their own hooks.
            self.obs.spans.migrated(frame, self.env.now, target)
        frame.executor = target
        self.recovery.track(frame, target)
        self._workers[target].push_frame(frame)

    def handoff(self, frame: Frame, from_worker: str) -> Optional[str]:
        """Choose a new home for ``frame`` and place it (no transfer cost —
        callers that model the shipping time do the transfer themselves)."""
        target = self.choose_handoff_target(frame, exclude={from_worker})
        if target is None:
            return None
        self.place_frame(frame, target)
        return target

    # ------------------------------------------------------------ waiting sets
    def waiting_add(self, worker: str, frame: Frame) -> None:
        self._waiting.setdefault(worker, set()).add(frame)

    def waiting_remove(self, worker: str, frame: Frame) -> None:
        self._waiting.get(worker, set()).discard(frame)

    def waiting_discard(self, worker: str, frame: Frame) -> None:
        self.waiting_remove(worker, frame)

    def waiting_count(self, worker: str) -> int:
        return len(self._waiting.get(worker, ()))

    # ---------------------------------------------------------------- statistics
    def report_stats(self, worker: Worker, report: NodeReport) -> None:
        if self.stats_callback is not None:
            self.stats_callback(report)
            return
        mailbox = None
        if self.stats_router is not None:
            mailbox = self.stats_router(worker.name)
        if mailbox is None:
            mailbox = self.stats_mailbox
        if mailbox is not None:
            self.network.send(
                worker.name, mailbox, self.config.stats_bytes, report
            )

    # ------------------------------------------------------------------ totals
    def total_executed_leaves(self) -> int:
        return sum(w.executed_leaves for w in self.all_workers_ever())

    def total_executed_tasks(self) -> int:
        return sum(w.executed_tasks for w in self.all_workers_ever())

    def total_steals(self) -> tuple[int, int]:
        ws = self.all_workers_ever()
        return (
            sum(w.steals_attempted for w in ws),
            sum(w.steals_successful for w in ws),
        )
