"""Streaming decision path: incremental WAE + incremental top-k badness.

The batch coordinator rebuilds a :class:`~repro.core.policy.GridSnapshot`
from every live worker's latest report each monitoring period and hands it
to :class:`~repro.core.policy.AdaptationPolicy` — O(grid) python object
construction per decision, fine for the paper's ~100-node grids, the
decision-side bottleneck on the ROADMAP's 100k-node north star.

:class:`StreamingDecisionState` keeps the snapshot's contents *resident*
as flat SoA arrays and updates them as reports arrive, so a decision
period touches O(changed nodes):

* per-node WAE components live in a float64 array; a changed report
  updates its slot with the same IEEE-754 scalar operations the batch
  fold applies elementwise, so the period's ``np.mean`` over the array is
  **bit-identical** to the batch result;
* per-cluster speed/ic aggregates are re-folded only for clusters with a
  changed member, accumulating in member order — exactly the sequence of
  additions the batch fold performs for that cluster — so cluster means
  (the RemoveCluster trigger and the worst-cluster γ term) match
  bit-for-bit;
* per-node badness feeds :class:`TopKBadness`, a lazy-deletion heap
  updated only for changed nodes; popping yields the worst-first order
  :func:`~repro.core.badness.rank_nodes` would produce.

Anything that invalidates the maintained arrays wholesale — a membership
change (join/leave/crash/evict), a node's *first* report, a change of the
fastest node's speed, or new badness coefficients (the feedback tuner) —
triggers a full **re-fold**: an O(grid) rebuild performing the exact batch
arithmetic. That is the "periodic batch re-fold" that pins the golden
values; in steady state it never fires and the per-period cost is a
handful of vector folds plus O(changed) python.

The decision logic itself replicates ``AdaptationPolicy.decide`` term by
term (same arithmetic on the same floats, same reason strings), and the
equivalence suite asserts identical decision logs and byte-identical
run summaries against the batch path, which remains available as the
executable spec via ``CoordinatorConfig(mode="batch")``.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from ..satin.accounting import NodeReport
from .badness import BadnessCoefficients, worst_cluster
from .gridstate import GridState
from .policy import (
    AddNodes,
    Decision,
    NoAction,
    PolicyConfig,
    RemoveCluster,
    RemoveNodes,
)

__all__ = ["StreamingDecisionState", "TopKBadness"]


class TopKBadness:
    """Worst-first node ranking as a lazy-deletion min-heap.

    Entries are ``(-badness, name)`` so the heap pops in exactly the
    order ``rank_nodes`` sorts: badness descending, name ascending.
    Stale entries (superseded by :meth:`update` or dropped by
    :meth:`discard`) are skipped on pop by checking against the current
    value; the heap is compacted when stale entries dominate, keeping
    memory bounded by O(live nodes).
    """

    __slots__ = ("_heap", "_badness", "_pending")

    def __init__(self) -> None:
        self._heap: list[tuple[float, str]] = []
        self._badness: dict[str, float] = {}
        self._pending: Optional[tuple[list[str], np.ndarray]] = None

    def __len__(self) -> int:
        self._materialize()
        return len(self._badness)

    def update(self, name: str, badness: float) -> None:
        """Set ``name``'s badness; the old entry becomes stale."""
        self._materialize()
        self._badness[name] = badness
        heapq.heappush(self._heap, (-badness, name))
        if len(self._heap) > 64 + 4 * len(self._badness):
            self._compact()

    def discard(self, name: str) -> None:
        """Remove ``name`` from the ranking (lazy: its entry goes stale)."""
        self._materialize()
        self._badness.pop(name, None)

    def rebuild(self, items: Iterable[tuple[str, float]]) -> None:
        """Replace the whole ranking in one O(n) heapify."""
        self._pending = None
        self._badness = dict(items)
        self._heap = [(-b, n) for n, b in self._badness.items()]
        heapq.heapify(self._heap)

    def rebuild_deferred(self, names: list[str], badness: np.ndarray) -> None:
        """Replace the whole ranking from parallel arrays, lazily.

        The heap and dict are only materialized when the ranking is next
        queried or updated — a decision period that ends in NoAction/
        AddNodes (no eviction ranking needed) pays nothing beyond holding
        the arrays. Materialization sorts by ``(-badness, name)`` with one
        ``np.lexsort`` — a sorted list is a valid heap — instead of n
        tuple-comparison sift-downs.
        """
        self._pending = (names, badness)
        self._badness = {}
        self._heap = []

    def _materialize(self) -> None:
        if self._pending is None:
            return
        names, badness = self._pending
        self._pending = None
        self._badness = dict(zip(names, badness.tolist()))
        if names:
            neg = -badness
            # secondary key: name ascending (ASCII node names, so numpy's
            # unicode ordering and Python's str ordering agree)
            order = np.lexsort((np.asarray(names), neg))
            self._heap = list(
                zip(neg[order].tolist(), map(names.__getitem__, order.tolist()))
            )

    def _compact(self) -> None:
        self._heap = [(-b, n) for n, b in self._badness.items()]
        heapq.heapify(self._heap)

    def worst(self, count: int, skip: Sequence[str] = ()) -> list[str]:
        """The worst ``count`` names, skipping ``skip`` (protected nodes).

        Matches ``[n for n, _ in rank_nodes(...) if n not in skip][:count]``.
        """
        self._materialize()
        skip_set = set(skip)
        out: list[str] = []
        popped: list[tuple[float, str]] = []
        emitted: set[str] = set()
        heap = self._heap
        while heap and len(out) < count:
            entry = heapq.heappop(heap)
            neg_badness, name = entry
            if self._badness.get(name) != -neg_badness or name in emitted:
                continue  # stale or duplicate entry
            popped.append(entry)
            emitted.add(name)
            if name not in skip_set:
                out.append(name)
        for entry in popped:
            heapq.heappush(heap, entry)
        return out


class StreamingDecisionState:
    """Resident coordinator state updated per report, folded per period.

    Usage (the coordinator's streaming ``_decide_loop`` body)::

        state.observe(report)                 # as each report arrives
        state.sync(version, alive_names)      # once per decision period
        if state.size:
            wae = state.weighted_wae()
            decision = state.decide(protected, policy.config)

    ``sync`` applies the changed reports; ``decide`` replicates
    ``AdaptationPolicy.decide`` on the maintained arrays.
    """

    def __init__(self, grid: Optional[GridState] = None) -> None:
        #: the SoA store of every known node's latest report (including
        #: nodes not currently folded — dead or not yet alive). Callers
        #: may share one (the large-grid substrate ingests arrays into it
        #: directly and the state folds from the same slots).
        self.grid = grid if grid is not None else GridState()
        #: snapshot order: alive workers with a report, in runtime order.
        self._order: list[str] = []
        self._index: dict[str, int] = {}
        self._speed = np.empty(0, dtype=float)
        self._overhead = np.empty(0, dtype=float)
        self._ic = np.empty(0, dtype=float)
        self._comp = np.empty(0, dtype=float)
        #: cluster code per position (codes index ``grid``'s cluster table)
        self._ccode = np.empty(0, dtype=np.int64)
        self._fastest = 0.0
        #: clusters in first-appearance (snapshot) order + member indices.
        self._clusters: list[str] = []
        self._members: dict[str, np.ndarray] = {}
        self._cl_speed: dict[str, float] = {}
        self._cl_ic_sum: dict[str, float] = {}
        self._cl_count: dict[str, int] = {}
        self._topk = TopKBadness()
        self._worst_cluster: Optional[str] = None
        self._worst_code = -1
        self._coeffs: Optional[BadnessCoefficients] = None
        self._dirty: set[str] = set()
        #: arrays must be rebuilt (first report / forget); membership
        #: changes are detected via the runtime's version counter.
        self._structure_dirty = True
        self._version: Optional[int] = None
        #: telemetry: how often the O(n) re-fold ran vs O(changed) updates.
        self.refolds = 0
        self.incremental_updates = 0

    # ------------------------------------------------------------- ingestion
    def observe(self, report: NodeReport) -> None:
        """Fold one report in. O(1): the arrays update at the next sync."""
        name = report.worker
        self.grid.ingest(report)  # validates speed/fraction ranges
        if name in self._index:
            self._dirty.add(name)
        else:
            self._structure_dirty = True

    def observe_batch(self, reports: Iterable[NodeReport]) -> None:
        """Fold many reports in (one period's mailbox drain)."""
        for report in reports:
            self.observe(report)

    def forget(self, name: str) -> None:
        """Drop a node's report (eviction): it leaves the fold immediately."""
        if self.grid.release(name) is not None:
            self._dirty.discard(name)
            self._structure_dirty = True

    # ------------------------------------------------------------------ sync
    @property
    def size(self) -> int:
        return len(self._order)

    def sync(
        self, membership_version: int, alive_names: Callable[[], list[str]]
    ) -> None:
        """Bring the arrays up to date for this decision period.

        Re-folds everything when membership or the reporting set changed;
        otherwise applies only the changed slots.
        """
        if self._structure_dirty or self._version != membership_version:
            known = self.grid.registry._slot_of
            self._refold([n for n in alive_names() if n in known])
            self._version = membership_version
        elif self._dirty:
            self._apply_dirty()

    def _refold(self, order: list[str]) -> None:
        """Full rebuild from the grid state's SoA arrays.

        One :meth:`GridState.fold` — a handful of vectorized ops producing
        the exact batch fold arithmetic (elementwise ops are IEEE-identical
        to the scalar spec; cluster sums use the sequential
        ``np.add.accumulate`` fold, see :mod:`repro.core.gridstate`).
        """
        self.refolds += 1
        self._order = order
        self._index = dict(zip(order, range(len(order))))
        self._dirty.clear()
        self._structure_dirty = False
        if not order:
            self._speed = np.empty(0, dtype=float)
            self._overhead = np.empty(0, dtype=float)
            self._ic = np.empty(0, dtype=float)
            self._comp = np.empty(0, dtype=float)
            self._ccode = np.empty(0, dtype=np.int64)
            self._clusters = []
            self._members = {}
            self._cl_speed = {}
            self._cl_ic_sum = {}
            self._cl_count = {}
            self._fastest = 0.0
            self._topk.rebuild(())
            self._worst_cluster = None
            self._worst_code = -1
            return
        fold = self.grid.fold(order)
        self._speed = fold.speed
        self._overhead = fold.overhead
        self._ic = fold.ic
        self._comp = fold.comp
        self._ccode = fold.codes
        self._fastest = fold.fastest
        self._clusters = fold.clusters
        self._members = fold.members
        self._cl_speed = fold.cl_speed
        self._cl_ic_sum = fold.cl_ic_sum
        self._cl_count = fold.cl_count
        self._coeffs = None  # force a badness rebuild below
        self._refresh_badness(force=True)

    def _fold_cluster(self, cluster: str) -> None:
        """Re-fold one cluster's aggregates in member order — the batch
        fold's addition sequence restricted to this cluster, computed with
        the sequential ``np.add.accumulate`` fold (same bits, C speed)."""
        members = self._members[cluster]
        speed = self._speed[members]
        ic = self._ic[members]
        self._cl_speed[cluster] = float(np.add.accumulate(speed)[-1])
        self._cl_ic_sum[cluster] = float(np.add.accumulate(ic)[-1])
        self._cl_count[cluster] = int(members.size)

    def _apply_dirty(self) -> None:
        """O(changed) path: update only the slots whose reports changed."""
        dirty = [(self._index[n], n) for n in self._dirty]
        self._dirty.clear()
        self.incremental_updates += len(dirty)
        speed = self._speed
        overhead = self._overhead
        ic = self._ic
        grid = self.grid
        grid_speed = grid.array("speed")
        grid_overhead = grid.array("overhead")
        grid_ic = grid.array("ic")
        slot_of = grid.registry._slot_of
        cluster_names = grid._cluster_names
        ccode = self._ccode
        dirty_clusters = set()
        for i, name in dirty:
            slot = slot_of[name]
            speed[i] = grid_speed[slot]
            overhead[i] = grid_overhead[slot]
            ic[i] = grid_ic[slot]
            dirty_clusters.add(cluster_names[ccode[i]])
        new_fastest = float(speed.max())
        renormalized = new_fastest != self._fastest
        if renormalized:
            # the normalisation base moved: every component shifts
            self._fastest = new_fastest
            self._comp = (speed / new_fastest) * (1.0 - overhead)
        else:
            comp = self._comp
            for i, _ in dirty:
                comp[i] = (speed[i] / new_fastest) * (1.0 - overhead[i])
        for cluster in self._clusters:
            if cluster in dirty_clusters:
                self._fold_cluster(cluster)
        # A moved normalisation base shifts every node's α badness term
        # (1/(speed/fastest)), not just the dirty slots' — the ranking
        # must be rebuilt wholesale or non-dirty entries go stale.
        self._refresh_badness(force=renormalized, dirty=dirty)

    # --------------------------------------------------------------- badness
    def _cluster_ic_means(self) -> dict[str, float]:
        ic_sum = self._cl_ic_sum
        count = self._cl_count
        return {c: ic_sum[c] / count[c] for c in self._clusters}

    def _node_badness(self, i: int, coeffs: BadnessCoefficients) -> float:
        """badness_terms summed in key order — bit-identical to the batch
        ``sum(badness_terms(...).values())``."""
        total = coeffs.alpha * (1.0 / (self._speed[i] / self._fastest))
        total = total + coeffs.beta * self._ic[i]
        total = total + coeffs.gamma * (
            1.0 if self._ccode[i] == self._worst_code else 0.0
        )
        return float(total)

    def _refresh_badness(
        self,
        force: bool = False,
        dirty: Sequence[tuple[int, str]] = (),
        coeffs: Optional[BadnessCoefficients] = None,
    ) -> None:
        """Keep the top-k structure consistent with the arrays.

        A changed worst cluster or new coefficients shift *every* node's
        badness — rebuild; otherwise only the dirty slots are re-scored.
        """
        if coeffs is None:
            coeffs = self._coeffs if self._coeffs is not None else BadnessCoefficients()
        current_worst = (
            worst_cluster({c: self._cl_speed[c] for c in self._clusters},
                          self._cluster_ic_means(), coeffs)
            if self._clusters
            else None
        )
        if force or coeffs != self._coeffs or current_worst != self._worst_cluster:
            self._worst_cluster = current_worst
            self._worst_code = (
                self.grid._code_of[current_worst]
                if current_worst is not None
                else -1
            )
            self._coeffs = coeffs
            if not self._order:
                self._topk.rebuild(())
                return
            # vectorized badness_terms, summed in the scalar key order:
            # α/speed_norm, then +β·ic, then +γ·worst-cluster indicator —
            # each step elementwise IEEE-identical to _node_badness.
            badness = coeffs.alpha * (1.0 / (self._speed / self._fastest))
            badness = badness + coeffs.beta * self._ic
            badness = badness + coeffs.gamma * (
                self._ccode == self._worst_code
            ).astype(float)
            self._topk.rebuild_deferred(self._order, badness)
        else:
            for i, name in dirty:
                self._topk.update(name, self._node_badness(i, coeffs))

    # --------------------------------------------------------------- queries
    def weighted_wae(self) -> float:
        """The period's WAE — ``np.mean`` over the maintained components,
        bit-identical to ``GridSnapshot.wae()``."""
        if not self._order:
            raise ValueError("empty snapshot has no WAE")
        return float(np.mean(self._comp))

    def unweighted_efficiency(self) -> float:
        if not self._order:
            raise ValueError("empty snapshot has no efficiency")
        return float(np.mean(1.0 - self._overhead))

    def component_spread(self) -> float:
        """max − min of the WAE components (the wae_sample spread field)."""
        return float(self._comp.max() - self._comp.min())

    def nodes_in_cluster(self, cluster: str) -> list[str]:
        code = self.grid._code_of.get(cluster)
        if code is None:
            return []
        order = self._order
        return sorted(order[i] for i in np.flatnonzero(self._ccode == code))

    # ---------------------------------------------------------------- decide
    def decide(self, protected: Sequence[str], config: PolicyConfig) -> Decision:
        """``AdaptationPolicy.decide`` replicated on the resident arrays.

        Must run after :meth:`sync` for the period. The caller passes the
        *current* policy config so feedback-tuned coefficients take effect
        exactly as they do on the batch path (new coefficients trigger a
        ranking rebuild here).
        """
        if not self._order:
            return NoAction(wae=0.0, reason="no statistics yet")
        if config.coefficients != self._coeffs:
            self._refresh_badness(coeffs=config.coefficients)
        wae = (
            self.weighted_wae() if config.weighted else self.unweighted_efficiency()
        )
        if wae > config.e_max:
            return self._grow(wae, config)
        protected_set = set(protected)
        cluster_eviction = self._exceptional_cluster(wae, protected_set, config)
        if cluster_eviction is not None:
            return cluster_eviction
        if wae < config.e_min:
            return self._shrink(wae, protected_set, config)
        return NoAction(wae=wae, reason="within [e_min, e_max] dead band")

    def _grow(self, wae: float, cfg: PolicyConfig) -> Decision:
        n = len(self._order)
        count = max(1, math.ceil(n * (wae - cfg.e_max) / (1.0 - cfg.e_max)))
        if cfg.max_add_per_decision is not None:
            count = min(count, cfg.max_add_per_decision)
        if cfg.max_nodes is not None:
            count = min(count, cfg.max_nodes - n)
        if count <= 0:
            return NoAction(wae=wae, reason="at max_nodes")
        return AddNodes(
            wae=wae, count=count, reason=f"WAE {wae:.3f} > E_max {cfg.e_max}"
        )

    def _exceptional_cluster(
        self, wae: float, protected: set[str], cfg: PolicyConfig
    ) -> Decision | None:
        ic_by_cluster = self._cluster_ic_means()
        if len(ic_by_cluster) <= 1:
            return None
        bad = [
            c
            for c, ic in ic_by_cluster.items()
            if ic > cfg.cluster_removal_ic_overhead
        ]
        if not bad:
            return None
        cluster = max(bad, key=lambda c: (ic_by_cluster[c], c))
        others = [ic for c, ic in ic_by_cluster.items() if c != cluster]
        second_worst = max(others) if others else 0.0
        if (
            second_worst > 0.0
            and ic_by_cluster[cluster] < cfg.cluster_outlier_factor * second_worst
        ):
            return None
        nodes = [
            n for n in self.nodes_in_cluster(cluster) if n not in protected
        ]
        remaining = len(self._order) - len(nodes)
        if not nodes or remaining < cfg.min_nodes:
            return None
        return RemoveCluster(
            wae=wae,
            cluster=cluster,
            nodes=tuple(nodes),
            reason=(
                f"cluster ic_overhead {ic_by_cluster[cluster]:.3f} > "
                f"{cfg.cluster_removal_ic_overhead} (insufficient uplink)"
            ),
        )

    def _shrink(
        self, wae: float, protected: set[str], cfg: PolicyConfig
    ) -> Decision:
        n = len(self._order)
        count = max(1, math.ceil(n * (cfg.e_min - wae) / cfg.e_min))
        if cfg.max_remove_per_decision is not None:
            count = min(count, cfg.max_remove_per_decision)
        count = min(count, n - max(cfg.min_nodes, len(protected & self._index.keys())))
        if count <= 0:
            return NoAction(wae=wae, reason="at min_nodes")
        victims = self._topk.worst(count, skip=protected)
        if not victims:
            return NoAction(wae=wae, reason="all nodes protected")
        return RemoveNodes(
            wae=wae,
            nodes=tuple(victims),
            reason=f"WAE {wae:.3f} < E_min {cfg.e_min}",
        )
