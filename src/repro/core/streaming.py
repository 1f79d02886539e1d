"""The large-grid decision engine: the policy's decision on resident arrays.

The adaptation coordinator folds every live worker's latest report into a
:class:`~repro.core.policy.GridSnapshot` once per monitoring period and
hands it to :class:`~repro.core.policy.AdaptationPolicy` — one Python
object per node, fine for the paper's ~40-node grids. The ``large_grid``
substrate runs 10^4 nodes, so it keeps the reports in a
:class:`~repro.core.gridstate.GridState` (flat SoA arrays) and decides
with :class:`StreamingDecisionState` instead:

* :meth:`StreamingDecisionState.sync` re-folds the alive set with one
  :meth:`~repro.core.gridstate.GridState.fold` whenever the membership
  version changed or a report was forgotten — per-node WAE components,
  cluster speed/ic aggregates, all with the snapshot fold's exact IEEE-754
  arithmetic, so the period's WAE is **bit-identical** to
  ``GridSnapshot.wae()``;
* per-node badness is one vectorized pass, and :class:`TopKBadness`
  ranks it worst-first — the order :func:`~repro.core.badness.rank_nodes`
  produces — only when an eviction actually needs the ranking.

The decision logic replicates ``AdaptationPolicy.decide`` term by term
(same arithmetic on the same floats, same reason strings);
``tests/core/test_streaming.py`` asserts identical decision logs against
the policy on randomized grid histories.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .badness import BadnessCoefficients, worst_cluster
from .gridstate import GridFold, GridState
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
    """Worst-first node ranking, replaced whole each period.

    :meth:`rebuild_deferred` takes the period's names and badness values;
    the ranking — badness descending, name ascending, exactly the order
    ``rank_nodes`` sorts — is computed only when :meth:`worst` first asks
    for it, so a period that ends in NoAction/AddNodes pays nothing
    beyond holding the arrays.
    """

    __slots__ = ("_names", "_badness", "_ranked")

    def __init__(self) -> None:
        self._names: list[str] = []
        self._badness = np.empty(0, dtype=float)
        self._ranked: Optional[list[str]] = []

    def __len__(self) -> int:
        return len(self._names)

    def rebuild_deferred(self, names: list[str], badness: np.ndarray) -> None:
        """Replace the whole ranking from parallel arrays, lazily."""
        self._names = names
        self._badness = badness
        self._ranked = None

    def _ranking(self) -> list[str]:
        if self._ranked is None:
            names = self._names
            # one np.lexsort by (-badness, name); the secondary key is
            # name ascending (ASCII node names, so numpy's unicode
            # ordering and Python's str ordering agree)
            order = np.lexsort((np.asarray(names), -self._badness))
            self._ranked = list(map(names.__getitem__, order.tolist()))
        return self._ranked

    def worst(self, count: int, skip: Sequence[str] = ()) -> list[str]:
        """The worst ``count`` names, skipping ``skip`` (protected nodes).

        Matches ``[n for n, _ in rank_nodes(...) if n not in skip][:count]``.
        """
        skip_set = set(skip)
        out: list[str] = []
        for name in self._ranking():
            if len(out) >= count:
                break
            if name not in skip_set:
                out.append(name)
        return out


class StreamingDecisionState:
    """Resident decision state over a :class:`GridState`, folded per period.

    Usage (the ``large_grid`` period loop)::

        grid.ingest_arrays(slots, ...)        # the period's reports
        state.forget(name)                    # evictions
        state.sync(version, alive_names)      # once per decision period
        if state.size:
            wae = state.weighted_wae()
            decision = state.decide(protected, policy.config)

    ``sync`` re-folds only when ``version`` moved or a report was
    forgotten, so a caller that ingests new values bumps the version.
    """

    def __init__(self, grid: Optional[GridState] = None) -> None:
        #: the SoA store of every known node's latest report (including
        #: nodes not currently folded — dead or not yet alive). Callers
        #: may share one (the large-grid substrate ingests arrays into it
        #: directly and the state folds from the same slots).
        self.grid = grid if grid is not None else GridState()
        #: the current period's fold over the alive nodes with a report,
        #: in alive order.
        self._fold: GridFold = self.grid.fold([])
        self._topk = TopKBadness()
        #: coefficients the ranking was scored with (None: re-score at
        #: the next decide).
        self._coeffs: Optional[BadnessCoefficients] = None
        #: a report was forgotten since the last fold.
        self._structure_dirty = True
        self._version: Optional[int] = None
        #: telemetry: how often the O(n) re-fold ran.
        self.refolds = 0

    def forget(self, name: str) -> None:
        """Drop a node's report (eviction): it leaves the fold at the next
        :meth:`sync`, even if the membership version did not move."""
        if self.grid.release(name) is not None:
            self._structure_dirty = True

    @property
    def size(self) -> int:
        return len(self._fold.order)

    def sync(
        self, membership_version: int, alive_names: Callable[[], list[str]]
    ) -> None:
        """Bring the fold up to date for this decision period.

        One :meth:`GridState.fold` over the alive nodes that have a
        report — a handful of vectorized ops producing the exact snapshot
        fold arithmetic (elementwise ops are IEEE-identical to the scalar
        spec; cluster sums use the sequential ``np.add.accumulate`` fold,
        see :mod:`repro.core.gridstate`).
        """
        if not self._structure_dirty and self._version == membership_version:
            return
        known = self.grid.registry._slot_of
        self._fold = self.grid.fold([n for n in alive_names() if n in known])
        self._version = membership_version
        self._structure_dirty = False
        self._coeffs = None
        self.refolds += 1

    # --------------------------------------------------------------- badness
    def _cluster_ic_means(self) -> dict[str, float]:
        fold = self._fold
        ic_sum = fold.cl_ic_sum
        count = fold.cl_count
        return {c: ic_sum[c] / count[c] for c in fold.clusters}

    def _score(self, coeffs: BadnessCoefficients) -> None:
        """Re-score every node's badness and hand it to the ranking.

        Vectorized ``badness_terms``, summed in the scalar key order:
        α/speed_norm, then +β·ic, then +γ·worst-cluster indicator — each
        step elementwise IEEE-identical to ``sum(badness_terms(...))``.
        """
        fold = self._fold
        self._coeffs = coeffs
        worst = worst_cluster(fold.cl_speed, self._cluster_ic_means(), coeffs)
        worst_code = self.grid._code_of[worst]
        badness = coeffs.alpha * (1.0 / (fold.speed / fold.fastest))
        badness = badness + coeffs.beta * fold.ic
        badness = badness + coeffs.gamma * (fold.codes == worst_code).astype(float)
        self._topk.rebuild_deferred(fold.order, badness)

    # --------------------------------------------------------------- queries
    def weighted_wae(self) -> float:
        """The period's WAE — ``np.mean`` over the folded components,
        bit-identical to ``GridSnapshot.wae()``."""
        if not self.size:
            raise ValueError("empty snapshot has no WAE")
        return float(np.mean(self._fold.comp))

    def unweighted_efficiency(self) -> float:
        if not self.size:
            raise ValueError("empty snapshot has no efficiency")
        return float(np.mean(1.0 - self._fold.overhead))

    def nodes_in_cluster(self, cluster: str) -> list[str]:
        members = self._fold.members.get(cluster)
        if members is None:
            return []
        order = self._fold.order
        return sorted(order[i] for i in members.tolist())

    # ---------------------------------------------------------------- decide
    def decide(self, protected: Sequence[str], config: PolicyConfig) -> Decision:
        """``AdaptationPolicy.decide`` replicated on the resident arrays.

        Must run after :meth:`sync` for the period. The caller passes the
        *current* policy config so feedback-tuned coefficients take effect
        exactly as they do in the policy (new coefficients re-score the
        ranking here).
        """
        if not self.size:
            return NoAction(wae=0.0, reason="no statistics yet")
        if config.coefficients != self._coeffs:
            self._score(config.coefficients)
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
        n = self.size
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
        remaining = self.size - len(nodes)
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
        n = self.size
        count = max(1, math.ceil(n * (cfg.e_min - wae) / cfg.e_min))
        if cfg.max_remove_per_decision is not None:
            count = min(count, cfg.max_remove_per_decision)
        in_grid = len(protected.intersection(self._fold.order))
        count = min(count, n - max(cfg.min_nodes, in_grid))
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
