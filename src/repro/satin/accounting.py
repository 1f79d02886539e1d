"""Per-worker overhead accounting (paper Section 3.2).

Each processor measures, over a *monitoring period*, how much time it
spends in each activity class:

* ``busy`` — useful application work (divide, leaf, combine phases);
* ``idle`` — nothing to do and no synchronous communication in progress;
* ``comm_intra`` — blocked on intra-cluster communication;
* ``comm_inter`` — blocked on inter-cluster communication;
* ``bench`` — running the speed benchmark (adaptivity-support overhead).

At the end of a period the worker computes its *overhead* — the fraction
of the period not spent on useful work — and its inter-cluster overhead
component, and ships a :class:`NodeReport` to the adaptation coordinator.
Clocks are not synchronised across workers: each worker rolls its period
over independently, and the coordinator tolerates missing reports by
reusing the previous one (as the paper describes).

The accumulators are flat slot attributes rather than a dict: an activity
transition on the worker hot path costs two float adds (current period +
lifetime), and the per-period report is assembled once per monitoring
period at :meth:`TimeAccount.rollover`. The lifetime totals feed the
run summary's ``time_by_category`` and are accumulated per-add — folding
them per-period instead would change the floating-point summation order
and with it the golden summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "TimeAccount",
    "NodeReport",
    "CATEGORIES",
    "overhead_fraction",
    "ic_overhead_fraction",
]

CATEGORIES = ("busy", "idle", "comm_intra", "comm_inter", "bench")


def overhead_fraction(busy: float, period_seconds: float) -> float:
    """Overhead fraction of one period: ``clip(1 - busy/period, 0, 1)``.

    The single definition shared by the scalar :class:`NodeReport`
    properties and the vectorized :class:`~repro.core.gridstate.GridState`
    fold — both apply exactly this IEEE-754 op sequence per element, which
    is what keeps the two paths bit-identical.
    """
    if period_seconds <= 0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - busy / period_seconds))


def ic_overhead_fraction(comm_inter: float, period_seconds: float) -> float:
    """Inter-cluster overhead fraction: ``min(1, comm_inter/period)``."""
    if period_seconds <= 0:
        return 0.0
    return min(1.0, comm_inter / period_seconds)


@dataclass(frozen=True)
class NodeReport:
    """One worker's statistics for one monitoring period.

    ``speed`` is the *measured absolute* speed in work units/second from
    the most recent benchmark run; the coordinator normalises it to the
    fastest reporting node (paper: "the fastest processor has speed 1").
    """

    worker: str
    cluster: str
    period_index: int
    sent_at: float
    period_seconds: float
    busy: float
    idle: float
    comm_intra: float
    comm_inter: float
    bench: float
    speed: float

    @property
    def accounted(self) -> float:
        return self.busy + self.idle + self.comm_intra + self.comm_inter + self.bench

    @property
    def overhead(self) -> float:
        """Fraction of the period NOT spent on useful work, clipped to [0, 1].

        The paper defines overhead as the fraction of time spent idle or
        communicating; benchmark time is also not useful work, so it
        counts too (it is bounded by the benchmark's overhead budget).
        """
        return overhead_fraction(self.busy, self.period_seconds)

    @property
    def ic_overhead(self) -> float:
        """Inter-cluster communication overhead fraction."""
        return ic_overhead_fraction(self.comm_inter, self.period_seconds)

    @property
    def intra_overhead(self) -> float:
        """Intra-cluster communication overhead fraction."""
        if self.period_seconds <= 0:
            return 0.0
        return min(1.0, self.comm_intra / self.period_seconds)

    def fractions(self) -> dict[str, float]:
        """Per-category fractions of the period (keys = :data:`CATEGORIES`).

        The attribution ledger (:mod:`repro.obs.attribution`) refines the
        same partition — its ``work`` + ``recovery`` equal ``busy`` here —
        so profile reconciliation compares against these fractions.
        """
        if self.period_seconds <= 0:
            return {c: 0.0 for c in CATEGORIES}
        return {
            c: getattr(self, c) / self.period_seconds for c in CATEGORIES
        }


class TimeAccount:
    """Accumulates activity durations and rolls monitoring periods over.

    Callers charge activity through the per-category adders
    (:meth:`add_busy`, :meth:`add_idle`, :meth:`add_bench`,
    :meth:`add_comm`): no dict lookup, no validation, two float adds. The
    validated generic per-transition adder lives in
    ``tests/reference/accounting.py``; the property tests assert both
    produce identical splits.
    """

    __slots__ = (
        "period_start",
        "period_index",
        "busy",
        "idle",
        "comm_intra",
        "comm_inter",
        "bench",
        "_life_busy",
        "_life_idle",
        "_life_comm_intra",
        "_life_comm_inter",
        "_life_bench",
    )

    def __init__(self, start_time: float) -> None:
        self.period_start = start_time
        self.period_index = 0
        self.busy = 0.0
        self.idle = 0.0
        self.comm_intra = 0.0
        self.comm_inter = 0.0
        self.bench = 0.0
        self._life_busy = 0.0
        self._life_idle = 0.0
        self._life_comm_intra = 0.0
        self._life_comm_inter = 0.0
        self._life_bench = 0.0

    # ------------------------------------------------------------ fast adds
    def add_busy(self, seconds: float) -> None:
        self.busy += seconds
        self._life_busy += seconds

    def add_idle(self, seconds: float) -> None:
        self.idle += seconds
        self._life_idle += seconds

    def add_bench(self, seconds: float) -> None:
        self.bench += seconds
        self._life_bench += seconds

    def add_comm(self, category: str, seconds: float) -> None:
        """``category`` is ``"comm_intra"`` or ``"comm_inter"`` (memoised
        per peer by the worker — never arbitrary input)."""
        if category == "comm_intra":
            self.comm_intra += seconds
            self._life_comm_intra += seconds
        else:
            self.comm_inter += seconds
            self._life_comm_inter += seconds

    def total(self, category: str) -> float:
        """Current-period accumulated seconds for ``category``."""
        if category not in CATEGORIES:
            raise KeyError(category)
        return getattr(self, category)

    def lifetime(self, category: str) -> float:
        """Whole-run accumulated seconds for ``category``."""
        if category not in CATEGORIES:
            raise KeyError(category)
        return getattr(self, "_life_" + category)

    def rollover(
        self, now: float, worker: str, cluster: str, speed: float
    ) -> NodeReport:
        """Close the current period and return its report."""
        report = NodeReport(
            worker=worker,
            cluster=cluster,
            period_index=self.period_index,
            sent_at=now,
            period_seconds=max(now - self.period_start, 0.0),
            busy=self.busy,
            idle=self.idle,
            comm_intra=self.comm_intra,
            comm_inter=self.comm_inter,
            bench=self.bench,
            speed=speed,
        )
        self.period_start = now
        self.period_index += 1
        self.busy = 0.0
        self.idle = 0.0
        self.comm_intra = 0.0
        self.comm_inter = 0.0
        self.bench = 0.0
        return report
