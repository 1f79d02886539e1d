"""Flat struct-of-arrays grid state (the ROADMAP's 100k-node substrate).

Per-node monitoring state — overhead slots, effective speeds, bench
results, membership epochs — historically lived as one Python object per
node (``NodeReport`` tuples inside dicts), so a monitoring period over
10^4–10^5 nodes cost 10^4–10^5 attribute walks before the decision path
even started. :class:`GridState` flattens that state into numpy arrays
indexed by a stable node-slot registry:

* :class:`SlotRegistry` maps node names to array slots. Slots are stable
  for a node's lifetime, freed on release, and reused LIFO; every
  (re)acquisition bumps the slot's *membership epoch*, so a slot observed
  across a leave/rejoin is distinguishable from a stale read.
* :class:`GridState` owns one float64 array per monitoring quantity (raw
  period slots ``busy``/``idle``/``comm_intra``/``comm_inter``/``bench``,
  the period length, the reported speed, and the latest benchmark
  result). Reports enter as whole arrays (:meth:`GridState.ingest_arrays`,
  the large-grid substrate path).
* :meth:`GridState.fold` computes one monitoring period's decision
  inputs — per-node overhead/ic fractions, WAE components, cluster
  aggregates — as a handful of vectorized ops. The result feeds
  :class:`~repro.core.streaming.StreamingDecisionState` directly.

**The bit-identity contract.** ``fold`` must produce, bit for bit, the
floats the coordinator's snapshot fold (``GridSnapshot`` + the policy)
computes with plain scalar arithmetic, which constrains its
vectorization:

* elementwise ops (``clip``, divide, multiply) are IEEE-identical per
  element to their scalar counterparts — free to vectorize;
* **cluster sums accumulate in member order**. ``np.add.reduce``/
  ``np.sum`` use pairwise summation and do NOT reproduce a sequential
  fold; ``np.add.accumulate`` does (it is defined as the running left
  fold), so cluster aggregates are ``np.add.accumulate(values)[-1]`` per
  cluster — C-speed, same bits;
* the WAE is ``np.mean`` over the component array in both folds (the
  same call on the same array).

The executable spec — a per-node scalar ``fold`` and a one-report
``ingest`` — lives in ``tests/reference/gridstate.py``; the hypothesis
suite drives randomized report/join/leave/evict sequences through both
folds and asserts exact equality everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["SlotRegistry", "GridState", "GridFold"]

#: quantities stored per slot, one float64 array each.
FIELDS = (
    "speed",          # reported absolute speed (work units/s)
    "overhead",       # derived overhead fraction of the last period
    "ic",             # derived inter-cluster overhead fraction
    "busy",           # raw period slots (seconds) ...
    "idle",
    "comm_intra",
    "comm_inter",
    "bench",
    "period_seconds",
    "bench_speed",    # latest benchmark measurement (NaN before any)
    "report_period",  # period_index of the latest report
)


class SlotRegistry:
    """Stable name ↔ slot mapping with LIFO free-list reuse and epochs.

    ``acquire`` hands out the lowest-numbered free slot (or extends the
    registry); ``release`` frees a slot for reuse. The per-slot *epoch*
    increments on every acquisition, so ``(slot, epoch)`` uniquely names
    one node incarnation even after the slot is recycled.
    """

    __slots__ = ("_slot_of", "_name_of", "_free", "_epoch", "acquires", "reuses")

    def __init__(self) -> None:
        self._slot_of: dict[str, int] = {}
        self._name_of: list[Optional[str]] = []
        self._free: list[int] = []
        self._epoch: list[int] = []
        #: telemetry: total acquisitions / how many reused a freed slot.
        self.acquires = 0
        self.reuses = 0

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, name: str) -> bool:
        return name in self._slot_of

    @property
    def capacity(self) -> int:
        """Total slots ever created (the required array length)."""
        return len(self._name_of)

    def slot_of(self, name: str) -> int:
        return self._slot_of[name]

    def get(self, name: str) -> Optional[int]:
        return self._slot_of.get(name)

    def epoch_of(self, slot: int) -> int:
        return self._epoch[slot]

    def name_of(self, slot: int) -> Optional[str]:
        return self._name_of[slot]

    def names(self) -> list[str]:
        """Registered names in slot order (registration order modulo reuse)."""
        return [n for n in self._name_of if n is not None]

    def acquire(self, name: str) -> int:
        """Slot for ``name``; allocates (or reuses a freed slot) if new."""
        slot = self._slot_of.get(name)
        if slot is not None:
            return slot
        self.acquires += 1
        if self._free:
            slot = self._free.pop()
            self.reuses += 1
            self._name_of[slot] = name
            self._epoch[slot] += 1
        else:
            slot = len(self._name_of)
            self._name_of.append(name)
            self._epoch.append(0)
        self._slot_of[name] = slot
        return slot

    def release(self, name: str) -> Optional[int]:
        """Free ``name``'s slot for reuse; returns it (None if unknown)."""
        slot = self._slot_of.pop(name, None)
        if slot is not None:
            self._name_of[slot] = None
            self._free.append(slot)
        return slot


@dataclass
class GridFold:
    """One monitoring period's folded decision inputs.

    ``order`` is the snapshot membership order; all arrays are indexed by
    position in ``order``. Cluster aggregates are keyed by cluster name;
    ``clusters`` preserves first-appearance order (the snapshot fold's
    cluster discovery order).
    """

    order: list[str]
    clusters: list[str]
    cluster_of: list[str]
    codes: np.ndarray          # cluster code per position (into ``clusters``)
    speed: np.ndarray
    overhead: np.ndarray
    ic: np.ndarray
    comp: np.ndarray           # WAE components: (speed/fastest)·(1-overhead)
    fastest: float
    members: dict[str, np.ndarray]
    cl_speed: dict[str, float]
    cl_ic_sum: dict[str, float]
    cl_count: dict[str, int]

    def wae(self) -> float:
        """Weighted average efficiency: ``np.mean`` over the components."""
        if not self.order:
            raise ValueError("empty fold has no WAE")
        return float(np.mean(self.comp))


def _seq_sum(values: np.ndarray) -> float:
    """Left-to-right sequential sum — ``np.add.accumulate`` is the running
    left fold, so its last element is bit-identical to the scalar loop
    (``np.sum``/``np.add.reduce`` are pairwise and are NOT)."""
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


class GridState:
    """The grid's per-node monitoring state as struct-of-arrays."""

    GROWTH = 64  # array capacity grows in blocks to amortize resizes

    def __init__(self) -> None:
        self.registry = SlotRegistry()
        self._cap = 0
        for field in FIELDS:
            setattr(self, "_" + field, np.empty(0, dtype=float))
        #: cluster code per slot; cluster names are interned once.
        self._ccode = np.empty(0, dtype=np.int64)
        self._cluster_names: list[str] = []
        self._code_of: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.registry)

    def __contains__(self, name: str) -> bool:
        return name in self.registry

    # ------------------------------------------------------------- capacity
    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._cap:
            return
        # the capacity one-slot-at-a-time growth would reach, in one resize
        new_cap = self._cap
        while new_cap < needed:
            new_cap = max(new_cap + self.GROWTH, new_cap * 2)
        for field in FIELDS:
            arr = getattr(self, "_" + field)
            grown = np.zeros(new_cap, dtype=float)
            grown[: arr.size] = arr
            setattr(self, "_" + field, grown)
        ccode = np.zeros(new_cap, dtype=np.int64)
        ccode[: self._ccode.size] = self._ccode
        self._ccode = ccode
        self._cap = new_cap

    def cluster_code(self, cluster: str) -> int:
        code = self._code_of.get(cluster)
        if code is None:
            code = len(self._cluster_names)
            self._cluster_names.append(cluster)
            self._code_of[cluster] = code
        return code

    def array(self, field: str) -> np.ndarray:
        """The backing array for ``field`` (a view; slots beyond the
        registry's capacity are unused)."""
        if field not in FIELDS:
            raise KeyError(field)
        return getattr(self, "_" + field)

    # ------------------------------------------------------------ ingestion
    def ensure(self, name: str, cluster: str) -> int:
        """Slot for ``name``, acquiring one (epoch bump on reuse) if new."""
        slot = self.registry.acquire(name)
        self._ensure_capacity(self.registry.capacity)
        self._ccode[slot] = self.cluster_code(cluster)
        return slot

    def ensure_many(self, names: Sequence[str], cluster: str) -> np.ndarray:
        """Slots for ``names`` (all in ``cluster``) — ``ensure`` per name.

        Registered names are read straight from the registry; only the
        unregistered ones are acquired, in list order, so slot numbers,
        epochs and the acquire/reuse counters come out exactly as the
        per-name calls would leave them. Arrays grow (at most) once.
        """
        registry = self.registry
        slots = list(map(registry._slot_of.get, names))
        if not slots:
            return np.empty(0, dtype=np.intp)
        if None in slots:
            acquire = registry.acquire
            slots = [
                acquire(name) if slot is None else slot
                for name, slot in zip(names, slots)
            ]
            self._ensure_capacity(registry.capacity)
        out = np.array(slots, dtype=np.intp)
        self._ccode[out] = self.cluster_code(cluster)
        return out

    def release(self, name: str) -> Optional[int]:
        """Free ``name``'s slot (eviction/leave); epochs make reuse safe."""
        return self.registry.release(name)

    def ingest_arrays(
        self,
        slots: np.ndarray,
        *,
        speed: np.ndarray,
        busy: np.ndarray,
        comm_inter: np.ndarray,
        period_seconds: np.ndarray,
        idle: Optional[np.ndarray] = None,
        comm_intra: Optional[np.ndarray] = None,
        bench: Optional[np.ndarray] = None,
        bench_speed: Optional[np.ndarray] = None,
        period_index: Optional[float] = None,
    ) -> None:
        """Fold one period's reports for many nodes in vectorized ops.

        Derived fractions use the same per-element op sequence as the
        scalar :func:`~repro.satin.accounting.overhead_fraction` /
        ``ic_overhead_fraction`` helpers (``np.clip`` ≡ ``min(max(..))``
        elementwise), so a node's derived fractions are bit-identical to
        its :class:`~repro.satin.accounting.NodeReport` properties.
        """
        if np.any(speed <= 0):
            raise ValueError("speeds must be > 0")
        self._speed[slots] = speed
        self._busy[slots] = busy
        self._comm_inter[slots] = comm_inter
        self._period_seconds[slots] = period_seconds
        # guard the period=0 edge exactly like the scalar helpers
        safe = np.where(period_seconds > 0, period_seconds, np.inf)
        self._overhead[slots] = np.where(
            period_seconds > 0, np.clip(1.0 - busy / safe, 0.0, 1.0), 0.0
        )
        self._ic[slots] = np.where(
            period_seconds > 0, np.minimum(1.0, comm_inter / safe), 0.0
        )
        if idle is not None:
            self._idle[slots] = idle
        if comm_intra is not None:
            self._comm_intra[slots] = comm_intra
        if bench is not None:
            self._bench[slots] = bench
        if bench_speed is not None:
            self._bench_speed[slots] = bench_speed
        if period_index is not None:
            self._report_period[slots] = period_index

    # ----------------------------------------------------------------- fold
    def slots_for(self, order: Sequence[str]) -> np.ndarray:
        """Slot indices for ``order`` (all names must be registered)."""
        return np.array(
            list(map(self.registry._slot_of.__getitem__, order)), dtype=np.intp
        )

    def fold(self, order: Sequence[str]) -> GridFold:
        """One period's decision inputs over ``order``, vectorized."""
        order = list(order)
        if not order:
            return _empty_fold()
        slots = self.slots_for(order)
        speed = self._speed[slots]
        overhead = self._overhead[slots]
        ic = self._ic[slots]
        codes = self._ccode[slots]
        fastest = float(speed.max())
        comp = (speed / fastest) * (1.0 - overhead)

        # group positions by cluster, preserving member order inside each
        # group (stable sort) and first-appearance order across groups.
        grouped = np.argsort(codes, kind="stable")
        gcodes = codes[grouped]
        starts = np.flatnonzero(np.diff(gcodes)) + 1
        groups = np.split(grouped, starts)
        groups.sort(key=lambda g: g[0])

        clusters: list[str] = []
        members: dict[str, np.ndarray] = {}
        cl_speed: dict[str, float] = {}
        cl_ic_sum: dict[str, float] = {}
        cl_count: dict[str, int] = {}
        names = self._cluster_names
        for g in groups:
            cluster = names[codes[g[0]]]
            clusters.append(cluster)
            members[cluster] = g
            cl_speed[cluster] = _seq_sum(speed[g])
            cl_ic_sum[cluster] = _seq_sum(ic[g])
            cl_count[cluster] = int(g.size)
        return GridFold(
            order=order,
            clusters=clusters,
            cluster_of=list(map(names.__getitem__, codes.tolist())),
            codes=codes,
            speed=speed,
            overhead=overhead,
            ic=ic,
            comp=comp,
            fastest=fastest,
            members=members,
            cl_speed=cl_speed,
            cl_ic_sum=cl_ic_sum,
            cl_count=cl_count,
        )


def _empty_fold() -> GridFold:
    return GridFold(
        order=[],
        clusters=[],
        cluster_of=[],
        codes=np.empty(0, dtype=np.int64),
        speed=np.empty(0, dtype=float),
        overhead=np.empty(0, dtype=float),
        ic=np.empty(0, dtype=float),
        comp=np.empty(0, dtype=float),
        fastest=0.0,
        members={},
        cl_speed={},
        cl_ic_sum={},
        cl_count={},
    )
