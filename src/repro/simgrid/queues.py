"""Waitable queues and resources for the simulation engine.

Three primitives cover all the substrate's needs:

* :class:`Store` — an unbounded FIFO message queue with waitable ``get``;
  the basic mailbox used for all message passing between simulated
  processes (steal requests, statistics reports, coordinator commands).
* :class:`PriorityStore` — like :class:`Store` but items are delivered in
  priority order (used by schedulers).
* :class:`Resource` — a counting semaphore with FIFO waiters (used to model
  serialised network uplinks, where a transfer occupies the link for its
  duration and later transfers queue behind it).

Cancellation
------------
A process that is interrupted while blocked on a :class:`StoreGet` or a
:class:`ResourceRequest` leaves that request queued. To avoid lost messages
or leaked capacity, every request event has a :meth:`cancel` method; the
interrupt handler of a waiting process should call it. Cancelled requests
are skipped (and never consume an item or capacity).

Performance notes
-----------------
``Store`` keeps items and waiters in ``collections.deque`` — a C-level ring
buffer of blocks, so both ends are O(1) with no per-item allocation — and
the ``put``/``get`` fast paths inline event construction and triggering
(skipping the generic ``Event.succeed`` machinery) because every message,
steal request, and statistics report in the simulation funnels through
them. The inlined paths schedule exactly the same events in exactly the
same ``(time, priority, seq)`` order as the straightforward code, so
seeded runs are unaffected.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generic, Optional, TypeVar

from .engine import NORMAL, Environment, Event, SimulationError

_PENDING = Event._PENDING

__all__ = [
    "Store",
    "PriorityStore",
    "StoreGet",
    "Resource",
    "ResourceRequest",
]

T = TypeVar("T")


class StoreGet(Event):
    """Pending ``get`` on a :class:`Store`; fires with the item."""

    __slots__ = ("store", "_cancelled")

    def __init__(self, env: Environment, store: "Store") -> None:
        # Inlined Event.__init__: StoreGet creation is on the message path.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.store = store
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw this get; it will never receive an item.

        Cancelling an already-satisfied get is an error (the item would be
        lost silently): callers must check :attr:`triggered` first.
        """
        if self.triggered:
            raise SimulationError("cannot cancel a satisfied get")
        self._cancelled = True


class Store(Generic[T]):
    """Unbounded FIFO queue with waitable ``get`` and immediate ``put``.

    ``owner`` optionally names the simulated host this store belongs to;
    :meth:`repro.simgrid.network.Network.send` uses it to address
    fire-and-forget messages.
    """

    def __init__(self, env: Environment, owner: Optional[str] = None) -> None:
        self.env = env
        self.owner = owner
        self._items: deque[T] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple[T, ...]:
        """Snapshot of queued items (for inspection/testing)."""
        return tuple(self._items)

    def put(self, item: T) -> None:
        """Deposit ``item``; wakes the oldest live waiter if any."""
        getters = self._getters
        while getters:
            g = getters.popleft()
            if not g._cancelled and g._value is _PENDING:
                # Inlined Event.succeed: the liveness check above already
                # guarantees the event is untriggered.
                g._ok = True
                g._value = item
                g.env._schedule(g, NORMAL)
                return
        self._items.append(item)

    def get(self) -> StoreGet:
        """Return an event that fires with the next item."""
        ev = StoreGet(self.env, self)
        items = self._items
        if items:
            ev._value = items.popleft()
            ev.env._schedule(ev, NORMAL)
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[T]:
        """Non-blocking get: the next item, or ``None`` if empty."""
        return self._items.popleft() if self._items else None

    def clear(self) -> list[T]:
        """Drain and return all queued items (used on node teardown)."""
        items = list(self._items)
        self._items.clear()
        return items

    def _pop_live_getter(self) -> Optional[StoreGet]:
        while self._getters:
            g = self._getters.popleft()
            if not g._cancelled and not g.triggered:
                return g
        return None


class PriorityStore(Store[T]):
    """Store delivering the smallest item first (heap order).

    Items must be orderable; use ``(priority, seq, payload)`` tuples to
    avoid comparing payloads.
    """

    def __init__(self, env: Environment, owner: Optional[str] = None) -> None:
        super().__init__(env, owner)
        self._heap: list[T] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def items(self) -> tuple[T, ...]:
        return tuple(sorted(self._heap))

    def put(self, item: T) -> None:
        getter = self._pop_live_getter()
        if getter is not None:
            getter.succeed(item)
        else:
            heapq.heappush(self._heap, item)

    def get(self) -> StoreGet:
        ev = StoreGet(self.env, self)
        if self._heap:
            ev.succeed(heapq.heappop(self._heap))
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Optional[T]:
        return heapq.heappop(self._heap) if self._heap else None

    def clear(self) -> list[T]:
        items = sorted(self._heap)
        self._heap.clear()
        return items


class ResourceRequest(Event):
    """Pending acquisition of one capacity unit of a :class:`Resource`."""

    __slots__ = ("resource", "_cancelled", "_holding")

    def __init__(self, env: Environment, resource: "Resource") -> None:
        # Inlined Event.__init__: every inter-cluster transfer makes two.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self._defused = False
        self.resource = resource
        self._cancelled = False
        self._holding = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw the request, or release capacity if already granted."""
        if self._holding:
            self.resource.release(self)
        else:
            self._cancelled = True


class Resource:
    """Counting semaphore with FIFO waiters.

    ``capacity`` units exist; :meth:`request` returns an event that fires
    when a unit is granted, and :meth:`release` returns it. A serialised
    network uplink is ``Resource(env, capacity=1)``.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[ResourceRequest] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of live waiting requests."""
        return sum(1 for w in self._waiters if not w._cancelled)

    def request(self) -> ResourceRequest:
        ev = ResourceRequest(self.env, self)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev._holding = True
            ev._value = ev
            ev.env._schedule(ev, NORMAL)
        else:
            self._waiters.append(ev)
        return ev

    def release(self, request: ResourceRequest) -> None:
        """Return the unit held by ``request``."""
        if not request._holding:
            raise SimulationError("release() of a request that holds no capacity")
        request._holding = False
        nxt = self._pop_live_waiter()
        if nxt is not None:
            nxt._holding = True
            nxt.succeed(nxt)
        else:
            self._in_use -= 1

    def _pop_live_waiter(self) -> Optional[ResourceRequest]:
        while self._waiters:
            w = self._waiters.popleft()
            if not w._cancelled and not w.triggered:
                return w
        return None
