"""Discrete-event simulation engine.

This module is the foundation of the reproduction: a deterministic,
seedable discrete-event simulator in the style of SimPy, but self-contained
(no third-party dependency) and tuned for the needs of the grid substrate:

* **processes** are plain Python generators that ``yield`` events,
* **events** carry a value or an exception and fire callbacks in a
  deterministic order,
* **interrupts** let one process asynchronously cancel whatever another
  process is waiting on (used for node crashes and leave signals),
* the **clock** is a float number of simulated seconds; event ordering is a
  total order on ``(time, priority, sequence-number)`` so repeated runs with
  the same seed replay identically.

The engine deliberately implements only what the grid substrate needs;
it is not a general SimPy replacement.

Hot-path design
---------------
The entire experiment suite is gated on this event loop, so the dominant
yield-timeout-resume cycle is aggressively optimized while keeping the
``(time, priority, seq)`` total order bit-for-bit identical to the
straightforward implementation:

* **calendar-queue scheduler** (default, ``scheduler="array"``): the
  pending-event set lives in an array of time buckets of self-tuned
  width, indexed by the virtual bucket number ``v = int(time / width)``.
  The run loop walks a cursor over the bucket array and drains each
  bucket's due entries in ``(time, priority, seq)`` order, so the pop
  order is exactly the heap's. Bucket count and width recalibrate from
  the live entry-time spread when the load factor or a degenerate bucket
  says the current geometry is wrong. Storage is struct-of-arrays
  (:class:`repro.simgrid.eventcore.ArrayCalendar`): entries are slots in
  flat ``float64``/``int64`` arrays chained into buckets by intrusive
  index links, payload chains live in a parallel slot table, and the two
  pure-Python maintenance costs — dirty-bucket re-sorts and geometry
  rebuilds — are numpy ``lexsort`` kernels. See the "Event scheduler"
  section of ``docs/performance.md`` for the sizing rules and the
  determinism argument.
* **coalesced deadlines**: events sharing an exact ``(time, priority)``
  join one queued entry's chain for the cost of a list append; a chain
  fires in append order, which is seq order.
* **lazy cancellation**: :meth:`Timeout.cancel` tombstones the event
  instead of searching the queue; the loops skip (and, for pooled
  timeouts, recycle) tombstoned entries when they surface at pop time.
* **heap reference**: the original binary-heap loop is retained behind
  ``Environment(scheduler="heap")`` as
  :meth:`Environment._run_heap_reference`, the executable spec; tests
  assert both schedulers produce identical runs.
* **single-callback slot**: almost every event has exactly one waiter (the
  process that yielded it), so the first callback lives in a dedicated
  ``_cb1`` slot and the overflow list ``_cbs`` is only allocated for the
  rare multi-waiter event. Processes are registered *as themselves*
  (:class:`Process` is callable); callback removal (the hot interrupt
  path) is an identity comparison against the slot instead of an O(n)
  list scan.
* **pooled timeouts**: :meth:`Environment.sleep` serves ``Timeout`` objects
  from a free list and recycles them the moment their callbacks have run.
  Callers must yield the returned event immediately and must not retain it
  (the public :meth:`Environment.timeout` stays allocation-per-call and is
  always safe to store).
* **inlined run loops**: :meth:`Environment.run` drives a loop with cached
  bindings and local variables instead of calling :meth:`Environment.step`
  per event; ``step`` remains the single-step reference implementation
  with identical semantics.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3.0)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
3.0
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from .eventcore import (
    _FAR_FUTURE,
    _FAR_FUTURE_F,
    _NAN,
    _SORTED_INSERT_MAX,
    ArrayCalendar,
)

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "StopSimulation",
]

#: Default priority for ordinary events.
NORMAL = 1
#: Priority used for urgent bookkeeping events (process resumption after an
#: interrupt) so they run before same-time ordinary events.
URGENT = 0

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel for "no value yet" (module-level: the run loops test it on
#: every resume, and a global load is cheaper than two attribute loads).
_PENDING = object()

#: A sorted bucket this long means the width is far too coarse (many
#: distinct times share a bucket) — trigger a recalibration.
_DEGENERATE_BUCKET = 32


class SimulationError(Exception):
    """Raised for misuse of the simulation API (not for in-sim failures)."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a sentinel event."""


class Interrupt(Exception):
    """Thrown *into* a process when :meth:`Process.interrupt` is called.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a crash notification or a leave signal).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """An occurrence at a point in simulated time.

    An event goes through three stages:

    1. *pending*: created but not yet scheduled;
    2. *triggered*: scheduled onto the event queue with a value or failure;
    3. *processed*: its callbacks have run.

    Callbacks are ``f(event)`` functions registered via
    :meth:`add_callback`; once the event is processed, adding one raises.
    The first callback occupies the ``_cb1`` slot; only multi-waiter events
    allocate the ``_cbs`` overflow list (``_cbs`` is non-empty only while
    ``_cb1`` is set, so dispatch and removal stay branch-cheap).
    """

    __slots__ = ("env", "_cb1", "_cbs", "_value", "_ok", "_processed", "_defused")

    _PENDING = _PENDING

    #: overridden per-instance by pooled Timeouts; plain events never recycle.
    _pooled = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb1: Optional[Callable[["Event"], None]] = None
        self._cbs: Optional[list[Callable[["Event"], None]]] = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._processed = False
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def callbacks(self) -> Optional[list[Callable[["Event"], None]]]:
        """Registered callbacks (a snapshot), or ``None`` once processed."""
        if self._processed:
            return None
        cbs = [] if self._cb1 is None else [self._cb1]
        if self._cbs:
            cbs.extend(self._cbs)
        return cbs

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule the event to fire as a failure carrying ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed."""
        if self._processed:
            raise SimulationError(f"cannot add callback to processed {self!r}")
        if self._cb1 is None:
            self._cb1 = fn
        elif self._cbs is None:
            self._cbs = [fn]
        else:
            self._cbs.append(fn)

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Unregister ``fn``; no-op if absent or already processed.

        The common case — the sole waiter deregistering after an interrupt —
        is an identity check against the single-callback slot. Equality
        fallbacks keep externally constructed (uncached) bound methods
        working.
        """
        if self._processed:
            return
        cb1 = self._cb1
        if cb1 is None:
            return
        if cb1 is fn or cb1 == fn:
            cbs = self._cbs
            self._cb1 = cbs.pop(0) if cbs else None
            return
        cbs = self._cbs
        if cbs:
            for i, cb in enumerate(cbs):
                if cb is fn or cb == fn:
                    del cbs[i]
                    return

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed" if self._processed
            else "triggered" if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after it is created."""

    __slots__ = ("delay", "_pooled")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Inlined Event.__init__ + schedule: this constructor is the single
        # hottest allocation site in the simulator.
        self.env = env
        self._cb1 = None
        self._cbs = None
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self._pooled = False
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        t = env.now + delay
        core = env._core
        if core is not None:
            # array core (the default): the coalesce-cache hit is inlined
            # (two scalar compares + a list append); bucketing and the
            # rebuild trigger live in ArrayCalendar.push_new.
            if core.ins_t == t and core.ins_p == NORMAL:
                core.ins_chain.append(self)
                core.qsize += 1
            else:
                core.push_new(t, NORMAL, seq, self)
            return
        q = env._queue
        _heappush(q, (t, NORMAL, seq, self))
        if len(q) > env._max_queue_len:
            env._max_queue_len = len(q)

    def cancel(self) -> None:
        """Lazily cancel a scheduled timeout: its callbacks never run.

        The queue entry is *tombstoned*, not searched for — the event loop
        discards it (and returns pooled timeouts to the free list) when it
        surfaces at pop time, so cancellation is O(1). After cancellation
        the timeout counts as processed: waiters that registered callbacks
        are silently dropped, exactly as if they had deregistered.

        No-op on a timeout that has already fired (or was already
        cancelled and skipped) — in particular, cancelling a stale
        reference to a pooled ``env.sleep()`` timeout after it fired and
        returned to the free list does nothing rather than sabotaging the
        timeout's next incarnation.
        """
        if self._processed:
            return
        self.env._tombs.add(self)


#: cached allocator — skips the per-call ``__new__`` attribute lookup in
#: the hot :meth:`Environment.timeout` path.
_timeout_new = Timeout.__new__


class Initialize(Event):
    """Internal: kicks off a freshly created :class:`Process`."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._cb1 = process
        self._ok = True
        self._value = None
        env._schedule(self, URGENT)


class Process(Event):
    """A running process wrapping a generator.

    The process is itself an event: it triggers when the generator returns
    (with the generator's return value) or raises (as a failure). Other
    processes may ``yield`` a process to wait for its completion.

    A process is also *callable*: calling it with a fired event resumes
    the generator. The engine registers the process object itself as the
    waiter callback — one attribute load fewer per registration than a
    bound method, and a stable identity for O(1) deregistration.
    """

    __slots__ = ("_generator", "_target", "name", "_send", "_throw")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # Cached bound methods: one attribute lookup per resume instead of
        # three.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on (None while running)
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for (if any)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Asynchronously throw :class:`Interrupt` into this process.

        The interrupt is delivered as an urgent event at the current
        simulation time. Interrupting a finished process raises; a process
        must not interrupt itself.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        if self.env.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._cb1 = self
        self.env._schedule(interrupt_event, URGENT)

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # If we were waiting on a different event (we were interrupted and
        # already resumed), ignore stale wakeups from the old target.
        if self._value is not _PENDING:
            return
        target = self._target
        if target is not None and target is not event:
            # Deregister from the event we were officially waiting for, so a
            # later trigger of that event does not resume us twice. (The
            # fired event itself already dropped its callbacks.)
            target.remove_callback(self)
        self._target = None

        env = self.env
        env._active = self
        try:
            if event._ok:
                next_event = self._send(event._value)
            else:
                event._defused = True
                next_event = self._throw(event._value)
        except StopIteration as stop:
            env._active = None
            self._ok = True
            self._value = stop.value
            env._schedule(self, NORMAL)
            return
        except BaseException as exc:
            env._active = None
            self.fail(exc)
            return
        env._active = None

        if (
            (next_event.__class__ is Timeout or isinstance(next_event, Event))
            and next_event.env is env
            and not next_event._processed
            and next_event._cb1 is None
        ):
            # The dominant yield: a freshly armed event with no waiters
            # yet (a timeout, a store get, ...). The identity check
            # short-circuits the isinstance walk for the most common
            # class.
            next_event._cb1 = self
            self._target = next_event
            return
        self._finish_resume(next_event)

    def _finish_resume(self, next_event: Any) -> None:
        """Wait on whatever the generator yielded (the general case).

        Shared between :meth:`_resume` and the run loop's inlined resume
        path, so the subtle cases (multi-waiter events, already-processed
        events, foreign or non-events) live in exactly one place.
        """
        env = self.env
        if isinstance(next_event, Event) and next_event.env is env:
            if not next_event._processed:
                if next_event._cb1 is None:
                    next_event._cb1 = self
                elif next_event._cbs is None:
                    next_event._cbs = [self]
                else:
                    next_event._cbs.append(self)
                self._target = next_event
            else:
                # Already fully processed: resume immediately (urgently).
                wake = Event(env)
                wake._ok = next_event._ok
                wake._value = next_event._value
                if not next_event._ok:
                    next_event._defused = True
                    wake._defused = True
                wake._cb1 = self
                env._schedule(wake, URGENT)
                self._target = wake
            return

        if isinstance(next_event, Event):
            self._generator.throw(
                SimulationError("process yielded an event from another environment")
            )
        else:
            self._generator.throw(
                SimulationError(f"process yielded non-event {next_event!r}")
            )

    #: calling a process resumes it — processes are registered directly as
    #: event callbacks.
    __call__ = _resume


class Condition(Event):
    """Composite event over several sub-events.

    ``AnyOf`` fires when at least one sub-event has fired; ``AllOf`` when
    all have. The condition's value is a dict mapping each *fired* sub-event
    to its value. A failing sub-event fails the condition.
    """

    __slots__ = ("_events", "_evaluate", "_fired_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[int, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._fired_count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes environments")
        if not self._events:
            self.succeed({})
            return
        check = self._check
        for ev in self._events:
            if ev._processed:
                check(ev)
            else:
                ev.add_callback(check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._fired_count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value if isinstance(event._value, BaseException)
                      else SimulationError("condition sub-event failed"))
        elif self._evaluate(len(self._events), self._fired_count):
            self.succeed(
                {
                    ev: ev._value
                    for ev in self._events
                    if ev._ok and (ev._processed or ev is event)
                }
            )


def _any_evaluate(total: int, fired: int) -> bool:
    return fired >= 1


def _all_evaluate(total: int, fired: int) -> bool:
    return fired == total


def AnyOf(env: "Environment", events: Iterable[Event]) -> Condition:
    """Condition that fires as soon as one of ``events`` fires."""
    return Condition(env, _any_evaluate, events)


def AllOf(env: "Environment", events: Iterable[Event]) -> Condition:
    """Condition that fires once all of ``events`` have fired."""
    return Condition(env, _all_evaluate, events)


class Environment:
    """The simulation environment: clock + event queue + scheduler.

    ``scheduler`` selects the pending-event structure: ``"array"``
    (default — the calendar queue over typed-array storage,
    :class:`repro.simgrid.eventcore.ArrayCalendar`) or ``"heap"`` (the
    original binary-heap loop, the executable spec). Both produce
    identical event orders, asserted by the equivalence and
    differential tests.
    """

    #: valid ``scheduler=`` names, in default-first order (the one
    #: definition: ``repro.config.SCHEDULERS`` is this tuple).
    SCHEDULERS = ("array", "heap")

    def __init__(self, initial_time: float = 0.0, scheduler: str = "array") -> None:
        if scheduler not in Environment.SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {Environment.SCHEDULERS}, "
                f"got {scheduler!r}"
            )
        #: current simulated time. A plain attribute (not a property): it is
        #: read on every wait and accounting call across the stack, and the
        #: attribute-read saving is measurable. Only the event loop should
        #: write it.
        self.now = float(initial_time)
        self.scheduler = scheduler
        self._use_array = scheduler == "array"
        self._seq = 0  # next (time, priority, seq) tiebreaker; int, not itertools.count
        self._active: Optional[Process] = None
        self._event_count = 0
        self._max_queue_len = 0
        #: free list for :meth:`sleep`; recycled in the event loop the
        #: moment a pooled timeout's callbacks have run.
        self._tpool: list[Timeout] = []
        self._pool_reuses = 0
        #: lazily cancelled events (see :meth:`Timeout.cancel`): membership
        #: means "discard at pop". Almost always empty, so the hot loops
        #: pay one truthiness test.
        self._tombs: set[Event] = set()
        self._cancelled_skipped = 0
        #: state-transition clock hooks, ``f(old_time, new_time)``; fired
        #: whenever :meth:`step` advances the clock. Empty by default so
        #: the hot path pays one truthiness test (profiling layers attach).
        self._clock_listeners: list[Callable[[float, float], None]] = []
        if self._use_array:
            # -- typed-array core (see repro.simgrid.eventcore) -- the
            # hot factories (Timeout.__init__, timeout, sleep) test
            # _core and inline the coalesce hit against it directly.
            self._core: Optional[ArrayCalendar] = ArrayCalendar(self)
            return
        self._core = None
        self._queue: list[tuple[float, int, int, Event]] = []

    # -- clock -----------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (for perf accounting)."""
        return self._event_count

    @property
    def max_queue_len(self) -> int:
        """High-water mark of the event queue (scheduling pressure)."""
        return self._max_queue_len

    def stats(self) -> dict[str, float]:
        """Event-loop statistics, captured by the telemetry layer."""
        if self._use_array:
            qlen = self._core.qsize
            rebuilds = self._core.rebuild_count
        else:
            qlen = len(self._queue)
            rebuilds = 0
        pending_tombs = len(self._tombs)
        stats = {
            "events_processed": float(self._event_count),
            "queue_len": float(qlen),
            "max_queue_len": float(self._max_queue_len),
            "sim_time": self.now,
            "timeout_pool_reuses": float(self._pool_reuses),
            "timeout_pool_size": float(len(self._tpool)),
            "tombstones_pending": float(pending_tombs),
            "cancelled_skipped": float(self._cancelled_skipped),
            # -- occupancy counters (tombstone-leak observability) --
            # scheduled: lifetime count of (time, priority, seq) slots
            # issued; cancelled_tombstones: every cancellation observed
            # (already skipped at pop + still pending); live: queued
            # events that will actually dispatch; rebuilds: calendar
            # geometry recalibrations (0 for the heap). A live count
            # that keeps trailing queue_len means tombstones are
            # accumulating faster than pops surface them.
            "scheduled": float(self._seq),
            "cancelled_tombstones": float(
                self._cancelled_skipped + pending_tombs
            ),
            "live": float(qlen - pending_tombs),
            "rebuilds": float(rebuilds),
        }
        if self._use_array:
            # The array core's geometry gauges. calendar_entries counts
            # chained entries (occupied slots); the gap between
            # queue_len (events) and it is how many inserts the
            # coalesced-deadline path absorbed.
            core = self._core
            stats["calendar_buckets"] = float(core.mask + 1)
            stats["calendar_width"] = core.width
            stats["calendar_entries"] = float(core.entries())
        return stats

    def add_clock_listener(self, fn: Callable[[float, float], None]) -> None:
        """Register ``fn(old, new)`` to fire on every clock advance.

        Used by the attribution layer to observe state-transition times
        without polling; keep listeners cheap — they run on the hot path.
        """
        self._clock_listeners.append(fn)

    def remove_clock_listener(self, fn: Callable[[float, float], None]) -> None:
        """Unregister a clock listener; no-op if absent."""
        if fn in self._clock_listeners:
            self._clock_listeners.remove(fn)

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        """A bare, untriggered event (trigger with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` simulated seconds from now.

        Always freshly allocated — safe to store, put into conditions, or
        inspect after it fires. Hot paths that yield the event immediately
        and never look at it again should use :meth:`sleep` instead.
        """
        # Equivalent to Timeout(self, delay, value) with the constructor
        # inlined: this is the hottest call in the simulator and skipping
        # type.__call__ plus the __init__ frame is measurable.
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        t = _timeout_new(Timeout)
        t.env = self
        t._cb1 = None
        t._cbs = None
        t._value = value
        t._ok = True
        t._processed = False
        t._defused = False
        t._pooled = False
        t.delay = delay
        seq = self._seq
        self._seq = seq + 1
        when = self.now + delay
        core = self._core
        if core is not None:
            if core.ins_t == when and core.ins_p == NORMAL:
                core.ins_chain.append(t)
                core.qsize += 1
                return t
            et = core.et
            ep = core.ep
            # Inlined ArrayCalendar.push_new (the reference; keep the
            # two in lockstep) — this is the hottest insert in the
            # simulator and the call plus argument passing is
            # measurable.
            free = core.free
            if not free:
                core._grow()
            s = free.pop()
            tv = when * core.inv_width
            v = int(tv) if tv < _FAR_FUTURE_F else _FAR_FUTURE
            i = v & core.mask
            es = core.es
            nxt = core.nxt
            bhead = core.bhead
            et[s] = when
            ep[s] = NORMAL
            es[s] = seq
            core.ev[s] = v
            chain = core.chains[s]
            chain.append(t)
            core.ins_t = when
            core.ins_p = NORMAL
            core.ins_chain = chain
            h = bhead[i]
            if h < 0:
                nxt[s] = -1
                bhead[i] = s
                core.btail[i] = s
            elif core.bdirty[i]:
                nxt[s] = h
                bhead[i] = s
            else:
                # Tail probe, then bounded sorted insert: keep the
                # bucket clean so the drain never re-sorts it (see
                # ArrayCalendar.push_new).
                btail = core.btail
                tl = btail[i]
                ct = et[tl]
                if ct < when or (
                    ct == when
                    and (
                        ep[tl] < NORMAL
                        or (ep[tl] == NORMAL and es[tl] < seq)
                    )
                ):
                    nxt[tl] = s
                    nxt[s] = -1
                    btail[i] = s
                else:
                    prev = -1
                    cur = h
                    hops = _SORTED_INSERT_MAX
                    placed = False
                    while cur >= 0:
                        ct = et[cur]
                        if ct < when or (
                            ct == when
                            and (
                                ep[cur] < NORMAL
                                or (ep[cur] == NORMAL and es[cur] < seq)
                            )
                        ):
                            hops -= 1
                            if hops == 0:
                                nxt[s] = h
                                bhead[i] = s
                                core.bdirty[i] = 1
                                placed = True
                                break
                            prev = cur
                            cur = nxt[cur]
                        else:
                            break
                    if not placed:
                        nxt[s] = cur
                        if prev < 0:
                            bhead[i] = s
                        else:
                            nxt[prev] = s
            if v < core.cur_v:
                core.cur_v = v
            qsize = core.qsize + 1
            core.qsize = qsize
            if qsize > self._max_queue_len:
                self._max_queue_len = qsize
                # Entries-based grow gate (see ArrayCalendar.push_new).
                if (
                    qsize > core.grow_at
                    and core.cap - len(free) > core.grow_at
                ):
                    core.need_rebuild = True
            return t
        q = self._queue
        _heappush(q, (when, NORMAL, seq, t))
        if len(q) > self._max_queue_len:
            self._max_queue_len = len(q)
        return t

    def sleep(self, delay: float) -> Timeout:
        """A pooled timeout for the dominant yield-sleep-resume cycle.

        Identical scheduling semantics to ``timeout(delay)`` — it consumes
        the same ``(time, priority, seq)`` slot — but the returned object
        is recycled into a free list as soon as its callbacks have run.

        Contract: the caller must ``yield`` the returned event immediately
        and must not retain a reference, give it a value, or hand it to a
        :class:`Condition`. Use :meth:`timeout` for anything fancier.
        """
        pool = self._tpool
        if not pool:
            t = Timeout(self, delay)
            t._pooled = True
            return t
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        t = pool.pop()
        t.delay = delay
        t._value = None
        t._ok = True
        t._processed = False
        t._defused = False
        self._pool_reuses += 1
        seq = self._seq
        self._seq = seq + 1
        when = self.now + delay
        core = self._core
        if core is not None:
            if core.ins_t == when and core.ins_p == NORMAL:
                core.ins_chain.append(t)
                core.qsize += 1
                return t
            et = core.et
            ep = core.ep
            # Inlined ArrayCalendar.push_new (the reference; keep the
            # two in lockstep): same reason and same code as timeout().
            free = core.free
            if not free:
                core._grow()
            s = free.pop()
            tv = when * core.inv_width
            v = int(tv) if tv < _FAR_FUTURE_F else _FAR_FUTURE
            i = v & core.mask
            es = core.es
            nxt = core.nxt
            bhead = core.bhead
            et[s] = when
            ep[s] = NORMAL
            es[s] = seq
            core.ev[s] = v
            chain = core.chains[s]
            chain.append(t)
            core.ins_t = when
            core.ins_p = NORMAL
            core.ins_chain = chain
            h = bhead[i]
            if h < 0:
                nxt[s] = -1
                bhead[i] = s
                core.btail[i] = s
            elif core.bdirty[i]:
                nxt[s] = h
                bhead[i] = s
            else:
                # Tail probe, then bounded sorted insert: keep the
                # bucket clean so the drain never re-sorts it (see
                # ArrayCalendar.push_new).
                btail = core.btail
                tl = btail[i]
                ct = et[tl]
                if ct < when or (
                    ct == when
                    and (
                        ep[tl] < NORMAL
                        or (ep[tl] == NORMAL and es[tl] < seq)
                    )
                ):
                    nxt[tl] = s
                    nxt[s] = -1
                    btail[i] = s
                else:
                    prev = -1
                    cur = h
                    hops = _SORTED_INSERT_MAX
                    placed = False
                    while cur >= 0:
                        ct = et[cur]
                        if ct < when or (
                            ct == when
                            and (
                                ep[cur] < NORMAL
                                or (ep[cur] == NORMAL and es[cur] < seq)
                            )
                        ):
                            hops -= 1
                            if hops == 0:
                                nxt[s] = h
                                bhead[i] = s
                                core.bdirty[i] = 1
                                placed = True
                                break
                            prev = cur
                            cur = nxt[cur]
                        else:
                            break
                    if not placed:
                        nxt[s] = cur
                        if prev < 0:
                            bhead[i] = s
                        else:
                            nxt[prev] = s
            if v < core.cur_v:
                core.cur_v = v
            qsize = core.qsize + 1
            core.qsize = qsize
            if qsize > self._max_queue_len:
                self._max_queue_len = qsize
                # Entries-based grow gate (see ArrayCalendar.push_new).
                if (
                    qsize > core.grow_at
                    and core.cap - len(free) > core.grow_at
                ):
                    core.need_rebuild = True
            return t
        q = self._queue
        _heappush(q, (when, NORMAL, seq, t))
        if len(q) > self._max_queue_len:
            self._max_queue_len = len(q)
        return t

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> Condition:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        seq = self._seq
        self._seq = seq + 1
        core = self._core
        if core is not None:
            t = self.now if delay == 0.0 else self.now + delay
            if core.ins_t == t and core.ins_p == priority:
                # Coalesced (instant, priority) chain — and no
                # urgent-generation bump: the chain the cache points at
                # is already ordered after the drain position, so no
                # preemption is needed.
                core.ins_chain.append(event)
                core.qsize += 1
                return
            et = core.et
            ep = core.ep
            if delay != 0.0:
                core.push_new(t, priority, seq, event)
                return
            # Inlined ArrayCalendar.push_at_now_new (the reference; keep
            # the two in lockstep) — almost every remaining _schedule
            # call (succeed / fail / interrupt / initialize) targets the
            # current instant, whose bucket number is cached, and lands
            # in the bucket the run loop is draining: link at the sorted
            # position instead of dirty-marking, which would force the
            # drain to break and re-sort per entry.
            es = core.es
            nxt = core.nxt
            v = core.now_v
            i = v & core.mask
            if priority == URGENT:
                # The run loop's chain drain watches this counter: an
                # urgent insert at the current instant must preempt the
                # NORMAL chain being drained.
                core.u0 += 1
            free = core.free
            if not free:
                core._grow()
            s = free.pop()
            et[s] = t
            ep[s] = priority
            es[s] = seq
            core.ev[s] = v
            chain = core.chains[s]
            chain.append(event)
            core.ins_t = t
            core.ins_p = priority
            core.ins_chain = chain
            bhead = core.bhead
            h = bhead[i]
            if h < 0:
                nxt[s] = -1
                bhead[i] = s
                core.btail[i] = s
            elif core.bdirty[i]:
                nxt[s] = h
                bhead[i] = s
            else:
                # Tail probe (the largest seq of this instant belongs
                # at the tail unless something later-timed is queued),
                # else a sorted walk from the head past every entry
                # ordered before (t, priority, seq) — in lockstep with
                # ArrayCalendar.push_at_now_new, the reference.
                btail = core.btail
                tl = btail[i]
                ct = et[tl]
                if ct < t or (
                    ct == t
                    and (
                        ep[tl] < priority
                        or (ep[tl] == priority and es[tl] < seq)
                    )
                ):
                    nxt[tl] = s
                    nxt[s] = -1
                    btail[i] = s
                else:
                    prev = -1
                    cur = h
                    while cur >= 0:
                        ct = et[cur]
                        if ct < t or (
                            ct == t
                            and (
                                ep[cur] < priority
                                or (ep[cur] == priority and es[cur] < seq)
                            )
                        ):
                            prev = cur
                            cur = nxt[cur]
                        else:
                            break
                    nxt[s] = cur
                    if prev < 0:
                        bhead[i] = s
                    else:
                        nxt[prev] = s
            if v < core.cur_v:
                core.cur_v = v
            qsize = core.qsize + 1
            core.qsize = qsize
            if qsize > self._max_queue_len:
                self._max_queue_len = qsize
                # Entries-based grow gate (see ArrayCalendar.push_new).
                if (
                    qsize > core.grow_at
                    and core.cap - len(free) > core.grow_at
                ):
                    core.need_rebuild = True
            return
        q = self._queue
        _heappush(q, (self.now + delay, priority, seq, event))
        if len(q) > self._max_queue_len:
            self._max_queue_len = len(q)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._use_array:
            core = self._core
            if core.need_rebuild:
                core.rebuild()
            h = core.find_head()
            return core.et[h] if h >= 0 else float("inf")
        q = self._queue
        tombs = self._tombs
        while q and tombs and q[0][3] in tombs:
            _, _, _, ev = _heappop(q)
            tombs.discard(ev)
            self._cancelled_skipped += 1
            ev._cb1 = None
            ev._cbs = None
            ev._processed = True
            if ev._pooled:
                self._tpool.append(ev)
        return q[0][0] if q else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        This is the reference implementation of one scheduler round; the
        loops in :meth:`run` inline exactly this sequence (plus the
        tombstone discard that :meth:`peek` performs here).
        """
        if self._use_array:
            core = self._core
            if core.need_rebuild:
                core.rebuild()
            h = core.find_head()
            if h < 0:
                raise SimulationError("step() on an empty event queue")
            when = core.et[h]
            hv = core.ev[h]
            chain = core.chains[h]
            event = chain[0]
            if len(chain) == 1:
                # find_head leaves the minimal slot at its bucket's head.
                core.bhead[hv & core.mask] = core.nxt[h]
                chain.clear()
                core.free.append(h)
                if core.ins_chain is chain:
                    core.ins_t = _NAN
            else:
                # Later chain members stay queued under the entry's
                # original seq0 — still a valid tiebreaker, since any
                # other (time, priority) twin entry holds larger seqs.
                del chain[0]
            core.qsize -= 1
            core.cur_v = hv
        else:
            queue = self._queue
            tombs = self._tombs
            while True:
                if not queue:
                    raise SimulationError("step() on an empty event queue")
                when, _prio, _seq, event = _heappop(queue)
                if not (tombs and event in tombs):
                    break
                tombs.discard(event)
                self._cancelled_skipped += 1
                event._cb1 = None
                event._cbs = None
                event._processed = True
                if event._pooled:
                    self._tpool.append(event)
        if when < self.now:  # pragma: no cover - guarded by schedule logic
            raise SimulationError("event scheduled in the past")
        if when > self.now:
            old = self.now
            self.now = when
            if self._use_array:
                self._core.now_v = hv
            for fn in self._clock_listeners:
                fn(old, when)
        self._event_count += 1

        cb1 = event._cb1
        cbs = event._cbs
        event._cb1 = None
        event._cbs = None
        event._processed = True
        if cb1 is not None:
            cb1(event)
            if cbs:
                for fn in cbs:
                    fn(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(str(exc))
        if event._pooled:
            self._tpool.append(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its failure).
        """
        runner = self._run_array if self._use_array else self._run_heap_reference
        if until is None:
            runner(float("inf"))
            return None

        if isinstance(until, Event):
            sentinel = until
            result: dict[str, Any] = {}

            def _stop(ev: Event) -> None:
                result["ok"] = ev._ok
                result["value"] = ev._value
                if not ev._ok:
                    ev._defused = True
                raise StopSimulation()

            if sentinel._processed:
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            sentinel.add_callback(_stop)
            try:
                runner(float("inf"))
            except StopSimulation:
                if not result["ok"]:
                    raise result["value"]
                return result["value"]
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired"
            )

        deadline = float(until)
        if deadline < self.now:
            raise SimulationError("run(until=t) with t in the past")
        runner(deadline)
        self.now = deadline
        if self._use_array:
            core = self._core
            core.now_v = core.v_of(deadline)
        return None

    def _run_array(self, deadline: float) -> None:
        """The default hot event loop, over the typed-array core:
        semantically ``while queue: step()`` with cached bindings,
        stopping once the minimal pending time exceeds ``deadline``.

        The cursor ``core.cur_v`` sweeps the bucket array; a bucket whose
        sorted head carries the cursor's virtual bucket number is drained
        entry by entry in ``(time, priority, seq)`` order. Callbacks may
        insert behind the cursor (``cur_v`` drops), dirty the current
        bucket, or request a rebuild — the drain re-checks all three
        after every dispatch and falls back to the outer loop. After a
        fruitless sweep of the whole array the loop locates the global
        minimum directly and jumps the cursor to it (the steady state
        for sparse queues idling between monitoring periods).

        Entries are slots in :class:`ArrayCalendar`'s flat arrays,
        bucket membership is an intrusive index chain (``bhead``/``nxt``)
        and a drained slot returns to the free list. Capacity growth
        extends the arrays in place, so the local bindings below stay
        valid across callbacks; only a rebuild replaces
        ``bhead``/``bdirty``/``mask`` (rebound at the loop top, where
        rebuilds run). The dispatch order is asserted identical to
        :meth:`_run_heap_reference` by the equivalence and differential
        tests.
        """
        core = self._core
        et = core.et
        ep = core.ep
        ev = core.ev
        nxt = core.nxt
        chains = core.chains
        free = core.free
        bhead = core.bhead
        bdirty = core.bdirty
        mask = core.mask
        tombs = self._tombs
        tpool = self._tpool
        listeners = self._clock_listeners
        processed = 0
        scans = 0
        try:
            while core.qsize:
                if core.need_rebuild:
                    core.rebuild()
                    bhead = core.bhead
                    bdirty = core.bdirty
                    mask = core.mask
                cur_v = core.cur_v
                i = cur_v & mask
                h = bhead[i]
                if h >= 0:
                    if bdirty[i]:
                        blen = core.sort_bucket(i)
                        h = bhead[i]
                        if (
                            blen >= _DEGENERATE_BUCKET
                            and self._seq - core.last_rebuild_seq > 256
                        ):
                            core.need_rebuild = True
                            continue
                    hv = ev[h]
                else:
                    hv = -1
                if hv != cur_v:
                    if h >= 0 and hv < cur_v:  # pragma: no cover - cursor invariant
                        core.cur_v = hv
                        continue
                    # Nothing for the cursor's year: advance, or after a
                    # full fruitless sweep jump straight to the minimum.
                    scans += 1
                    if scans > mask:
                        h = core.find_head()
                        if h < 0:
                            return  # only tombstones remained
                        core.cur_v = ev[h]
                        scans = 0
                    else:
                        if mask > 63 and core.qsize < (mask + 1) >> 3:
                            core.need_rebuild = True
                        core.cur_v = cur_v + 1
                    continue
                # Drain the bucket: every head entry carrying the
                # cursor's virtual bucket number (hv == cur_v) is
                # globally next, and its chain holds every event at that
                # exact (time, priority) in seq order. The clock
                # advances once per entry, not once per event. The
                # consumed-event count is kept in a local and flushed
                # once (inserts during callbacks update qsize
                # independently, so the deferred decrement composes;
                # qsize overstates by the events consumed so far, so
                # _max_queue_len may read a few high, which stats can
                # live with).
                scans = 0
                npop = 0
                try:
                    while True:
                        when = et[h]
                        if when > deadline:
                            return
                        bhead[i] = nxt[h]
                        chain = chains[h]
                        if core.ins_chain is chain:
                            # Never coalesce into a popped entry; the
                            # cache survives pops of *other* slots (it
                            # only ever moves forward to newer entries).
                            core.ins_t = _NAN
                        # The heap reference advances the clock only when
                        # it dispatches a *live* event: a popped entry
                        # whose chain turns out to be all tombstones must
                        # leave the clock (and the clock listeners)
                        # untouched. With tombstones pending, defer the
                        # advance to the first live dispatch.
                        if tombs:
                            clock_pending = True
                        else:
                            clock_pending = False
                            now = self.now
                            if when > now:
                                self.now = when
                                core.now_v = cur_v
                                if listeners:
                                    for fn in listeners:
                                        fn(now, when)
                        n = len(chain)
                        npop += n
                        if n == 1:
                            # Solo entry (the cascade shape: store
                            # ping-pong, sparse timers): skip the chain
                            # walk's index loop, urgent watch and requeue
                            # guard — a popped solo event has nothing left
                            # to preempt or requeue. The slot is dead the
                            # moment its sole event is off the chain, so
                            # recycle it before dispatch and a callback's
                            # insert can reuse it immediately.
                            event = chain[0]
                            chain.clear()
                            free.append(h)
                            if tombs and event in tombs:
                                tombs.discard(event)
                                self._cancelled_skipped += 1
                                event._cb1 = None
                                event._cbs = None
                                event._processed = True
                                if event._pooled:
                                    tpool.append(event)
                            else:
                                if clock_pending:
                                    clock_pending = False
                                    now = self.now
                                    if when > now:
                                        self.now = when
                                        core.now_v = cur_v
                                        if listeners:
                                            for fn in listeners:
                                                fn(now, when)
                                processed += 1
                                cb1 = event._cb1
                                cbs = event._cbs
                                event._cb1 = None
                                event._cbs = None
                                event._processed = True
                                if cb1 is None:
                                    pass
                                elif cb1.__class__ is not Process:
                                    cb1(event)
                                    if cbs:
                                        for fn in cbs:
                                            fn(event)
                                else:
                                    # Inlined Process._resume fast path
                                    # (lockstep with _resume and the
                                    # chain walk below).
                                    if cb1._value is _PENDING:
                                        target = cb1._target
                                        if (
                                            target is not None
                                            and target is not event
                                        ):
                                            target.remove_callback(cb1)
                                        cb1._target = None
                                        self._active = cb1
                                        try:
                                            if event._ok:
                                                nxt_ev = cb1._send(event._value)
                                            else:
                                                event._defused = True
                                                nxt_ev = cb1._throw(event._value)
                                        except StopIteration as stop:
                                            self._active = None
                                            cb1._ok = True
                                            cb1._value = stop.value
                                            self._schedule(cb1, NORMAL)
                                        except BaseException as exc:
                                            self._active = None
                                            cb1.fail(exc)
                                        else:
                                            self._active = None
                                            if (
                                                (
                                                    nxt_ev.__class__ is Timeout
                                                    or isinstance(nxt_ev, Event)
                                                )
                                                and nxt_ev.env is self
                                                and not nxt_ev._processed
                                                and nxt_ev._cb1 is None
                                            ):
                                                nxt_ev._cb1 = cb1
                                                cb1._target = nxt_ev
                                            else:
                                                cb1._finish_resume(nxt_ev)
                                    if cbs:
                                        for fn in cbs:
                                            fn(event)
                                if not event._ok and not event._defused:
                                    exc = event._value
                                    raise exc if isinstance(
                                        exc, BaseException
                                    ) else SimulationError(str(exc))
                                if event._pooled:
                                    tpool.append(event)
                            h = bhead[i]
                            if h < 0:
                                break
                            if (
                                bdirty[i]
                                or core.cur_v != cur_v
                                or core.need_rebuild
                            ):
                                break
                            if ev[h] != cur_v:
                                break
                            continue
                        prio = ep[h]
                        u0 = core.u0
                        idx = 0
                        requeued = False
                        try:
                            while idx < n:
                                event = chain[idx]
                                idx += 1
                                if tombs and event in tombs:
                                    tombs.discard(event)
                                    self._cancelled_skipped += 1
                                    event._cb1 = None
                                    event._cbs = None
                                    event._processed = True
                                    if event._pooled:
                                        tpool.append(event)
                                    continue
                                if clock_pending:
                                    clock_pending = False
                                    now = self.now
                                    if when > now:
                                        self.now = when
                                        core.now_v = cur_v
                                        if listeners:
                                            for fn in listeners:
                                                fn(now, when)
                                processed += 1
                                cb1 = event._cb1
                                cbs = event._cbs
                                event._cb1 = None
                                event._cbs = None
                                event._processed = True
                                if cb1 is None:
                                    pass
                                elif cb1.__class__ is not Process:
                                    cb1(event)
                                    if cbs:
                                        for fn in cbs:
                                            fn(event)
                                else:
                                    # Inlined Process._resume fast path —
                                    # _resume stays the reference; keep
                                    # the two in lockstep.
                                    if cb1._value is _PENDING:
                                        target = cb1._target
                                        if (
                                            target is not None
                                            and target is not event
                                        ):
                                            target.remove_callback(cb1)
                                        cb1._target = None
                                        self._active = cb1
                                        try:
                                            if event._ok:
                                                nxt_ev = cb1._send(event._value)
                                            else:
                                                event._defused = True
                                                nxt_ev = cb1._throw(event._value)
                                        except StopIteration as stop:
                                            self._active = None
                                            cb1._ok = True
                                            cb1._value = stop.value
                                            self._schedule(cb1, NORMAL)
                                        except BaseException as exc:
                                            self._active = None
                                            cb1.fail(exc)
                                        else:
                                            self._active = None
                                            if (
                                                (
                                                    nxt_ev.__class__ is Timeout
                                                    or isinstance(nxt_ev, Event)
                                                )
                                                and nxt_ev.env is self
                                                and not nxt_ev._processed
                                                and nxt_ev._cb1 is None
                                            ):
                                                nxt_ev._cb1 = cb1
                                                cb1._target = nxt_ev
                                            else:
                                                cb1._finish_resume(nxt_ev)
                                    if cbs:
                                        for fn in cbs:
                                            fn(event)
                                if not event._ok and not event._defused:
                                    exc = event._value
                                    raise exc if isinstance(
                                        exc, BaseException
                                    ) else SimulationError(str(exc))
                                if event._pooled:
                                    tpool.append(event)
                                if prio and core.u0 != u0:
                                    # An urgent insert for this instant
                                    # must preempt the rest of a NORMAL
                                    # chain: requeue the remainder in
                                    # place — the slot keeps its
                                    # original seq0 (still the smallest
                                    # seq for this (time, priority)) —
                                    # and let the outer loop re-sort.
                                    if idx < n:
                                        del chain[:idx]
                                        nxt[h] = bhead[i]
                                        bhead[i] = h
                                        bdirty[i] = 1
                                        npop -= n - idx
                                        requeued = True
                                    break
                        except BaseException:
                            if idx < n:
                                # A callback raised (StopSimulation, a
                                # propagated failure, ...) mid-chain:
                                # requeue the undispatched remainder so
                                # a later run() resumes exactly where
                                # the heap reference would.
                                del chain[:idx]
                                nxt[h] = bhead[i]
                                bhead[i] = h
                                bdirty[i] = 1
                                npop -= n - idx
                            else:
                                chain.clear()
                                free.append(h)
                            raise
                        if not requeued:
                            chain.clear()
                            free.append(h)
                        # Dispatch may have scheduled into this bucket
                        # (dirty), behind the cursor, or flagged a
                        # rebuild; any of those invalidates the drain.
                        h = bhead[i]
                        if h < 0:
                            break
                        if (
                            bdirty[i]
                            or core.cur_v != cur_v
                            or core.need_rebuild
                        ):
                            break
                        if ev[h] != cur_v:
                            break
                finally:
                    core.qsize -= npop
        finally:
            self._event_count += processed

    def _run_heap_reference(self, deadline: float) -> None:
        """The retained binary-heap run loop, semantically
        ``while queue: step()``; the executable spec :meth:`_run_array`
        is asserted equivalent against."""
        queue = self._queue
        pop = _heappop
        tombs = self._tombs
        tpool = self._tpool
        listeners = self._clock_listeners
        processed = 0
        try:
            while queue and queue[0][0] <= deadline:
                when, _prio, _seq, event = pop(queue)
                if tombs and event in tombs:
                    tombs.discard(event)
                    self._cancelled_skipped += 1
                    event._cb1 = None
                    event._cbs = None
                    event._processed = True
                    if event._pooled:
                        tpool.append(event)
                    continue
                now = self.now
                if when > now:
                    self.now = when
                    if listeners:
                        for fn in listeners:
                            fn(now, when)
                processed += 1

                cb1 = event._cb1
                cbs = event._cbs
                event._cb1 = None
                event._cbs = None
                event._processed = True
                if cb1 is not None:
                    cb1(event)
                    if cbs:
                        for fn in cbs:
                            fn(event)

                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) else SimulationError(
                        str(exc)
                    )
                if event._pooled:
                    tpool.append(event)
        finally:
            self._event_count += processed
