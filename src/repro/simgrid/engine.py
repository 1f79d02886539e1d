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

* **one binary heap**: pending events are ``(time, priority, seq,
  event)`` tuples in a ``heapq`` list, so the pop order *is* the total
  order, compared in C. (Calendar queues over object tuples and over
  typed arrays were tried and retired: with a pending set of ~40 events
  the heap was faster end to end; see the "Event queue" section of
  ``docs/performance.md``.)
* **lazy cancellation**: :meth:`Timeout.cancel` tombstones the event
  instead of searching the queue; the loop skips (and, for pooled
  timeouts, recycles) tombstoned entries when they surface at pop time.
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
* **inlined run loop**: :meth:`Environment.run` drives a loop with cached
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
    """The simulation environment: clock + event queue.

    Pending events live in one binary heap of ``(time, priority, seq,
    event)`` entries; the ``seq`` tiebreaker makes the pop order a total
    order, so a seeded run replays identically.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: current simulated time. A plain attribute (not a property): it is
        #: read on every wait and accounting call across the stack, and the
        #: attribute-read saving is measurable. Only the event loop should
        #: write it.
        self.now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
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
        qlen = len(self._queue)
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
            # events that will actually dispatch. A live count that
            # keeps trailing queue_len means tombstones are accumulating
            # faster than pops surface them.
            "scheduled": float(self._seq),
            "cancelled_tombstones": float(
                self._cancelled_skipped + pending_tombs
            ),
            "live": float(qlen - pending_tombs),
        }
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
        q = self._queue
        _heappush(q, (self.now + delay, priority, seq, event))
        if len(q) > self._max_queue_len:
            self._max_queue_len = len(q)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
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

        This is the reference implementation of one event-loop round:
        :meth:`_run` inlines exactly this sequence, including the
        tombstone discard that :meth:`peek` performs here.
        """
        self.peek()
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _prio, _seq, event = _heappop(self._queue)
        if when < self.now:  # pragma: no cover - guarded by schedule logic
            raise SimulationError("event scheduled in the past")
        if when > self.now:
            old = self.now
            self.now = when
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
        if until is None:
            self._run(float("inf"))
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
                self._run(float("inf"))
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
        self._run(deadline)
        self.now = deadline
        return None

    def _run(self, deadline: float) -> None:
        """The hot event loop: semantically ``while peek() <= deadline:
        step()``, with cached bindings instead of a call per event."""
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
