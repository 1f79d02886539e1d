"""Event-queue tests: replay, lazy cancellation, preemption, peek/step.

Pending events sit in one binary heap ordered by ``(time, priority,
seq)``; the golden scenario summaries depend on that total order. These
tests drive the corners the queue has: urgent inserts at the current
instant, tombstoned (cancelled) timeouts surfacing at pop, free-list
reuse after a cancellation, and the single-step reference path.
"""

import numpy as np
import pytest

from repro.simgrid.engine import Environment, Interrupt, SimulationError
from repro.simgrid.queues import Store


# -- replay -------------------------------------------------------------------


def _jittery_trace() -> tuple[list, int, float]:
    """A mixed workload: jittered sleeps, store ping-pong, cancellations."""
    env = Environment()
    rng = np.random.default_rng(7)
    trace: list = []
    ping: Store = Store(env)
    pong: Store = Store(env)

    def sleeper(env, tag):
        for _ in range(40):
            yield env.sleep(float(rng.uniform(0.05, 1.0)))
            trace.append((tag, env.now))

    def requester(env):
        for i in range(30):
            ping.put(i)
            got = yield pong.get()
            trace.append(("req", env.now, got))
            yield env.sleep(0.125)

    def replier(env):
        for _ in range(30):
            item = yield ping.get()
            yield env.sleep(0.0625)
            pong.put(item * 2)

    def canceller(env):
        # Public timeouts cancelled before firing: tombstoned, skipped.
        for i in range(10):
            doomed = env.timeout(5.0 + i)
            survivor = env.timeout(0.5)
            doomed.cancel()
            yield survivor
            trace.append(("cancel-round", env.now))

    for tag in ("a", "b", "c"):
        env.process(sleeper(env, tag))
    env.process(requester(env))
    env.process(replier(env))
    env.process(canceller(env))
    env.run()
    return trace, env.event_count, env.now


def test_same_seed_same_trace():
    assert _jittery_trace() == _jittery_trace()


def test_urgent_insert_preempts_same_instant_chain():
    """A process created while a same-deadline chain drains must start
    before the chain's remaining events (URGENT priority sorts first)."""
    env = Environment()
    order = []

    def starter(env):
        yield env.timeout(1.0)
        order.append("starter")

        def child(env):
            order.append("child-start")
            yield env.timeout(1.0)

        env.process(child(env))

    def other(env):
        yield env.timeout(1.0)
        order.append("other")

    env.process(starter(env))
    env.process(other(env))
    env.run()
    assert order == ["starter", "child-start", "other"]


# -- lazy cancellation / free-list interaction -------------------------------


def test_cancelled_timeout_never_fires():
    env = Environment()
    fired = []
    doomed = env.timeout(1.0)
    doomed.add_callback(lambda ev: fired.append("doomed"))
    keeper = env.timeout(2.0)
    keeper.add_callback(lambda ev: fired.append("keeper"))
    doomed.cancel()
    env.run()
    assert fired == ["keeper"]
    assert env.stats()["cancelled_skipped"] == 1
    assert env.stats()["tombstones_pending"] == 0


def test_cancelled_pooled_timeout_is_recycled_without_stale_callback():
    """Cancel a queued pooled sleep: its callback must never run, the
    object must return to the free list at the skip, and the *next*
    incarnation (free-list reuse) must fire only its new callback."""
    env = Environment()
    stale_fired = []
    t = env.sleep(1.0)
    assert t._pooled
    t.add_callback(lambda ev: stale_fired.append("stale"))
    t.cancel()
    # Something live so run() has work: lets the loop surface the tombstone.
    env.timeout(3.0)
    env.run()
    assert stale_fired == []
    assert env.stats()["cancelled_skipped"] == 1
    assert env.stats()["timeout_pool_size"] == 1

    woke = []

    def sleeper(env):
        s = env.sleep(2.0)
        # Free-list reuse: the recycled object is the cancelled one.
        assert s is t
        yield s
        woke.append(env.now)

    env.process(sleeper(env))
    env.run()
    # The reused incarnation fired normally: new waiter woke, the stale
    # callback (registered against the cancelled incarnation) never ran.
    assert woke == [5.0]
    assert stale_fired == []


def test_cancel_after_fire_is_noop_and_does_not_sabotage_reuse():
    """cancel() on an already-fired pooled timeout must do nothing: the
    stale reference's next incarnation fires untouched."""
    env = Environment()
    stale = []

    def first(env):
        s = env.sleep(1.0)
        stale.append(s)
        yield s

    env.process(first(env))
    env.run()

    stale[0].cancel()  # fired long ago: a documented no-op
    assert env.stats()["tombstones_pending"] == 0

    woke = []

    def second(env):
        s = env.sleep(1.0)
        assert s is stale[0]
        yield s
        woke.append(env.now)

    env.process(second(env))
    env.run()
    assert woke == [2.0]
    assert env.stats()["cancelled_skipped"] == 0


def test_interrupt_orphaned_sleep_then_cancel():
    """An interrupt orphans a pooled sleep; cancelling the orphan reclaims
    it early instead of letting it fire as a no-op at its deadline."""
    env = Environment()
    log = []

    def sleeper(env):
        orphan = env.sleep(10.0)
        try:
            yield orphan
        except Interrupt:
            log.append(("interrupted", env.now))
            orphan.cancel()
        yield env.sleep(1.0)
        log.append(("again", env.now))

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt("up")

    p = env.process(sleeper(env))
    env.process(interrupter(env, p))
    env.run()
    assert log == [("interrupted", 1.0), ("again", 2.0)]
    # The orphan was reclaimed at pop: the clock never ran out to t=10.
    assert env.now == 2.0
    assert env.stats()["cancelled_skipped"] == 1


# -- peek / step ---------------------------------------------------------------


def test_peek_skips_tombstones():
    env = Environment()
    first = env.timeout(1.0)
    env.timeout(2.0)
    first.cancel()
    assert env.peek() == 2.0
    assert env.stats()["cancelled_skipped"] == 1


def test_step_dispatches_in_order():
    env = Environment()
    fired = []
    for delay, tag in ((2.0, "late"), (1.0, "early"), (1.0, "early2")):
        env.timeout(delay).add_callback(lambda ev, tag=tag: fired.append(tag))
    env.step()
    assert (fired, env.now) == (["early"], 1.0)
    env.step()
    assert fired == ["early", "early2"]
    env.step()
    assert (fired, env.now) == (["early", "early2", "late"], 2.0)
    with pytest.raises(SimulationError):
        env.step()

