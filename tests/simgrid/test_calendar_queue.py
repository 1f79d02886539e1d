"""Calendar-queue scheduler tests: heap equivalence, lazy cancellation,
coalesced chains, preemption, and self-resizing.

The calendar queue over typed-array storage (``scheduler="array"``, the
default) must be *observationally identical* to the retained binary-heap
reference (``Environment(scheduler="heap")``): same events in the same
``(time, priority, seq)`` total order, same event counts, same results —
the golden scenario summaries depend on it. These tests drive every
scheduler through the corners the calendar actually has: within-bucket
chains of same-deadline events, urgent inserts landing mid-chain,
tombstoned (cancelled) timeouts surfacing at pop, free-list reuse after
a cancellation, and the bucket-array rebuild.
"""

import numpy as np
import pytest

from repro.simgrid.engine import Environment, Interrupt, SimulationError
from repro.simgrid.queues import Store

SCHEDULERS = Environment.SCHEDULERS


# -- trace equivalence --------------------------------------------------------


def _jittery_trace(scheduler: str) -> tuple[list, int, float]:
    """A mixed workload: jittered sleeps, store ping-pong, cancellations."""
    env = Environment(scheduler=scheduler)
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


def test_calendars_match_heap_reference_trace():
    assert _jittery_trace("array") == _jittery_trace("heap")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_same_seed_same_trace_per_scheduler(scheduler):
    assert _jittery_trace(scheduler) == _jittery_trace(scheduler)


def test_urgent_insert_preempts_same_instant_chain():
    """A process created while a same-deadline chain drains must start
    before the chain's remaining events (URGENT priority sorts first),
    identically under both schedulers."""

    def run(scheduler):
        env = Environment(scheduler=scheduler)
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
        return order

    heap = run("heap")
    assert heap == ["starter", "child-start", "other"]
    assert run("array") == heap


# -- lazy cancellation / free-list interaction -------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cancelled_timeout_never_fires(scheduler):
    env = Environment(scheduler=scheduler)
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


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cancelled_pooled_timeout_is_recycled_without_stale_callback(scheduler):
    """Cancel a queued pooled sleep: its callback must never run, the
    object must return to the free list at the skip, and the *next*
    incarnation (free-list reuse) must fire only its new callback."""
    env = Environment(scheduler=scheduler)
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


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_cancel_after_fire_is_noop_and_does_not_sabotage_reuse(scheduler):
    """cancel() on an already-fired pooled timeout must do nothing: the
    stale reference's next incarnation fires untouched."""
    env = Environment(scheduler=scheduler)
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


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_interrupt_orphaned_sleep_then_cancel(scheduler):
    """An interrupt orphans a pooled sleep; cancelling the orphan reclaims
    it early instead of letting it fire as a no-op at its deadline."""
    env = Environment(scheduler=scheduler)
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


# -- peek / step under the calendar ------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_peek_skips_tombstones(scheduler):
    env = Environment(scheduler=scheduler)
    first = env.timeout(1.0)
    env.timeout(2.0)
    first.cancel()
    assert env.peek() == 2.0
    assert env.stats()["cancelled_skipped"] == 1


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_step_dispatches_in_order(scheduler):
    env = Environment(scheduler=scheduler)
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


# -- calendar internals (the heap has no geometry gauges) ---------------------


@pytest.mark.parametrize("scheduler", ["array"])
def test_same_deadline_inserts_coalesce_into_one_entry(scheduler):
    env = Environment(scheduler=scheduler)
    for _ in range(100):
        env.timeout(5.0)
    stats = env.stats()
    assert stats["queue_len"] == 100
    # All 100 share one chained entry: 99 inserts cost one list append.
    assert stats["calendar_entries"] == 1


@pytest.mark.parametrize("scheduler", ["array"])
def test_bucket_array_rebuilds_under_load(scheduler):
    env = Environment(scheduler=scheduler)
    assert env.stats()["calendar_buckets"] == 64
    rng = np.random.default_rng(3)
    deadlines = sorted(float(rng.uniform(0.0, 100.0)) for _ in range(1000))
    fired = []
    for t in deadlines:
        env.timeout(t).add_callback(lambda ev: fired.append(env.now))
    # 1000 queued events exceed the 64-bucket load factor; peek() performs
    # the pending rebuild: buckets grow to the smallest power of two with
    # load factor <= 1/2 and the width recalibrates to ~3x the observed
    # inter-event gap (100s span / 999 gaps -> ~0.3s).
    assert env.peek() == deadlines[0]
    grown = env.stats()
    assert grown["calendar_buckets"] == 2048
    assert 0.05 < grown["calendar_width"] < 1.0
    env.run()
    assert fired == deadlines
    # Draining back below the load floor shrank the array again.
    final = env.stats()
    assert final["queue_len"] == 0
    assert final["calendar_buckets"] < 2048
    assert final["rebuilds"] >= 2  # one grow, at least one shrink


def test_scheduler_argument_validation():
    # Unknown names raise ValueError naming every valid option, so a
    # typo'd scheduler= is self-diagnosing (mirrors RunConfig). The
    # retired object-tuple calendar is an unknown name like any other.
    for bad in ("bogus", "calendar"):
        with pytest.raises(ValueError) as exc:
            Environment(scheduler=bad)
        assert f"one of {('array', 'heap')}, got {bad!r}" in str(exc.value)
