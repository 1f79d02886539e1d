"""Unit tests for the discrete-event engine."""

import pytest

from repro.simgrid.engine import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(3.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 3.5
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_events_process_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo_by_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ["x", "y", "z"]:
        env.process(proc(env, tag))
    env.run()
    assert order == ["x", "y", "z"]


def test_process_waits_for_process():
    env = Environment()

    def child(env):
        yield env.timeout(2.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return (env.now, result)

    p = env.process(parent(env))
    env.run()
    assert p.value == (2.0, 42)


def test_waiting_on_already_finished_process():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env, child_proc):
        yield env.timeout(5.0)
        result = yield child_proc
        return (env.now, result)

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.run()
    assert p.value == (5.0, "done")


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as e:
            return f"caught {e}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_run_until_time():
    env = Environment()
    seen = []

    def ticker(env):
        while True:
            yield env.timeout(1.0)
            seen.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert seen == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "finished"

    p = env.process(proc(env))
    assert env.run(until=p) == "finished"


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_never_firing_event_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError, match="exhausted"):
        env.run(until=ev)


def test_bare_event_succeed():
    env = Environment()
    ev = env.event()

    def waiter(env):
        value = yield ev
        return value

    def trigger(env):
        yield env.timeout(1.0)
        ev.succeed("signal")

    p = env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert p.value == "signal"


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_interrupt_delivers_cause():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            return ("interrupted", env.now, i.cause)

    def attacker(env, v):
        yield env.timeout(2.0)
        v.interrupt(cause="crash")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == ("interrupted", 2.0, "crash")


def test_interrupted_process_not_resumed_by_stale_timeout():
    env = Environment()
    resumed = []

    def victim(env):
        try:
            yield env.timeout(10.0)
            resumed.append("timeout")
        except Interrupt:
            yield env.timeout(100.0)
            resumed.append("after-interrupt")

    def attacker(env, v):
        yield env.timeout(1.0)
        v.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    # The original t=10 timeout must not wake the process a second time.
    assert resumed == ["after-interrupt"]
    assert env.now == 101.0


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def selfish(env):
        me = env.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield env.timeout(1.0)

    env.process(selfish(env))
    env.run()


def test_multiple_interrupts_queue():
    env = Environment()
    causes = []

    def victim(env):
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as i:
                causes.append(i.cause)

    def attacker(env, v):
        yield env.timeout(1.0)
        v.interrupt("first")
        v.interrupt("second")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run(until=10.0)
    assert causes == ["first", "second"]


def test_any_of_fires_on_first():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        result = yield AnyOf(env, [t1, t2])
        return (env.now, list(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (1.0, ["fast"])


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        result = yield AllOf(env, [t1, t2])
        return (env.now, sorted(result.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (5.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        result = yield AllOf(env, [])
        return result

    p = env.process(proc(env))
    env.run()
    assert p.value == {}


def test_yielding_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_mixed_environment_event_rejected():
    env1, env2 = Environment(), Environment()

    def bad(env):
        yield env2.timeout(1.0)

    env1.process(bad(env1))
    with pytest.raises(SimulationError, match="another environment"):
        env1.run()


def test_peek_and_step():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    env.process(proc(env))
    assert env.peek() == 0.0  # the initialize event
    env.step()
    assert env.peek() == 2.0
    env.step()  # timeout fires, process finishes -> completion event at 2.0
    assert env.now == 2.0
    env.step()  # process completion event
    assert env.peek() == float("inf")


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process([1, 2, 3])


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_event_count_increments():
    # Same-deadline timeouts from concurrent processes coalesce in the
    # calendar queue, but each still counts as its own event.
    env = Environment()

    def ticker(env):
        for _ in range(200):
            yield env.timeout(1.0)

    for _ in range(5):
        env.process(ticker(env))
    env.run()
    # per process: one Initialize, 200 timeouts, one completion
    assert env.event_count == 5 * (1 + 200 + 1)
    assert env.now == 200.0


def test_nested_processes_three_deep():
    env = Environment()

    def leaf(env):
        yield env.timeout(1.0)
        return 1

    def mid(env):
        a = yield env.process(leaf(env))
        b = yield env.process(leaf(env))
        return a + b

    def root(env):
        total = yield env.process(mid(env))
        return total * 10

    p = env.process(root(env))
    env.run()
    assert p.value == 20
    assert env.now == 2.0


def test_condition_with_failing_subevent_fails():
    env = Environment()

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("sub fails")

    def waiter(env):
        fp = env.process(failer(env))
        try:
            yield AllOf(env, [fp, env.timeout(10.0)])
        except ValueError:
            return "condition failed"

    p = env.process(waiter(env))
    env.run()
    assert p.value == "condition failed"
