"""Hypothesis differential test: the run loop against single steps.

:meth:`Environment.run` drives an inlined loop for speed;
:meth:`Environment.step` is the single-event reference. Random programs
— timeouts, pooled sleeps, cancellations, process spawns, URGENT
interrupts, events succeeded at the current instant — are replayed
twice: once through ``env.run(until=t)`` slices and a final ``env.run()``,
once through the naive loop below, which is what ``run`` means. Both
must produce the same ``(time, event-tag)`` dispatch sequence, clock
advances included, the same event count and the same final clock. This
is the contract the golden scenario summaries rest on, probed at the
event-operation level instead of through whole scenarios.
"""

from hypothesis import given, settings, strategies as st

from repro.simgrid.engine import NORMAL, URGENT, Environment, Interrupt

# Delays from a small grid plus awkward floats: exact ties put several
# events on one instant, where priority and seq decide the order.
_delay = st.one_of(
    st.sampled_from([0.0, 0.0625, 0.1, 0.25, 0.5, 1.0, 3.7]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=32),
)

_op = st.one_of(
    # advance the program clock with a pooled sleep
    st.tuples(st.just("sleep"), _delay),
    # one recorded timeout
    st.tuples(st.just("timeout"), _delay),
    # k same-deadline timeouts
    st.tuples(st.just("burst"), st.integers(2, 6), _delay),
    # cancel the j-th created timeout (may already have fired: a no-op)
    st.tuples(st.just("cancel"), st.integers(0, 100)),
    # spawn a sleeping child (URGENT start-up at the current instant)
    st.tuples(st.just("spawn"), _delay),
    # interrupt the j-th child if it is still alive (an URGENT event)
    st.tuples(st.just("interrupt"), st.integers(0, 100)),
    # trigger a bare event at the current instant, NORMAL or URGENT
    st.tuples(st.just("succeed"), st.booleans()),
    # k same-deadline timeouts whose middle callback spawns a child: the
    # URGENT start-up lands while that instant is being dispatched
    st.tuples(st.just("chain_spawn"), st.integers(3, 6), _delay),
)

# run(until=t) deadlines, as positive increments from the previous one;
# the grid values make a deadline land exactly on an event time.
_slices = st.lists(
    st.one_of(
        st.sampled_from([0.0625, 0.25, 0.5, 1.0]),
        st.floats(min_value=0.125, max_value=20.0, allow_nan=False, width=32),
    ),
    max_size=5,
)


def _program(env, ops, trace):
    """Start ``ops`` on ``env``; every dispatch appends to ``trace``."""
    created = []
    children = []

    def fire(tag):
        return lambda ev: trace.append((env.now, tag))

    def child(env, tag, delay):
        trace.append((env.now, tag + ":start"))
        for _ in range(3):
            try:
                yield env.sleep(delay)
                trace.append((env.now, tag + ":tick"))
            except Interrupt as exc:
                trace.append((env.now, f"{tag}:interrupt:{exc.cause}"))

    def spawn(tag, delay):
        children.append(env.process(child(env, tag, delay)))

    def driver(env):
        for k, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield env.sleep(op[1])
                trace.append((env.now, "drv"))
            elif kind == "timeout":
                t = env.timeout(op[1])
                t.add_callback(fire(f"t{k}"))
                created.append(t)
            elif kind == "burst":
                for j in range(op[1]):
                    t = env.timeout(op[2])
                    t.add_callback(fire(f"b{k}.{j}"))
                    created.append(t)
            elif kind == "cancel":
                if created:
                    created[op[1] % len(created)].cancel()
            elif kind == "spawn":
                spawn(f"p{k}", op[1])
            elif kind == "interrupt":
                if children:
                    victim = children[op[1] % len(children)]
                    if victim.is_alive:
                        victim.interrupt(k)
            elif kind == "succeed":
                ev = env.event()
                ev.add_callback(fire(f"s{k}"))
                ev.succeed(priority=URGENT if op[1] else NORMAL)
            elif kind == "chain_spawn":
                n, d = op[1], op[2]
                for j in range(n):
                    t = env.timeout(d)
                    if j == n // 2:
                        t.add_callback(
                            lambda ev, k=k, d=d: spawn(f"c{k}", d)
                        )
                    else:
                        t.add_callback(fire(f"c{k}.{j}"))
                    created.append(t)

    env.add_clock_listener(lambda old, new: trace.append((new, f"clock<{old}")))
    env.process(driver(env))


def _deadlines(increments):
    out, t = [], 0.0
    for inc in increments:
        t += inc
        out.append(t)
    return out


def _replay_run(ops, increments):
    env = Environment()
    trace = []
    _program(env, ops, trace)
    for t in _deadlines(increments):
        env.run(until=t)
        trace.append((env.now, "slice"))
    env.run()
    return trace, env.event_count, env.now


def _replay_steps(ops, increments):
    """The reference: ``run(until=t)`` as single steps, then the clock
    set to ``t``; ``run()`` as steps until the queue is empty."""
    env = Environment()
    trace = []
    _program(env, ops, trace)
    for t in _deadlines(increments):
        while env.peek() <= t:
            env.step()
        env.now = t
        trace.append((env.now, "slice"))
    while env.peek() != float("inf"):
        env.step()
    return trace, env.event_count, env.now


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25), increments=_slices)
def test_run_dispatches_like_single_steps(ops, increments):
    assert _replay_run(ops, increments) == _replay_steps(ops, increments)


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25), increments=_slices)
def test_replay_is_deterministic(ops, increments):
    assert _replay_run(ops, increments) == _replay_run(ops, increments)
