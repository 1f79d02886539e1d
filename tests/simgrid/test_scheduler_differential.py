"""Hypothesis differential testing of the event schedulers.

Random op programs — schedule / cancel / coalesced bursts / urgent
same-instant inserts landing mid-chain / geometry-forcing floods — are
replayed on ``scheduler="heap"`` (the executable spec) and ``"array"``
(the typed-array calendar core, the default). Every replay must produce
the identical dispatch sequence: same callbacks, same firing times,
same event count, same final clock. This is the bit-exactness contract
the golden scenario summaries rest on, probed at the scheduler-operation
level instead of through whole scenarios.
"""

from hypothesis import given, settings, strategies as st

from repro.simgrid.engine import Environment

SCHEDULERS = Environment.SCHEDULERS

# Delays from a small grid plus awkward floats: exact ties (the coalesced
# chain paths), sub-width jitter, and spreads that force rebuilds.
_delay = st.one_of(
    st.sampled_from([0.0, 0.0625, 0.1, 0.25, 0.5, 1.0, 3.7, 40.0]),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False, width=32),
)

_op = st.one_of(
    # advance the driver clock
    st.tuples(st.just("sleep"), _delay),
    # one recorded timeout
    st.tuples(st.just("timeout"), _delay),
    # k same-deadline timeouts: a coalesced chain
    st.tuples(st.just("burst"), st.integers(2, 12), _delay),
    # cancel the j-th created timeout (may already have fired: a no-op)
    st.tuples(st.just("cancel"), st.integers(0, 200)),
    # spawn a process (urgent Initialize at the current instant)
    st.tuples(st.just("spawn"), _delay),
    # k same-deadline timeouts whose middle callback spawns a process:
    # the urgent insert lands while that chain is draining (preemption)
    st.tuples(st.just("chain_spawn"), st.integers(3, 8), _delay),
    # k timeouts spread over a span: forces grow/shrink rebuilds
    st.tuples(st.just("flood"), st.integers(30, 120), _delay),
)


def _replay(scheduler, ops):
    env = Environment(scheduler=scheduler)
    trace = []
    created = []

    def fire(tag):
        def cb(ev):
            trace.append((tag, env.now))
        return cb

    def child(env, tag, delay):
        trace.append((tag + ":start", env.now))
        yield env.timeout(delay)
        trace.append((tag + ":done", env.now))

    def driver(env):
        for k, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield env.sleep(op[1])
                trace.append(("drv", env.now))
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
                env.process(child(env, f"p{k}", op[1]))
            elif kind == "chain_spawn":
                n, d = op[1], op[2]
                mid = n // 2
                for j in range(n):
                    t = env.timeout(d)
                    if j == mid:
                        t.add_callback(
                            lambda ev, k=k, d=d: env.process(
                                child(env, f"c{k}", d)
                            )
                        )
                    else:
                        t.add_callback(fire(f"c{k}.{j}"))
                    created.append(t)
            elif kind == "flood":
                n, span = op[1], op[2]
                step = span / n if n else 0.0
                for j in range(n):
                    t = env.timeout(j * step)
                    t.add_callback(fire(f"f{k}.{j}"))
                    created.append(t)

    env.process(driver(env))
    env.run()
    return trace, env.event_count, env.now


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25))
def test_schedulers_dispatch_identically(ops):
    reference = _replay("heap", ops)
    for scheduler in SCHEDULERS:
        if scheduler != "heap":
            assert _replay(scheduler, ops) == reference


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=25))
def test_replay_is_deterministic_per_scheduler(ops):
    for scheduler in SCHEDULERS:
        assert _replay(scheduler, ops) == _replay(scheduler, ops)
