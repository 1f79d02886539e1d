"""GridState: SoA storage, slot registry, and fold bit-identity.

The load-bearing property: the vectorized :meth:`GridState.fold` must be
**bit-identical** to the pure-Python scalar spec in
``tests/reference/gridstate.py`` — same IEEE-754 results for every
per-node derivation and every cluster aggregate, over arbitrary
interleavings of reports, joins, leaves and evictions. Hypothesis drives that interleaving.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gridstate import GridState, SlotRegistry
from repro.satin.accounting import NodeReport
from tests.reference import gridstate as reference

CLUSTERS = ("alpha", "beta", "gamma")
NODES = tuple(f"{c}/n{i}" for c in CLUSTERS for i in range(4))


def _cluster_of(name: str) -> str:
    return name.partition("/")[0]


def make_report(name, period, speed, busy_frac, ic_frac, seconds=60.0):
    return NodeReport(
        worker=name,
        cluster=_cluster_of(name),
        period_index=period,
        sent_at=seconds * (period + 1),
        period_seconds=seconds,
        busy=busy_frac * seconds,
        idle=0.0,
        comm_intra=0.0,
        comm_inter=ic_frac * seconds,
        bench=0.0,
        speed=speed,
    )


# -- slot registry -----------------------------------------------------------


def test_registry_acquire_is_stable_and_idempotent():
    reg = SlotRegistry()
    a = reg.acquire("alpha/n0")
    b = reg.acquire("beta/n0")
    assert a != b
    assert reg.acquire("alpha/n0") == a
    assert reg.slot_of("beta/n0") == b
    assert len(reg) == 2 and reg.capacity == 2
    assert reg.acquires == 2 and reg.reuses == 0


def test_registry_release_recycles_lifo_and_bumps_epoch():
    reg = SlotRegistry()
    slots = [reg.acquire(n) for n in ("a", "b", "c")]
    assert reg.release("b") == slots[1]
    assert "b" not in reg and reg.get("b") is None
    assert reg.name_of(slots[1]) is None
    epoch_before = reg.epoch_of(slots[1])
    # the freed slot is reused (LIFO) by the next new name
    assert reg.acquire("d") == slots[1]
    assert reg.epoch_of(slots[1]) == epoch_before + 1
    assert reg.reuses == 1
    assert reg.capacity == 3  # no array growth from the recycle


def test_registry_release_unknown_returns_none():
    reg = SlotRegistry()
    assert reg.release("ghost") is None


# -- scalar vs vector ingestion ----------------------------------------------


def test_ingest_arrays_matches_scalar_ingest_bitwise():
    rng = np.random.default_rng(5)
    n = 64
    names = [f"alpha/n{i}" for i in range(n)]
    speed = rng.uniform(0.5, 4.0, n)
    busy = rng.uniform(0.0, 60.0, n)
    ic = rng.uniform(0.0, 10.0, n)
    seconds = np.full(n, 60.0)

    scalar = GridState()
    for i, name in enumerate(names):
        # raw seconds, not fractions: the scalar and vector paths must
        # see bit-identical inputs for the outputs to be comparable
        reference.ingest(
            scalar,
            NodeReport(
                worker=name,
                cluster="alpha",
                period_index=0,
                sent_at=60.0,
                period_seconds=60.0,
                busy=float(busy[i]),
                idle=0.0,
                comm_intra=0.0,
                comm_inter=float(ic[i]),
                bench=0.0,
                speed=float(speed[i]),
            )
        )
    vector = GridState()
    slots = np.array([vector.ensure(nm, "alpha") for nm in names])
    vector.ingest_arrays(
        slots,
        speed=speed,
        busy=busy,
        comm_inter=ic,
        period_seconds=seconds,
        period_index=0.0,
    )
    for field in ("speed", "overhead", "ic", "busy", "comm_inter"):
        s = scalar.array(field)[: len(names)]
        v = vector.array(field)[: len(names)]
        np.testing.assert_array_equal(s, v, err_msg=field)


def test_ingest_validation():
    g = GridState()
    with pytest.raises(ValueError, match="speed"):
        reference.ingest(g, make_report("alpha/n0", 0, 0.0, 0.5, 0.0))
    slot = np.array([g.ensure("alpha/n0", "alpha")])
    with pytest.raises(ValueError, match="speed"):
        g.ingest_arrays(
            slot,
            speed=np.array([-1.0]),
            busy=np.array([1.0]),
            comm_inter=np.array([0.0]),
            period_seconds=np.array([60.0]),
        )


# -- bulk slot binding ---------------------------------------------------------

#: enough names that one bind can push the arrays through several growths
BULK_NODES = {c: tuple(f"{c}/n{i:03d}" for i in range(100)) for c in CLUSTERS}
ALL_BULK = tuple(n for names in BULK_NODES.values() for n in names)


def _batch(cluster: str):
    """A bind batch: a block of members (a cluster's first report or a
    mass join) or a scattered pick with repeats, which may name nodes
    bound under another cluster (their cluster code is rewritten)."""
    nodes = BULK_NODES[cluster]
    block = st.builds(
        lambda start, count: list(nodes[start:start + count]),
        st.integers(0, 99), st.integers(0, 100),
    )
    return st.one_of(block, st.lists(st.sampled_from(ALL_BULK), max_size=20))


bulk_op = st.one_of(
    # (re)join a batch: fresh names, registered ones, and released ones
    # coming back, possibly repeated within the batch
    st.sampled_from(CLUSTERS).flatmap(
        lambda c: st.tuples(st.just("bind"), st.just(c), _batch(c))
    ),
    st.tuples(st.sampled_from(["release", "forget"]), st.just(""),
              st.lists(st.sampled_from(ALL_BULK), min_size=1, max_size=20)),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(bulk_op, min_size=1, max_size=25))
def test_ensure_many_matches_per_name_ensure(ops):
    """``ensure_many`` leaves exactly the state per-name ``ensure`` does:
    same slots, counters, epochs, cluster codes and array capacity."""
    from repro.core.streaming import StreamingDecisionState

    bulk, ref = StreamingDecisionState(), StreamingDecisionState()
    for op, cluster, names in ops:
        if op == "bind":
            got = bulk.grid.ensure_many(names, cluster)
            want = [ref.grid.ensure(n, cluster) for n in names]
            assert got.dtype == np.intp
            assert got.tolist() == want
        else:
            for name in names:
                if op == "release":
                    bulk.grid.release(name)
                    ref.grid.release(name)
                else:
                    bulk.forget(name)
                    ref.forget(name)
    a, b = bulk.grid, ref.grid
    assert a.registry.acquires == b.registry.acquires
    assert a.registry.reuses == b.registry.reuses
    assert a.registry.capacity == b.registry.capacity
    assert a.registry._epoch == b.registry._epoch
    assert a.registry._slot_of == b.registry._slot_of
    assert a.registry._free == b.registry._free
    assert a._cap == b._cap
    assert a._cluster_names == b._cluster_names
    np.testing.assert_array_equal(a._ccode, b._ccode)


def test_ensure_many_empty_binds_nothing():
    g = GridState()
    out = g.ensure_many([], "alpha")
    assert out.dtype == np.intp and out.size == 0
    assert g.registry.acquires == 0 and g._cluster_names == []


# -- fold bit-identity (the tentpole property) -------------------------------

#: one step of grid history: (op, node, speed, busy_frac, ic_frac)
step = st.tuples(
    st.sampled_from(["report", "leave"]),
    st.sampled_from(NODES),
    st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(step, min_size=1, max_size=40))
def test_fold_bit_identical_to_scalar_spec(steps):
    """Arbitrary report/join/leave/evict interleavings: the vectorized
    fold and the pure-Python spec agree to the last bit."""
    g = GridState()
    reported: dict[str, int] = {}  # name -> insertion order (stable)
    counter = 0
    for op, name, speed, busy_frac, ic_frac in steps:
        if op == "report":
            # a report from an unknown node is a join
            busy_frac = min(busy_frac, 1.0 - ic_frac)
            reference.ingest(g, make_report(name, 0, speed, busy_frac, ic_frac))
            if name not in reported:
                reported[name] = counter
                counter += 1
        else:
            g.release(name)  # leave/evict; unknown names are a no-op
            reported.pop(name, None)
    order = sorted(reported, key=reported.get)
    if not order:
        assert g.fold(order).order == reference.fold(g, order).order == []
        return
    vec = g.fold(order)
    ref = reference.fold(g, order)
    assert vec.order == ref.order
    assert vec.clusters == ref.clusters
    assert vec.cluster_of == ref.cluster_of
    np.testing.assert_array_equal(vec.codes, ref.codes)
    # bit-identity: exact equality on every float array and aggregate
    np.testing.assert_array_equal(vec.speed, ref.speed)
    np.testing.assert_array_equal(vec.overhead, ref.overhead)
    np.testing.assert_array_equal(vec.ic, ref.ic)
    np.testing.assert_array_equal(vec.comp, ref.comp)
    assert vec.fastest == ref.fastest
    assert vec.cl_speed == ref.cl_speed
    assert vec.cl_ic_sum == ref.cl_ic_sum
    assert vec.cl_count == ref.cl_count
    assert set(vec.members) == set(ref.members)
    for cluster in vec.members:
        np.testing.assert_array_equal(
            vec.members[cluster], ref.members[cluster]
        )
    assert vec.wae() == ref.wae()


def test_fold_after_slot_reuse_is_clean():
    """A recycled slot must carry no stale state into the fold."""
    g = GridState()
    reference.ingest(g, make_report("alpha/n0", 0, 2.0, 0.5, 0.1))
    reference.ingest(g, make_report("beta/n0", 0, 1.0, 0.2, 0.0))
    old_slot = g.registry.slot_of("alpha/n0")
    g.release("alpha/n0")
    reference.ingest(g, make_report("gamma/n0", 1, 4.0, 0.25, 0.05))
    assert g.registry.slot_of("gamma/n0") == old_slot  # recycled
    order = ["beta/n0", "gamma/n0"]
    vec, ref = g.fold(order), reference.fold(g, order)
    np.testing.assert_array_equal(vec.speed, ref.speed)
    assert vec.clusters == ["beta", "gamma"]
    assert vec.cl_count == {"beta": 1, "gamma": 1}
    assert float(vec.speed[1]) == pytest.approx(4.0)


def test_cluster_sums_use_sequential_fold():
    """Cluster aggregates must match a left-to-right scalar loop exactly
    (guards against someone 'simplifying' to pairwise np.sum)."""
    rng = np.random.default_rng(17)
    g = GridState()
    names = [f"alpha/n{i}" for i in range(1000)]
    speeds = rng.uniform(0.1, 5.0, len(names))
    for name, speed in zip(names, speeds):
        reference.ingest(g, make_report(name, 0, float(speed), 0.5, 0.1))
    fold = g.fold(names)
    acc = 0.0
    for i in range(len(names)):
        acc += float(fold.speed[i])
    assert fold.cl_speed["alpha"] == acc
