"""Unit + property tests for the large-grid decision state.

The contract under test: :class:`StreamingDecisionState`, fed the way the
``large_grid`` substrate feeds it — each period's reports through
:meth:`GridState.ingest_arrays` with a membership-version bump, evictions
through :meth:`StreamingDecisionState.forget` — must produce the *same
floats and the same decisions* as a fresh :class:`GridSnapshot` handed to
:class:`AdaptationPolicy`, for any history of reports, joins, leaves,
evictions and protected sets. Exact ``==`` on WAE values, exact equality
on decision objects; no tolerances anywhere.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.badness import BadnessCoefficients, rank_nodes
from repro.core.gridstate import GridState
from repro.core.policy import (
    AdaptationPolicy,
    GridSnapshot,
    NodeView,
    PolicyConfig,
)
from repro.core.streaming import StreamingDecisionState, TopKBadness
from repro.satin.accounting import NodeReport


def report(name, cluster, speed=1.0, overhead=0.5, ic=0.0, period=0):
    """A NodeReport with a 1 s period; busy = 1 - overhead, comm_inter = ic."""
    return NodeReport(
        worker=name,
        cluster=cluster,
        period_index=period,
        sent_at=float(period),
        period_seconds=1.0,
        busy=1.0 - overhead,
        idle=0.0,
        comm_intra=0.0,
        comm_inter=ic,
        bench=0.0,
        speed=speed,
    )


def ingest(grid: GridState, reports) -> None:
    """Store ``reports`` the large-grid way: one ``ensure_many`` +
    ``ingest_arrays`` per cluster."""
    by_cluster: dict[str, list[NodeReport]] = {}
    for r in reports:
        by_cluster.setdefault(r.cluster, []).append(r)
    for cluster, group in by_cluster.items():
        grid.ingest_arrays(
            grid.ensure_many([r.worker for r in group], cluster),
            speed=np.array([r.speed for r in group]),
            busy=np.array([r.busy for r in group]),
            comm_inter=np.array([r.comm_inter for r in group]),
            period_seconds=np.array([r.period_seconds for r in group]),
        )


def batch_snapshot(reports, alive, time=0.0):
    views = tuple(
        NodeView(
            name=n,
            cluster=reports[n].cluster,
            speed=reports[n].speed,
            overhead=reports[n].overhead,
            ic_overhead=reports[n].ic_overhead,
        )
        for n in alive
        if n in reports
    )
    return GridSnapshot(time=time, nodes=views)


# ------------------------------------------------------------- TopKBadness
def test_topk_orders_like_rank_nodes():
    topk = TopKBadness()
    topk.rebuild_deferred(["a", "c", "b", "d"], np.array([3.0, 7.0, 7.0, 1.0]))
    # badness descending, name ascending on ties — rank_nodes order
    assert topk.worst(4) == ["b", "c", "a", "d"]
    # queries do not consume the ranking
    assert topk.worst(2) == ["b", "c"]
    assert len(topk) == 4


def test_topk_skip_looks_past_protected():
    topk = TopKBadness()
    topk.rebuild_deferred(["a", "b", "c"], np.array([9.0, 8.0, 7.0]))
    assert topk.worst(2, skip=("a",)) == ["b", "c"]
    assert topk.worst(5, skip=("a", "b", "c")) == []


def test_topk_rebuild_replaces_everything():
    topk = TopKBadness()
    topk.rebuild_deferred(["old"], np.array([99.0]))
    assert topk.worst(1) == ["old"]  # ranking computed and held
    topk.rebuild_deferred(["x", "y"], np.array([2.0, 4.0]))
    assert topk.worst(3) == ["y", "x"]


NAMES = [f"c{i % 2}/n{i}" for i in range(10)]


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.lists(
        st.tuples(
            st.sampled_from(NAMES),
            st.sampled_from([1.0, 2.0, 4.0]),  # speed: few values, many ties
            st.sampled_from([0.0, 0.25]),      # ic overhead
        ),
        min_size=1,
        max_size=len(NAMES),
        unique_by=lambda node: node[0],
    ),
    count=st.integers(min_value=0, max_value=len(NAMES) + 1),
    skip=st.sets(st.sampled_from(NAMES), max_size=4),
)
def test_topk_worst_matches_rank_nodes(nodes, count, skip):
    """Tied badness values and protected skips: ``worst`` is exactly
    ``rank_nodes`` minus the skipped names, truncated — on every call."""
    names = [name for name, _, _ in nodes]  # hypothesis order, not sorted
    ranked = rank_nodes(
        {name: speed for name, speed, _ in nodes},
        {name: ic for name, _, ic in nodes},
        {name: name.partition("/")[0] for name in names},
    )
    badness = dict(ranked)
    topk = TopKBadness()
    topk.rebuild_deferred(names, np.array([badness[n] for n in names]))
    expected = [n for n, _ in ranked if n not in skip][:count]
    assert topk.worst(count, tuple(skip)) == expected
    assert topk.worst(count, tuple(skip)) == expected


# ------------------------------------------- decision state, deterministic
def test_empty_state_decides_no_statistics():
    state = StreamingDecisionState()
    state.sync(0, lambda: [])
    assert state.size == 0
    decision = state.decide((), PolicyConfig())
    assert decision.describe()["decision"] == "no_action"
    assert decision.reason == "no statistics yet"


def test_wae_matches_batch_exactly():
    state = StreamingDecisionState()
    reports = {}
    for i, (speed, overhead) in enumerate([(2.0, 0.3), (1.0, 0.55), (3.7, 0.41)]):
        name = f"c0/n{i}"
        reports[name] = report(name, "c0", speed=speed, overhead=overhead)
    ingest(state.grid, reports.values())
    alive = list(reports)
    state.sync(1, lambda: alive)
    snap = batch_snapshot(reports, alive)
    assert state.weighted_wae() == snap.wae()
    assert state.unweighted_efficiency() == snap.unweighted_efficiency()


def test_fastest_speed_change_renormalizes_everything():
    state = StreamingDecisionState()
    reports = {
        f"c0/n{i}": report(f"c0/n{i}", "c0", speed=1.0 + i, overhead=0.4)
        for i in range(4)
    }
    ingest(state.grid, reports.values())
    alive = list(reports)
    state.sync(1, lambda: alive)
    # a new global maximum shifts every component's normalisation base
    reports["c0/n1"] = report("c0/n1", "c0", speed=40.0, overhead=0.4, period=1)
    ingest(state.grid, [reports["c0/n1"]])
    state.sync(2, lambda: alive)
    snap = batch_snapshot(reports, alive)
    assert state.weighted_wae() == snap.wae()


def test_membership_change_triggers_exact_removal():
    state = StreamingDecisionState()
    alive = [f"c0/n{i}" for i in range(5)]
    reports = {
        name: report(name, "c0", speed=1.0 + i, overhead=0.9)
        for i, name in enumerate(alive)
    }
    ingest(state.grid, reports.values())
    state.sync(1, lambda: alive)
    before = state.weighted_wae()
    # the node leaves: its contribution must vanish exactly
    remaining = [n for n in alive if n != "c0/n4"]
    state.sync(2, lambda: remaining)
    assert state.size == 4
    snap = batch_snapshot(reports, remaining)
    assert state.weighted_wae() == snap.wae()
    assert state.weighted_wae() != before


def test_forget_drops_report_without_membership_change():
    state = StreamingDecisionState()
    alive = ["c0/n0", "c0/n1"]
    reports = {n: report(n, "c0", speed=1.0, overhead=0.5) for n in alive}
    ingest(state.grid, reports.values())
    state.sync(1, lambda: alive)
    # eviction pops the report while the worker may linger as alive
    state.forget("c0/n1")
    state.sync(1, lambda: alive)
    assert state.size == 1
    snap = batch_snapshot({"c0/n0": reports["c0/n0"]}, alive)
    assert state.weighted_wae() == snap.wae()


def test_coefficient_change_rebuilds_ranking():
    state = StreamingDecisionState()
    reports = {}
    for i in range(4):
        name = f"c{i % 2}/n{i}"
        reports[name] = report(name, f"c{i % 2}", speed=1.0 + i,
                               overhead=0.95, ic=0.02 * i)
    ingest(state.grid, reports.values())
    alive = list(reports)
    state.sync(1, lambda: alive)
    for coeffs in (BadnessCoefficients(), BadnessCoefficients(alpha=50.0, beta=1.0)):
        cfg = PolicyConfig(coefficients=coeffs)
        snap = batch_snapshot(reports, alive)
        assert state.decide((), cfg) == AdaptationPolicy(cfg).decide(snap)
        expected = [n for n, _ in rank_nodes(
            {n: reports[n].speed for n in alive},
            {n: reports[n].ic_overhead for n in alive},
            {n: reports[n].cluster for n in alive},
            coeffs,
        )]
        assert state._topk.worst(len(alive)) == expected


# ------------------------------------------------- hypothesis equivalence
N_CLUSTERS = 3

node_names = st.integers(min_value=0, max_value=11).map(
    lambda i: f"c{i % N_CLUSTERS}/n{i}"
)

report_values = st.tuples(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False),  # speed
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),    # overhead
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),    # ic
)

period_step = st.fixed_dictionaries(
    {
        "changes": st.dictionaries(node_names, report_values, max_size=6),
        "join": st.one_of(st.none(), node_names),
        "leave": st.one_of(st.none(), node_names),
        "evict": st.one_of(st.none(), node_names),
        "protected": st.sets(node_names, max_size=3),
    }
)


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=st.dictionaries(node_names, report_values, min_size=0, max_size=8),
    steps=st.lists(period_step, min_size=1, max_size=8),
    e_min=st.floats(min_value=0.05, max_value=0.45),
    e_max=st.floats(min_value=0.5, max_value=0.95),
)
def test_streaming_decisions_identical_to_batch(initial, steps, e_min, e_max):
    """Randomized grid histories through the large-grid protocol: the
    state's decision log equals the policy's on fresh snapshots, and every
    decision's WAE matches bit-for-bit.

    Each period ingests its reports with a version bump. An eviction
    drops the node's report at once (``forget``) while the worker
    lingers in membership until the next period, so the state must
    re-fold at an unchanged version.
    """
    cfg = PolicyConfig(e_min=e_min, e_max=e_max)
    policy = AdaptationPolicy(cfg)
    state = StreamingDecisionState()

    alive: list[str] = sorted(initial)
    latest: dict[str, NodeReport] = {
        name: report(name, name.split("/")[0], speed, overhead, ic)
        for name, (speed, overhead, ic) in initial.items()
    }
    ingest(state.grid, latest.values())
    version = 0

    batch_log = []
    stream_log = []

    def decide(period, protected):
        snap = batch_snapshot(latest, alive, time=float(period))
        batch_log.append((period, policy.decide(snap, protected=protected)))
        state.sync(version, lambda: list(alive))
        assert state.size == snap.size
        if snap.nodes:
            assert state.weighted_wae() == snap.wae()
        stream_log.append((period, state.decide(protected, cfg)))

    for period, step in enumerate(steps, start=1):
        if step["join"] is not None and step["join"] not in alive:
            alive.append(step["join"])
        if step["leave"] is not None and step["leave"] in alive:
            alive.remove(step["leave"])
        fresh = [
            report(name, name.split("/")[0], speed, overhead, ic, period=period)
            for name, (speed, overhead, ic) in step["changes"].items()
            if name in alive  # dead nodes do not report
        ]
        latest.update((r.worker, r) for r in fresh)
        ingest(state.grid, fresh)
        version += 1
        protected = tuple(sorted(step["protected"]))
        decide(period, protected)

        evictee = step["evict"]
        if evictee is not None and evictee in alive:
            latest.pop(evictee, None)
            state.forget(evictee)
            decide(period, protected)
            alive.remove(evictee)

    assert stream_log == batch_log
