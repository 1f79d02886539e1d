"""Integration tests: the adaptation coordinator driving the runtime.

These use a short monitoring period (5 s) and small workloads so each test
runs in well under a second of wall time.
"""

import pytest

from repro.apps.dctree import SyntheticIterativeApp, balanced_tree
from repro.core import (
    AdaptationCoordinator,
    AdaptationPolicy,
    AddNodes,
    CoordinatorConfig,
    PolicyConfig,
    RemoveCluster,
    RemoveNodes,
)
from repro.satin import AppDriver, BenchmarkConfig, WorkerConfig
from repro.zorilla import ResourcePool

from ..conftest import make_harness

PERIOD = 5.0


def adaptive_harness(cluster_sizes, seed=0, policy_cfg=None, coord_cfg=None, **kw):
    config = WorkerConfig(
        monitoring_period=PERIOD,
        collect_stats=True,
        benchmark=BenchmarkConfig(work=0.05, max_overhead=0.01),
    )
    h = make_harness(cluster_sizes, seed=seed, config=config, **kw)
    pool = ResourcePool(h.network)
    coordinator = AdaptationCoordinator(
        runtime=h.runtime,
        pool=pool,
        policy=AdaptationPolicy(policy_cfg or PolicyConfig()),
        config=coord_cfg
        or CoordinatorConfig(
            monitoring_period=PERIOD, decision_slack=0.5, node_startup_delay=0.2
        ),
    )
    return h, pool, coordinator


def start(h, pool, coordinator, app, initial_nodes):
    pool.mark_allocated(initial_nodes)
    h.runtime.add_nodes(initial_nodes)
    coordinator.start()
    driver = AppDriver(h.runtime, app)
    return driver, driver.start()


def long_app(iters=40, depth=7, leaf_work=0.05):
    # one iteration ~ depth-7 tree: 128 leaves * 0.05 = 6.4 units of work
    return SyntheticIterativeApp(
        balanced_tree(depth=depth, fanout=2, leaf_work=leaf_work),
        n_iterations=iters,
    )


def test_expansion_when_started_too_small():
    h, pool, coord = adaptive_harness((8, 8))
    driver, proc = start(h, pool, coord, long_app(), ["c0/n0", "c0/n1"])
    h.env.run(until=proc)
    # the coordinator must have grown the resource set
    adds = [d for _, d in coord.decisions if isinstance(d, AddNodes)]
    assert adds, "expected at least one AddNodes decision"
    assert h.runtime.size > 2
    assert h.runtime.total_executed_leaves() == 40 * 128


def test_growth_is_gradual_not_unbounded():
    h, pool, coord = adaptive_harness((8, 8))
    driver, proc = start(h, pool, coord, long_app(), ["c0/n0", "c0/n1"])
    h.env.run(until=proc)
    # hysteresis: consecutive grow actions require fresh reports, so the
    # trace must show a monotone, stepwise nworkers series
    n = h.runtime.trace.series("nworkers").values
    assert max(n) <= 16
    assert all(b >= a for a, b in zip(n, n[1:])), "nworkers should only grow here"


def test_shrink_when_started_too_big():
    # tiny workload on many nodes -> most are idle -> WAE below E_min
    h, pool, coord = adaptive_harness((10,))
    app = SyntheticIterativeApp(
        balanced_tree(depth=2, fanout=2, leaf_work=0.2),
        n_iterations=60,
    )
    driver, proc = start(h, pool, coord, app, [f"c0/n{i}" for i in range(10)])
    h.env.run(until=proc)
    removals = [d for _, d in coord.decisions if isinstance(d, RemoveNodes)]
    assert removals, "expected RemoveNodes decisions"
    assert h.runtime.size < 10
    assert h.runtime.total_executed_leaves() == 60 * 4


def test_master_survives_shrink():
    h, pool, coord = adaptive_harness((10,))
    app = SyntheticIterativeApp(
        balanced_tree(depth=1, fanout=2, leaf_work=0.1), n_iterations=80
    )
    driver, proc = start(h, pool, coord, app, [f"c0/n{i}" for i in range(10)])
    h.env.run(until=proc)
    assert h.runtime.worker_alive(h.runtime.master)


def test_removed_nodes_blacklisted_and_not_readded():
    h, pool, coord = adaptive_harness((10,))
    app = SyntheticIterativeApp(
        balanced_tree(depth=1, fanout=2, leaf_work=0.1), n_iterations=80
    )
    driver, proc = start(h, pool, coord, app, [f"c0/n{i}" for i in range(10)])
    h.env.run(until=proc)
    banned = coord.blacklist.banned_nodes
    assert banned
    assert all(not h.runtime.worker_alive(n) for n in banned)


def test_monitoring_only_never_acts():
    h, pool, coord = adaptive_harness((8, 8))
    coord.config = CoordinatorConfig(
        monitoring_period=PERIOD,
        decision_slack=0.5,
        adaptation_enabled=False,
    )
    driver, proc = start(h, pool, coord, long_app(iters=20), ["c0/n0", "c0/n1"])
    h.env.run(until=proc)
    assert h.runtime.size == 2  # nothing added or removed
    assert len(h.runtime.trace.series("wae")) > 0  # but WAE was computed


def test_wae_traced_each_period():
    h, pool, coord = adaptive_harness((4,))
    driver, proc = start(
        h, pool, coord, long_app(iters=30), [f"c0/n{i}" for i in range(4)]
    )
    h.env.run(until=proc)
    wae = h.runtime.trace.series("wae")
    assert len(wae) >= 2
    assert all(0.0 <= v <= 1.0 for v in wae.values)


def test_overloaded_cluster_nodes_removed():
    """Scenario-3 miniature: one cluster becomes very slow; its nodes are
    eventually removed (and replaced via pool growth)."""
    h, pool, coord = adaptive_harness((6, 6), seed=1)
    nodes = [f"c0/n{i}" for i in range(6)] + [f"c1/n{i}" for i in range(6)]
    app = SyntheticIterativeApp(
        balanced_tree(depth=8, fanout=2, leaf_work=0.08),
        n_iterations=60,
    )
    driver, proc = start(h, pool, coord, app, nodes)

    def overload(env, network):
        yield env.timeout(2.0)
        for i in range(6):
            network.host(f"c1/n{i}").set_load(19.0)  # 20x slowdown

    h.env.process(overload(h.env, h.network))
    h.env.run(until=proc)
    removed = [
        d for _, d in coord.decisions if isinstance(d, (RemoveNodes, RemoveCluster))
    ]
    assert removed, "expected removal of overloaded nodes"
    victim_names = {n for d in removed for n in d.nodes}
    assert any(v.startswith("c1/") for v in victim_names)


def test_badly_connected_cluster_removed_wholesale():
    """Scenario-4 miniature: throttle one cluster's uplink; the policy must
    evict that cluster as a whole and learn a bandwidth requirement."""
    h, pool, coord = adaptive_harness(
        (6, 6), seed=2,
        policy_cfg=PolicyConfig(cluster_removal_ic_overhead=0.15),
    )
    nodes = [f"c0/n{i}" for i in range(6)] + [f"c1/n{i}" for i in range(6)]
    # big result payloads so inter-cluster traffic matters
    tree = balanced_tree(
        depth=7, fanout=2, leaf_work=0.10, data_in=5e4, data_out=2e5
    )
    app = SyntheticIterativeApp(tree, n_iterations=60, broadcast_bytes=4e5)
    driver, proc = start(h, pool, coord, app, nodes)

    def throttle(env, network):
        yield env.timeout(1.0)
        network.set_uplink_bandwidth("c1", 2e4)  # ~20 kB/s

    h.env.process(throttle(h.env, h.network))
    h.env.run(until=proc)

    cluster_removals = [
        d for _, d in coord.decisions if isinstance(d, RemoveCluster)
    ]
    assert cluster_removals, "expected whole-cluster removal"
    assert cluster_removals[0].cluster == "c1"
    assert coord.blacklist.is_banned_cluster("c1")
    assert coord.blacklist.min_bandwidth is not None
    # after removal, no c1 workers remain
    assert all(not w.startswith("c1/") for w in h.runtime.alive_worker_names())


def test_crash_triggers_replacement():
    """Scenario-6 miniature: a cluster crashes; the survivors' WAE rises
    above E_max and the coordinator adds replacement nodes."""
    h, pool, coord = adaptive_harness((6, 6, 6), seed=3, detection_delay=0.5)
    nodes = [f"c0/n{i}" for i in range(6)] + [f"c1/n{i}" for i in range(6)]
    app = SyntheticIterativeApp(
        balanced_tree(depth=8, fanout=2, leaf_work=0.1),
        n_iterations=50,
    )
    driver, proc = start(h, pool, coord, app, nodes)

    def killer(env, network, runtime):
        yield env.timeout(8.0)
        for i in range(6):
            name = f"c1/n{i}"
            network.host(name).crash(env.now)
            runtime.crash_node(name)

    h.env.process(killer(h.env, h.network, h.runtime))
    h.env.run(until=proc)
    assert driver.iterations_done == 50
    adds = [d for _, d in coord.decisions if isinstance(d, AddNodes)]
    assert adds, "expected node additions after the crash"
    assert h.runtime.size > 6  # grew beyond the surviving 6


def test_coordinator_requires_master():
    h, pool, coord = adaptive_harness((2,))
    with pytest.raises(RuntimeError):
        coord.start()


def test_config_validation():
    with pytest.raises(ValueError):
        CoordinatorConfig(monitoring_period=0.0)
    with pytest.raises(ValueError):
        CoordinatorConfig(decision_slack=-1.0)
    with pytest.raises(ValueError):
        CoordinatorConfig(probe_benchmark_work=-1.0)
    # a negative leave signal used to construct fine and kill the run at
    # its first eviction ("cannot transfer negative bytes")
    with pytest.raises(ValueError, match="leave_signal_bytes"):
        CoordinatorConfig(leave_signal_bytes=-1.0)
