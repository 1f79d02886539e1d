"""Unit tests for the Barnes-Hut application (physics + spawn trees)."""

import numpy as np
import pytest

from repro.apps.barneshut import (
    BarnesHutConfig,
    BarnesHutSimulation,
    bh_accelerations,
    build_octree,
    direct_accelerations,
    interaction_counts,
    plummer_sphere,
)
from repro.satin.task import tree_stats

from ..conftest import make_harness


def small_system(n=128, seed=0):
    rng = np.random.default_rng(seed)
    return plummer_sphere(n, rng)


# ----------------------------------------------------------------- plummer
def test_plummer_shapes():
    pos, vel, mass = small_system(100)
    assert pos.shape == (100, 3)
    assert vel.shape == (100, 3)
    assert mass.shape == (100,)
    assert np.isclose(mass.sum(), 1.0)


def test_plummer_is_centrally_concentrated():
    pos, _, _ = small_system(2000)
    radii = np.linalg.norm(pos, axis=1)
    assert np.median(radii) < np.percentile(radii, 90) / 2.0


def test_plummer_validation():
    with pytest.raises(ValueError):
        plummer_sphere(0, np.random.default_rng(0))


# -------------------------------------------------------------------- octree
def test_octree_partitions_all_bodies():
    pos, _, mass = small_system(500)
    tree = build_octree(pos, mass, bucket_size=8)
    leaf_indices = np.concatenate(
        [n.bodies for n in tree.iter_nodes() if n.is_leaf]
    )
    assert sorted(leaf_indices.tolist()) == list(range(500))


def test_octree_leaf_buckets_respected():
    pos, _, mass = small_system(500)
    tree = build_octree(pos, mass, bucket_size=8)
    for node in tree.iter_nodes():
        if node.is_leaf:
            assert len(node.bodies) <= 8


def test_octree_mass_conserved_at_every_level():
    pos, _, mass = small_system(300)
    tree = build_octree(pos, mass)
    for node in tree.iter_nodes():
        if not node.is_leaf:
            assert node.mass == pytest.approx(
                sum(c.mass for c in node.children), rel=1e-9
            )
    assert tree.mass == pytest.approx(mass.sum())


def test_octree_com_is_weighted_mean():
    pos, _, mass = small_system(300)
    tree = build_octree(pos, mass)
    expected = (pos * mass[:, None]).sum(axis=0) / mass.sum()
    assert np.allclose(tree.com, expected)


def test_octree_input_validation():
    with pytest.raises(ValueError):
        build_octree(np.zeros((4, 2)), np.ones(4))
    with pytest.raises(ValueError):
        build_octree(np.zeros((4, 3)), np.ones(3))


# ----------------------------------------------------------------- traversal
def test_interaction_counts_bounds():
    pos, _, mass = small_system(256)
    tree = build_octree(pos, mass, bucket_size=8)
    counts = interaction_counts(tree, pos, mass, theta=0.5)
    assert counts.shape == (256,)
    assert np.all(counts >= 1)
    assert np.all(counts <= 255 + 50)  # can't exceed ~n plus a few nodes


def test_theta_zero_like_degenerates_to_direct():
    """A tiny theta forces opening everything: counts == n-1 each."""
    pos, _, mass = small_system(64)
    tree = build_octree(pos, mass, bucket_size=4)
    counts = interaction_counts(tree, pos, mass, theta=0.1 + 1e-12)
    # theta=0.1 still accepts very distant nodes, so allow a small margin
    assert np.all(counts <= 63 + 20)
    big_theta = interaction_counts(tree, pos, mass, theta=1.5)
    assert big_theta.mean() < counts.mean()  # larger theta => fewer interactions


def test_bh_accelerations_match_direct_for_small_theta():
    pos, _, mass = small_system(128, seed=3)
    tree = build_octree(pos, mass, bucket_size=4)
    approx, _ = bh_accelerations(tree, pos, mass, theta=0.2)
    exact = direct_accelerations(pos, mass)
    rel_err = np.linalg.norm(approx - exact, axis=1) / (
        np.linalg.norm(exact, axis=1) + 1e-12
    )
    assert np.median(rel_err) < 0.05


def test_bh_error_grows_with_theta():
    pos, _, mass = small_system(128, seed=4)
    tree = build_octree(pos, mass, bucket_size=4)
    exact = direct_accelerations(pos, mass)

    def med_err(theta):
        approx, _ = bh_accelerations(tree, pos, mass, theta=theta)
        return np.median(
            np.linalg.norm(approx - exact, axis=1)
            / (np.linalg.norm(exact, axis=1) + 1e-12)
        )

    assert med_err(1.2) > med_err(0.3)


# ---------------------------------------------------------------- spawn tree
def test_spawn_tree_work_equals_interactions():
    cfg = BarnesHutConfig(n_bodies=512, n_iterations=1, work_per_interaction=1e-3)
    sim = BarnesHutSimulation(cfg)
    tree = build_octree(sim.positions, sim.masses, cfg.bucket_size)
    counts = interaction_counts(tree, sim.positions, sim.masses, cfg.theta)
    spawn = sim.spawn_tree(tree, counts)
    stats = tree_stats(spawn)
    leaf_work = sum(
        n.work for n in spawn.iter_subtree() if n.is_leaf
    )
    assert leaf_work == pytest.approx(counts.sum() * 1e-3, rel=1e-9)
    assert stats.leaves >= cfg.n_bodies / cfg.max_bodies_per_leaf_task / 8


def test_spawn_tree_is_irregular():
    cfg = BarnesHutConfig(n_bodies=1024, n_iterations=1)
    sim = BarnesHutSimulation(cfg)
    tree = build_octree(sim.positions, sim.masses, cfg.bucket_size)
    counts = interaction_counts(tree, sim.positions, sim.masses, cfg.theta)
    spawn = sim.spawn_tree(tree, counts)
    stats = tree_stats(spawn)
    assert stats.max_leaf_work > 2.0 * stats.min_leaf_work


def test_iterations_yield_configured_count_and_broadcast():
    cfg = BarnesHutConfig(n_bodies=256, n_iterations=3)
    sim = BarnesHutSimulation(cfg)
    iters = list(sim.iterations())
    assert len(iters) == 3
    for it in iters:
        assert it.broadcast_bytes == 256 * cfg.broadcast_bytes_per_body
        assert tree_stats(it.tree).leaves >= 1
    assert len(sim.interaction_totals) == 3


def test_bodies_move_between_iterations():
    cfg = BarnesHutConfig(n_bodies=128, n_iterations=2, compute_forces=True)
    sim = BarnesHutSimulation(cfg)
    p0 = sim.positions.copy()
    list(sim.iterations())
    assert not np.allclose(p0, sim.positions)


def test_config_validation():
    with pytest.raises(ValueError):
        BarnesHutConfig(n_bodies=1)
    with pytest.raises(ValueError):
        BarnesHutConfig(theta=5.0)
    with pytest.raises(ValueError):
        BarnesHutConfig(work_per_interaction=0.0)


# --------------------------------------------------------------- end-to-end
def test_barneshut_runs_on_simulated_grid():
    from repro.satin import AppDriver

    cfg = BarnesHutConfig(n_bodies=256, n_iterations=2, work_per_interaction=1e-4)
    sim = BarnesHutSimulation(cfg)
    h = make_harness(cluster_sizes=(3, 3))
    h.runtime.add_nodes(h.all_node_names())
    driver = AppDriver(h.runtime, sim)
    proc = driver.start()
    h.env.run(until=proc)
    assert driver.iterations_done == 2
    durations = h.runtime.trace.series("iteration_duration").values
    assert len(durations) == 2
    assert all(d > 0 for d in durations)


# ------------------------------------------- vectorized build ≡ reference
def _reference_octree(positions, masses, bucket_size=16, max_depth=20):
    """Build a tree with the naive recursive fill (the specification)."""
    from repro.apps.barneshut import OctreeNode
    from tests.reference.barneshut import fill

    lo, hi = positions.min(axis=0), positions.max(axis=0)
    center = (lo + hi) / 2.0
    half = float(np.max(hi - lo) / 2.0) * 1.0001 + 1e-12
    root = OctreeNode(center, half)
    fill(
        root, positions, masses, np.arange(len(positions)), bucket_size, max_depth
    )
    return root


@pytest.mark.parametrize("n,bucket", [(1, 16), (17, 4), (300, 16), (1000, 8)])
def test_vectorized_build_bit_identical_to_reference(n, bucket):
    """The level-synchronous build must reproduce the recursion bit-for-bit:
    same topology, same body grouping, and byte-identical float fields —
    this is what guarantees seeded experiment runs replay identically."""
    pos, _vel, masses = small_system(n=max(n, 2), seed=7)
    pos = pos[:n] if n >= 2 else pos[:2]
    masses = masses[: len(pos)]

    fast = build_octree(pos, masses, bucket_size=bucket)
    ref = _reference_octree(pos, masses, bucket_size=bucket)

    stack = [(fast, ref)]
    while stack:
        a, b = stack.pop()
        assert a.count == b.count
        assert a.half_size == b.half_size  # exact, no tolerance
        assert a.center.tobytes() == b.center.tobytes()
        assert a.com.tobytes() == b.com.tobytes()
        assert np.float64(a.mass).tobytes() == np.float64(b.mass).tobytes()
        assert (a.bodies is None) == (b.bodies is None)
        if a.bodies is not None:
            assert np.array_equal(a.bodies, b.bodies)
        assert len(a.children) == len(b.children)
        stack.extend(zip(a.children, b.children))


def test_vectorized_build_max_depth_stops_splitting():
    """Coincident bodies can't be separated; max_depth must terminate."""
    pos = np.zeros((40, 3))
    masses = np.full(40, 1.0 / 40)
    tree = build_octree(pos, masses, bucket_size=4, max_depth=3)
    depths = []
    stack = [(tree, 0)]
    while stack:
        node, d = stack.pop()
        if node.is_leaf:
            depths.append(d)
        stack.extend((c, d + 1) for c in node.children)
    assert max(depths) <= 3
    assert sum(len(n.bodies) for n in tree.iter_nodes() if n.is_leaf) == 40
