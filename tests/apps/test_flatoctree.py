"""Flat octree + frontier kernel vs the retained object-tree reference.

The contract (docs/performance.md, "Flat octree layout"): interaction
counts from the flat kernel are **bit-identical** to ``_traverse`` on the
materialised object tree, accelerations agree to 1e-12 relative per body
(the accumulation *order* differs, the arithmetic does not), and the
spawn tree built from CSR slices is float-for-float the object path's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.barneshut import (
    BarnesHutConfig,
    BarnesHutSimulation,
    _traverse,
    bh_accelerations,
    direct_accelerations,
    interaction_counts,
    plummer_sphere,
)
from repro.apps.flatoctree import build_flat_octree, flat_traverse

THETAS = (0.3, 0.5, 1.0)
BUCKETS = (1, 16, 64)


def _bodies(n, seed=7):
    pos, _, mass = plummer_sphere(n, np.random.default_rng(seed))
    return pos, mass


def _acc_rel_err(a, ref):
    """Max per-body relative error, measured on the acceleration vectors.

    Componentwise relative error is meaningless where a component crosses
    zero; the vector norm is the physically meaningful scale.
    """
    num = np.linalg.norm(a - ref, axis=1)
    den = np.linalg.norm(ref, axis=1)
    ok = den > 0
    return float((num[ok] / den[ok]).max()) if ok.any() else 0.0


# -- counts: bit-identical ----------------------------------------------------


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("bucket", BUCKETS)
def test_counts_bit_identical_small(theta, bucket):
    for n in (1, 2, 257):
        pos, mass = _bodies(n)
        flat = build_flat_octree(pos, mass, bucket)
        obj = flat.to_object_tree()
        ref, _ = _traverse(obj, pos, mass, theta, 1e-3, False)
        got, _ = flat_traverse(flat, pos, mass, theta, 1e-3, False)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref), (n, theta, bucket)
        # the force path computes counts through a different kernel; it
        # must land on the same integers
        via_acc, _ = flat_traverse(flat, pos, mass, theta, 1e-3, True)
        assert np.array_equal(via_acc, ref), (n, theta, bucket)


@pytest.mark.parametrize(
    "theta,bucket",
    [(0.3, 16), (0.5, 16), (1.0, 16), (0.5, 1), (0.5, 64)],
)
def test_counts_bit_identical_2048(theta, bucket):
    pos, mass = _bodies(2048)
    flat = build_flat_octree(pos, mass, bucket)
    ref, _ = _traverse(flat.to_object_tree(), pos, mass, theta, 1e-3, False)
    assert np.array_equal(interaction_counts(flat, pos, mass, theta), ref)


def test_counts_edge_cases():
    # a single body interacts with nothing
    pos, mass = _bodies(1)
    flat = build_flat_octree(pos, mass, 16)
    assert flat.is_leaf[0]
    assert interaction_counts(flat, pos, mass, 0.5).tolist() == [0]
    # a root-leaf tree (n <= bucket): every body sees all the others
    pos, mass = _bodies(9)
    flat = build_flat_octree(pos, mass, 16)
    assert flat.n_nodes == 1
    assert interaction_counts(flat, pos, mass, 0.5).tolist() == [8] * 9


# -- accelerations: 1e-12 ----------------------------------------------------


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("bucket", BUCKETS)
def test_accelerations_match_reference_small(theta, bucket):
    for n in (2, 257):
        pos, mass = _bodies(n)
        flat = build_flat_octree(pos, mass, bucket)
        _, ref = _traverse(flat.to_object_tree(), pos, mass, theta, 1e-3, True)
        acc, _ = bh_accelerations(flat, pos, mass, theta)
        assert _acc_rel_err(acc, ref) <= 1e-12, (n, theta, bucket)


def test_accelerations_match_reference_2048():
    pos, mass = _bodies(2048)
    flat = build_flat_octree(pos, mass, 16)
    # the root holds every body, each exactly once
    assert int(flat.counts[0]) == 2048
    assert sorted(flat.bodies.tolist()) == list(range(2048))
    _, ref = _traverse(flat.to_object_tree(), pos, mass, 0.5, 1e-3, True)
    acc, counts = bh_accelerations(flat, pos, mass, 0.5)
    assert _acc_rel_err(acc, ref) <= 1e-12
    ref_counts, _ = _traverse(flat.to_object_tree(), pos, mass, 0.5, 1e-3, False)
    assert np.array_equal(counts, ref_counts)
    assert counts.min() >= 1


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    theta=st.sampled_from(THETAS),
    bucket=st.sampled_from(BUCKETS),
)
def test_equivalence_property(n, seed, theta, bucket):
    """Random small clusters: counts bit-identical, accelerations 1e-12."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    mass = rng.uniform(0.1, 2.0, size=n)
    flat = build_flat_octree(pos, mass, bucket)
    obj = flat.to_object_tree()
    ref_counts, ref_acc = _traverse(obj, pos, mass, theta, 1e-3, True)
    counts, _ = flat_traverse(flat, pos, mass, theta, 1e-3, False)
    acc, counts_acc = bh_accelerations(flat, pos, mass, theta)
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(counts_acc, ref_counts)
    assert _acc_rel_err(acc, ref_acc) <= 1e-12


# -- spawn tree: float-for-float ---------------------------------------------


def test_spawn_tree_flat_matches_object_path():
    app = BarnesHutSimulation(BarnesHutConfig(n_bodies=700, seed=3))
    flat = build_flat_octree(app.positions, app.masses, 16)
    counts = interaction_counts(flat, app.positions, app.masses, 0.5)
    flat_tree = app.spawn_tree(flat, counts)
    obj_tree = app.spawn_tree(flat.to_object_tree(), counts)

    def flatten(node, out):
        out.append((node.tag, node.work, node.combine_work,
                    node.data_in, node.data_out, len(node.children)))
        for c in node.children:
            flatten(c, out)
        return out

    a, b = flatten(flat_tree, []), flatten(obj_tree, [])
    assert a == b  # exact float equality, same order, same shape


# -- physics: accuracy improves as θ shrinks ---------------------------------


def test_bh_error_decreases_with_theta():
    """Median relative error vs direct summation falls 0.8 → 0.5 → 0.2."""
    pos, mass = _bodies(900, seed=11)
    direct = direct_accelerations(pos, mass)
    den = np.linalg.norm(direct, axis=1)
    flat = build_flat_octree(pos, mass, 16)
    errs = []
    for theta in (0.8, 0.5, 0.2):
        acc, _ = bh_accelerations(flat, pos, mass, theta)
        rel = np.linalg.norm(acc - direct, axis=1) / den
        errs.append(float(np.median(rel)))
    assert errs[0] > errs[1] > errs[2], errs
    assert errs[2] < 1e-3  # θ=0.2 is already quite accurate
