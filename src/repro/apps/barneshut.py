"""Barnes-Hut N-body simulation (the paper's evaluation application).

The paper evaluates every scenario with Barnes-Hut: "the evolution of N
bodies is simulated in iterations of discrete time steps", parallelised as
a divide-and-conquer computation in Satin. This module provides a real
Barnes-Hut implementation whose per-iteration *spawn tree* drives the
simulated runtime:

* bodies live in 3-D (Plummer-like initial distribution);
* each iteration builds the octree over current positions;
* **exact interaction counts** per body are computed with a vectorised
  traversal of the standard θ-opening criterion (a node of extent *s* at
  distance *d* is accepted when ``s/d < θ``, otherwise opened) — these
  counts are the task costs, so the spawn tree's work distribution is the
  real, irregular Barnes-Hut cost distribution, not a synthetic guess;
* the spawn tree mirrors the octree's top levels: an octree subtree whose
  body count drops below ``max_bodies_per_leaf_task`` becomes a leaf task
  whose work is the summed interaction count of its bodies times
  ``work_per_interaction``; the shipped data sizes scale with the bodies
  involved;
* after the iteration barrier, the updated bodies are broadcast to every
  other cluster (``n_bodies * bytes_per_body`` — the iteration's
  wide-area exchange, which is what an overloaded uplink hurts);
* optionally (``compute_forces=True``) the same traversal *actually
  computes* the approximated gravitational accelerations and integrates
  the bodies with leapfrog — used by the example application and the
  physics-validation tests. With physics off (the benchmark default, for
  speed) bodies drift along fixed random velocities, so the octree still
  changes between iterations.

Units: one *work unit* is ``1 / work_per_interaction`` body–node
interactions; a speed-1.0 grid node executes one work unit per simulated
second. Only ratios matter (the paper's speeds are likewise relative).

Performance note: the production path (the simulation loop, the spawn
tree, the benchmark probes) runs on the flat struct-of-arrays octree and
frontier-batched traversal kernel in :mod:`.flatoctree` — see the "Flat
octree layout" section of ``docs/performance.md`` for the memory layout
and why level batching beats per-node dispatch. The ``OctreeNode``
object tree and the stack-based ``_traverse`` below are retained as the
readable reference implementations that the flat kernel must reproduce
(counts bit-for-bit; pinned by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from ..satin.app import Iteration
from ..satin.task import TaskNode
from .flatoctree import (
    FlatOctree,
    build_flat_octree,
    flat_traverse,
)

__all__ = [
    "BarnesHutConfig",
    "BarnesHutSimulation",
    "FlatOctree",
    "OctreeNode",
    "build_flat_octree",
    "build_octree",
    "interaction_counts",
    "bh_accelerations",
    "direct_accelerations",
    "plummer_sphere",
]


# --------------------------------------------------------------------- bodies
def plummer_sphere(
    n: int, rng: np.random.Generator, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities, masses of a Plummer-like cluster.

    Radii follow the Plummer cumulative mass profile; velocities are small
    isotropic perturbations (we care about realistic spatial clustering for
    the octree, not dynamical equilibrium).
    """
    if n < 1:
        raise ValueError("need at least one body")
    m = rng.uniform(0.05, 0.95, size=n)
    radii = scale / np.sqrt(m ** (-2.0 / 3.0) - 1.0)
    # uniform directions
    vec = rng.normal(size=(n, 3))
    vec /= np.linalg.norm(vec, axis=1, keepdims=True)
    positions = radii[:, None] * vec
    velocities = rng.normal(scale=0.05, size=(n, 3))
    masses = np.full(n, 1.0 / n)
    return positions, velocities, masses


# --------------------------------------------------------------------- octree
class OctreeNode:
    """One octree cell: either internal (8-way split) or a leaf bucket."""

    __slots__ = (
        "center",
        "half_size",
        "bodies",
        "children",
        "com",
        "mass",
        "count",
    )

    def __init__(self, center: np.ndarray, half_size: float) -> None:
        self.center = center
        self.half_size = half_size
        self.bodies: Optional[np.ndarray] = None  # body indices (leaf only)
        self.children: list["OctreeNode"] = []
        self.com = np.zeros(3)
        self.mass = 0.0
        self.count = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> float:
        """Cell edge length (the *s* of the opening criterion)."""
        return 2.0 * self.half_size

    def iter_nodes(self) -> Iterator["OctreeNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)


def build_octree(
    positions: np.ndarray,
    masses: np.ndarray,
    bucket_size: int = 16,
    max_depth: int = 20,
) -> OctreeNode:
    """Build the octree: split cells until ≤ ``bucket_size`` bodies.

    The construction is the level-synchronous SoA builder
    (:func:`~repro.apps.flatoctree.build_flat_octree`); this entry point
    materialises its lazy ``OctreeNode`` view for callers that want the
    object tree.

    The result is **bit-for-bit identical** to the naive recursion
    (``tests/reference/barneshut.py``): every node's body group is a
    contiguous original-order slice, so the pairwise-summed mass and
    centre-of-mass reductions see the same values in the same order, and
    the child-center arithmetic performs the exact same IEEE operations.
    Seeded experiment runs therefore replay identically on either
    implementation.
    """
    return build_flat_octree(positions, masses, bucket_size, max_depth).to_object_tree()


# ----------------------------------------------------- traversal (vectorised)
def _traverse(
    tree: OctreeNode,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    softening: float,
    accumulate_acc: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Exact Barnes-Hut traversal for *all* bodies at once.

    Returns per-body interaction counts and, if ``accumulate_acc``, the
    approximated accelerations. For each node we carry the boolean set of
    bodies still descending; bodies for which the node satisfies the
    opening criterion take the node's centre-of-mass contribution and stop;
    the rest proceed to the children. Leaf cells contribute their
    individual bodies (skipping self-interaction).
    """
    n = len(positions)
    counts = np.zeros(n, dtype=np.int64)
    acc = np.zeros((n, 3)) if accumulate_acc else None
    eps2 = softening * softening
    theta2 = theta * theta

    stack: list[tuple[OctreeNode, np.ndarray]] = [(tree, np.arange(n))]
    while stack:
        node, active = stack.pop()
        if len(active) == 0:
            continue
        if node.is_leaf:
            members = node.bodies
            assert members is not None
            # each active body interacts with every member except itself;
            # both index sets are unique by construction, which lets isin
            # take its fast path
            is_member = np.isin(active, members, assume_unique=True)
            counts[active] += len(members) - is_member.astype(np.int64)
            if acc is not None and len(members) > 0:
                diff = positions[members][None, :, :] - positions[active][:, None, :]
                d2 = (diff * diff).sum(axis=2) + eps2
                # zero out self-pairs
                self_pair = active[:, None] == members[None, :]
                inv = masses[members][None, :] / (d2 * np.sqrt(d2))
                inv[self_pair] = 0.0
                acc[active] += (diff * inv[:, :, None]).sum(axis=1)
            continue
        delta = node.com[None, :] - positions[active]
        d2 = (delta * delta).sum(axis=1)
        size = node.half_size + node.half_size  # == node.size, bit-exact
        accepted = size * size < theta2 * d2
        take = active[accepted]
        counts[take] += 1
        if acc is not None and len(take) > 0:
            dt2 = d2[accepted] + eps2
            inv = node.mass / (dt2 * np.sqrt(dt2))
            acc[take] += delta[accepted] * inv[:, None]
        descend = active[~accepted]
        for child in node.children:
            stack.append((child, descend))
    return counts, acc


def interaction_counts(
    tree: Union[OctreeNode, FlatOctree],
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
) -> np.ndarray:
    """Per-body body–node interaction counts under the θ criterion.

    A :class:`FlatOctree` runs the frontier-batched kernel (the production
    fast path); an :class:`OctreeNode` runs the retained object-tree
    reference. Counts are bit-identical either way (pinned by tests).
    """
    if isinstance(tree, FlatOctree):
        counts, _ = flat_traverse(tree, positions, masses, theta, 1e-3, False)
        return counts
    counts, _ = _traverse(tree, positions, masses, theta, 1e-3, False)
    return counts


def bh_accelerations(
    tree: Union[OctreeNode, FlatOctree],
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    softening: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Barnes-Hut approximated accelerations (and interaction counts).

    Dispatches like :func:`interaction_counts`; the flat kernel's
    accelerations agree with the reference to ~1e-15 relative (the
    per-body accumulation order differs).
    """
    if isinstance(tree, FlatOctree):
        counts, acc = flat_traverse(tree, positions, masses, theta, softening, True)
    else:
        counts, acc = _traverse(tree, positions, masses, theta, softening, True)
    assert acc is not None
    return acc, counts


def direct_accelerations(
    positions: np.ndarray, masses: np.ndarray, softening: float = 1e-3
) -> np.ndarray:
    """O(n²) reference accelerations (for validation tests)."""
    diff = positions[None, :, :] - positions[:, None, :]
    d2 = (diff * diff).sum(axis=2) + softening * softening
    np.fill_diagonal(d2, np.inf)
    inv = masses[None, :] / (d2 * np.sqrt(d2))
    return (diff * inv[:, :, None]).sum(axis=1)


# ------------------------------------------------------------------ the app
@dataclass(frozen=True)
class BarnesHutConfig:
    """Parameters of the Barnes-Hut workload."""

    n_bodies: int = 4096
    n_iterations: int = 30
    theta: float = 0.5
    bucket_size: int = 16
    #: octree subtrees at or below this body count become one leaf task.
    max_bodies_per_leaf_task: int = 64
    #: seconds of speed-1.0 CPU per body–node interaction. The default
    #: calibrates one iteration of the default workload to tens of
    #: node-seconds, matching the paper's iteration durations at DAS-2
    #: scale.
    work_per_interaction: float = 3e-4
    #: divide/combine cost of internal spawn nodes (work units).
    divide_work: float = 0.005
    combine_work: float = 0.005
    #: bytes of state per body shipped over the network. The paper's runs
    #: simulate far more bodies than our scaled workload; each scaled body
    #: stands in for a block of real ones, so its wire footprint is
    #: correspondingly larger than a bare (pos, vel, mass) record. This is
    #: what keeps the communication:computation ratio at the paper's level.
    bytes_per_body: float = 2048.0
    #: bytes per body of the small post-barrier synchronisation message
    #: (tree-top summary) sent to each remote cluster. The bulk of the body
    #: data rides on the steal/result transfers (as in Satin, where the
    #: work-stealing runtime ships task data on demand), so this is small.
    broadcast_bytes_per_body: float = 64.0
    dt: float = 0.05
    softening: float = 1e-3
    compute_forces: bool = False
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_bodies < 2:
            raise ValueError("need at least 2 bodies")
        if self.n_iterations < 1:
            raise ValueError("need at least 1 iteration")
        if not 0.1 <= self.theta <= 2.0:
            raise ValueError("theta out of sensible range")
        if self.max_bodies_per_leaf_task < 1:
            raise ValueError("max_bodies_per_leaf_task must be >= 1")
        if self.work_per_interaction <= 0:
            raise ValueError("work_per_interaction must be > 0")


class BarnesHutSimulation:
    """The IterativeApplication adapter around the physics."""

    name = "barnes-hut"

    def __init__(self, config: Optional[BarnesHutConfig] = None) -> None:
        self.config = config if config is not None else BarnesHutConfig()
        rng = np.random.default_rng(self.config.seed)
        self.positions, self.velocities, self.masses = plummer_sphere(
            self.config.n_bodies, rng
        )
        #: per-iteration interaction totals (diagnostics / calibration)
        self.interaction_totals: list[int] = []

    # -- spawn-tree construction -------------------------------------------
    def spawn_tree(
        self, tree: Union[OctreeNode, FlatOctree], counts: np.ndarray
    ) -> TaskNode:
        """Convert the octree's top levels into the iteration's spawn tree.

        Accepts either representation; the flat path walks the CSR slices
        directly and produces a float-for-float identical tree (leaf costs
        are exact integer sums, internal costs the same left-to-right
        Python float sums over the same child order).
        """
        if isinstance(tree, FlatOctree):
            return self._spawn_tree_flat(tree, counts)
        cfg = self.config

        # Single post-order pass computing every subtree's cost (the naive
        # recursion re-sums each leaf once per ancestor — O(n · depth)).
        # Summation structure matches the recursion exactly: leaf costs are
        # numpy sums, internal costs sum the children left-to-right.
        cost: dict[int, float] = {}
        post: list[OctreeNode] = []
        stack = [tree]
        while stack:
            nd = stack.pop()
            post.append(nd)
            stack.extend(nd.children)
        for nd in reversed(post):
            if nd.is_leaf:
                cost[id(nd)] = float(counts[nd.bodies].sum())
            else:
                cost[id(nd)] = float(sum(cost[id(c)] for c in nd.children))

        def subtree_cost(node: OctreeNode) -> float:
            return cost[id(node)]

        def convert(node: OctreeNode) -> TaskNode:
            # A stolen subtree ships its bodies plus the shared tree section
            # needed to evaluate them; its result ships the updated bodies.
            nbytes_in = node.count * cfg.bytes_per_body * 1.5
            nbytes_out = node.count * cfg.bytes_per_body
            if node.count <= cfg.max_bodies_per_leaf_task or node.is_leaf:
                work = subtree_cost(node) * cfg.work_per_interaction
                return TaskNode(
                    work=work, data_in=nbytes_in, data_out=nbytes_out,
                    tag=f"bh-leaf[{node.count}]",
                )
            children = tuple(convert(c) for c in node.children)
            return TaskNode(
                work=cfg.divide_work,
                children=children,
                combine_work=cfg.combine_work,
                data_in=nbytes_in,
                data_out=nbytes_out,
                tag=f"bh-node[{node.count}]",
            )

        return convert(tree)

    def _spawn_tree_flat(self, flat: FlatOctree, counts: np.ndarray) -> TaskNode:
        cfg = self.config
        child_off = flat.child_off
        children = flat.children
        body_off = flat.body_off
        bodies = flat.bodies
        node_counts = flat.counts

        # Reverse-id pass computing every subtree's cost: ids are assigned
        # breadth-first, so children always precede their parent here. Leaf
        # costs are exact int64 sums; internal costs replicate the object
        # path's left-to-right Python float sum over the same child order.
        m_nodes = flat.n_nodes
        cost: list[float] = [0.0] * m_nodes
        for k in range(m_nodes - 1, -1, -1):
            c0, c1 = child_off[k], child_off[k + 1]
            if c0 == c1:
                cost[k] = float(counts[bodies[body_off[k]:body_off[k + 1]]].sum())
            else:
                cost[k] = float(sum(cost[c] for c in children[c0:c1]))

        def convert(k: int) -> TaskNode:
            # A stolen subtree ships its bodies plus the shared tree section
            # needed to evaluate them; its result ships the updated bodies.
            count = int(node_counts[k])
            nbytes_in = count * cfg.bytes_per_body * 1.5
            nbytes_out = count * cfg.bytes_per_body
            c0, c1 = child_off[k], child_off[k + 1]
            if count <= cfg.max_bodies_per_leaf_task or c0 == c1:
                work = cost[k] * cfg.work_per_interaction
                return TaskNode(
                    work=work, data_in=nbytes_in, data_out=nbytes_out,
                    tag=f"bh-leaf[{count}]",
                )
            kids = tuple(convert(int(c)) for c in children[c0:c1])
            return TaskNode(
                work=cfg.divide_work,
                children=kids,
                combine_work=cfg.combine_work,
                data_in=nbytes_in,
                data_out=nbytes_out,
                tag=f"bh-node[{count}]",
            )

        return convert(0)

    # -- time stepping --------------------------------------------------------
    def _advance(self, acc: Optional[np.ndarray]) -> None:
        cfg = self.config
        if acc is not None:
            self.velocities += acc * cfg.dt
        self.positions += self.velocities * cfg.dt

    # -- IterativeApplication -------------------------------------------------
    def iterations(self) -> Iterator[Iteration]:
        cfg = self.config
        for i in range(cfg.n_iterations):
            # Production fast path: SoA build + frontier-batched kernel +
            # CSR spawn tree; no OctreeNode objects are materialised.
            tree = build_flat_octree(self.positions, self.masses, cfg.bucket_size)
            if cfg.compute_forces:
                acc, counts = bh_accelerations(
                    tree, self.positions, self.masses, cfg.theta, cfg.softening
                )
            else:
                acc = None
                counts = interaction_counts(
                    tree, self.positions, self.masses, cfg.theta
                )
            self.interaction_totals.append(int(counts.sum()))
            spawn = self.spawn_tree(tree, counts)
            yield Iteration(
                tree=spawn,
                broadcast_bytes=cfg.n_bodies * cfg.broadcast_bytes_per_body,
                label=f"bh-iter{i}",
            )
            self._advance(acc)
