"""Flat struct-of-arrays octree + frontier-batched Barnes-Hut traversal.

The object tree (:class:`~repro.apps.barneshut.OctreeNode`) is pleasant to
read but hostile to traverse: the θ-acceptance walk pops one Python tuple
per (node, active-set) pair and issues one small numpy call per node, so
for realistic trees the interpreter — not the arithmetic — dominates.
This module stores the same octree as contiguous arrays indexed by a
breadth-first node id and traverses it one *whole level* at a time.

Memory layout (``M`` nodes, ``n`` bodies; see docs/performance.md for the
diagram):

* ``centers``/``coms`` — ``(M, 3)`` float64 cell centers / centres of mass;
* ``half_sizes``/``masses`` — ``(M,)`` float64;
* ``counts`` — ``(M,)`` int64 bodies per cell;
* ``child_off`` — ``(M + 1,)`` CSR offsets into ``children``; a node's
  children are ``children[child_off[k]:child_off[k + 1]]`` in octant
  order, and because ids are assigned in creation order the child ids of
  any node are **consecutive integers** (the kernel exploits this);
* ``body_off``/``bodies`` — CSR leaf membership: leaf ``k`` holds bodies
  ``bodies[body_off[k]:body_off[k + 1]]`` (internal nodes have empty
  slices); each body appears in exactly one leaf, so ``bodies`` is a
  permutation of ``arange(n)``;
* ``leaf_of`` — ``(n,)`` the leaf id owning each body (O(1) membership
  tests during traversal).

:func:`build_flat_octree` is the level-synchronous builder of
``barneshut.build_octree`` emitting these arrays directly — it performs
the *identical* floating-point operations (same contiguous same-order
reductions, same bulk child-center arithmetic), so the materialised
object view (:meth:`FlatOctree.to_object_tree`) is bit-for-bit the tree
the object builder produced, and seeded experiment runs replay
identically on either representation.

:func:`flat_traverse` is the frontier-batched kernel: the traversal
state is a pair of index arrays (node ids, body ids) — the frontier of
still-descending (node, body) pairs. Per level it runs one gathered
acceptance test over every pair at once, turns accepted pairs into
count/acceleration contributions (segment-reduced per body with
``bincount``), batches all leaf–body interaction blocks into one
concatenated gather, and expands the survivors to their children with a
CSR repeat. Interaction counts are **bit-identical** to the object-tree
reference ``barneshut._traverse`` (the acceptance comparison performs
the same elementwise IEEE operations; counts are integer sums, which
reorder freely); accelerations agree to ~1e-15 relative (the per-body
accumulation order differs, which is why the object reference is kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .barneshut import OctreeNode

__all__ = [
    "FlatOctree",
    "build_flat_octree",
    "flat_traverse",
    "flat_interaction_counts",
    "flat_accelerations",
]


#: per-octant unit offsets (±1 per axis); child center = parent + sign·quarter.
_OCTANT_SIGNS = np.array(
    [
        [1.0 if o & 4 else -1.0, 1.0 if o & 2 else -1.0, 1.0 if o & 1 else -1.0]
        for o in range(8)
    ]
)


@dataclass
class FlatOctree:
    """Struct-of-arrays octree over ``n_bodies`` bodies (see module doc)."""

    n_bodies: int
    centers: np.ndarray      # (M, 3) float64
    half_sizes: np.ndarray   # (M,)   float64
    coms: np.ndarray         # (M, 3) float64
    masses: np.ndarray       # (M,)   float64
    counts: np.ndarray       # (M,)   int64
    child_off: np.ndarray    # (M+1,) intp CSR into children
    children: np.ndarray     # (M-1,) intp child ids, octant order
    body_off: np.ndarray     # (M+1,) intp CSR into bodies (leaves only)
    bodies: np.ndarray       # (n,)   intp permutation of arange(n)
    leaf_of: np.ndarray      # (n,)   intp owning leaf per body
    is_leaf: np.ndarray      # (M,)   bool
    # -- kernel-side derived arrays (computed once by the builder) --------
    #: (M,) float64 copy of ``counts`` (bincount weights without a cast)
    counts_f: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: (3, M) per-axis contiguous copies of ``coms`` columns
    com_axes: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: CSR of the *internal* children only (the counts kernel prunes leaf
    #: children at expansion time — their contribution is implicit)
    int_child_off: np.ndarray = field(default=None)  # type: ignore[assignment]
    int_children: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: (levels, n) ancestor table: ``ancestors[L][b]`` is the id of the
    #: node containing body ``b`` at depth ``L`` (−1 once ``b`` has
    #: settled into a shallower leaf). Gives the counts kernel an exact
    #: O(1) "does this accepted node contain this body" test.
    ancestors: np.ndarray = field(default=None)  # type: ignore[assignment]
    _root: Optional["OctreeNode"] = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.half_sizes)

    def leaf_slice(self, k: int) -> np.ndarray:
        """Body indices of leaf ``k`` (empty for internal nodes)."""
        return self.bodies[self.body_off[k]:self.body_off[k + 1]]

    def child_slice(self, k: int) -> np.ndarray:
        """Child node ids of ``k`` in octant order (consecutive integers)."""
        return self.children[self.child_off[k]:self.child_off[k + 1]]

    def to_object_tree(self) -> "OctreeNode":
        """Materialise (lazily, cached) the equivalent ``OctreeNode`` tree.

        Every field is copied bit-for-bit from the flat arrays, so the
        result is indistinguishable from what the object builder used to
        return — the tests byte-compare it against the recursive fill in
        ``tests/reference/barneshut.py``.
        """
        if self._root is not None:
            return self._root
        from .barneshut import OctreeNode

        new = OctreeNode.__new__
        child_off, children = self.child_off, self.children
        body_off = self.body_off
        nodes: list[OctreeNode] = []
        for k in range(self.n_nodes):
            node = new(OctreeNode)
            node.center = self.centers[k]
            node.half_size = float(self.half_sizes[k])
            node.com = self.coms[k]
            node.mass = float(self.masses[k])
            node.count = int(self.counts[k])
            node.children = []
            c0, c1 = child_off[k], child_off[k + 1]
            if c0 == c1:
                node.bodies = self.bodies[body_off[k]:body_off[k + 1]]
            else:
                node.bodies = None
            nodes.append(node)
        for k in range(self.n_nodes):
            c0, c1 = child_off[k], child_off[k + 1]
            if c0 != c1:
                nodes[k].children = [nodes[c] for c in children[c0:c1]]
        self._root = nodes[0]
        return self._root


# ------------------------------------------------------------------- builder
def build_flat_octree(
    positions: np.ndarray,
    masses: np.ndarray,
    bucket_size: int = 16,
    max_depth: int = 20,
) -> FlatOctree:
    """Level-synchronous octree build straight into the SoA layout.

    This is ``barneshut.build_octree``'s algorithm — one gather + octant
    classification per level, a stable per-node 3-bit-key argsort, bulk
    child-center arithmetic — except each level's results land in arrays
    instead of freshly allocated ``OctreeNode`` objects. Node ids are
    assigned breadth-first in creation order, which makes every node's
    children a run of consecutive ids.

    All floating-point reductions are the identical contiguous
    same-order operations, so :meth:`FlatOctree.to_object_tree` is
    bit-for-bit what the object builder produced (pinned by tests).
    """
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (n, 3)")
    if len(positions) != len(masses):
        raise ValueError("positions and masses disagree in length")
    lo, hi = positions.min(axis=0), positions.max(axis=0)
    center = (lo + hi) / 2.0
    half = float(np.max(hi - lo) / 2.0) * 1.0001 + 1e-12

    n = len(positions)
    order = np.arange(n)
    starts = np.array([0, n], dtype=np.intp)
    level_half = half
    level_centers = center[None, :]
    depth_left = max_depth
    _addreduce = np.add.reduce
    _octants = np.arange(9)

    # Per-level accumulators, concatenated once at the end.
    centers_l: list[np.ndarray] = []
    half_l: list[np.ndarray] = []
    masses_l: list[np.ndarray] = []
    coms_l: list[np.ndarray] = []
    counts_l: list[np.ndarray] = []
    nchild_l: list[np.ndarray] = []
    leaf_groups: list[np.ndarray] = []   # body groups in node-id order
    leaf_ids: list[int] = []
    leaf_of = np.empty(n, dtype=np.intp)
    ancestors_l: list[np.ndarray] = []
    level_base = 0  # id of the level's first node

    while True:
        k_level = len(level_centers)
        pos_g = positions[order]
        mass_g = masses[order]
        sizes = np.diff(starts)
        rel = pos_g > np.repeat(level_centers, sizes, axis=0)
        octant_all = rel[:, 0] * 4 + rel[:, 1] * 2 + rel[:, 2] * 1

        # Which node holds each body at this depth (-1 once a body has
        # settled into a shallower leaf) — the kernel's containment test.
        anc = np.full(n, -1, dtype=np.intp)
        anc[order] = np.repeat(
            np.arange(level_base, level_base + k_level), sizes
        )
        ancestors_l.append(anc)

        centers_l.append(level_centers)
        half_l.append(np.full(k_level, level_half))
        counts_l.append(sizes.astype(np.int64))
        level_mass = np.empty(k_level)
        level_com = np.empty((k_level, 3))
        level_nchild = np.zeros(k_level, dtype=np.intp)

        child_parent: list[int] = []
        child_octant: list[int] = []
        child_groups: list[np.ndarray] = []
        for k in range(k_level):
            s, e = starts[k], starts[k + 1]
            sz = e - s
            m = mass_g[s:e]
            # Contiguous same-order slice: numpy's pairwise summation gives
            # the exact same float as masses[idx].sum() in the recursion.
            mass = float(_addreduce(m))
            level_mass[k] = mass
            if mass > 0:
                level_com[k] = _addreduce(pos_g[s:e] * m[:, None], 0) / mass
            else:  # pragma: no cover - massless cells don't occur here
                level_com[k] = level_centers[k]
            if sz <= bucket_size or depth_left == 0:
                node_id = level_base + k
                grp = order[s:e]
                leaf_ids.append(node_id)
                leaf_groups.append(grp)
                leaf_of[grp] = node_id
                continue
            # Stable sort by octant key: children come out in octant order
            # 0..7 with original body order preserved within each child.
            oct_keys = octant_all[s:e]
            perm = oct_keys.argsort(kind="stable")
            grp = order[s:e][perm]
            bounds = np.searchsorted(oct_keys[perm], _octants)
            nch = 0
            for o in range(8):
                a, b = bounds[o], bounds[o + 1]
                if a == b:
                    continue
                child_parent.append(k)
                child_octant.append(o)
                child_groups.append(grp[a:b])
                nch += 1
            level_nchild[k] = nch

        masses_l.append(level_mass)
        coms_l.append(level_com)
        nchild_l.append(level_nchild)

        if not child_groups:
            break
        # Bulk-compute all child centers of the level in two array ops —
        # elementwise identical to center + sign·quarter done per child.
        quarter = level_half / 2.0
        pk = np.array(child_parent, dtype=np.intp)
        level_centers = level_centers[pk] + _OCTANT_SIGNS[child_octant] * quarter
        level_base += k_level
        level_half = quarter
        order = np.concatenate(child_groups)
        sizes = np.fromiter(
            map(len, child_groups), dtype=np.intp, count=len(child_groups)
        )
        starts = np.concatenate((np.zeros(1, dtype=np.intp), np.cumsum(sizes)))
        depth_left -= 1

    nchild = np.concatenate(nchild_l)
    m_nodes = len(nchild)
    child_off = np.zeros(m_nodes + 1, dtype=np.intp)
    np.cumsum(nchild, out=child_off[1:])
    # Ids are assigned breadth-first in creation order, so every non-root
    # node is a child and the concatenated child lists are just 1..M-1.
    children = np.arange(1, m_nodes, dtype=np.intp)

    body_counts = np.zeros(m_nodes, dtype=np.intp)
    for node_id, grp in zip(leaf_ids, leaf_groups):
        body_counts[node_id] = len(grp)
    body_off = np.zeros(m_nodes + 1, dtype=np.intp)
    np.cumsum(body_counts, out=body_off[1:])
    bodies = np.concatenate(leaf_groups) if leaf_groups else order[:0]

    counts = np.concatenate(counts_l)
    coms = np.concatenate(coms_l, axis=0)
    is_leaf = nchild == 0

    # Internal-children CSR: node k's children are the consecutive ids
    # child_off[k]+1 .. child_off[k+1]; count the internal ones with a
    # prefix sum and keep them (still grouped by parent, in octant order).
    internal = ~is_leaf
    int_prefix = np.zeros(m_nodes + 1, dtype=np.intp)
    np.cumsum(internal, out=int_prefix[1:])
    int_count = int_prefix[child_off[1:] + 1] - int_prefix[child_off[:-1] + 1]
    int_child_off = np.zeros(m_nodes + 1, dtype=np.intp)
    np.cumsum(int_count, out=int_child_off[1:])
    int_children = np.flatnonzero(internal)
    if m_nodes > 1:
        int_children = int_children[1:]  # drop the root: it is nobody's child

    return FlatOctree(
        n_bodies=n,
        centers=np.concatenate(centers_l, axis=0),
        half_sizes=np.concatenate(half_l),
        coms=coms,
        masses=np.concatenate(masses_l),
        counts=counts,
        child_off=child_off,
        children=children,
        body_off=body_off,
        bodies=bodies,
        leaf_of=leaf_of,
        is_leaf=is_leaf,
        counts_f=counts.astype(np.float64),
        com_axes=np.ascontiguousarray(coms.T),
        int_child_off=int_child_off,
        int_children=int_children,
        ancestors=np.vstack(ancestors_l),
    )


# ------------------------------------------------------- scratch buffer reuse
#: Root-frontier buffers keyed by body count: (zeros nid, arange bid). The
#: kernel only ever *indexes* frontier arrays (every narrowing produces a
#: fresh array), so sharing these read-only roots across the counts and
#: acceleration entry points is safe and saves two allocations per call.
_ROOT_FRONTIER: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_ROOT_FRONTIER_MAX = 8


def _root_frontier(n: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _ROOT_FRONTIER.get(n)
    if cached is None:
        if len(_ROOT_FRONTIER) >= _ROOT_FRONTIER_MAX:
            _ROOT_FRONTIER.pop(next(iter(_ROOT_FRONTIER)))
        cached = (np.zeros(n, dtype=np.intp), np.arange(n))
        _ROOT_FRONTIER[n] = cached
    return cached


def _csr_expand(
    ids: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand CSR groups: for each ``ids[i]`` emit its offset-table slots.

    Returns ``(rep, slots)`` where ``rep`` maps each output back to its
    input position and ``slots`` indexes the CSR value array — i.e. the
    values of group ``ids[i]`` are at ``slots[rep == i]``, in order.
    """
    start = offsets[ids]
    cnt = offsets[ids + 1] - start
    total = int(cnt.sum())
    rep = np.repeat(np.arange(len(ids)), cnt)
    within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return rep, start[rep] + within


def _leaf_batch(
    flat: FlatOctree,
    posx: np.ndarray,
    posy: np.ndarray,
    posz: np.ndarray,
    masses: np.ndarray,
    leaf_ids: np.ndarray,
    body_ids: np.ndarray,
    eps2: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched leaf–body interaction blocks for the acceleration path.

    Expands the (leaf, body) pairs into one concatenated (member, body)
    gather, computes every pairwise softened kernel at once (self-pairs
    zeroed), and returns ``(targets, cx, cy, cz)`` ready for the per-body
    per-axis segment reduction. Everything is per-axis on the contiguous
    position columns: a row gather on the (n, 3) array strides and
    materialises (k, 3) temporaries, which dominated an earlier version
    of this kernel. The accumulation order here only affects the
    accelerations (≤ ~1e-12 relative of the reference), never the counts.
    """
    rep, slots = _csr_expand(leaf_ids, flat.body_off)
    members = flat.bodies[slots]
    targets = body_ids[rep]
    dx = posx.take(members)
    dx -= posx.take(targets)
    dy = posy.take(members)
    dy -= posy.take(targets)
    dz = posz.take(members)
    dz -= posz.take(targets)
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    d2 += eps2
    inv = masses.take(members)
    inv /= d2 * np.sqrt(d2)
    inv[members == targets] = 0.0
    np.multiply(dx, inv, out=dx)
    np.multiply(dy, inv, out=dy)
    np.multiply(dz, inv, out=dz)
    return targets, dx, dy, dz


def flat_traverse(
    flat: FlatOctree,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    softening: float,
    accumulate_acc: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Frontier-batched Barnes-Hut traversal over the flat arrays.

    Semantically identical to ``barneshut._traverse`` (the retained
    object-tree reference): same θ-acceptance criterion, same leaf
    member/self-interaction accounting. Counts are bit-identical; the
    acceleration accumulation order differs (level order instead of DFS),
    which is within ~1e-12 relative of the reference.

    The counts-only entry (the production scenario path) runs
    :func:`_traverse_counts`, which never materialises leaf pairs at
    all; with forces on, the full kernel :func:`_traverse_with_acc`
    runs instead.
    """
    if not accumulate_acc:
        return _traverse_counts(flat, positions, theta), None
    return _traverse_with_acc(flat, positions, masses, theta, softening)


def _per_axis(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous per-axis position copies: axis gathers on the (n, 3)
    array would stride; three small copies make every gather unit-step."""
    return (
        np.ascontiguousarray(positions[:, 0]),
        np.ascontiguousarray(positions[:, 1]),
        np.ascontiguousarray(positions[:, 2]),
    )


def _traverse_counts(
    flat: FlatOctree, positions: np.ndarray, theta: float
) -> np.ndarray:
    """Interaction counts from accepted pairs only.

    For one body, the accepted nodes and reached leaves of its traversal
    partition *all* ``n`` bodies (descending splits a cell's bodies among
    its children; every branch ends accepted or at a leaf). Writing
    ``A(b)`` for the number of accepted nodes, ``S(b)`` for the bodies
    inside them, and ``InAcc(b)`` for "some accepted node contains ``b``
    itself" (at most one can — the first accepted ancestor), the
    reference's count is exactly::

        counts[b] = A(b) + Σ_leaves (count - [b ∈ leaf])
                  = A(b) + (n - S(b)) - (1 - InAcc(b))

    so the kernel only has to find the accepted (node, body) pairs — a
    few percent of all visited pairs — and the ~80% of frontier pairs
    that are (leaf, body) never need to be materialised: expansion prunes
    leaf children outright via the internal-children CSR. ``InAcc`` is
    one gather in the ancestor table. All terms are integers (the
    bincounts accumulate exactly in float64), so the result is
    bit-identical to the reference.
    """
    n = flat.n_bodies
    theta2 = theta * theta
    comx, comy, comz = flat.com_axes
    halfs = flat.half_sizes
    counts_f64 = flat.counts_f
    int_child_off = flat.int_child_off
    int_children = flat.int_children
    ancestors = flat.ancestors
    posx, posy, posz = _per_axis(positions)

    acc_b_l: list[np.ndarray] = []   # bodies of accepted pairs
    acc_w_l: list[np.ndarray] = []   # sizes of their accepted nodes
    inacc_l: list[np.ndarray] = []   # bodies contained in an accepted node

    if flat.is_leaf[0]:
        nid = bid = np.empty(0, dtype=np.intp)  # root is the only leaf
    else:
        nid, bid = _root_frontier(n)
    level = 0
    while nid.size:
        # One gathered acceptance test for the whole internal frontier.
        # Same elementwise IEEE ops as the per-node reference (gather →
        # subtract → (dx²+dy²)+dz² → compare; the reference's row-wise
        # 3-element reduction has that exact order), so the accept
        # booleans — and therefore the counts — are bit-identical.
        dx = comx[nid]
        dx -= posx[bid]
        dy = comy[nid]
        dy -= posy[bid]
        dz = comz[nid]
        dz -= posz[bid]
        np.multiply(dx, dx, out=dx)
        d2 = dx
        d2 += np.multiply(dy, dy, out=dy)
        d2 += np.multiply(dz, dz, out=dz)
        h = halfs[nid]
        size = h + h  # == node.size, bit-exact
        np.multiply(size, size, out=size)
        np.multiply(d2, theta2, out=d2)
        accepted = size < d2
        take_ix = np.flatnonzero(accepted)
        if take_ix.size:
            tn, tb = nid[take_ix], bid[take_ix]
            acc_b_l.append(tb)
            acc_w_l.append(counts_f64[tn])
            # containment: the node holding b at this depth is exactly tn
            inside_ix = np.flatnonzero(ancestors[level][tb] == tn)
            if inside_ix.size:
                inacc_l.append(tb[inside_ix])
            descend_ix = np.flatnonzero(~accepted)
            dn, db = nid[descend_ix], bid[descend_ix]
        else:
            dn, db = nid, bid
        if not dn.size:
            break
        # Expand straight to the *internal* children — leaf children are
        # pruned here, their contribution already carried by the formula.
        rep, slots = _csr_expand(dn, int_child_off)
        nid = int_children[slots]
        bid = db[rep]
        level += 1

    counts_f = np.full(n, float(n - 1))
    if acc_b_l:
        acc_b = np.concatenate(acc_b_l)
        acc_w = np.concatenate(acc_w_l)
        counts_f += np.bincount(acc_b, minlength=n)            # + A(b)
        counts_f -= np.bincount(acc_b, weights=acc_w, minlength=n)  # - S(b)
    if inacc_l:
        inacc = np.concatenate(inacc_l)
        counts_f += np.bincount(inacc, minlength=n)            # + InAcc(b)
    return counts_f.astype(np.int64)


def _traverse_with_acc(
    flat: FlatOctree,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    softening: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Full frontier kernel: counts plus accumulated accelerations.

    Unlike :func:`_traverse_counts` this must touch every (leaf, body)
    pair — the leaf members' individual positions enter the force — so
    the frontier carries leaf pairs and batches their interaction blocks
    through :func:`_leaf_batch`.
    """
    n = flat.n_bodies
    theta2 = theta * theta
    eps2 = softening * softening
    is_leaf = flat.is_leaf
    counts_f64 = flat.counts_f
    leaf_of = flat.leaf_of
    comx, comy, comz = flat.com_axes
    halfs = flat.half_sizes
    child_off = flat.child_off
    children = flat.children
    node_mass = flat.masses
    posx, posy, posz = _per_axis(positions)

    nid, bid = _root_frontier(n)
    ones_l: list[np.ndarray] = []          # bodies gaining one accepted node
    leaf_b_l: list[np.ndarray] = []        # bodies hitting a leaf ...
    leaf_w_l: list[np.ndarray] = []        # ... and their member counts
    acc_b_l: list[np.ndarray] = []         # acceleration targets ...
    acc_x_l: list[np.ndarray] = []         # ... and their per-axis
    acc_y_l: list[np.ndarray] = []         #     contributions (per-axis
    acc_z_l: list[np.ndarray] = []         #     avoids (k, 3) temporaries)

    while nid.size:
        leaf_mask = is_leaf[nid]
        leaf_ix = np.flatnonzero(leaf_mask)
        if leaf_ix.size:
            ln, lb = nid[leaf_ix], bid[leaf_ix]
            leaf_b_l.append(lb)
            # each body interacts with every leaf member except itself;
            # membership is one compare against the body's owning leaf
            weights = counts_f64[ln]
            weights -= leaf_of[lb] == ln
            leaf_w_l.append(weights)
            targets, cx, cy, cz = _leaf_batch(
                flat, posx, posy, posz, masses, ln, lb, eps2
            )
            acc_b_l.append(targets)
            acc_x_l.append(cx)
            acc_y_l.append(cy)
            acc_z_l.append(cz)
            inner_ix = np.flatnonzero(~leaf_mask)
            nid, bid = nid[inner_ix], bid[inner_ix]
            if not nid.size:
                break
        dx = comx[nid]
        dx -= posx[bid]
        dy = comy[nid]
        dy -= posy[bid]
        dz = comz[nid]
        dz -= posz[bid]
        d2 = dx * dx
        d2 += dy * dy
        d2 += dz * dz
        h = halfs[nid]
        size = h + h  # == node.size, bit-exact
        np.multiply(size, size, out=size)
        accepted = size < d2 * theta2
        take_ix = np.flatnonzero(accepted)
        if take_ix.size:
            take_b = bid[take_ix]
            ones_l.append(take_b)
            dt2 = d2[take_ix] + eps2
            inv = node_mass[nid[take_ix]] / (dt2 * np.sqrt(dt2))
            acc_b_l.append(take_b)
            acc_x_l.append(dx[take_ix] * inv)
            acc_y_l.append(dy[take_ix] * inv)
            acc_z_l.append(dz[take_ix] * inv)
        descend_ix = np.flatnonzero(~accepted)
        if not descend_ix.size:
            break
        dn, db = nid[descend_ix], bid[descend_ix]
        rep, slots = _csr_expand(dn, child_off)
        nid = children[slots]
        bid = db[rep]

    # Segment-reduce every contribution per body in one bincount pass.
    # float64 accumulation is exact for the integer count weights (≪ 2**53).
    counts_f = np.zeros(n)
    if ones_l:
        counts_f += np.bincount(np.concatenate(ones_l), minlength=n)
    if leaf_b_l:
        leaf_b = np.concatenate(leaf_b_l)
        leaf_w = np.concatenate(leaf_w_l)
        counts_f += np.bincount(leaf_b, weights=leaf_w, minlength=n)
    counts = counts_f.astype(np.int64)

    acc = np.zeros((n, 3))
    if acc_b_l:
        targets = np.concatenate(acc_b_l)
        for axis, parts in enumerate((acc_x_l, acc_y_l, acc_z_l)):
            acc[:, axis] = np.bincount(
                targets, weights=np.concatenate(parts), minlength=n
            )
    return counts, acc


def flat_interaction_counts(
    flat: FlatOctree, positions: np.ndarray, masses: np.ndarray, theta: float
) -> np.ndarray:
    """Per-body interaction counts via the frontier-batched kernel."""
    counts, _ = flat_traverse(flat, positions, masses, theta, 1e-3, False)
    return counts


def flat_accelerations(
    flat: FlatOctree,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    softening: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Approximated accelerations (and counts) via the flat kernel."""
    counts, acc = flat_traverse(flat, positions, masses, theta, softening, True)
    assert acc is not None
    return acc, counts


# ------------------------------------------------------- equivalence report
def equivalence_report(
    n: int = 2048, seed: int = 0, thetas: tuple = (0.3, 0.5, 1.0)
) -> dict:
    """Flat-kernel-vs-object-reference comparison document.

    Built for the CI artifact: one seeded Plummer sphere, every θ compared
    for bit-identical counts (both kernel entry points) and per-body
    acceleration agreement (vector-norm relative error, measured at a
    smaller n so the O(pairs) reference force path stays cheap). The
    document's ``"ok"`` is the conjunction every row must satisfy.
    """
    from .barneshut import _traverse, plummer_sphere

    pos, _, mass = plummer_sphere(n, np.random.default_rng(seed))
    flat = build_flat_octree(pos, mass, 16)
    obj = flat.to_object_tree()
    n_acc = min(n, 512)
    pos_a, _, mass_a = plummer_sphere(n_acc, np.random.default_rng(seed + 1))
    flat_a = build_flat_octree(pos_a, mass_a, 16)
    obj_a = flat_a.to_object_tree()

    rows = []
    for theta in thetas:
        ref, _ = _traverse(obj, pos, mass, theta, 1e-3, False)
        got = flat_interaction_counts(flat, pos, mass, theta)
        got_acc_path, _ = flat_traverse(flat, pos, mass, theta, 1e-3, True)
        _, ref_acc = _traverse(obj_a, pos_a, mass_a, theta, 1e-3, True)
        acc, _ = flat_accelerations(flat_a, pos_a, mass_a, theta)
        num = np.linalg.norm(acc - ref_acc, axis=1)
        den = np.linalg.norm(ref_acc, axis=1)
        ok_mask = den > 0
        rel = float((num[ok_mask] / den[ok_mask]).max()) if ok_mask.any() else 0.0
        rows.append(
            {
                "theta": theta,
                "counts_bit_identical": bool(np.array_equal(got, ref)),
                "counts_bit_identical_acc_path": bool(
                    np.array_equal(got_acc_path, ref)
                ),
                "acc_max_rel_err": rel,
                "acc_bodies": n_acc,
            }
        )
    ok = all(
        r["counts_bit_identical"]
        and r["counts_bit_identical_acc_path"]
        and r["acc_max_rel_err"] <= 1e-12
        for r in rows
    )
    return {
        "_schema": (
            "flat-vs-reference equivalence: counts must be bit-identical "
            "through both kernel entry points; accelerations within 1e-12 "
            "relative per body (vector norm). ok = every row passed."
        ),
        "n_bodies": n,
        "seed": seed,
        "ok": ok,
        "rows": rows,
    }


def main(argv=None) -> int:
    """``python -m repro.apps.flatoctree [--json FILE]``: equivalence check.

    Exits 1 if the flat kernel disagrees with the object-tree reference —
    CI runs this and uploads the JSON document as an artifact.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="python -m repro.apps.flatoctree")
    parser.add_argument("--json", metavar="FILE", default=None)
    parser.add_argument("--bodies", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    report = equivalence_report(n=args.bodies, seed=args.seed)
    text = json.dumps(report, indent=2)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.json}")
    for row in report["rows"]:
        status = (
            "ok"
            if row["counts_bit_identical"]
            and row["counts_bit_identical_acc_path"]
            and row["acc_max_rel_err"] <= 1e-12
            else "MISMATCH"
        )
        print(
            f"theta={row['theta']}: counts bit-identical="
            f"{row['counts_bit_identical']}/{row['counts_bit_identical_acc_path']}"
            f" acc_rel={row['acc_max_rel_err']:.3e} [{status}]"
        )
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
