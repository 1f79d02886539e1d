"""The naive recursive octree fill that ``build_octree`` reproduces."""

import numpy as np

from repro.apps.barneshut import OctreeNode


def fill(
    node: OctreeNode,
    positions: np.ndarray,
    masses: np.ndarray,
    idx: np.ndarray,
    bucket_size: int,
    depth_left: int,
) -> None:
    """Fill ``node`` with the bodies ``idx``, splitting cells recursively
    until each holds at most ``bucket_size`` bodies."""
    node.count = len(idx)
    m = masses[idx]
    node.mass = float(m.sum())
    if node.mass > 0:
        node.com = (positions[idx] * m[:, None]).sum(axis=0) / node.mass
    else:  # pragma: no cover - massless cells don't occur with our inputs
        node.com = node.center.copy()
    if len(idx) <= bucket_size or depth_left == 0:
        node.bodies = idx
        return
    rel = positions[idx] > node.center  # (k, 3) bool
    octant = rel[:, 0] * 4 + rel[:, 1] * 2 + rel[:, 2] * 1
    quarter = node.half_size / 2.0
    for o in range(8):
        sub_idx = idx[octant == o]
        if len(sub_idx) == 0:
            continue
        offset = np.array(
            [
                quarter if o & 4 else -quarter,
                quarter if o & 2 else -quarter,
                quarter if o & 1 else -quarter,
            ]
        )
        child = OctreeNode(node.center + offset, quarter)
        node.children.append(child)
        fill(child, positions, masses, sub_idx, bucket_size, depth_left - 1)
