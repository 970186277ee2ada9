"""
The 22-joint body, its scan orders, and forward kinematics
==========================================================

Spatial mixing walks the joints in a chosen order. The five-branch order
(FKS) retraces root-to-leaf chains, visiting the root five times; the
single-permutation order (UKS) sweeps extremity to extremity with the root
near the middle. Forward kinematics then turns local joint rotations into
world positions along the parent chain.
"""

import numpy as np

from kinescan.kinematics import (
    SCAN_ORDERS,
    SMPL_JOINT_NAMES,
    default_tree,
    forward_kinematics,
)
from kinescan.rotations import exp_map

tree = default_tree()

print("joints:", ", ".join(SMPL_JOINT_NAMES[:8]), "...")
print("parent pointers:", tree.parent)

fks = SCAN_ORDERS["fks"]
starts = [k for k, j in enumerate(fks) if j == 0]
print("\nFKS,", len(fks), "entries; branches start at", starts)
print(" ", fks)
uks = SCAN_ORDERS["uks"]
print("UKS,", len(uks), "entries; root sits at position", uks.index(0))
print(" ", uks)
print("the backward branch scans the flattened (frame, joint) axis reversed")

# rest pose: every local rotation is the identity, so joint positions are
# the running sums of bone offsets
rest = np.broadcast_to(np.eye(3), (22, 3, 3))
positions = forward_kinematics(rest, tree)
print("\nrest-pose head height (m): %.3f" % positions[15, 1])
print("rest-pose wrist spread (m): %.3f"
      % np.linalg.norm(positions[20] - positions[21]))

# bend both elbows by a half turn; only the hands and wrists move
bent = np.repeat(np.eye(3)[None], 22, axis=0)
bent[18] = exp_map(np.array([0.0, 0.0, np.pi / 2]))
bent[19] = exp_map(np.array([0.0, 0.0, -np.pi / 2]))
moved = np.linalg.norm(forward_kinematics(bent, tree) - positions, axis=1)
print("joints displaced by the elbow bend:", np.nonzero(moved > 1e-9)[0])
