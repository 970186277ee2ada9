"""SMPL-22 skeleton topology, kinematic-tree scan orders, forward kinematics.

The three scan orders in ``SCAN_ORDERS`` linearize the 22-joint tree for
sequence kernels:

* index order: joints 0..21 as stored;
* forward kinematic scan (FKS): five root-to-leaf branches concatenated,
  each restarting at the pelvis, 32 entries;
* unidirectional kinematic scan (UKS): a single 22-entry permutation that
  walks extremity-to-extremity with the root placed centrally.
"""

import functools
import importlib.resources
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NUM_JOINTS",
    "POSE_WIDTH",
    "TRACKED_JOINTS",
    "RIG_CHANNELS",
    "SMPL_JOINT_NAMES",
    "SCAN_ORDERS",
    "KinematicTree",
    "reorder_joint_features",
    "inverse_reorder_joint_features",
    "forward_kinematics",
    "parse_skeleton_text",
    "default_tree",
]

NUM_JOINTS = 22
# a pose frame: one 6D rotation per joint, flattened
POSE_WIDTH = NUM_JOINTS * 6
# head and the two wrists: the three tracked body parts of a headset rig
TRACKED_JOINTS = (15, 20, 21)
# per tracked part: position (3), 6D rotation (6), velocity (3); 36 in all
RIG_CHANNELS = len(TRACKED_JOINTS) * 12

SMPL_JOINT_NAMES = (
    "pelvis", "left_hip", "right_hip", "spine1", "left_knee", "right_knee",
    "spine2", "left_ankle", "right_ankle", "spine3", "left_foot",
    "right_foot", "neck", "left_collar", "right_collar", "head",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
)

# FKS: pelvis restarts mark branch boundaries (left leg, right leg,
# spine->left arm, spine->head, spine->right arm)
_FKS_FORWARD = (
    0, 1, 4, 7, 10,
    0, 2, 5, 8, 11,
    0, 3, 6, 9, 13, 16, 18, 20,
    0, 3, 6, 9, 12, 15,
    0, 3, 6, 9, 14, 17, 19, 21,
)

# UKS: left leg and arm chains meet at the centrally placed root
_UKS_FORWARD = (
    21, 19, 17, 14, 15, 12, 20, 18, 16, 13, 9, 6, 3, 0,
    1, 4, 7, 10, 2, 5, 8, 11,
)

# scan strategy name -> joint visitation order; the model's backward branch
# scans the flattened (frame, joint) axis reversed, so only the forward
# order is stored
SCAN_ORDERS = {
    "index": tuple(range(NUM_JOINTS)),
    "fks": _FKS_FORWARD,
    "uks": _UKS_FORWARD,
}


@dataclass(frozen=True)
class KinematicTree:
    """Parent pointers plus rest-pose bone offsets (meters) for 22 joints.

    Joints may be listed in any order; a topological ordering is derived
    at construction. Exactly one joint must have parent -1.
    """

    parent: tuple
    offset: np.ndarray
    topo_order: tuple = field(init=False)

    def __post_init__(self):
        parent = tuple(int(p) for p in self.parent)
        offset = np.asarray(self.offset, dtype=np.float64)
        n = len(parent)
        if offset.shape != (n, 3):
            raise ValueError(f"offset shape {offset.shape} does not match {n} joints")
        if not np.all(np.isfinite(offset)):
            raise ValueError("offsets must be finite")
        roots = [j for j, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise ValueError(f"expected exactly one root, found {len(roots)}")
        for j, p in enumerate(parent):
            if p != -1 and not 0 <= p < n:
                raise ValueError(f"joint {j} has out-of-range parent {p}")
        # walk each joint to the root; more than n hops means a cycle
        for j in range(n):
            seen = 0
            k = j
            while parent[k] != -1:
                k = parent[k]
                seen += 1
                if seen > n:
                    raise ValueError(f"cycle in parent pointers at joint {j}")
        children = [[] for _ in range(n)]
        for j, p in enumerate(parent):
            if p != -1:
                children[p].append(j)
        topo = [roots[0]]
        for j in topo:
            topo.extend(children[j])
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "topo_order", tuple(topo))

    @property
    def num_joints(self) -> int:
        return len(self.parent)


def reorder_joint_features(features: np.ndarray, order: tuple) -> np.ndarray:
    """Gather (..., J, D) joint features into scan order along the joint axis.

    Pure gather: output[..., k, :] = features[..., order[k], :].
    """
    features = np.asarray(features)
    if features.ndim < 2 or features.shape[-2] != NUM_JOINTS:
        raise ValueError(
            f"expected joint axis of length {NUM_JOINTS}, got shape {features.shape}"
        )
    _visit_ranks(order)  # checks the order, once per order
    return features[..., order, :]


def inverse_reorder_joint_features(features: np.ndarray, order: tuple) -> np.ndarray:
    """Scatter (..., len(order), D) scan-ordered features back to (..., J, D).

    Joints visited multiple times (FKS) have their contributions summed in
    scan order; for permutation orders this is the exact inverse of the
    gather.
    """
    features = np.asarray(features)
    if features.ndim < 2 or features.shape[-2] != len(order):
        raise ValueError(
            f"expected scan axis of length {len(order)}, got shape {features.shape}"
        )
    out_shape = features.shape[:-2] + (NUM_JOINTS, features.shape[-1])
    out = np.zeros(out_shape, dtype=features.dtype)
    # one add per visit rank; each joint sums its visits in scan order
    for joints, positions in _visit_ranks(order):
        out[..., joints, :] += features[..., positions, :]
    return out


@functools.lru_cache(maxsize=None)
def _visit_ranks(order: tuple) -> tuple:
    """(joints, scan positions) per visit rank r: the positions that are a
    joint's (r+1)-th visit. No joint repeats within a rank.

    Raises ValueError unless ``order`` visits every joint (the scatter would
    leave a skipped joint zero) and only indices 0..21; being cached, the
    check runs once per order.
    """
    missing = set(range(NUM_JOINTS)) - set(order)
    if missing:
        raise ValueError(f"scan order misses joints {sorted(missing)}")
    if any(not 0 <= j < NUM_JOINTS for j in order):
        raise ValueError("scan order contains out-of-range joint indices")
    seq = np.asarray(order)
    rank = np.tril(seq[:, None] == seq[None, :], -1).sum(axis=1)
    return tuple((seq[rank == r], np.flatnonzero(rank == r))
                 for r in range(rank.max() + 1))


def forward_kinematics(pose: np.ndarray, tree: KinematicTree,
                       root_position: np.ndarray = None,
                       return_rotations: bool = False):
    """Joint positions (meters) from per-joint local rotations.

    Parameters
    ----------
    pose : (..., J, 6) or (..., J, 3, 3)
        Local rotations, 6D or matrix form. Leading axes are batched.
    tree : KinematicTree
    root_position : (..., 3), optional
        Defaults to the origin.
    return_rotations : bool
        Also return the (..., J, 3, 3) global rotations.

    Global quantities follow the chain
    global_rot[j] = global_rot[parent[j]] @ local_rot[j] and
    position[j] = position[parent[j]] + global_rot[parent[j]] @ offset[j].
    """
    from .rotations import sixd_to_matrix

    pose = np.asarray(pose, dtype=np.float64)
    n = tree.num_joints
    if pose.shape[-2:] == (n, 6):
        local = sixd_to_matrix(pose)
    elif pose.shape[-3:] == (n, 3, 3):
        local = pose
    else:
        raise ValueError(
            f"pose must be (..., {n}, 6) or (..., {n}, 3, 3), got shape {pose.shape}"
        )
    batch = local.shape[:-3]
    if root_position is None:
        root_position = np.zeros(batch + (3,))
    else:
        root_position = np.broadcast_to(
            np.asarray(root_position, dtype=np.float64), batch + (3,)
        )

    global_rot = np.empty_like(local)
    position = np.empty(batch + (n, 3))
    for j in tree.topo_order:
        p = tree.parent[j]
        if p == -1:
            global_rot[..., j, :, :] = local[..., j, :, :]
            position[..., j, :] = root_position
        else:
            global_rot[..., j, :, :] = global_rot[..., p, :, :] @ local[..., j, :, :]
            position[..., j, :] = position[..., p, :] + (
                global_rot[..., p, :, :] @ tree.offset[j]
            )
    if return_rotations:
        return position, global_rot
    return position


def parse_skeleton_text(text: str) -> KinematicTree:
    """Build a KinematicTree from skeleton-file text.

    One joint per line: ``joint_index parent_index ox oy oz``. Lines may
    appear in any order; '#' comments and blank lines are skipped.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"skeleton line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            j = int(parts[0])
            p = int(parts[1])
            off = [float(v) for v in parts[2:5]]
        except ValueError as exc:
            raise ValueError(f"skeleton line {lineno}: {exc}") from None
        if j in entries:
            raise ValueError(f"skeleton line {lineno}: duplicate joint {j}")
        entries[j] = (p, off)
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise ValueError("skeleton joint indices must be exactly 0..n-1")
    parent = tuple(entries[j][0] for j in range(n))
    offset = np.array([entries[j][1] for j in range(n)])
    return KinematicTree(parent=parent, offset=offset)


def default_tree() -> KinematicTree:
    """The bundled neutral-body SMPL-22 skeleton."""
    text = (
        importlib.resources.files("kinescan")
        .joinpath("data/skeleton_smpl22.txt")
        .read_text(encoding="utf-8")
    )
    return parse_skeleton_text(text)
