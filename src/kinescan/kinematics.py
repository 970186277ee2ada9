"""SMPL-22 skeleton topology, kinematic-tree scan orders, forward kinematics.

The body is one tree whose joints are numbered parents before children:
joint 0 is the root and every other joint's parent has a lower index, so
forward kinematics walks the joints in index order.

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
from dataclasses import dataclass

import numpy as np

from .rotations import DegenerateRotationError, sixd_to_matrix

__all__ = [
    "NUM_JOINTS",
    "POSE_WIDTH",
    "TRACKED_JOINTS",
    "RIG_CHANNELS",
    "FRAME_BLOCK",
    "SMPL_JOINT_NAMES",
    "SCAN_ORDERS",
    "KinematicTree",
    "reorder_joint_features",
    "inverse_reorder_joint_features",
    "forward_kinematics",
    "frame_blocks",
    "sixd_blocks",
    "default_tree",
]

NUM_JOINTS = 22
# a pose frame: one 6D rotation per joint, flattened
POSE_WIDTH = NUM_JOINTS * 6
# head and the two wrists: the three tracked body parts of a headset rig
TRACKED_JOINTS = (15, 20, 21)
# per tracked part: position (3), 6D rotation (6), velocity (3); 36 in all
RIG_CHANNELS = len(TRACKED_JOINTS) * 12
# the most frames that synthesis, rig derivation and metrics hold at once:
# their per-frame temporaries scale with this, not with the sequence length
FRAME_BLOCK = 1024

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
    """Parent pointers plus rest-pose bone offsets (meters), one row per joint.

    Joints are numbered parents before children: joint 0 is the only root
    (parent -1) and every other joint j has its parent in 0..j-1. That one
    rule excludes a second root, a missing root, an out-of-range parent and
    a cycle.
    """

    parent: tuple
    offset: np.ndarray

    def __post_init__(self):
        parent = tuple(int(p) for p in self.parent)
        offset = np.asarray(self.offset, dtype=np.float64)
        n = len(parent)
        if offset.shape != (n, 3):
            raise ValueError(f"offset shape {offset.shape} does not match {n} joints")
        bad = np.flatnonzero(~np.isfinite(offset).all(axis=1))
        if bad.size:
            raise ValueError(f"joint {bad[0]} has a non-finite offset {offset[bad[0]]}")
        if parent[:1] != (-1,):
            raise ValueError(f"joint 0 must be the root (parent -1), got parents {parent}")
        for j, p in enumerate(parent[1:], start=1):
            if not 0 <= p < j:
                raise ValueError(f"joint {j} has parent {p}, not one of joints 0..{j - 1}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "offset", offset)


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
    pose : (..., J, 3, 3)
        Local rotation matrices. Leading axes are batched.
    tree : KinematicTree
    root_position : (..., 3), optional
        Defaults to the origin.
    return_rotations : bool
        Also return the (..., J, 3, 3) global rotations.

    Global quantities follow the chain
    global_rot[j] = global_rot[parent[j]] @ local_rot[j] and
    position[j] = position[parent[j]] + global_rot[parent[j]] @ offset[j].
    """
    local = np.asarray(pose, dtype=np.float64)
    n = len(tree.parent)
    if local.shape[-3:] != (n, 3, 3):
        raise ValueError(f"pose must be (..., {n}, 3, 3), got shape {local.shape}")
    global_rot = np.empty_like(local)
    position = np.empty(local.shape[:-3] + (n, 3))
    global_rot[..., 0, :, :] = local[..., 0, :, :]
    position[..., 0, :] = 0.0 if root_position is None else root_position
    # parents come before children, so index order reaches each parent first
    for j in range(1, n):
        p = tree.parent[j]
        global_rot[..., j, :, :] = global_rot[..., p, :, :] @ local[..., j, :, :]
        position[..., j, :] = position[..., p, :] + (
            global_rot[..., p, :, :] @ tree.offset[j]
        )
    if return_rotations:
        return position, global_rot
    return position


def frame_blocks(frames: int) -> list:
    """Consecutive slices of at most FRAME_BLOCK frames covering frames
    0..frames-1 in order."""
    step = FRAME_BLOCK
    return [slice(start, min(start + step, frames)) for start in range(0, frames, step)]


def sixd_blocks(r: np.ndarray):
    """(slice, rotation matrices) per frame block of (L, ..., 6) values,
    Gram-Schmidted in float64 one block at a time. A DegenerateRotationError
    carries the absolute frame: the block start is added to its index."""
    for sl in frame_blocks(len(r)):
        try:
            yield sl, sixd_to_matrix(r[sl])
        except DegenerateRotationError as exc:
            exc.index = (exc.index[0] + sl.start,) + exc.index[1:]
            raise


def default_tree() -> KinematicTree:
    """The bundled neutral-body SMPL-22 skeleton: one row ``joint parent ox
    oy oz`` per joint, in joint order; ``#`` starts a comment."""
    text = (
        importlib.resources.files("kinescan")
        .joinpath("data/skeleton_smpl22.txt")
        .read_text(encoding="utf-8")
    )
    table = np.loadtxt(text.splitlines(), ndmin=2)
    return KinematicTree(parent=table[:, 1].astype(int), offset=table[:, 2:])
