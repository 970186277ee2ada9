"""Deterministic smooth synthetic sequences for oracles and smoke tests.

Poses are per-joint axis-angle sinusoids pushed through the exponential map,
so every frame's 6D values are valid rotations; the sparse input is the
signal a headset rig would record for the same seed's pose.
"""

import numpy as np

from .io import Sequence
from .kinematics import (
    NUM_JOINTS,
    RIG_CHANNELS,
    TRACKED_JOINTS,
    KinematicTree,
    default_tree,
    forward_kinematics,
    frame_blocks,
    sixd_blocks,
)
from .metrics import check_fps
from .rotations import exp_map, matrix_to_sixd

__all__ = ["gen_synthetic", "synthetic_pose", "sparse_from_pose"]

# sinusoids summed per axis-angle channel
_HARMONICS = 3
# scale (radians) of each joint's axis-angle sinusoids
_POSE_AMPLITUDE = 0.35


def _fill_pose(seed, frames, dtype):
    """The seed's (frames, 22, 6) pose, made block by block in ``dtype``."""
    if frames < 1:
        raise ValueError("frames must be positive")
    out = np.empty((frames, NUM_JOINTS, 6), dtype=dtype)
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (_HARMONICS, NUM_JOINTS * 3)
    amp = rng.uniform(0.2, 1.0, size=shape) * _POSE_AMPLITUDE
    freq = rng.uniform(0.5, 3.0, size=shape)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    for sl in frame_blocks(frames):
        t = np.arange(sl.start, sl.stop)[:, None, None] / max(frames, 2)
        omega = (amp * np.sin(2.0 * np.pi * freq * t + phase)).sum(axis=1)
        out[sl] = matrix_to_sixd(exp_map(omega.reshape(-1, NUM_JOINTS, 3)))
    return out


def synthetic_pose(seed: int, frames: int) -> np.ndarray:
    """(frames, 22, 6) smooth valid pose: per-joint axis-angle sinusoids
    pushed through the exponential map."""
    return _fill_pose(seed, frames, np.float64)


def gen_synthetic(seed: int, frames: int, kind: str, fps: float = 60.0) -> Sequence:
    """A synthetic sequence of the given kind, deterministic in seed: the
    seed's pose, cast to float32 one block of frames at a time, or the rig
    signal ``sparse_from_pose`` derives from that float32 pose at ``fps``."""
    if kind not in ("pose", "sparse_input"):
        raise ValueError(f"unknown sequence kind {kind!r}")
    pose = _fill_pose(seed, frames, np.float32)
    data = pose.reshape(frames, -1)
    if kind == "sparse_input":
        data = sparse_from_pose(pose, default_tree(), fps=fps)
    return Sequence(kind=kind, data=data, fps=fps)


def sparse_from_pose(pose: np.ndarray, tree: KinematicTree,
                     fps: float = 60.0) -> np.ndarray:
    """Derive the (L, 36) tracking signal a headset rig would supply from an
    (L, 22, 6) pose, one block of frames at a time.

    Per tracked part (head, left wrist, right wrist): global position (3),
    global rotation as 6D (6), and linear velocity (3), concatenated. The
    first frame's velocity is zero. A ValueError if ``fps`` is invalid or
    makes a velocity overflow float32.
    """
    fps = check_fps(fps)
    pose = np.asarray(pose)
    out = np.empty((len(pose), len(TRACKED_JOINTS), 12), dtype=np.float32)
    # float64 tracked positions, differenced once every block is in
    positions = np.empty((len(pose), len(TRACKED_JOINTS), 3))
    for sl, local in sixd_blocks(pose):
        p, rotations = forward_kinematics(local, tree, return_rotations=True)
        positions[sl] = p[:, TRACKED_JOINTS]
        out[sl, :, 3:9] = matrix_to_sixd(rotations[:, TRACKED_JOINTS])
    out[:, :, :3] = positions
    out[:1, :, 9:] = 0.0
    with np.errstate(over="ignore"):  # an overflowing cast is refused below
        out[1:, :, 9:] = np.diff(positions, axis=0) * fps
    if not np.isfinite(out[:, :, 9:]).all():
        raise ValueError(f"fps {fps} is too high: rig velocities overflow float32")
    return out.reshape(len(pose), RIG_CHANNELS)
