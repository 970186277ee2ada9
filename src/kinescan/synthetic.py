"""Deterministic smooth synthetic sequences for oracles and smoke tests.

Channels are sums of a few low-frequency sinusoids; pose sequences are built
through the exponential map so every frame's 6D values are valid rotations.
"""

import numpy as np

from .io import Sequence
from .kinematics import (
    NUM_JOINTS,
    RIG_CHANNELS,
    TRACKED_JOINTS,
    KinematicTree,
    forward_kinematics,
)
from .rotations import exp_map, matrix_to_sixd

__all__ = [
    "gen_synthetic",
    "synthetic_pose",
    "sparse_from_pose",
]

# sinusoids summed per channel
_HARMONICS = 3
# scale (radians) of each joint's axis-angle sinusoids
_POSE_AMPLITUDE = 0.35


def _smooth_channels(rng, frames, channels, amplitude):
    """(frames, channels) sums of low-frequency sinusoids."""
    t = np.arange(frames)[:, None, None] / max(frames, 2)
    amp = rng.uniform(0.2, 1.0, size=(_HARMONICS, channels)) * amplitude
    freq = rng.uniform(0.5, 3.0, size=(_HARMONICS, channels))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(_HARMONICS, channels))
    waves = amp * np.sin(2.0 * np.pi * freq * t + phase)
    return waves.sum(axis=1)


def synthetic_pose(seed: int, frames: int) -> np.ndarray:
    """(frames, 22, 6) smooth valid pose: per-joint axis-angle sinusoids
    pushed through the exponential map."""
    if frames < 1:
        raise ValueError("frames must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    omega = _smooth_channels(rng, frames, NUM_JOINTS * 3, _POSE_AMPLITUDE)
    omega = omega.reshape(frames, NUM_JOINTS, 3)
    return matrix_to_sixd(exp_map(omega))


def gen_synthetic(seed: int, frames: int, kind: str, fps: float = 60.0) -> Sequence:
    """A synthetic sequence of the given kind, deterministic in seed."""
    if kind == "sparse_input":
        rng = np.random.Generator(np.random.PCG64(seed))
        data = _smooth_channels(rng, frames, RIG_CHANNELS, amplitude=0.5)
        return Sequence(kind="sparse_input", data=data, fps=fps)
    if kind == "pose":
        pose = synthetic_pose(seed, frames)
        return Sequence(kind="pose", data=pose.reshape(frames, -1), fps=fps)
    raise ValueError(f"unknown sequence kind {kind!r}")


def sparse_from_pose(pose: np.ndarray, tree: KinematicTree,
                     fps: float = 60.0) -> np.ndarray:
    """Derive the (L, 36) tracking signal a headset rig would supply.

    Per tracked part (head, left wrist, right wrist): global position (3),
    global rotation as 6D (6), and linear velocity (3), concatenated. The
    first frame's velocity is zero.
    """
    pose = np.asarray(pose, dtype=np.float64)
    positions, rotations = forward_kinematics(pose, tree, return_rotations=True)
    cols = []
    for j in TRACKED_JOINTS:
        p = positions[:, j]
        v = np.zeros_like(p)
        v[1:] = np.diff(p, axis=0) * fps
        cols += [p, matrix_to_sixd(rotations[:, j]), v]
    return np.concatenate(cols, axis=1).astype(np.float32)
