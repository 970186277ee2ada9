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
    frame_blocks,
    sixd_blocks,
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
    """Draw (frames, channels) sums of low-frequency sinusoids; returns the
    function that gives the rows of a slice of frames."""
    amp = rng.uniform(0.2, 1.0, size=(_HARMONICS, channels)) * amplitude
    freq = rng.uniform(0.5, 3.0, size=(_HARMONICS, channels))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(_HARMONICS, channels))

    def rows(sl):
        t = np.arange(sl.start, sl.stop)[:, None, None] / max(frames, 2)
        waves = amp * np.sin(2.0 * np.pi * freq * t + phase)
        return waves.sum(axis=1)
    return rows


def _fill_pose(seed, out):
    """Fill (frames, 22, 6) ``out`` with the seed's pose, one block of frames
    at a time, cast to out's dtype; returns ``out``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    omega = _smooth_channels(rng, out.shape[0], NUM_JOINTS * 3, _POSE_AMPLITUDE)
    for sl in frame_blocks(out.shape[0]):
        out[sl] = matrix_to_sixd(exp_map(omega(sl).reshape(-1, NUM_JOINTS, 3)))
    return out


def synthetic_pose(seed: int, frames: int) -> np.ndarray:
    """(frames, 22, 6) smooth valid pose: per-joint axis-angle sinusoids
    pushed through the exponential map."""
    if frames < 1:
        raise ValueError("frames must be positive")
    return _fill_pose(seed, np.empty((frames, NUM_JOINTS, 6)))


def gen_synthetic(seed: int, frames: int, kind: str, fps: float = 60.0) -> Sequence:
    """A synthetic sequence of the given kind, deterministic in seed. Each
    block of frames is cast to float32 as it is made."""
    if frames < 1:
        raise ValueError("frames must be positive")
    if kind == "sparse_input":
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = _smooth_channels(rng, frames, RIG_CHANNELS, amplitude=0.5)
        data = np.empty((frames, RIG_CHANNELS), dtype=np.float32)
        for sl in frame_blocks(frames):
            data[sl] = rows(sl)
        return Sequence(kind="sparse_input", data=data, fps=fps)
    if kind == "pose":
        pose = _fill_pose(seed, np.empty((frames, NUM_JOINTS, 6), dtype=np.float32))
        return Sequence(kind="pose", data=pose.reshape(frames, -1), fps=fps)
    raise ValueError(f"unknown sequence kind {kind!r}")


def sparse_from_pose(pose: np.ndarray, tree: KinematicTree,
                     fps: float = 60.0) -> np.ndarray:
    """Derive the (L, 36) tracking signal a headset rig would supply from an
    (L, 22, 6) pose, one block of frames at a time.

    Per tracked part (head, left wrist, right wrist): global position (3),
    global rotation as 6D (6), and linear velocity (3), concatenated. The
    first frame's velocity is zero.
    """
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
    out[1:, :, 9:] = np.diff(positions, axis=0) * fps
    return out.reshape(len(pose), RIG_CHANNELS)
