"""Motion evaluation metrics over predicted vs. ground-truth pose sequences.

Rotation error is geodesic and reported in degrees; positional metrics run
through forward kinematics and are reported in centimeters; jitter is the
mean third-difference magnitude, scaled to 10^2 m/s^3, computed per sequence
(prediction and ground truth separately).

Per-frame values are computed one block of frames at a time into
full-length arrays, each reduced once, so the temporaries scale with the
block, not the sequence.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .kinematics import KinematicTree, forward_kinematics, frame_blocks, sixd_blocks
from .losses import _pair_shapes
from .rotations import geodesic_angle, relative_rotation

__all__ = [
    "ROOT_JOINTS",
    "HAND_JOINTS",
    "LOWER_JOINTS",
    "UPPER_JOINTS",
    "MetricReport",
    "check_fps",
    "metrics",
    "jitter",
]

ROOT_JOINTS = (0,)
HAND_JOINTS = (20, 21)
LOWER_JOINTS = (1, 2, 4, 5, 7, 8, 10, 11)
UPPER_JOINTS = (3, 6, 9, 12, 13, 14, 15, 16, 17, 18, 19)

_M_TO_CM = 100.0


@dataclass(frozen=True)
class MetricReport:
    """All values are plain floats; jitter fields are None when L < 4."""

    mpjre_deg: float
    mpjpe_cm: float
    mpjve_cm_s: float
    root_pe_cm: float
    hand_pe_cm: float
    upper_pe_cm: float
    lower_pe_cm: float
    jitter_pred: float
    jitter_gt: float
    frames: int
    fps: float

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def check_fps(fps) -> float:
    """``fps`` as a float; a ValueError unless it is finite, above 0 and
    low enough that fps^3, which scales jitter, is a finite float64."""
    fps = float(fps)
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be a finite positive number, got {fps}")
    try:
        fps ** 3
    except OverflowError:
        raise ValueError(f"fps {fps} is too high: fps^3, which scales jitter, "
                         "overflows float64") from None
    return fps


def jitter(positions: np.ndarray, fps: float) -> float:
    """Mean ||third finite difference|| * fps^3 over an (L, J, 3) path,
    in 10^2 m/s^3. Requires L >= 4; a value that is not a finite float64
    is a ValueError."""
    positions = np.asarray(positions, dtype=np.float64)
    frames = positions.shape[0]
    if frames < 4:
        raise ValueError("jitter needs at least 4 frames")
    norms = np.empty((frames - 3,) + positions.shape[1:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        for sl in frame_blocks(frames - 3):
            # third differences sl use frames sl.start .. sl.stop + 2
            p = positions[sl.start:sl.stop + 3]
            d3 = p[3:] - 3.0 * p[2:-1] + 3.0 * p[1:-2] - p[:-3]
            norms[sl] = np.linalg.norm(d3, axis=-1)
        value = float(norms.mean() * fps ** 3 / 100.0)
    if not math.isfinite(value):
        raise ValueError(f"jitter is {value} at {fps:g} fps, not a finite float64")
    return value


def metrics(y: np.ndarray, z: np.ndarray, tree: KinematicTree,
            fps: float = 60.0, root_y: np.ndarray = None,
            root_z: np.ndarray = None) -> MetricReport:
    """Evaluate predicted poses y against ground truth z.

    Root translations default to the origin; pass them to include global
    trajectory error in the positional metrics. A jitter that is not a
    finite float64 is a ValueError naming its field.
    """
    y, z = _pair_shapes(y, z)
    frames = y.shape[0]
    if frames < 2:
        raise ValueError("need at least two frames")
    fps = check_fps(fps)
    root_y, root_z = (np.broadcast_to(np.zeros(3) if r is None else np.asarray(r),
                                      (frames, 3)) for r in (root_y, root_z))

    angle = np.empty(y.shape[:2])
    dist = np.empty(y.shape[:2])
    vel_err = np.empty((frames - 1, y.shape[1]))
    py = np.empty(y.shape[:2] + (3,))
    pz = np.empty_like(py)
    for (sl, ry), (_, rz) in zip(sixd_blocks(y), sixd_blocks(z)):
        angle[sl] = geodesic_angle(relative_rotation(rz, ry))
        py[sl] = forward_kinematics(ry, tree, root_position=root_y[sl])
        pz[sl] = forward_kinematics(rz, tree, root_position=root_z[sl])
        dist[sl] = np.linalg.norm(py[sl] - pz[sl], axis=-1)
        # velocity rows lo..stop-2 difference frames lo..stop-1, so each
        # block after the first starts from the last frame before it
        lo = max(sl.start - 1, 0)
        vel_err[lo:sl.stop - 1] = np.linalg.norm(
            np.diff(py[lo:sl.stop], axis=0) - np.diff(pz[lo:sl.stop], axis=0), axis=-1)
    mpjre = np.degrees(angle.mean())
    mpjpe = dist.mean() * _M_TO_CM
    mpjve = vel_err.mean() * fps * _M_TO_CM

    def set_pe(joints):
        return float(dist[:, list(joints)].mean() * _M_TO_CM)

    jitters = {"jitter_pred": None, "jitter_gt": None}
    if frames >= 4:
        for name, positions in zip(jitters, (py, pz)):
            try:
                jitters[name] = jitter(positions, fps)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
    return MetricReport(
        mpjre_deg=float(mpjre),
        mpjpe_cm=float(mpjpe),
        mpjve_cm_s=float(mpjve),
        root_pe_cm=set_pe(ROOT_JOINTS),
        hand_pe_cm=set_pe(HAND_JOINTS),
        upper_pe_cm=set_pe(UPPER_JOINTS),
        lower_pe_cm=set_pe(LOWER_JOINTS),
        frames=frames,
        fps=fps,
        **jitters,
    )
