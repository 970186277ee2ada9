"""Motion evaluation metrics over predicted vs. ground-truth pose sequences.

Rotation error is geodesic and reported in degrees; positional metrics run
through forward kinematics and are reported in centimeters; jitter is the
mean third-difference magnitude, scaled to 10^2 m/s^3, computed per sequence
(prediction and ground truth separately).
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .kinematics import KinematicTree, forward_kinematics
from .losses import _check_pair
from .rotations import geodesic_angle, relative_rotation, sixd_to_matrix

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
    in 10^2 m/s^3. Requires L >= 4."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 4:
        raise ValueError("jitter needs at least 4 frames")
    d3 = (
        positions[3:]
        - 3.0 * positions[2:-1]
        + 3.0 * positions[1:-2]
        - positions[:-3]
    )
    return float(np.linalg.norm(d3, axis=-1).mean() * fps ** 3 / 100.0)


def metrics(y: np.ndarray, z: np.ndarray, tree: KinematicTree,
            fps: float = 60.0, root_y: np.ndarray = None,
            root_z: np.ndarray = None) -> MetricReport:
    """Evaluate predicted poses y against ground truth z.

    Root translations default to the origin; pass them to include global
    trajectory error in the positional metrics.
    """
    y, z = _check_pair(y, z)
    if y.shape[0] < 2:
        raise ValueError("need at least two frames")
    fps = check_fps(fps)

    ry = sixd_to_matrix(y)
    rz = sixd_to_matrix(z)
    mpjre = np.degrees(geodesic_angle(relative_rotation(rz, ry)).mean())

    py = forward_kinematics(ry, tree, root_position=root_y)
    pz = forward_kinematics(rz, tree, root_position=root_z)
    dist = np.linalg.norm(py - pz, axis=-1)
    mpjpe = dist.mean() * _M_TO_CM

    vel_err = np.linalg.norm(np.diff(py, axis=0) - np.diff(pz, axis=0), axis=-1)
    mpjve = vel_err.mean() * fps * _M_TO_CM

    def set_pe(joints):
        return float(dist[:, list(joints)].mean() * _M_TO_CM)

    enough = y.shape[0] >= 4
    return MetricReport(
        mpjre_deg=float(mpjre),
        mpjpe_cm=float(mpjpe),
        mpjve_cm_s=float(mpjve),
        root_pe_cm=set_pe(ROOT_JOINTS),
        hand_pe_cm=set_pe(HAND_JOINTS),
        upper_pe_cm=set_pe(UPPER_JOINTS),
        lower_pe_cm=set_pe(LOWER_JOINTS),
        jitter_pred=jitter(py, fps) if enough else None,
        jitter_gt=jitter(pz, fps) if enough else None,
        frames=int(y.shape[0]),
        fps=fps,
    )
