"""Training losses over 6D pose sequences, with an analytic gradient for the
weighted total.

A pose sequence is an (L, J, 6) array of per-joint 6D rotations. The total
objective is

    alpha * loss_rot + beta * loss_ori + delta * loss_angvel_geo

with defaults (1, 0.02, 1). The positional terms loss_pos / loss_vel need a
skeleton and are reported separately. Everything here computes in float64.
"""

from dataclasses import dataclass

import numpy as np

from .kinematics import KinematicTree, forward_kinematics
from .rotations import (
    geodesic_angle,
    hat,
    matrix_to_log,
    relative_rotation,
    sixd_to_matrix,
    vee,
)

__all__ = [
    "LossWeights",
    "loss_rot",
    "loss_ori",
    "angular_velocity",
    "loss_angvel_geo",
    "loss_pos",
    "loss_vel",
    "total_loss",
    "grad_total_loss",
]

# velocity angles below this take the log map's Taylor branch; within it
# of pi the gradient is undefined
_THETA_MARGIN = 1e-5


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.02
    delta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "delta"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be a nonnegative real")


def _check_pair(y, z):
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {z.shape}")
    if y.ndim != 3 or y.shape[-1] != 6:
        raise ValueError(f"expected (L, J, 6) pose sequences, got {y.shape}")
    return y, z


def loss_rot(y: np.ndarray, z: np.ndarray) -> float:
    """Mean absolute difference over all raw 6D components."""
    y, z = _check_pair(y, z)
    return float(np.mean(np.abs(y - z)))


def loss_ori(y: np.ndarray, z: np.ndarray) -> float:
    """Mean absolute difference over the root joint's 6D components only."""
    y, z = _check_pair(y, z)
    return float(np.mean(np.abs(y[:, 0] - z[:, 0])))


def angular_velocity(p: np.ndarray) -> np.ndarray:
    """Per-joint axis-angle of V_t = R_{t-1}^T R_t, shape (L-1, J, 3)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 3 or p.shape[-1] != 6 or p.shape[0] < 2:
        raise ValueError(f"expected (L >= 2, J, 6) pose sequence, got {p.shape}")
    r = sixd_to_matrix(p)
    v = relative_rotation(r[:-1], r[1:])
    # products of Gram-Schmidt outputs are orthonormal already
    return matrix_to_log(v, validate=False)


def loss_angvel_geo(y: np.ndarray, z: np.ndarray) -> float:
    """Sum over steps of the joint-mean L1 distance between axis-angle
    velocities of prediction and ground truth."""
    y, z = _check_pair(y, z)
    wy = angular_velocity(y)
    wz = angular_velocity(z)
    return float(np.abs(wz - wy).sum(axis=-1).mean(axis=-1).sum())


def _fk_positions(p, tree, root):
    if root is not None:
        root = np.asarray(root, dtype=np.float64)
    return forward_kinematics(p, tree, root_position=root)


def loss_pos(y: np.ndarray, z: np.ndarray, tree: KinematicTree,
             root_y: np.ndarray = None, root_z: np.ndarray = None) -> float:
    """Mean squared L2 distance between forward-kinematics joint positions."""
    y, z = _check_pair(y, z)
    py = _fk_positions(y, tree, root_y)
    pz = _fk_positions(z, tree, root_z)
    return float((np.linalg.norm(py - pz, axis=-1) ** 2).mean())


def loss_vel(y: np.ndarray, z: np.ndarray, tree: KinematicTree,
             root_y: np.ndarray = None, root_z: np.ndarray = None) -> float:
    """Mean squared L2 distance between consecutive-frame position deltas."""
    y, z = _check_pair(y, z)
    if y.shape[0] < 2:
        raise ValueError("need at least two frames")
    vy = np.diff(_fk_positions(y, tree, root_y), axis=0)
    vz = np.diff(_fk_positions(z, tree, root_z), axis=0)
    return float((np.linalg.norm(vy - vz, axis=-1) ** 2).mean())


def total_loss(y: np.ndarray, z: np.ndarray,
               weights: LossWeights = LossWeights()) -> float:
    """alpha * loss_rot + beta * loss_ori + delta * loss_angvel_geo.

    Single-frame sequences have no velocity steps; that term is then an
    empty sum (zero).
    """
    y, z = _check_pair(y, z)
    geo = loss_angvel_geo(y, z) if y.shape[0] >= 2 else 0.0
    return (weights.alpha * loss_rot(y, z)
            + weights.beta * loss_ori(y, z)
            + weights.delta * geo)


# ---------------------------------------------------------------------------
# analytic gradient


def _log_map_adjoint(v, grad_w):
    """Map d loss/d omega (L-1, J, 3) to d loss/d V (L-1, J, 3, 3) for
    omega = log V.

    omega = k(theta) * s with s = vee(V - V^T) and k = theta/(2 sin theta),
    so dL/dV = k [u]x - (u.s) k'(theta) / (2 sin theta) * I with u = grad_w.
    Below theta = 1e-5 both coefficients take their Taylor series,
    k = 1/2 + theta^2/12 and k'/(2 sin theta) = 1/12 + theta^2/30. Within
    1e-5 of pi the log map has no derivative and this raises.
    """
    theta = geodesic_angle(v)
    near_pi = theta > np.pi - _THETA_MARGIN
    if np.any(near_pi):
        step, joint = np.argwhere(near_pi)[0]
        raise ValueError(
            f"gradient undefined: joint {joint} turns within {_THETA_MARGIN} "
            f"of pi between frames {step} and {step + 1}"
        )
    s = vee(v - np.swapaxes(v, -1, -2))
    u_dot_s = np.sum(grad_w * s, axis=-1)
    small = theta < _THETA_MARGIN
    t2 = theta ** 2
    sin_t = np.sin(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(small, 0.5 + t2 / 12.0, theta / (2.0 * sin_t))
        dk = (sin_t - theta * np.cos(theta)) / (2.0 * sin_t ** 2)
        coef = np.where(small, -u_dot_s * (1.0 / 12.0 + t2 / 30.0),
                        u_dot_s * dk / (-2.0 * sin_t))
    return k[..., None, None] * hat(grad_w) + coef[..., None, None] * np.eye(3)


def _gram_schmidt_with_jacobian(r):
    """Rotations R(r) from ``sixd_to_matrix``, which rejects degenerate 6D
    input, plus the (..., 3, 3, 6) Jacobian dR/dr."""
    rot = sixd_to_matrix(r)
    b1, b2 = rot[..., 0], rot[..., 1]
    a2 = r[..., 3:6]
    # the norms Gram-Schmidt divided by: |a1| and |a2 - (b1.a2) b1|
    n1 = np.linalg.norm(r[..., 0:3], axis=-1, keepdims=True)
    nu = np.linalg.norm(a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1,
                        axis=-1, keepdims=True)

    eye = np.broadcast_to(np.eye(3), b1.shape + (3,))
    outer = lambda x, y: x[..., :, None] * y[..., None, :]
    j_b1_a1 = (eye - outer(b1, b1)) / n1[..., None]
    du_db1 = -(outer(b1, a2) + np.sum(b1 * a2, axis=-1)[..., None, None] * eye)
    j_u_a1 = du_db1 @ j_b1_a1
    j_u_a2 = eye - outer(b1, b1)
    j_b2_u = (eye - outer(b2, b2)) / nu[..., None]
    j_b2_a1 = j_b2_u @ j_u_a1
    j_b2_a2 = j_b2_u @ j_u_a2
    hat_b1 = hat(b1)
    hat_b2 = hat(b2)
    j_b3_a1 = -hat_b2 @ j_b1_a1 + hat_b1 @ j_b2_a1
    j_b3_a2 = hat_b1 @ j_b2_a2

    jac = np.empty(r.shape[:-1] + (3, 3, 6))
    jac[..., :, 0, 0:3] = j_b1_a1
    jac[..., :, 0, 3:6] = 0.0
    jac[..., :, 1, 0:3] = j_b2_a1
    jac[..., :, 1, 3:6] = j_b2_a2
    jac[..., :, 2, 0:3] = j_b3_a1
    jac[..., :, 2, 3:6] = j_b3_a2
    return rot, jac


def grad_total_loss(y: np.ndarray, z: np.ndarray,
                    weights: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic d total_loss / d y, shape (L, J, 6).

    Chains through Gram-Schmidt, the relative rotation V_t = R_{t-1}^T R_t,
    and the SO(3) log map. L1 kinks contribute subgradient 0 at exact zeros.
    Still joints are fine; a predicted velocity angle within 1e-5 of pi
    raises ValueError naming the joint and frames.
    """
    y, z = _check_pair(y, z)
    length, joints, _ = y.shape
    grad = weights.alpha * np.sign(y - z) / y.size
    grad[:, 0] += weights.beta * np.sign(y[:, 0] - z[:, 0]) / (length * 6)
    if length < 2 or weights.delta == 0.0:
        return grad

    rot, jac = _gram_schmidt_with_jacobian(y)
    v = relative_rotation(rot[:-1], rot[1:])
    wy = matrix_to_log(v, validate=False)
    wz = angular_velocity(z)
    # term |wy - wz| enters as sum_t mean_j; subgradient sign(wy - wz)
    grad_w = weights.delta * np.sign(wy - wz) / joints
    grad_v = _log_map_adjoint(v, grad_w)

    # V = A^T B with A = R_{t-1}, B = R_t: dL/dA = B G^T, dL/dB = A G
    grad_rot = np.zeros_like(rot)
    grad_rot[:-1] += rot[1:] @ np.swapaxes(grad_v, -1, -2)
    grad_rot[1:] += rot[:-1] @ grad_v
    grad += np.einsum("ljab,ljabk->ljk", grad_rot, jac)
    return grad
