"""Training losses over 6D pose sequences, with an analytic gradient for the
weighted total.

A pose sequence is an (L, J, 6) array of per-joint 6D rotations. The total
objective is

    alpha * loss_rot + beta * loss_ori + delta * loss_angvel_geo

with fixed weights (alpha, beta, delta) = (1, 0.02, 1). Everything here
computes in float64.

The losses broadcast over leading axes of the prediction ``y``: a
(..., L, J, 6) batch against one (L, J, 6) target ``z`` gives an array of
losses over the leading axes, each bit-identical to its row's own call; a
single sequence gives a float. The gradient takes single sequences only.
"""

import numpy as np

from .rotations import (
    geodesic_angle,
    hat,
    matrix_to_log,
    relative_rotation,
    sixd_to_matrix,
    vee,
)

__all__ = [
    "loss_rot",
    "loss_ori",
    "angular_velocity",
    "loss_angvel_geo",
    "total_loss",
    "grad_total_loss",
]

# velocity angles below this take the log map's Taylor branch; within it
# of pi the gradient is undefined
_THETA_MARGIN = 1e-5

# weights of the rotation, root-orientation and angular-velocity terms
_ALPHA = 1.0
_BETA = 0.02
_DELTA = 1.0


def _pair_shapes(y, z, batched=False):
    """y and z as arrays of (L, J, 6) pose sequences, in their own dtype;
    with ``batched``, y may carry leading axes in front of z's shape."""
    y, z = np.asarray(y), np.asarray(z)
    if y.shape[max(y.ndim - 3, 0):] != z.shape or (y.ndim > 3 and not batched):
        raise ValueError(f"shape mismatch: {y.shape} vs {z.shape}")
    if z.ndim != 3 or z.shape[-1] != 6:
        raise ValueError(f"expected (L, J, 6) pose sequences, got {z.shape}")
    return y, z


def _check_pair(y, z, batched=False):
    """``_pair_shapes`` with y and z as float64."""
    y, z = _pair_shapes(y, z, batched)
    return y.astype(np.float64, copy=False), z.astype(np.float64, copy=False)


def _scalar(loss):
    """A float for one sequence, the array over y's leading axes otherwise."""
    return float(loss) if np.ndim(loss) == 0 else loss


def _rot(y, z):
    return np.abs(y - z).reshape(y.shape[:-3] + (-1,)).mean(-1)


def _ori(y, z):
    return np.abs(y[..., 0, :] - z[:, 0]).mean(axis=(-2, -1))


def loss_rot(y: np.ndarray, z: np.ndarray):
    """Mean absolute difference over all raw 6D components."""
    return _scalar(_rot(*_check_pair(y, z, batched=True)))


def loss_ori(y: np.ndarray, z: np.ndarray):
    """Mean absolute difference over the root joint's 6D components only."""
    return _scalar(_ori(*_check_pair(y, z, batched=True)))


def angular_velocity(p: np.ndarray) -> np.ndarray:
    """Per-joint axis-angle of V_t = R_{t-1}^T R_t, shape (..., L-1, J, 3)."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim < 3 or p.shape[-1] != 6 or p.shape[-3] < 2:
        raise ValueError(f"expected (L >= 2, J, 6) pose sequence, got {p.shape}")
    r = sixd_to_matrix(p)
    v = relative_rotation(r[..., :-1, :, :, :], r[..., 1:, :, :, :])
    # products of Gram-Schmidt outputs are orthonormal already
    return matrix_to_log(v, validate=False)


def loss_angvel_geo(y: np.ndarray, z: np.ndarray):
    """Sum over steps of the joint-mean L1 distance between axis-angle
    velocities of prediction and ground truth."""
    y, z = _check_pair(y, z, batched=True)
    return _scalar(_angvel_distance(angular_velocity(y), angular_velocity(z)))


def _angvel_distance(wy, wz):
    return np.abs(wz - wy).sum(-1).mean(-1).sum(-1)


def total_loss(y: np.ndarray, z: np.ndarray, wz: np.ndarray = None):
    """alpha * loss_rot + beta * loss_ori + delta * loss_angvel_geo.

    ``wz`` is the target's ``angular_velocity(z)`` when the caller already
    has it, so a fixed target computes it once. Single-frame sequences have
    no velocity steps; that term is then an empty sum (zero).
    """
    y, z = _check_pair(y, z, batched=True)
    geo = 0.0
    if len(z) >= 2:
        geo = _angvel_distance(angular_velocity(y),
                               angular_velocity(z) if wz is None else wz)
    return _scalar(_ALPHA * _rot(y, z) + _BETA * _ori(y, z) + _DELTA * geo)


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


def _gram_schmidt_vjp(r, rot, g):
    """Map d loss/d R (..., 3, 3) to d loss/d r (..., 6) for
    R = sixd_to_matrix(r), back through b3 = b1 x b2, then b2 = u/|u| with
    u = a2 - (b1.a2) b1, then b1 = a1/|a1|."""
    dot = lambda x, y: np.sum(x * y, axis=-1, keepdims=True)
    a1, a2 = r[..., 0:3], r[..., 3:6]
    b1, b2 = rot[..., 0], rot[..., 1]
    g_b1 = g[..., 0] + np.cross(b2, g[..., 2])
    g_b2 = g[..., 1] + np.cross(g[..., 2], b1)
    b1_a2 = dot(b1, a2)
    g_u = (g_b2 - dot(b2, g_b2) * b2) / np.linalg.norm(a2 - b1_a2 * b1, axis=-1,
                                                        keepdims=True)
    g_b1 -= b1_a2 * g_u + dot(b1, g_u) * a2
    g_a1 = (g_b1 - dot(b1, g_b1) * b1) / np.linalg.norm(a1, axis=-1, keepdims=True)
    return np.concatenate([g_a1, g_u - dot(b1, g_u) * b1], axis=-1)


def grad_total_loss(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Analytic d total_loss / d y, shape (L, J, 6).

    Chains through Gram-Schmidt, the relative rotation V_t = R_{t-1}^T R_t,
    and the SO(3) log map. L1 kinks contribute subgradient 0 at exact zeros.
    Still joints are fine; a predicted velocity angle within 1e-5 of pi
    raises ValueError naming the joint and frames.
    """
    y, z = _check_pair(y, z)
    length, joints, _ = y.shape
    grad = _ALPHA * np.sign(y - z) / y.size
    grad[:, 0] += _BETA * np.sign(y[:, 0] - z[:, 0]) / (length * 6)
    if length < 2:
        return grad

    rot = sixd_to_matrix(y)
    v = relative_rotation(rot[:-1], rot[1:])
    wy = matrix_to_log(v, validate=False)
    wz = angular_velocity(z)
    # term |wy - wz| enters as sum_t mean_j; subgradient sign(wy - wz)
    grad_w = _DELTA * np.sign(wy - wz) / joints
    grad_v = _log_map_adjoint(v, grad_w)

    # V = A^T B with A = R_{t-1}, B = R_t: dL/dA = B G^T, dL/dB = A G
    grad_rot = np.zeros_like(rot)
    grad_rot[:-1] += rot[1:] @ np.swapaxes(grad_v, -1, -2)
    grad_rot[1:] += rot[:-1] @ grad_v
    grad += _gram_schmidt_vjp(y, rot, grad_rot)
    return grad
