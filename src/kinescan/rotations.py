"""SO(3) utilities: 6D representation, log/exp maps, geodesic angle.

All functions accept arbitrary leading batch dimensions and compute in
float64. Rotation matrices have columns as basis vectors; a 6D value is
the first two columns stacked column-major, (a1, a2).
"""

import numpy as np

__all__ = [
    "DegenerateRotationError",
    "hat",
    "vee",
    "sixd_to_matrix",
    "matrix_to_sixd",
    "matrix_to_log",
    "exp_map",
    "relative_rotation",
    "geodesic_angle",
    "validate_rotation",
]

# below this, Gram-Schmidt inputs are rejected as degenerate
_GS_EPS = 1e-8
# log-map branch switch points
_SMALL_ANGLE = 1e-6
_NEAR_PI = 1e-4


class DegenerateRotationError(ValueError):
    """Raised for 6D inputs with no well-defined orthonormalization or
    matrices that are not rotations. ``index`` holds the leading-axis
    index of the first degenerate 6D value, () when there is none."""

    def __init__(self, message, index=()):
        super().__init__(message)
        self.index = index


def _first(mask):
    return tuple(int(i) for i in np.argwhere(mask)[0])


def sixd_to_matrix(r: np.ndarray) -> np.ndarray:
    """Gram-Schmidt a (..., 6) value into (..., 3, 3) rotation matrices.

    b1 = a1/|a1|, b2 = normalized component of a2 orthogonal to b1,
    b3 = b1 x b2. Scale-invariant in both input vectors.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] != 6:
        raise ValueError(f"expected trailing dimension 6, got shape {r.shape}")
    a1 = r[..., 0:3]
    a2 = r[..., 3:6]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    bad = n1[..., 0] < _GS_EPS
    if np.any(bad):
        raise DegenerateRotationError("first 6D vector has near-zero norm", _first(bad))
    b1 = a1 / n1
    u = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    nu = np.linalg.norm(u, axis=-1, keepdims=True)
    bad = nu[..., 0] < _GS_EPS
    if np.any(bad):
        raise DegenerateRotationError("second 6D vector is near-parallel to the first",
                                      _first(bad))
    b2 = u / nu
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def matrix_to_sixd(m: np.ndarray) -> np.ndarray:
    """First two columns of (..., 3, 3) matrices, flattened to (..., 6)."""
    m = np.asarray(m, dtype=np.float64)
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def validate_rotation(m: np.ndarray) -> np.ndarray:
    """Check orthonormality and det = +1 within 1e-6; returns the input as
    float64. Raises DegenerateRotationError otherwise."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrices, got shape {m.shape}")
    eye = np.eye(3)
    # NaN or Inf entries make NaN errors, which compare false: reject
    # unless both are within tolerance, and raise instead of warning
    with np.errstate(invalid="ignore"):
        ortho_err = np.abs(np.swapaxes(m, -1, -2) @ m - eye).max()
        det_err = np.abs(np.linalg.det(m) - 1.0).max()
    if not (ortho_err <= 1e-6 and det_err <= 1e-6):
        raise DegenerateRotationError(
            f"input is not a rotation (orthonormality error {ortho_err:.3g}, "
            f"determinant error {det_err:.3g})"
        )
    return m


def hat(w: np.ndarray) -> np.ndarray:
    """Cross-product matrices [w]x of (..., 3) vectors, so [w]x u = w x u."""
    o = np.zeros_like(w[..., 0])
    return np.stack(
        [
            np.stack([o, -w[..., 2], w[..., 1]], axis=-1),
            np.stack([w[..., 2], o, -w[..., 0]], axis=-1),
            np.stack([-w[..., 1], w[..., 0], o], axis=-1),
        ],
        axis=-2,
    )


def vee(k: np.ndarray) -> np.ndarray:
    """(K32, K13, K21) of (..., 3, 3) matrices; the inverse of ``hat`` on
    skew-symmetric input. ``vee(V - V^T)`` is the skew vector of V."""
    return np.stack([k[..., 2, 1], k[..., 0, 2], k[..., 1, 0]], axis=-1)


def matrix_to_log(v: np.ndarray, validate: bool = True) -> np.ndarray:
    """Axis-angle logarithm of (..., 3, 3) rotations, canonical |w| <= pi.

    The generic formula w = theta/(2 sin theta) * vee(V - V^T) is singular
    at theta = 0 and theta = pi, so:

    * theta < 1e-6: w = vee(V - V^T)/2 (leading term of the expansion);
    * pi - theta < 1e-4: axis recovered from the dominant diagonal of the
      symmetric part, sign fixed by the largest skew component (an exact
      half-turn picks the sign making the first nonzero axis entry positive).
    """
    v = validate_rotation(v) if validate else np.asarray(v, dtype=np.float64)
    trace = np.trace(v, axis1=-2, axis2=-1)
    cos_t = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_t)
    s = vee(v - np.swapaxes(v, -1, -2))

    small = theta < _SMALL_ANGLE
    near_pi = (np.pi - theta) < _NEAR_PI
    generic = ~(small | near_pi)

    out = 0.5 * s  # small-angle value; overwritten elsewhere
    if np.any(generic):
        th = theta[generic]
        out[generic] = (th / (2.0 * np.sin(th)))[..., None] * s[generic]
    if np.any(near_pi):
        out[near_pi] = _log_near_pi(v[near_pi], cos_t[near_pi], theta[near_pi], s[near_pi])
    return out


def _log_near_pi(v, cos_t, theta, s):
    # axis from nn^T = (sym(V) - cos(theta) I) / (1 - cos(theta)), which
    # stays well-conditioned where sin(theta) does not
    sym = 0.5 * (v + np.swapaxes(v, -1, -2))
    nnt = (sym - cos_t[..., None, None] * np.eye(3)) / (1.0 - cos_t)[..., None, None]
    diag = np.diagonal(nnt, axis1=-2, axis2=-1)
    k = np.argmax(diag, axis=-1)
    idx = np.arange(v.shape[0])
    axis = nnt[idx, :, k] / np.sqrt(np.maximum(diag[idx, k], np.finfo(float).tiny))[:, None]
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)

    j = np.argmax(np.abs(s), axis=-1)
    s_j = s[idx, j]
    have_sign = np.abs(s_j) > 1e-12
    flip = have_sign & (axis[idx, j] * s_j < 0.0)
    # exact half-turns have s = 0: canonicalize the antipodal pair instead
    for i in np.nonzero(~have_sign)[0]:
        nz = np.nonzero(np.abs(axis[i]) > 1e-12)[0]
        if nz.size and axis[i, nz[0]] < 0.0:
            flip[i] = True
    axis[flip] = -axis[flip]
    return theta[:, None] * axis


def exp_map(omega: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of (..., 3) axis-angle vectors."""
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape[-1] != 3:
        raise ValueError(f"expected trailing dimension 3, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValueError("exp_map requires finite input")
    theta = np.linalg.norm(omega, axis=-1)
    # sin(t)/t and (1-cos t)/t^2 via sinc, stable through t = 0
    k1 = np.sinc(theta / np.pi)
    k2 = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    k = hat(omega)
    return np.eye(3) + k1[..., None, None] * k + k2[..., None, None] * (k @ k)


def relative_rotation(r_prev: np.ndarray, r_curr: np.ndarray) -> np.ndarray:
    """r_prev^T r_curr, the rotation carrying r_prev onto r_curr."""
    r_prev = np.asarray(r_prev, dtype=np.float64)
    r_curr = np.asarray(r_curr, dtype=np.float64)
    return np.swapaxes(r_prev, -1, -2) @ r_curr


def geodesic_angle(v: np.ndarray) -> np.ndarray:
    """Rotation angle arccos((tr(V) - 1)/2) in [0, pi], batched."""
    v = np.asarray(v, dtype=np.float64)
    trace = np.trace(v, axis1=-2, axis2=-1)
    return np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))
