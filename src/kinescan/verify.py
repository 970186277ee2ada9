"""Cross-module property suite: every check pits library output against an
independent oracle (brute-force recurrence, homogeneous-matrix chains,
central finite differences, hand-derived fixtures) and reports pass/fail.

Each check is deterministic given its seed, so a pass is reproducible."""

import inspect
from dataclasses import dataclass

import numpy as np

from . import kinematics, losses, model, rotations, ssd
from .kinematics import NUM_JOINTS
from .metrics import jitter as _jitter
from .metrics import metrics as _metrics
from .synthetic import synthetic_pose

__all__ = ["PropertyResult", "run_all", "CHECKS"]

# independent copies of the printed scan orders, kept here so a corrupted
# constant in the kinematics module is caught byte-for-byte
_FKS_EXPECTED = (
    0, 1, 4, 7, 10,
    0, 2, 5, 8, 11,
    0, 3, 6, 9, 13, 16, 18, 20,
    0, 3, 6, 9, 12, 15,
    0, 3, 6, 9, 14, 17, 19, 21,
)
_UKS_EXPECTED = (
    21, 19, 17, 14, 15, 12, 20, 18, 16, 13, 9, 6, 3, 0,
    1, 4, 7, 10, 2, 5, 8, 11,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _rel_err(a, b):
    scale = max(np.abs(b).max(), 1e-30)
    return np.abs(a - b).max() / scale


def check_ssd_duality(seed=0):
    """Recurrence, semiseparable matrix, and chunked scan agree to 1e-5."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(1, 129))
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 5))
        params = ssd.SsdParams(
            a=rng.uniform(0.0, 1.0, size=t),
            b=rng.standard_normal((t, n)),
            c=rng.standard_normal((t, n)),
            x=rng.standard_normal((t, p)),
        )
        y_rec = ssd.ssm_recurrence(params)
        y_mat = ssd.ssd_matrix_form(params)
        worst = max(worst, _rel_err(y_mat, y_rec))
        for chunk in (1, 7, 16, t):
            worst = max(worst, _rel_err(ssd.chunked_scan(params, chunk=chunk), y_rec))
        if worst > 1e-5:
            return False, f"relative error {worst:.3g} exceeds 1e-5"
    return True, f"200 instances, worst relative error {worst:.3g}"


def check_causality(seed=0):
    """Future-input truncation leaves past forward outputs bit-identical,
    and past-input truncation leaves future backward outputs bit-identical."""
    sequences, frames, width = 50, 32, 12
    rng = np.random.Generator(np.random.PCG64(seed))
    config = model.ModelConfig(
        n_tfm=1, m_skfm=0, embed_dim=width, joint_dim=4, seq_len=frames,
        gma_hidden=16, gma_heads=2, ssd_state=4, conv_width=3, seed=seed,
    )
    weights = model.init_weights(config)
    for i in range(sequences):
        p = rng.standard_normal((frames, width)).astype(np.float32)
        cut = int(rng.integers(1, frames))
        f_f, f_b = model.bi_ssd(p, weights, "tfm0.")
        q = p.copy()
        q[cut:] = rng.standard_normal((frames - cut, width)).astype(np.float32)
        g_f, _ = model.bi_ssd(q, weights, "tfm0.")
        if not np.array_equal(f_f[:cut], g_f[:cut]):
            return False, f"forward branch leaked future input (sequence {i})"
        r = p.copy()
        r[:cut] = rng.standard_normal((cut, width)).astype(np.float32)
        _, h_b = model.bi_ssd(r, weights, "tfm0.")
        if not np.array_equal(f_b[cut:], h_b[cut:]):
            return False, f"backward branch leaked past input (sequence {i})"
    return True, f"{sequences} sequences bit-identical on both branches"


def check_rotation_roundtrip(seed=0):
    """exp(log(R)) = R within 1e-7 Frobenius, including near-singular angles;
    Gram-Schmidt outputs orthonormal within 1e-9."""
    count = 10000
    rng = np.random.Generator(np.random.PCG64(seed))
    axes = rng.standard_normal((count, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    theta = rng.uniform(0.0, np.pi, size=count)
    special = np.array([1e-9, 1e-6, np.pi - 1e-6, np.pi])
    theta[: special.size] = special
    r = rotations.exp_map(axes * theta[:, None])
    back = rotations.exp_map(rotations.matrix_to_log(r))
    worst = np.linalg.norm(back - r, axis=(1, 2)).max()
    if worst > 1e-7:
        return False, f"round-trip Frobenius error {worst:.3g} exceeds 1e-7"

    six = rng.standard_normal((count, 6))
    mats = rotations.sixd_to_matrix(six)
    eye = np.eye(3)
    ortho = np.abs(np.swapaxes(mats, -1, -2) @ mats - eye).max()
    det = np.abs(np.linalg.det(mats) - 1.0).max()
    if ortho > 1e-9 or det > 1e-9:
        return False, f"Gram-Schmidt orthonormality error {max(ortho, det):.3g}"
    return True, f"{count} round-trips, worst {worst:.3g}; orthonormality {ortho:.3g}"


def check_scan_orders():
    """Byte-exact scan-order constants and the FKS parent-edge property."""
    orders = kinematics.SCAN_ORDERS
    if orders["fks"] != _FKS_EXPECTED:
        return False, "FKS order does not match the printed 32-entry list"
    if orders["uks"] != _UKS_EXPECTED:
        return False, "UKS order does not match the printed 22-entry list"
    if orders["index"] != tuple(range(NUM_JOINTS)):
        return False, "index order is not 0..21"
    tree = kinematics.default_tree()
    fwd = orders["fks"]
    for k in range(len(fwd) - 1):
        nxt = fwd[k + 1]
        if nxt != 0 and tree.parent[nxt] != fwd[k]:
            return False, f"FKS pair ({fwd[k]}, {nxt}) is not a parent-child edge"
    return True, "orders byte-exact; FKS adjacency holds on the bundled skeleton"


def _fk_oracle(pose_mats, tree, root_position):
    """Forward kinematics via explicit 4x4 homogeneous chains, built in
    index order from the root, joint 0."""
    mats = []
    for j, p in enumerate(tree.parent):
        step = np.eye(4)
        step[:3, :3] = pose_mats[j]
        step[:3, 3] = root_position if j == 0 else tree.offset[j]
        mats.append(step if j == 0 else mats[p] @ step)
    return np.stack([m[:3, 3] for m in mats])


def check_fk_oracle(seed=0):
    """Library FK vs homogeneous chains (1e-9), bone lengths, and rigid
    invariance under a global root rotation."""
    rng = np.random.Generator(np.random.PCG64(seed))
    tree = kinematics.default_tree()
    worst = 0.0
    for _ in range(100):
        mats = rotations.sixd_to_matrix(rotations.matrix_to_sixd(
            rotations.exp_map(rng.uniform(-np.pi, np.pi, size=(NUM_JOINTS, 3)) * 0.9)
        ))
        root = rng.standard_normal(3)
        pos = kinematics.forward_kinematics(mats, tree, root_position=root)
        oracle = _fk_oracle(mats, tree, root)
        worst = max(worst, np.abs(pos - oracle).max())
        if worst > 1e-9:
            return False, f"FK differs from homogeneous oracle by {worst:.3g}"
        for j, p in enumerate(tree.parent[1:], start=1):
            bone = np.linalg.norm(pos[j] - pos[p])
            if abs(bone - np.linalg.norm(tree.offset[j])) > 1e-9:
                return False, f"bone length not preserved at joint {j}"
        # rotating the root rotates all positions about root_position
        q = rotations.exp_map(rng.standard_normal(3))
        mats[0] = q @ mats[0]
        rotated = kinematics.forward_kinematics(mats, tree, root_position=root)
        expected = (pos - root) @ q.T + root
        if np.abs(rotated - expected).max() > 1e-9:
            return False, "rigid invariance violated"
    return True, f"100 poses, worst oracle deviation {worst:.3g}"


def _fd_gradient(y, z):
    """Central differences of total_loss at h = 1e-5, and ``kink_mask`` at that
    h: row i of ``steps`` moves entry i of y by h; each side is one batched call."""
    h = 1e-5
    steps = h * np.eye(y.size).reshape((y.size,) + y.shape)
    lp = losses.total_loss(y + steps, z)
    lm = losses.total_loss(y - steps, z)
    return ((lp - lm) / (2.0 * h)).reshape(y.shape), kink_mask(y, z, h)


def kink_mask(y, z, h):
    """Components whose FD stencil of width 2h stays clear of L1 kinks.

    The rot/ori terms kink where a raw component of y - z crosses zero; the
    angular-velocity term kinks where a component of wy - wz crosses zero,
    which a perturbation of either adjacent frame can trigger.
    """
    clear = np.abs(y - z) > 2 * h
    wd = np.abs(losses.angular_velocity(y) - losses.angular_velocity(z))
    near_step = (wd < 20 * h).any(axis=-1)  # (L-1, J)
    near_frame = np.zeros(y.shape[:2], dtype=bool)
    near_frame[:-1] |= near_step
    near_frame[1:] |= near_step
    return clear & ~near_frame[..., None]


def _grad_pairs(seed):
    """20 smooth (prediction, target) pairs of 5 frames x 4 joints, then a
    still and a near-still (3e-6 rad/frame) prediction, whose frame-to-frame
    angles take the log map's small-angle branch."""
    trials, frames, joints = 20, 5, 4
    for trial in range(trials):
        yield (synthetic_pose(seed + 2 * trial, frames)[:, :joints],
               synthetic_pose(seed + 2 * trial + 1, frames)[:, :joints])
    rng = np.random.Generator(np.random.PCG64(seed))
    start = rng.uniform(-1.0, 1.0, size=(1, joints, 3))
    z = synthetic_pose(seed + 2 * trials, frames)[:, :joints]
    still = rotations.matrix_to_sixd(rotations.exp_map(start))
    yield np.repeat(still, frames, axis=0), z
    axis = rng.standard_normal((1, joints, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    steps = start + 3e-6 * axis * np.arange(frames)[:, None, None]
    yield rotations.matrix_to_sixd(rotations.exp_map(steps)), z


def check_grad(seed=0):
    """Analytic gradient vs central finite differences on smooth inputs and
    on a still and a near-still prediction."""
    worst_clear = 0.0
    fracs = []
    for y, z in _grad_pairs(seed):
        g = losses.grad_total_loss(y, z)
        fd, clear = _fd_gradient(y, z)
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-10)
        fracs.append(float((rel <= 1e-4).mean()))
        if clear.any():
            worst_clear = max(worst_clear, float(rel[clear].max()))
    frac_ok = float(np.mean(fracs))
    if frac_ok < 0.99:
        return False, f"only {frac_ok:.1%} of components within 1e-4"
    if worst_clear > 1e-2:
        return False, f"worst kink-free relative error {worst_clear:.3g} exceeds 1e-2"
    return True, (
        f"20 smooth + still + near-still sequences, {frac_ok:.1%} within "
        f"1e-4, worst kink-free relative error {worst_clear:.3g}"
    )


def check_loss_recomposition(seed=0):
    """total_loss equals 1*rot + 0.02*ori + 1*angvel_geo to 1e-12."""
    for trial in range(5):
        y = synthetic_pose(seed + 2 * trial, 8)
        z = synthetic_pose(seed + 2 * trial + 1, 8)
        total = losses.total_loss(y, z)
        recomposed = (
            1.0 * losses.loss_rot(y, z)
            + 0.02 * losses.loss_ori(y, z)
            + 1.0 * losses.loss_angvel_geo(y, z)
        )
        if abs(total - recomposed) > 1e-12:
            return False, f"recomposition differs by {abs(total - recomposed):.3g}"
    return True, "5 random pairs recompose within 1e-12"


def check_metric_fixtures():
    """Identity pair -> zeros; linear motion -> zero jitter; the cubic
    path p = (t/fps)^3 -> jitter 0.06 in 10^2 m/s^3 at any rate, here 60."""
    fps = 60.0
    tree = kinematics.default_tree()
    pose = synthetic_pose(7, 8)
    rep = _metrics(pose, pose, tree, fps=fps)
    for key in ("mpjre_deg", "mpjpe_cm", "mpjve_cm_s"):
        if abs(getattr(rep, key)) > 1e-9:
            return False, f"identity pair gives nonzero {key}"

    t = np.arange(8)[:, None, None]
    linear = np.broadcast_to(t * np.array([0.01, 0.0, 0.0]), (8, NUM_JOINTS, 3))
    if abs(_jitter(linear, fps)) > 1e-9:
        return False, "linear motion has nonzero jitter"

    cubic = np.zeros((8, 1, 3))
    cubic[:, 0, 0] = (np.arange(8) / fps) ** 3
    if abs(_jitter(cubic, fps) - 0.06) > 1e-6:
        return False, f"cubic jitter {_jitter(cubic, fps):.8f} != 0.06"
    return True, "identity zeros, linear jitter 0, cubic jitter 0.06"


CHECKS = [
    ("ssd_duality", check_ssd_duality),
    ("causality", check_causality),
    ("rotation_roundtrip", check_rotation_roundtrip),
    ("scan_orders", check_scan_orders),
    ("fk_oracle", check_fk_oracle),
    ("gradient_check", check_grad),
    ("loss_recomposition", check_loss_recomposition),
    ("metric_fixtures", check_metric_fixtures),
]


def run_all(seed: int = 0) -> list:
    """Run every property check; results in declaration order."""
    results = []
    for name, fn in CHECKS:
        kwargs = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
        try:
            passed, detail = fn(**kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(PropertyResult(name=name, passed=bool(passed), detail=detail))
    return results
