import numpy as np
import pytest

import kinescan.losses as losses_mod
from kinescan.kinematics import default_tree
from kinescan.losses import (
    _gram_schmidt_vjp,
    _log_map_adjoint,
    angular_velocity,
    grad_total_loss,
    loss_angvel_geo,
    loss_ori,
    loss_rot,
    total_loss,
)
from kinescan.metrics import metrics
from kinescan.rotations import (
    DegenerateRotationError,
    exp_map,
    matrix_to_sixd,
    sixd_to_matrix,
)

from conftest import make_rng


def identity_pose(frames, joints):
    pose = np.zeros((frames, joints, 6))
    pose[..., 0] = 1.0
    pose[..., 4] = 1.0
    return pose


def spinning_pose(frames, joints, step, axis=(0.0, 0.0, 1.0)):
    """All joints rotate about a fixed axis by `step` radians per frame."""
    w = np.outer(np.arange(frames), np.asarray(axis) * step)
    r = exp_map(w)
    return np.repeat(matrix_to_sixd(r)[:, None, :], joints, axis=1)


def smooth_pose(rng, frames, joints, scale=0.4):
    w = rng.uniform(-1.0, 1.0, size=(1, joints, 3))
    drift = rng.uniform(-scale, scale, size=(1, joints, 3))
    steps = w + drift * np.arange(frames)[:, None, None]
    return matrix_to_sixd(exp_map(steps))


def set_weights(monkeypatch, alpha, beta, delta):
    """Patch the fixed loss weights for one test."""
    for name, value in (("_ALPHA", alpha), ("_BETA", beta), ("_DELTA", delta)):
        monkeypatch.setattr(losses_mod, name, value)


def fd_grad(y, z, h=1e-5):
    g = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        yp = y.copy()
        yp[idx] += h
        ym = y.copy()
        ym[idx] -= h
        g[idx] = (total_loss(yp, z) - total_loss(ym, z)) / (2 * h)
    return g


class TestElementwiseLosses:
    def test_rot_constant_offset(self):
        z = identity_pose(4, 22)
        assert loss_rot(z + 0.5, z) == pytest.approx(0.5)

    def test_rot_zero_at_equality(self):
        z = identity_pose(4, 22)
        assert loss_rot(z, z) == 0.0

    def test_ori_sees_only_root(self):
        z = identity_pose(4, 22)
        y = z.copy()
        y[:, 0] += 1.0
        assert loss_ori(y, z) == pytest.approx(1.0)
        assert loss_rot(y, z) == pytest.approx(1.0 / 22.0)
        y2 = z.copy()
        y2[:, 5] += 9.0
        assert loss_ori(y2, z) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_rot(identity_pose(4, 22), identity_pose(5, 22))
        with pytest.raises(ValueError):
            loss_rot(np.zeros((4, 22, 5)), np.zeros((4, 22, 5)))


class TestAngularVelocity:
    def test_constant_spin_rate(self):
        pose = spinning_pose(6, 3, np.pi / 8)
        w = angular_velocity(pose)
        assert w.shape == (5, 3, 3)
        np.testing.assert_allclose(
            w, np.broadcast_to([0.0, 0.0, np.pi / 8], (5, 3, 3)), atol=1e-12)

    def test_static_sequence_is_zero(self):
        w = angular_velocity(identity_pose(5, 4))
        np.testing.assert_allclose(w, 0.0, atol=1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            angular_velocity(identity_pose(1, 4))


class TestVelocityLosses:
    def test_geo_static_vs_spinning(self):
        frames = 7
        y = spinning_pose(frames, 4, np.pi / 8)
        z = identity_pose(frames, 4)
        assert loss_angvel_geo(y, z) == pytest.approx((frames - 1) * np.pi / 8,
                                                      abs=1e-9)

    def test_geo_equal_motion_is_zero(self, rng):
        y = smooth_pose(rng, 6, 5)
        assert loss_angvel_geo(y, y) == 0.0

    def test_geo_invariant_to_global_rotation(self, rng):
        y = smooth_pose(rng, 6, 5)
        z = smooth_pose(rng, 6, 5)
        q = exp_map(rng.standard_normal(3))
        y2 = matrix_to_sixd(q @ sixd_to_matrix(y))
        z2 = matrix_to_sixd(q @ sixd_to_matrix(z))
        assert loss_angvel_geo(y2, z2) == pytest.approx(loss_angvel_geo(y, z),
                                                        abs=1e-9)


class TestTotalLoss:
    def test_recomposition(self, rng):
        y = smooth_pose(rng, 5, 6)
        z = smooth_pose(rng, 5, 6)
        expected = (1.0 * loss_rot(y, z) + 0.02 * loss_ori(y, z)
                    + 1.0 * loss_angvel_geo(y, z))
        assert abs(total_loss(y, z) - expected) <= 1e-12

    def test_affine_in_delta(self, rng, monkeypatch):
        y = smooth_pose(rng, 5, 6)
        z = smooth_pose(rng, 5, 6)
        base = total_loss(y, z)
        monkeypatch.setattr(losses_mod, "_DELTA", 2.0)
        more = total_loss(y, z)
        assert more - base == pytest.approx(loss_angvel_geo(y, z), abs=1e-12)

    def test_single_frame_drops_velocity_term(self):
        y = identity_pose(1, 3) + 0.5
        z = identity_pose(1, 3)
        assert total_loss(y, z) == pytest.approx(
            loss_rot(y, z) + 0.02 * loss_ori(y, z))

    @pytest.mark.parametrize("frames", [1, 2, 5])
    def test_precomputed_target_velocity_bit_for_bit(self, rng, frames):
        y = smooth_pose(rng, frames, 6)
        z = smooth_pose(rng, frames, 6)
        # a single frame has an empty velocity sequence
        wz = angular_velocity(z) if frames >= 2 else np.zeros((0, 6, 3))
        assert total_loss(y, z, wz) == total_loss(y, z)
        assert total_loss(y, z, None) == total_loss(y, z)


def _total_with_wz(y, z):
    # a single frame has an empty velocity sequence
    wz = angular_velocity(z) if len(z) >= 2 else np.zeros((0,) + z.shape[1:-1] + (3,))
    return total_loss(y, z, wz)


BROADCAST_LOSSES = {
    "rot": loss_rot,
    "ori": loss_ori,
    "angvel_geo": loss_angvel_geo,
    "total": total_loss,
    "total_with_wz": _total_with_wz,
}


def noisy_batch(seed, rows, frames):
    """A (rows, frames, 22, 6) batch of noisy smooth poses and one target."""
    rng = make_rng(seed)
    z = smooth_pose(rng, frames, 22)
    y = np.stack([smooth_pose(rng, frames, 22) for _ in range(rows)])
    return y + 0.05 * rng.standard_normal(y.shape), z


class TestBroadcastLosses:
    @pytest.mark.parametrize("frames", [24, 1])
    @pytest.mark.parametrize("name", sorted(BROADCAST_LOSSES))
    def test_batch_equals_per_row_calls_bit_for_bit(self, name, frames):
        fn = BROADCAST_LOSSES[name]
        y, z = noisy_batch(frames, 3, frames)
        if name == "angvel_geo" and frames == 1:
            with pytest.raises(ValueError):
                fn(y, z)
            return
        got = fn(y, z)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        rows = [fn(row, z) for row in y]
        assert all(isinstance(v, float) for v in rows)
        assert [float(v).hex() for v in got] == [v.hex() for v in rows]

    def test_two_leading_axes(self):
        y, z = noisy_batch(5, 6, 24)
        got = total_loss(y.reshape((2, 3) + y.shape[1:]), z)
        assert got.shape == (2, 3)
        assert [float(v).hex() for v in got.ravel()] == \
            [total_loss(row, z).hex() for row in y]

    def test_angular_velocity_batch_equals_rows_bit_for_bit(self):
        y, _ = noisy_batch(6, 3, 24)
        got = angular_velocity(y)
        assert got.shape == (3, 23, 22, 3)
        for row, want in zip(got, (angular_velocity(r) for r in y)):
            assert row.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(BROADCAST_LOSSES))
    def test_trailing_shape_mismatch_raises(self, name):
        fn = BROADCAST_LOSSES[name]
        y, z = noisy_batch(7, 3, 24)
        with pytest.raises(ValueError, match="shape mismatch"):
            fn(y[:, :, :21], z)
        with pytest.raises(ValueError, match="shape mismatch"):
            fn(y[:, :23], z)

    def test_gradient_and_metrics_take_one_sequence(self):
        y, z = noisy_batch(8, 2, 6)
        with pytest.raises(ValueError, match="shape mismatch"):
            grad_total_loss(y, z)
        with pytest.raises(ValueError, match="shape mismatch"):
            metrics(y, z, default_tree())


class TestGradient:
    def test_zero_at_equality(self, rng):
        y = smooth_pose(rng, 4, 3)
        g = grad_total_loss(y, y)
        np.testing.assert_array_equal(g, np.zeros_like(y))

    def test_matches_finite_differences(self, monkeypatch):
        set_weights(monkeypatch, alpha=1.0, beta=0.5, delta=1.0)
        rng = make_rng(12)
        y = smooth_pose(rng, 4, 3) + 0.1 * rng.standard_normal((4, 3, 6))
        z = smooth_pose(rng, 4, 3)
        assert np.abs(y - z).min() > 1e-4  # away from L1 kinks
        got = grad_total_loss(y, z)
        want = fd_grad(y, z)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-4 * scale

    def test_rot_only_gradient_is_scaled_sign(self, rng, monkeypatch):
        y = smooth_pose(rng, 3, 4)
        z = smooth_pose(rng, 3, 4)
        set_weights(monkeypatch, alpha=2.0, beta=0.0, delta=0.0)
        g = grad_total_loss(y, z)
        np.testing.assert_allclose(g, 2.0 * np.sign(y - z) / y.size)

    def test_ori_gradient_confined_to_root(self, rng, monkeypatch):
        y = smooth_pose(rng, 3, 4)
        z = smooth_pose(rng, 3, 4)
        set_weights(monkeypatch, alpha=0.0, beta=1.0, delta=0.0)
        g = grad_total_loss(y, z)
        assert np.abs(g[:, 1:]).max() == 0.0
        assert np.abs(g[:, 0]).max() > 0.0

    def _check_against_fd(self, monkeypatch, y, z):
        set_weights(monkeypatch, alpha=1.0, beta=0.5, delta=1.0)
        assert np.abs(y - z).min() > 1e-4  # away from L1 kinks
        got = grad_total_loss(y, z)
        want = fd_grad(y, z)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    def test_still_prediction_matches_finite_differences(self, monkeypatch):
        # every frame-to-frame angle is 0: the log map's Taylor branch
        rng = make_rng(21)
        y = np.repeat(1.3 * smooth_pose(rng, 1, 3), 4, axis=0)
        self._check_against_fd(monkeypatch, y, smooth_pose(rng, 4, 3))

    def test_near_still_prediction_matches_finite_differences(self, monkeypatch):
        # 3e-6 rad per frame, inside the Taylor branch but not zero
        rng = make_rng(22)
        start = rng.uniform(-1.0, 1.0, size=(1, 3, 3))
        axis = rng.standard_normal((1, 3, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        steps = start + 3e-6 * axis * np.arange(4)[:, None, None]
        y = 1.3 * matrix_to_sixd(exp_map(steps))
        self._check_against_fd(monkeypatch, y, smooth_pose(rng, 4, 3))

    def test_adjoint_continuous_across_taylor_switch(self):
        # the identity part carries k'/(2 sin theta), which is O(theta) in the
        # gradient and invisible to finite differences of the loss
        rng = make_rng(23)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        u = rng.standard_normal((1, 1, 3))
        parts = []
        for theta in (0.999e-5, 1.001e-5):  # Taylor branch, closed form
            adj = _log_map_adjoint(exp_map(theta * axis)[None, None], u)[0, 0]
            parts.append((np.trace(adj) / 3.0, adj - np.trace(adj) / 3.0 * np.eye(3)))
        (c_lo, k_lo), (c_hi, k_hi) = parts
        assert c_lo != 0.0
        assert c_lo / c_hi == pytest.approx(1.0, abs=5e-3)
        np.testing.assert_allclose(k_lo, k_hi, rtol=1e-6, atol=1e-12)

    def test_half_turn_step_raises_naming_joint_and_frames(self):
        y = spinning_pose(4, 2, 0.2)
        y[2:, 1] = matrix_to_sixd(exp_map(np.array([np.pi, 0.0, 0.0])))
        with pytest.raises(ValueError, match="joint 1 .* frames 1 and 2"):
            grad_total_loss(y, spinning_pose(4, 2, 0.3))

    def test_shape(self, rng):
        y = smooth_pose(rng, 4, 5)
        z = smooth_pose(rng, 4, 5)
        assert grad_total_loss(y, z).shape == (4, 5, 6)

    @pytest.mark.parametrize("case", ["zero_first", "parallel_second"])
    def test_degenerate_prediction_raises_naming_frame_and_joint(self, rng, case):
        # the same rejection total_loss makes, not a non-finite gradient
        y = smooth_pose(rng, 4, 3)
        if case == "zero_first":
            y[2, 1, :3] = 0.0
        else:
            y[2, 1, 3:] = -2.5 * y[2, 1, :3]
        z = smooth_pose(rng, 4, 3)
        with pytest.raises(DegenerateRotationError) as total_err:
            total_loss(y, z)
        with pytest.raises(DegenerateRotationError) as grad_err:
            grad_total_loss(y, z)
        assert grad_err.value.index == total_err.value.index == (2, 1)


def gram_schmidt_fd(r, g, h):
    """Central differences of sum(g * sixd_to_matrix(r)) in each of the six
    components of r."""
    out = np.zeros_like(r)
    for k in range(6):
        step = np.zeros(6)
        step[k] = h
        diff = sixd_to_matrix(r + step) - sixd_to_matrix(r - step)
        out[..., k] = np.sum(g * diff, axis=(-2, -1)) / (2 * h)
    return out


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def sixd_inputs(case, n=64, seed=11):
    """(n, 6) values: plain random ones, or a first vector of norm 1e-3, or a
    second vector 0.5e-3 to 1e-3 rad from the first."""
    rng = make_rng(seed)
    r = rng.standard_normal((n, 6))
    if case == "short_first":
        r[:, :3] = 1e-3 * unit(r[:, :3])
    elif case == "near_parallel":
        a1, a2 = r[:, :3], r[:, 3:]
        ortho = unit(a2 - np.sum(a2 * unit(a1), axis=-1, keepdims=True) * unit(a1))
        angle = rng.uniform(0.5e-3, 1e-3, size=(n, 1))
        scale = rng.uniform(0.5, 2.0, size=(n, 1))
        r[:, 3:] = scale * (np.cos(angle) * unit(a1) + np.sin(angle) * ortho)
    return r


class TestGramSchmidtVjp:
    # finite-difference steps: 1e-6 of |a1| in the first two cases; near
    # parallel, Gram-Schmidt itself is only accurate to eps / sin(angle), so
    # the step trades that rounding against truncation at |u| ~ 1e-3
    CASES = {"random": 1e-6, "short_first": 1e-9, "near_parallel": 5e-8}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_central_differences(self, case):
        r = sixd_inputs(case)
        g = make_rng(12).standard_normal((len(r), 3, 3))
        got = _gram_schmidt_vjp(r, sixd_to_matrix(r), g)
        want = gram_schmidt_fd(r, g, self.CASES[case])
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-6 * scale)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_invariances(self, case):
        # R ignores a1's length, and a2 only through its part along b2, so
        # dL/da1 is orthogonal to a1 and dL/da2 lies along b3; near parallel,
        # the computed b1 and b2 are orthogonal only to about 1e-12
        r = sixd_inputs(case)
        rot = sixd_to_matrix(r)
        got = _gram_schmidt_vjp(r, rot, make_rng(13).standard_normal((len(r), 3, 3)))
        g_a1, g_a2 = got[:, :3], got[:, 3:]
        a1_part = np.abs(np.sum(g_a1 * unit(r[:, :3]), axis=-1))
        assert np.all(a1_part <= 1e-10 * np.linalg.norm(g_a1, axis=-1))
        off_b3 = np.linalg.norm(np.cross(g_a2, rot[..., 2]), axis=-1)
        assert np.all(off_b3 <= 1e-10 * np.linalg.norm(g_a2, axis=-1))
