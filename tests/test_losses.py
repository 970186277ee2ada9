import numpy as np
import pytest

from kinescan.losses import (
    LossWeights,
    _log_map_adjoint,
    angular_velocity,
    grad_total_loss,
    loss_angvel_geo,
    loss_ori,
    loss_pos,
    loss_rot,
    loss_vel,
    total_loss,
)
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


def fd_grad(y, z, weights, h=1e-5):
    g = np.zeros_like(y)
    for idx in np.ndindex(y.shape):
        yp = y.copy()
        yp[idx] += h
        ym = y.copy()
        ym[idx] -= h
        g[idx] = (total_loss(yp, z, weights) - total_loss(ym, z, weights)) / (2 * h)
    return g


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.alpha, w.beta, w.delta) == (1.0, 0.02, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=-0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(delta=np.nan)


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


class TestPositionLosses:
    def test_pos_zero_for_identical(self, tree, rng):
        y = smooth_pose(rng, 3, 22, scale=0.2)
        assert loss_pos(y, y, tree) == 0.0

    def test_pos_equals_squared_root_offset(self, tree):
        y = identity_pose(3, 22)
        d = np.array([0.3, -0.1, 0.2])
        got = loss_pos(y, y, tree, root_y=d, root_z=np.zeros(3))
        assert got == pytest.approx(float(d @ d), abs=1e-12)

    def test_vel_ignores_constant_offset(self, tree, rng):
        y = smooth_pose(rng, 4, 22, scale=0.2)
        d = np.array([1.0, 2.0, 3.0])
        assert loss_vel(y, y, tree, root_y=d, root_z=np.zeros(3)) == \
            pytest.approx(0.0, abs=1e-18)

    def test_pos_matches_fk_loop(self, tree, rng):
        from kinescan.kinematics import forward_kinematics
        y = smooth_pose(rng, 3, 22, scale=0.2)
        z = smooth_pose(rng, 3, 22, scale=0.2)
        total = 0.0
        for l in range(3):
            py = forward_kinematics(y[l], tree)
            pz = forward_kinematics(z[l], tree)
            total += float(((py - pz) ** 2).sum(axis=-1).sum())
        assert loss_pos(y, z, tree) == pytest.approx(total / (3 * 22))


class TestTotalLoss:
    def test_recomposition(self, rng):
        y = smooth_pose(rng, 5, 6)
        z = smooth_pose(rng, 5, 6)
        w = LossWeights(alpha=1.0, beta=0.02, delta=1.0)
        expected = (w.alpha * loss_rot(y, z) + w.beta * loss_ori(y, z)
                    + w.delta * loss_angvel_geo(y, z))
        assert abs(total_loss(y, z, w) - expected) <= 1e-12

    def test_affine_in_delta(self, rng):
        y = smooth_pose(rng, 5, 6)
        z = smooth_pose(rng, 5, 6)
        base = total_loss(y, z, LossWeights(delta=1.0))
        more = total_loss(y, z, LossWeights(delta=2.0))
        assert more - base == pytest.approx(loss_angvel_geo(y, z), abs=1e-12)

    def test_single_frame_drops_velocity_term(self):
        y = identity_pose(1, 3) + 0.5
        z = identity_pose(1, 3)
        assert total_loss(y, z) == pytest.approx(
            loss_rot(y, z) + 0.02 * loss_ori(y, z))


class TestGradient:
    def test_zero_at_equality(self, rng):
        y = smooth_pose(rng, 4, 3)
        g = grad_total_loss(y, y)
        np.testing.assert_array_equal(g, np.zeros_like(y))

    def test_matches_finite_differences(self):
        rng = make_rng(12)
        y = smooth_pose(rng, 4, 3) + 0.1 * rng.standard_normal((4, 3, 6))
        z = smooth_pose(rng, 4, 3)
        assert np.abs(y - z).min() > 1e-4  # away from L1 kinks
        w = LossWeights(alpha=1.0, beta=0.5, delta=1.0)
        got = grad_total_loss(y, z, w)
        want = fd_grad(y, z, w)
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-4 * scale

    def test_rot_only_gradient_is_scaled_sign(self, rng):
        y = smooth_pose(rng, 3, 4)
        z = smooth_pose(rng, 3, 4)
        g = grad_total_loss(y, z, LossWeights(alpha=2.0, beta=0.0, delta=0.0))
        np.testing.assert_allclose(g, 2.0 * np.sign(y - z) / y.size)

    def test_ori_gradient_confined_to_root(self, rng):
        y = smooth_pose(rng, 3, 4)
        z = smooth_pose(rng, 3, 4)
        g = grad_total_loss(y, z, LossWeights(alpha=0.0, beta=1.0, delta=0.0))
        assert np.abs(g[:, 1:]).max() == 0.0
        assert np.abs(g[:, 0]).max() > 0.0

    def _check_against_fd(self, y, z):
        assert np.abs(y - z).min() > 1e-4  # away from L1 kinks
        w = LossWeights(alpha=1.0, beta=0.5, delta=1.0)
        got = grad_total_loss(y, z, w)
        want = fd_grad(y, z, w)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()

    def test_still_prediction_matches_finite_differences(self):
        # every frame-to-frame angle is 0: the log map's Taylor branch
        rng = make_rng(21)
        y = np.repeat(1.3 * smooth_pose(rng, 1, 3), 4, axis=0)
        self._check_against_fd(y, smooth_pose(rng, 4, 3))

    def test_near_still_prediction_matches_finite_differences(self):
        # 3e-6 rad per frame, inside the Taylor branch but not zero
        rng = make_rng(22)
        start = rng.uniform(-1.0, 1.0, size=(1, 3, 3))
        axis = rng.standard_normal((1, 3, 3))
        axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
        steps = start + 3e-6 * axis * np.arange(4)[:, None, None]
        y = 1.3 * matrix_to_sixd(exp_map(steps))
        self._check_against_fd(y, smooth_pose(rng, 4, 3))

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
