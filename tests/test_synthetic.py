import numpy as np
import pytest

from kinescan.kinematics import TRACKED_JOINTS, forward_kinematics
from kinescan.rotations import matrix_to_sixd, sixd_to_matrix, validate_rotation
from kinescan.synthetic import gen_synthetic, sparse_from_pose, synthetic_pose


class TestSyntheticPose:
    def test_deterministic_in_seed(self):
        a = synthetic_pose(seed=4, frames=10)
        b = synthetic_pose(seed=4, frames=10)
        assert np.array_equal(a, b)
        c = synthetic_pose(seed=5, frames=10)
        assert not np.array_equal(a, c)

    def test_every_frame_is_valid_rotation(self):
        pose = synthetic_pose(seed=0, frames=12)
        assert pose.shape == (12, 22, 6)
        validate_rotation(sixd_to_matrix(pose))

    def test_motion_is_smooth(self):
        pose = synthetic_pose(seed=1, frames=30)
        step = np.abs(np.diff(pose, axis=0)).max()
        assert step < 0.5  # no frame-to-frame jumps

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            synthetic_pose(seed=0, frames=0)


class TestGenSynthetic:
    def test_sparse_input_shape(self):
        seq = gen_synthetic(seed=0, frames=8, kind="sparse_input", fps=30.0)
        assert seq.kind == "sparse_input"
        assert seq.data.shape == (8, 36)
        assert seq.fps == 30.0

    def test_pose_matches_synthetic_pose(self):
        seq = gen_synthetic(seed=9, frames=6, kind="pose")
        direct = synthetic_pose(seed=9, frames=6).astype(np.float32)
        assert np.array_equal(seq.data, direct.reshape(6, 132))

    def test_deterministic(self):
        a = gen_synthetic(seed=2, frames=5, kind="sparse_input")
        b = gen_synthetic(seed=2, frames=5, kind="sparse_input")
        assert np.array_equal(a.data, b.data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic(seed=0, frames=5, kind="velocity")


class TestSparseFromPose:
    def test_tracked_joints_are_head_and_wrists(self):
        assert TRACKED_JOINTS == (15, 20, 21)

    def test_matches_manual_assembly(self, tree):
        pose = synthetic_pose(seed=3, frames=7)
        fps = 50.0
        got = sparse_from_pose(pose, tree, fps=fps)
        assert got.shape == (7, 36) and got.dtype == np.float32

        positions, rotations = forward_kinematics(sixd_to_matrix(pose), tree,
                                                  return_rotations=True)
        for slot, j in enumerate(TRACKED_JOINTS):
            block = got[:, 12 * slot:12 * (slot + 1)].astype(np.float64)
            np.testing.assert_allclose(block[:, :3], positions[:, j], atol=1e-6)
            np.testing.assert_allclose(block[:, 3:9],
                                       matrix_to_sixd(rotations[:, j]), atol=1e-6)
            np.testing.assert_allclose(block[0, 9:12], 0.0)
            np.testing.assert_allclose(block[1:, 9:12],
                                       np.diff(positions[:, j], axis=0) * fps,
                                       atol=1e-4)

    def test_static_pose_has_zero_velocity(self, tree):
        pose = np.repeat(synthetic_pose(seed=0, frames=1), 5, axis=0)
        got = sparse_from_pose(pose, tree)
        for slot in range(3):
            np.testing.assert_allclose(got[:, 12 * slot + 9:12 * slot + 12], 0.0,
                                       atol=1e-5)
