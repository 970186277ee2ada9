import hashlib

import numpy as np
import pytest

from kinescan.kinematics import FRAME_BLOCK, TRACKED_JOINTS, forward_kinematics
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

    def test_unknown_kind_refused_before_the_frame_count(self):
        with pytest.raises(ValueError, match="unknown sequence kind 'velocity'"):
            gen_synthetic(seed=0, frames=0, kind="velocity")

    def test_pose_bytes_pinned(self):
        # guards the generator's arithmetic: every golden and benchmark input
        # is derived from these bytes
        pose = gen_synthetic(seed=7, frames=1025, kind="pose").data
        assert hashlib.sha256(pose.tobytes()).hexdigest() == (
            "56165fe5c24a8c928d5c1d58721b66cdfdbeab717cb05129eeea05bdb4403e6e")
        direct = synthetic_pose(seed=7, frames=1025)
        assert hashlib.sha256(direct.tobytes()).hexdigest() == (
            "1e9178231a83742ae0ecc90f2bbd88667ce776ccf6ed754f90dd9a67925df481")

    @pytest.mark.parametrize("frames", [1, 24, FRAME_BLOCK + 1])
    @pytest.mark.parametrize("fps", [30.0, 60.0])
    def test_sparse_input_is_the_rig_signal_of_the_pose(self, tree, frames, fps):
        sparse = gen_synthetic(seed=6, frames=frames, kind="sparse_input", fps=fps)
        pose = gen_synthetic(seed=6, frames=frames, kind="pose", fps=fps).data
        want = sparse_from_pose(pose.reshape(frames, 22, 6), tree, fps=fps)
        assert sparse.data.tobytes() == want.tobytes()
        parts = sparse.data.astype(np.float64).reshape(frames, 3, 12)
        a1, a2 = parts[..., 3:6], parts[..., 6:9]
        np.testing.assert_allclose(np.linalg.norm(a1, axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(np.linalg.norm(a2, axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose((a1 * a2).sum(axis=-1), 0.0, atol=1e-6)
        assert not parts[0, :, 9:].any()  # frame 0's velocity


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

    @pytest.mark.parametrize("fps", [0.0, float("nan"), 1e200])
    def test_invalid_rate_refused(self, tree, fps):
        with pytest.raises(ValueError, match="fps"):
            sparse_from_pose(synthetic_pose(seed=0, frames=3), tree, fps=fps)

    def test_rate_overflowing_float32_velocity_refused(self, tree):
        # the rate itself is valid; the velocities it scales are not finite
        # in float32, and no numpy warning is raised on the way
        with pytest.raises(ValueError, match=r"^fps 1e\+50 is too high: rig "
                                             "velocities overflow float32$"):
            sparse_from_pose(synthetic_pose(seed=0, frames=3), tree, fps=1e50)

    def test_static_pose_has_zero_velocity(self, tree):
        pose = np.repeat(synthetic_pose(seed=0, frames=1), 5, axis=0)
        got = sparse_from_pose(pose, tree)
        for slot in range(3):
            np.testing.assert_allclose(got[:, 12 * slot + 9:12 * slot + 12], 0.0,
                                       atol=1e-5)
