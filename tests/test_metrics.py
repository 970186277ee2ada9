import warnings

import numpy as np
import pytest

from kinescan.kinematics import forward_kinematics
from kinescan.metrics import (
    HAND_JOINTS,
    LOWER_JOINTS,
    ROOT_JOINTS,
    UPPER_JOINTS,
    MetricReport,
    jitter,
    metrics,
)
from kinescan.rotations import exp_map, matrix_to_sixd, sixd_to_matrix

from conftest import make_rng


def identity_pose(frames, joints=22):
    pose = np.zeros((frames, joints, 6))
    pose[..., 0] = 1.0
    pose[..., 4] = 1.0
    return pose


def smooth_pose(rng, frames, joints=22, scale=0.3):
    w = rng.uniform(-1.0, 1.0, size=(1, joints, 3))
    drift = rng.uniform(-scale, scale, size=(1, joints, 3))
    return matrix_to_sixd(exp_map(w + drift * np.arange(frames)[:, None, None]))


class TestJointSets:
    def test_sets_partition_all_joints(self):
        groups = (ROOT_JOINTS, HAND_JOINTS, LOWER_JOINTS, UPPER_JOINTS)
        combined = sorted(j for g in groups for j in g)
        assert combined == list(range(22))

    def test_expected_members(self):
        assert ROOT_JOINTS == (0,)
        assert HAND_JOINTS == (20, 21)
        assert set(LOWER_JOINTS) == {1, 2, 4, 5, 7, 8, 10, 11}


class TestJitter:
    def test_linear_path_is_zero(self):
        t = np.arange(10)[:, None, None]
        positions = np.zeros((10, 3, 3)) + 0.1 * t
        assert jitter(positions, fps=60.0) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_path_is_zero(self):
        t = np.arange(10, dtype=np.float64)[:, None, None]
        positions = np.zeros((10, 2, 3)) + 0.01 * t ** 2
        assert jitter(positions, fps=60.0) == pytest.approx(0.0, abs=1e-9)

    def test_cubic_path_fixture(self):
        # p(t) = c t^3 has constant third difference 6c per axis; with
        # c = 1e-5, one joint moving on all three axes, and fps = 10 the
        # jitter is 6e-5 * sqrt(3) * 1000 / 100.
        t = np.arange(8, dtype=np.float64)[:, None, None]
        positions = np.broadcast_to(1e-5 * t ** 3, (8, 1, 3)).copy()
        expected = 6e-5 * np.sqrt(3.0) * 10.0 ** 3 / 100.0
        assert jitter(positions, fps=10.0) == pytest.approx(expected, abs=1e-6)

    def test_scales_with_fps_cubed(self, rng):
        positions = rng.standard_normal((12, 4, 3))
        assert jitter(positions, fps=20.0) == \
            pytest.approx(8.0 * jitter(positions, fps=10.0))

    def test_too_short_rejected(self, rng):
        with pytest.raises(ValueError):
            jitter(rng.standard_normal((3, 4, 3)), fps=60.0)

    def test_overflow_raises_without_a_warning(self):
        # a third difference of 2.4e39 times fps^3 = 1.25e308 is not a float64
        positions = np.zeros((6, 1, 3))
        positions[::2, 0, 0] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"jitter is inf at 5e\+102 fps"):
                jitter(positions, fps=5e102)


class TestMetrics:
    def test_identity_report_is_zero(self, tree, rng):
        y = smooth_pose(rng, 6)
        report = metrics(y, y, tree)
        assert report.mpjre_deg == pytest.approx(0.0, abs=1e-5)
        assert report.mpjpe_cm == 0.0
        assert report.mpjve_cm_s == 0.0
        for name in ("root_pe_cm", "hand_pe_cm", "upper_pe_cm", "lower_pe_cm"):
            assert getattr(report, name) == 0.0
        assert report.jitter_pred == pytest.approx(report.jitter_gt)
        assert report.frames == 6 and report.fps == 60.0

    def test_root_offset_positional_error_in_cm(self, tree):
        y = identity_pose(5)
        d = np.array([0.03, 0.0, 0.04])  # 5 cm offset for every joint
        report = metrics(y, y, tree, root_y=d, root_z=np.zeros(3))
        assert report.mpjpe_cm == pytest.approx(5.0, abs=1e-9)
        assert report.root_pe_cm == pytest.approx(5.0, abs=1e-9)
        assert report.hand_pe_cm == pytest.approx(5.0, abs=1e-9)
        assert report.mpjve_cm_s == pytest.approx(0.0, abs=1e-9)

    def test_mpjre_uniform_rotation_error(self, tree):
        y = identity_pose(4)
        q = matrix_to_sixd(exp_map(np.array([0.0, 0.0, np.radians(7.0)])))
        z = y.copy()
        z[:, 0] = q  # root-only error of exactly 7 degrees
        report = metrics(y, z, tree)
        assert report.mpjre_deg == pytest.approx(7.0 / 22.0, abs=1e-9)

    def test_mpjve_hand_case(self, tree):
        # prediction static, truth root sliding 1 cm/frame at 60 fps
        y = identity_pose(4)
        roots = np.zeros((4, 3))
        roots[:, 0] = 0.01 * np.arange(4)
        report = metrics(y, y, tree, root_y=np.zeros(3), root_z=roots)
        assert report.mpjve_cm_s == pytest.approx(60.0, abs=1e-9)

    def test_error_metrics_symmetric(self, tree, rng):
        y = smooth_pose(rng, 6)
        z = smooth_pose(rng, 6)
        a = metrics(y, z, tree)
        b = metrics(z, y, tree)
        assert a.mpjre_deg == pytest.approx(b.mpjre_deg, abs=1e-9)
        assert a.mpjpe_cm == pytest.approx(b.mpjpe_cm, abs=1e-9)
        assert a.mpjve_cm_s == pytest.approx(b.mpjve_cm_s, abs=1e-9)

    def test_set_errors_average_to_mpjpe(self, tree, rng):
        y = smooth_pose(rng, 5)
        z = smooth_pose(rng, 5)
        report = metrics(y, z, tree)
        recombined = (
            1 * report.root_pe_cm + 2 * report.hand_pe_cm
            + 11 * report.upper_pe_cm + 8 * report.lower_pe_cm
        ) / 22.0
        assert recombined == pytest.approx(report.mpjpe_cm, abs=1e-9)

    def test_non_finite_jitter_names_its_field(self, tree):
        y = identity_pose(6)
        roots = np.zeros((6, 3))
        roots[::2, 0] = 3e38
        with pytest.raises(ValueError, match="^jitter_gt: jitter is inf"):
            metrics(y, y, tree, fps=5e102, root_z=roots)

    def test_jitter_matches_fk_positions(self, tree, rng):
        y = smooth_pose(rng, 8)
        z = smooth_pose(rng, 8)
        report = metrics(y, z, tree, fps=30.0)
        assert report.jitter_pred == pytest.approx(
            jitter(forward_kinematics(sixd_to_matrix(y), tree), 30.0))
        assert report.jitter_gt == pytest.approx(
            jitter(forward_kinematics(sixd_to_matrix(z), tree), 30.0))

    def test_short_sequence_has_no_jitter(self, tree, rng):
        y = smooth_pose(rng, 3)
        report = metrics(y, y, tree)
        assert report.jitter_pred is None and report.jitter_gt is None

    def test_single_frame_rejected(self, tree):
        with pytest.raises(ValueError):
            metrics(identity_pose(1), identity_pose(1), tree)

    def test_bad_fps_rejected(self, tree):
        with pytest.raises(ValueError):
            metrics(identity_pose(4), identity_pose(4), tree, fps=0.0)

    @pytest.mark.parametrize("fps", [np.inf, np.nan])
    def test_non_finite_fps_rejected(self, tree, fps):
        with pytest.raises(ValueError, match="fps must be a finite positive number"):
            metrics(identity_pose(4), identity_pose(4), tree, fps=fps)

    def test_items_lists_every_field(self, tree, rng):
        y = smooth_pose(rng, 5)
        report = metrics(y, y, tree)
        names = [k for k, _ in report.items()]
        assert names == ["mpjre_deg", "mpjpe_cm", "mpjve_cm_s", "root_pe_cm",
                         "hand_pe_cm", "upper_pe_cm", "lower_pe_cm",
                         "jitter_pred", "jitter_gt", "frames", "fps"]
