import numpy as np
import pytest

from kinescan.rotations import (
    DegenerateRotationError,
    exp_map,
    geodesic_angle,
    hat,
    matrix_to_log,
    matrix_to_sixd,
    relative_rotation,
    sixd_to_matrix,
    validate_rotation,
    vee,
)

from conftest import make_rng


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_rotations(rng, n, theta_max=np.pi):
    axis = rng.standard_normal((n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    theta = rng.uniform(0.0, theta_max, size=(n, 1))
    return exp_map(axis * theta)


class TestSixdToMatrix:
    def test_identity_sixd(self):
        m = sixd_to_matrix(np.array([1.0, 0, 0, 0, 1.0, 0]))
        np.testing.assert_allclose(m, np.eye(3), atol=1e-15)

    def test_columns_are_first_two_of_matrix(self, rng):
        r = random_rotations(rng, 5)
        v = matrix_to_sixd(r)
        np.testing.assert_allclose(v[:, :3], r[:, :, 0])
        np.testing.assert_allclose(v[:, 3:], r[:, :, 1])

    def test_orthonormal_and_right_handed(self, rng):
        v = rng.standard_normal((200, 6))
        m = sixd_to_matrix(v)
        eye = np.einsum("nij,nkj->nik", m, m)
        np.testing.assert_allclose(eye, np.broadcast_to(np.eye(3), (200, 3, 3)),
                                   atol=1e-9)
        np.testing.assert_allclose(np.linalg.det(m), np.ones(200), atol=1e-9)

    def test_positive_scale_invariance(self, rng):
        v = rng.standard_normal(6)
        scaled = np.concatenate([3.7 * v[:3], 0.02 * v[3:]])
        np.testing.assert_allclose(sixd_to_matrix(scaled), sixd_to_matrix(v),
                                   atol=1e-9)

    def test_round_trip_from_matrix(self, rng):
        r = random_rotations(rng, 50)
        np.testing.assert_allclose(sixd_to_matrix(matrix_to_sixd(r)), r,
                                   atol=1e-9)

    def test_zero_first_column_raises(self):
        with pytest.raises(DegenerateRotationError):
            sixd_to_matrix(np.array([0.0, 0, 0, 0, 1.0, 0]))

    def test_parallel_columns_raise(self):
        with pytest.raises(DegenerateRotationError):
            sixd_to_matrix(np.array([1.0, 0, 0, 2.0, 0, 0]))

    def test_batched_degenerate_raises(self, rng):
        v = rng.standard_normal((4, 6))
        v[2, 3:] = v[2, :3]
        with pytest.raises(DegenerateRotationError):
            sixd_to_matrix(v)

    def test_error_carries_first_degenerate_index(self, rng):
        v = rng.standard_normal((5, 3, 6))
        v[3, 1, :3] = 0.0
        v[4, 0, :3] = 0.0
        with pytest.raises(DegenerateRotationError) as info:
            sixd_to_matrix(v)
        assert info.value.index == (3, 1)
        v[3, 1, :3] = v[4, 0, :3] = 1.0
        v[1, 2, 3:] = 2.0 * v[1, 2, :3]
        with pytest.raises(DegenerateRotationError) as info:
            sixd_to_matrix(v)
        assert info.value.index == (1, 2)


class TestHatVee:
    def test_hat_is_cross_product(self, rng):
        w = rng.standard_normal((4, 2, 3))
        u = rng.standard_normal((4, 2, 3))
        np.testing.assert_allclose((hat(w) @ u[..., None])[..., 0], np.cross(w, u),
                                   atol=1e-12)

    def test_hat_is_skew_and_vee_inverts_it(self, rng):
        w = rng.standard_normal((7, 3))
        k = hat(w)
        np.testing.assert_array_equal(k, -np.swapaxes(k, -1, -2))
        np.testing.assert_array_equal(vee(k), w)

    def test_vee_of_antisymmetric_part_is_scaled_axis(self):
        v = rot_z(0.3)
        np.testing.assert_allclose(vee(v - v.T), [0.0, 0.0, 2.0 * np.sin(0.3)],
                                   atol=1e-15)


class TestValidateRotation:
    def test_accepts_rotations(self, rng):
        validate_rotation(random_rotations(rng, 20))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            validate_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_scaled(self):
        with pytest.raises(ValueError):
            validate_rotation(2.0 * np.eye(3))

    @pytest.mark.parametrize("fn", [validate_rotation, matrix_to_log])
    @pytest.mark.parametrize("value, entry", [
        (np.nan, (0, 0)), (np.nan, (1, 2)), (np.inf, (1, 2)), (-np.inf, (1, 2)),
    ], ids=["nan-diag", "nan-off", "inf-off", "neg-inf-off"])
    def test_rejects_nonfinite_entry(self, fn, value, entry):
        # the errors are then NaN, which compare false against the tolerance;
        # numpy's invalid-value warnings must not surface instead
        m = np.repeat(np.eye(3)[None], 4, axis=0)
        m[2][entry] = value
        with pytest.raises(DegenerateRotationError, match="not a rotation"):
            fn(m)


class TestLogMap:
    def test_identity_gives_zero(self):
        np.testing.assert_array_equal(matrix_to_log(np.eye(3)), np.zeros(3))

    def test_quarter_turn_about_z(self):
        np.testing.assert_allclose(matrix_to_log(rot_z(np.pi / 2)),
                                   [0.0, 0.0, np.pi / 2], atol=1e-12)

    def test_negative_angle(self):
        np.testing.assert_allclose(matrix_to_log(rot_x(-0.4)),
                                   [-0.4, 0.0, 0.0], atol=1e-12)

    def test_norm_equals_geodesic_angle(self, rng):
        r = random_rotations(rng, 100, theta_max=np.pi - 1e-3)
        w = matrix_to_log(r)
        np.testing.assert_allclose(np.linalg.norm(w, axis=-1),
                                   geodesic_angle(r), atol=1e-9)

    def test_half_turn_about_z(self):
        w = matrix_to_log(exp_map(np.array([0.0, 0.0, np.pi])))
        np.testing.assert_allclose(np.abs(w), [0.0, 0.0, np.pi], atol=1e-7)

    def test_validation_flag(self):
        bad = np.eye(3) * 1.5
        with pytest.raises(ValueError):
            matrix_to_log(bad)
        matrix_to_log(bad, validate=False)  # permissive path must not raise


class TestExpMap:
    def test_zero_vector(self):
        np.testing.assert_array_equal(exp_map(np.zeros(3)), np.eye(3))

    def test_half_turn_axis_aligned(self):
        np.testing.assert_allclose(exp_map(np.array([0.0, 0.0, np.pi])),
                                   np.diag([-1.0, -1.0, 1.0]), atol=1e-12)

    def test_matches_rodrigues_about_z(self):
        for theta in (0.3, 1.2, 2.9):
            np.testing.assert_allclose(exp_map(np.array([0.0, 0.0, theta])),
                                       rot_z(theta), atol=1e-12)

    def test_output_is_rotation(self, rng):
        w = rng.standard_normal((300, 3))
        validate_rotation(exp_map(w))


class TestRoundTrip:
    def test_generic_angles(self, rng):
        w = random_rotations(rng, 1000, theta_max=np.pi - 1e-3)
        np.testing.assert_allclose(exp_map(matrix_to_log(w)), w, atol=1e-7)

    @pytest.mark.parametrize("theta", [1e-9, 1e-7, 1e-6, 1e-4, 0.5,
                                       np.pi - 1e-6, np.pi - 1e-9, np.pi])
    def test_special_angles(self, theta):
        rng = make_rng(int(theta * 1e6) % 2**31)
        for _ in range(20):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            r = exp_map(axis * theta)
            r2 = exp_map(matrix_to_log(r))
            assert np.abs(r2 - r).max() <= 1e-7

    def test_exact_pi_canonical_axis_sign(self):
        # at theta = pi both axis signs give the same matrix; the log picks
        # the representative whose first nonzero entry is positive
        w = matrix_to_log(exp_map(np.array([-np.pi, 0.0, 0.0])))
        np.testing.assert_allclose(w, [np.pi, 0.0, 0.0], atol=1e-7)

    def test_sixd_chain(self, rng):
        v = rng.standard_normal((64, 6))
        m = sixd_to_matrix(v)
        np.testing.assert_allclose(sixd_to_matrix(matrix_to_sixd(m)), m,
                                   atol=1e-12)


class TestGeodesic:
    def test_simple_angle(self):
        assert geodesic_angle(rot_z(0.3)) == pytest.approx(0.3)

    def test_identity_clamped_to_zero(self, rng):
        r = random_rotations(rng, 10)
        a = geodesic_angle(relative_rotation(r, r))
        assert np.all(np.isfinite(a))
        np.testing.assert_allclose(a, 0.0, atol=1e-6)

    def test_symmetry_of_relative_pairs(self, rng):
        a = random_rotations(rng, 30)
        b = random_rotations(rng, 30)
        np.testing.assert_allclose(geodesic_angle(relative_rotation(a, b)),
                                   geodesic_angle(relative_rotation(b, a)),
                                   atol=1e-12)

    def test_bi_invariance(self, rng):
        a = random_rotations(rng, 30)
        b = random_rotations(rng, 30)
        q = random_rotations(rng, 1)[0]
        np.testing.assert_allclose(
            geodesic_angle(relative_rotation(q @ a, q @ b)),
            geodesic_angle(relative_rotation(a, b)), atol=1e-9)

    def test_maximum_angle_is_pi(self):
        assert geodesic_angle(np.diag([-1.0, -1.0, 1.0])) == pytest.approx(np.pi)


class TestRelativeRotation:
    def test_composition_identity(self, rng):
        a = random_rotations(rng, 20)
        v = relative_rotation(a, a)
        np.testing.assert_allclose(v, np.broadcast_to(np.eye(3), v.shape),
                                   atol=1e-12)

    def test_recovers_increment(self, rng):
        a = random_rotations(rng, 20)
        d = random_rotations(rng, 20, theta_max=1.0)
        np.testing.assert_allclose(relative_rotation(a, a @ d), d, atol=1e-12)
