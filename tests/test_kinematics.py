import importlib.resources

import numpy as np
import pytest

from kinescan.kinematics import (
    NUM_JOINTS,
    SCAN_ORDERS,
    SMPL_JOINT_NAMES,
    KinematicTree,
    default_tree,
    forward_kinematics,
    inverse_reorder_joint_features,
    reorder_joint_features,
)
from kinescan.rotations import exp_map

from conftest import make_rng

# fixed local copies so a regression in the module constants cannot hide
FKS_EXPECTED = (0, 1, 4, 7, 10, 0, 2, 5, 8, 11, 0, 3, 6, 9, 13, 16, 18, 20,
                0, 3, 6, 9, 12, 15, 0, 3, 6, 9, 14, 17, 19, 21)
UKS_EXPECTED = (21, 19, 17, 14, 15, 12, 20, 18, 16, 13, 9, 6, 3, 0, 1, 4, 7,
                10, 2, 5, 8, 11)
PARENTS_EXPECTED = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14,
                    16, 17, 18, 19)
OFFSETS_EXPECTED = np.array([
    (0.0, 0.0, 0.0),
    (0.058, -0.082, -0.017),
    (-0.06, -0.09, -0.013),
    (0.004, 0.124, -0.038),
    (0.04, -0.402, -0.014),
    (-0.039, -0.4, -0.014),
    (0.001, 0.129, 0.034),
    (-0.007, -0.382, -0.029),
    (0.008, -0.381, -0.033),
    (-0.003, 0.057, 0.007),
    (0.021, -0.052, 0.13),
    (-0.026, -0.052, 0.126),
    (0.0, 0.218, -0.018),
    (0.069, 0.111, -0.008),
    (-0.083, 0.111, -0.012),
    (0.006, 0.062, 0.043),
    (0.101, 0.028, -0.012),
    (-0.094, 0.025, -0.011),
    (0.26, -0.01, -0.023),
    (-0.261, -0.009, -0.023),
    (0.258, 0.006, -0.005),
    (-0.254, 0.005, -0.005),
])


def chain_tree(offsets):
    """Straight chain 0 -> 1 -> ... with the given bone offsets."""
    n = len(offsets)
    return KinematicTree(parent=(-1,) + tuple(range(n - 1)), offset=offsets)


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def fk_homogeneous(local, tree, root_position):
    """Oracle: 4x4 transforms multiplied along each joint's ancestor chain."""
    n = len(tree.parent)
    out = np.zeros((n, 3))
    for j in range(n):
        chain = []
        k = j
        while k != -1:
            chain.append(k)
            k = tree.parent[k]
        chain.reverse()
        t = np.eye(4)
        for k in chain:
            step = np.eye(4)
            step[:3, :3] = local[k]
            step[:3, 3] = root_position if tree.parent[k] == -1 else tree.offset[k]
            t = t @ step
        out[j] = t[:3, 3]
    return out


class TestConstants:
    def test_parents(self):
        assert default_tree().parent == PARENTS_EXPECTED

    def test_bundled_table_rows_in_joint_order(self):
        # default_tree reads row j as joint j, so the file must list 0..21 in order
        text = (importlib.resources.files("kinescan")
                .joinpath("data/skeleton_smpl22.txt").read_text(encoding="utf-8"))
        rows = [line.split() for line in text.splitlines()
                if line.strip() and not line.startswith("#")]
        assert [int(row[0]) for row in rows] == list(range(NUM_JOINTS))
        np.testing.assert_array_equal(default_tree().offset, OFFSETS_EXPECTED)

    def test_default_tree_calls_build_equal_trees(self):
        a, b = default_tree(), default_tree()
        assert a.parent == b.parent
        np.testing.assert_array_equal(a.offset, b.offset)

    def test_joint_names_count(self):
        assert len(SMPL_JOINT_NAMES) == NUM_JOINTS == 22
        assert len(set(SMPL_JOINT_NAMES)) == 22


class TestScanOrders:
    def test_index_order(self):
        assert SCAN_ORDERS["index"] == tuple(range(22))

    def test_fks_byte_exact(self):
        assert SCAN_ORDERS["fks"] == FKS_EXPECTED

    def test_uks_byte_exact(self):
        assert SCAN_ORDERS["uks"] == UKS_EXPECTED

    def test_uks_is_permutation_with_central_root(self):
        order = SCAN_ORDERS["uks"]
        assert sorted(order) == list(range(22))
        assert order.index(0) == 13

    def test_lengths(self):
        assert tuple(SCAN_ORDERS) == ("index", "fks", "uks")
        assert len(SCAN_ORDERS["fks"]) == 32
        assert len(SCAN_ORDERS["uks"]) == 22

    def test_fks_adjacency(self):
        fwd = SCAN_ORDERS["fks"]
        for k in range(len(fwd) - 1):
            nxt = fwd[k + 1]
            assert nxt == 0 or PARENTS_EXPECTED[nxt] == fwd[k]

    def test_fks_branch_starts(self):
        fwd = SCAN_ORDERS["fks"]
        assert tuple(k for k, j in enumerate(fwd) if j == 0) == (0, 5, 10, 18, 24)

    # both reorders check an order before using it; the scatter would
    # otherwise leave a skipped joint zero
    @staticmethod
    def reorders(order):
        """The gather and the scatter, each bound to zeros of its input shape."""
        return (lambda: reorder_joint_features(np.zeros((2, NUM_JOINTS, 3)), order),
                lambda: inverse_reorder_joint_features(np.zeros((2, len(order), 3)), order))

    def test_missing_joint_rejected(self):
        for reorder in self.reorders(tuple(range(21)) + (0,)):
            with pytest.raises(ValueError, match=r"misses joints \[21\]"):
                reorder()

    def test_out_of_range_rejected(self):
        for reorder in self.reorders(tuple(range(22)) + (25,)):
            with pytest.raises(ValueError, match="out-of-range"):
                reorder()


class TestReorder:
    def test_gather_matches_nested_loop(self, rng):
        feat = rng.standard_normal((3, 22, 4))
        for order in (SCAN_ORDERS["fks"], SCAN_ORDERS["uks"]):
            got = reorder_joint_features(feat, order)
            assert got.shape == (3, len(order), 4)
            for l in range(3):
                for k, j in enumerate(order):
                    np.testing.assert_array_equal(got[l, k], feat[l, j])

    def test_permutation_inverse_round_trip(self, rng):
        feat = rng.standard_normal((5, 22, 3))
        for order in (SCAN_ORDERS["index"], SCAN_ORDERS["uks"]):
            mixed = reorder_joint_features(feat, order)
            back = inverse_reorder_joint_features(mixed, order)
            np.testing.assert_array_equal(back, feat)

    def test_fks_inverse_sums_repeated_visits(self):
        ones = np.ones((32, 1))
        counts = inverse_reorder_joint_features(ones, SCAN_ORDERS["fks"])[:, 0]
        expected = np.ones(22)
        expected[0] = 5.0
        expected[[3, 6, 9]] = 3.0
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize("order", [SCAN_ORDERS["index"], SCAN_ORDERS["uks"],
                                       SCAN_ORDERS["fks"]],
                             ids=["index", "uks", "fks"])
    # "backward" scatters the reversed visit sequence, whose repeated
    # visits fall at other scan positions
    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("lead", [(), (7,)], ids=["2d", "3d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_add_at_oracle_bitwise(self, rng, order, reverse,
                                                   lead, dtype):
        if reverse:
            order = order[::-1]
        feat = rng.standard_normal(lead + (len(order), 5)).astype(dtype)
        seq = np.asarray(order)
        oracle = np.zeros(lead + (22, 5), dtype=dtype)
        np.add.at(oracle, (..., seq, slice(None)), feat)
        got = inverse_reorder_joint_features(feat, order)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, oracle)

    def test_wrong_axis_length_rejected(self, rng):
        with pytest.raises(ValueError):
            reorder_joint_features(rng.standard_normal((4, 21, 3)), SCAN_ORDERS["uks"])
        with pytest.raises(ValueError):
            inverse_reorder_joint_features(rng.standard_normal((4, 22, 3)),
                                           SCAN_ORDERS["fks"])


class TestTreeValidation:
    def test_default_tree_matches_constants(self, tree):
        assert tree.parent == PARENTS_EXPECTED

    def test_two_roots_rejected(self):
        with pytest.raises(ValueError, match=r"joint 1 has parent -1"):
            KinematicTree(parent=(-1, -1, 0), offset=np.zeros((3, 3)))

    def test_no_root_rejected(self):
        with pytest.raises(ValueError, match=r"joint 0 must be the root"):
            KinematicTree(parent=(1, 0), offset=np.zeros((2, 3)))

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError, match=r"joint 1 has parent 5"):
            KinematicTree(parent=(-1, 5, 0), offset=np.zeros((3, 3)))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match=r"joint 1 has parent 2"):
            KinematicTree(parent=(-1, 2, 1), offset=np.zeros((3, 3)))

    def test_child_before_parent_rejected(self):
        with pytest.raises(ValueError, match=r"joint 1 has parent 2, not one of joints 0\.\.0"):
            KinematicTree(parent=(-1, 2, 0), offset=np.zeros((3, 3)))

    def test_offset_shape_rejected(self):
        with pytest.raises(ValueError, match=r"offset shape \(2, 2\) does not match 2 joints"):
            KinematicTree(parent=(-1, 0), offset=np.zeros((2, 2)))

    def test_nonfinite_offset_rejected(self):
        off = np.zeros((2, 3))
        off[1, 0] = np.inf
        with pytest.raises(ValueError, match=r"joint 1 has a non-finite offset"):
            KinematicTree(parent=(-1, 0), offset=off)


class TestForwardKinematics:
    def test_identity_pose_sums_offsets(self):
        tree = chain_tree([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        eye = np.broadcast_to(np.eye(3), (3, 3, 3))
        pos = forward_kinematics(eye, tree)
        np.testing.assert_allclose(pos, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])

    def test_half_turn_at_root_negates_chain(self):
        tree = chain_tree([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        local = np.stack([rot_z(np.pi), np.eye(3), np.eye(3)])
        pos = forward_kinematics(local, tree)
        np.testing.assert_allclose(pos, [[0, 0, 0], [-1, 0, 0], [-2, 0, 0]],
                                   atol=1e-12)

    def test_quarter_turn_mid_chain(self):
        tree = chain_tree([[0.0, 0, 0], [1.0, 0, 0], [1.0, 0, 0]])
        local = np.stack([np.eye(3), rot_z(np.pi / 2), np.eye(3)])
        pos = forward_kinematics(local, tree)
        np.testing.assert_allclose(pos, [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
                                   atol=1e-12)

    def test_matches_homogeneous_oracle(self, tree):
        rng = make_rng(5)
        for _ in range(25):
            w = rng.uniform(-1.0, 1.0, size=(22, 3))
            local = exp_map(w)
            root = rng.standard_normal(3)
            pos = forward_kinematics(local, tree, root_position=root)
            np.testing.assert_allclose(pos, fk_homogeneous(local, tree, root),
                                       atol=1e-9)

    def test_sixd_pose_refused_naming_matrix_form(self, tree):
        with pytest.raises(ValueError, match=r"pose must be \(\.\.\., 22, 3, 3\)"):
            forward_kinematics(np.tile([1.0, 0, 0, 0, 1, 0], (22, 1)), tree)

    def test_bone_lengths_preserved(self, tree, rng):
        local = exp_map(rng.uniform(-1, 1, size=(22, 3)))
        pos = forward_kinematics(local, tree)
        for j in range(1, 22):
            got = np.linalg.norm(pos[j] - pos[tree.parent[j]])
            assert got == pytest.approx(np.linalg.norm(tree.offset[j]), abs=1e-9)

    def test_rigid_invariance_under_root_rotation(self, tree, rng):
        local = exp_map(rng.uniform(-1, 1, size=(22, 3)))
        root = rng.standard_normal(3)
        q = exp_map(rng.standard_normal(3))
        rotated = local.copy()
        rotated[0] = q @ local[0]
        base = forward_kinematics(local, tree, root_position=root)
        got = forward_kinematics(rotated, tree, root_position=root)
        np.testing.assert_allclose(got, (base - root) @ q.T + root, atol=1e-9)

    def test_returns_global_rotations(self, tree, rng):
        local = exp_map(rng.uniform(-1, 1, size=(22, 3)))
        _, glob = forward_kinematics(local, tree, return_rotations=True)
        for j, p in enumerate(tree.parent):
            expected = local[j] if j == 0 else glob[p] @ local[j]
            np.testing.assert_allclose(glob[j], expected, atol=1e-12)

    def test_batched_matches_per_frame(self, tree, rng):
        local = exp_map(rng.uniform(-1, 1, size=(6, 22, 3)))
        batched = forward_kinematics(local, tree)
        for l in range(6):
            np.testing.assert_array_equal(batched[l],
                                          forward_kinematics(local[l], tree))

    def test_bad_pose_shape_rejected(self, tree):
        with pytest.raises(ValueError):
            forward_kinematics(np.zeros((22, 5)), tree)

