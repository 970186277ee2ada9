import numpy as np

import kinescan.kinematics as kinematics_mod
from kinescan.verify import CHECKS, PropertyResult, check_scan_orders, kink_mask, run_all


class TestRunAll:
    def test_every_property_passes(self):
        results = run_all(seed=0)
        assert len(results) == len(CHECKS) == 8
        for r in results:
            assert isinstance(r, PropertyResult)
            assert r.passed, f"{r.name}: {r.detail}"

    def test_corrupted_order_is_caught(self, monkeypatch):
        monkeypatch.setitem(kinematics_mod.SCAN_ORDERS, "uks", tuple(range(22)))
        passed, detail = check_scan_orders()
        assert not passed
        assert "UKS" in detail

    def test_exception_reported_as_failure(self, monkeypatch):
        def boom():
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(kinematics_mod, "default_tree", boom)
        results = {r.name: r for r in run_all(seed=0)}
        assert not results["scan_orders"].passed
        assert "synthetic fault" in results["scan_orders"].detail


class TestKinkMask:
    @staticmethod
    def _spinning(frames, joints, step, axis):
        from kinescan.rotations import exp_map, matrix_to_sixd
        w = np.outer(np.arange(frames), np.asarray(axis, dtype=float) * step)
        return np.repeat(matrix_to_sixd(exp_map(w))[:, None, :], joints, axis=1)

    def test_true_means_clear_of_l1_kinks(self):
        # skew axes keep every component of wy - wz far from zero
        y = self._spinning(4, 2, 0.4, np.array([1.0, 1.0, 1.0]) / np.sqrt(3))
        z = self._spinning(4, 2, 0.2, np.array([1.0, -1.0, 2.0]) / np.sqrt(6))
        z[0, 0, 2] = y[0, 0, 2] + 1e-6  # raw component within 2h of a kink
        mask = kink_mask(y, z, h=1e-5)
        assert mask.shape == y.shape
        assert not mask[0, 0, 2]
        assert mask[2, 1].all()

    def test_velocity_kink_blanks_adjacent_frames(self):
        y = self._spinning(4, 1, 0.4, (0, 0, 1))
        z = 2.0 * y  # same rotations (scale invariance), so wy == wz
        mask = kink_mask(y, z, h=1e-5)
        assert not mask.any()
