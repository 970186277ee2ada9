"""Synthesis, rig derivation and metrics stream a sequence through blocks of
at most FRAME_BLOCK frames: the results do not depend on the block size,
the peak memory scales with the block, and errors name absolute frames."""

import numpy as np
import pytest

import kinescan.kinematics as kinematics_mod
from kinescan.kinematics import FRAME_BLOCK, frame_blocks, sixd_blocks
from kinescan.metrics import metrics
from kinescan.rotations import DegenerateRotationError
from kinescan.synthetic import gen_synthetic, sparse_from_pose, synthetic_pose

from test_io import _traced_peak

LENGTHS = (1, 2, 4, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 2 * FRAME_BLOCK + 3)
# the memory tests' sequence length: twelve blocks
LONG = 12288


def _outputs(frames, tree):
    """The bytes of every blocked output at one length: both synthetic
    kinds, the rig signal, and a metric report with root translations."""
    sparse = gen_synthetic(3, frames, "sparse_input", fps=50.0)
    pose = gen_synthetic(4, frames, "pose", fps=50.0).data.reshape(frames, 22, 6)
    out = [sparse.data.tobytes(), pose.tobytes(),
           sparse_from_pose(pose, tree, fps=50.0).tobytes()]
    if frames >= 2:
        gt = synthetic_pose(5, frames)
        roots = np.random.default_rng(frames).standard_normal((2, frames, 3))
        report = metrics(pose, gt, tree, fps=50.0, root_y=roots[0], root_z=roots[1])
        out.append([(k, v.hex() if isinstance(v, float) else v)
                     for k, v in report.items()])
    return out


class TestFrameBlocks:
    @pytest.mark.parametrize("frames", [0, 1, FRAME_BLOCK, 2 * FRAME_BLOCK + 3])
    def test_slices_cover_the_frames_in_order(self, frames):
        blocks = frame_blocks(frames)
        assert [i for sl in blocks for i in range(sl.start, sl.stop)] == list(range(frames))
        assert all(0 < sl.stop - sl.start <= FRAME_BLOCK for sl in blocks)

    def test_block_size_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(kinematics_mod, "FRAME_BLOCK", 3)
        assert frame_blocks(7) == [slice(0, 3), slice(3, 6), slice(6, 7)]


class TestBlockInvariance:
    @pytest.mark.parametrize("frames", LENGTHS)
    def test_outputs_byte_equal_at_every_block_size(self, tree, monkeypatch, frames):
        monkeypatch.setattr(kinematics_mod, "FRAME_BLOCK", frames + 1)
        whole = _outputs(frames, tree)
        for block in (1, 7):
            monkeypatch.setattr(kinematics_mod, "FRAME_BLOCK", block)
            assert _outputs(frames, tree) == whole, f"block {block}"


class TestBoundedMemory:
    def test_synthetic_pose_peak(self):
        pose, peak = _traced_peak(synthetic_pose, 0, LONG)
        assert peak <= 2.5 * pose.nbytes, f"peak {peak / pose.nbytes:.2f}x the output"

    def test_sparse_from_pose_peak(self, tree):
        pose = synthetic_pose(0, LONG)
        x, peak = _traced_peak(sparse_from_pose, pose, tree)
        assert x.dtype == np.float32
        assert peak <= 10 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the output"

    def test_metrics_peak(self, tree):
        y, z = synthetic_pose(0, LONG), synthetic_pose(1, LONG)
        _, peak = _traced_peak(metrics, y, z, tree)
        inputs = y.nbytes + z.nbytes
        assert peak <= 2 * inputs, f"peak {peak / inputs:.2f}x the inputs"


class TestAbsoluteErrorFrames:
    # joint 13 of frame FRAME_BLOCK + 5: the sixth frame of the second block
    BAD = (FRAME_BLOCK + 5, 13)

    def _degenerate_pose(self):
        pose = synthetic_pose(0, FRAME_BLOCK + 10)
        pose[self.BAD][:3] = 0.0
        return pose

    def test_sixd_blocks_adds_the_block_start(self):
        with pytest.raises(DegenerateRotationError) as err:
            for _ in sixd_blocks(self._degenerate_pose()):
                pass
        assert err.value.index == self.BAD

    def test_sparse_from_pose_names_the_absolute_frame(self, tree):
        with pytest.raises(DegenerateRotationError, match="near-zero norm") as err:
            sparse_from_pose(self._degenerate_pose(), tree)
        assert err.value.index == self.BAD

    @pytest.mark.parametrize("which", ["pred", "gt"])
    def test_metrics_names_the_absolute_frame(self, tree, which):
        good, bad = synthetic_pose(1, FRAME_BLOCK + 10), self._degenerate_pose()
        pair = (bad, good) if which == "pred" else (good, bad)
        with pytest.raises(DegenerateRotationError) as err:
            metrics(*pair, tree)
        assert err.value.index == self.BAD
