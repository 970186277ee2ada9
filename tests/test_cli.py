import argparse
import os
import platform
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import kinescan.kinematics as kinematics_mod
from kinescan.cli import _build_parser, main
from kinescan.io import (
    Sequence,
    load_checkpoint,
    load_sequence,
    save_checkpoint,
    save_sequence,
)
from kinescan.model import ModelConfig, init_weights
from kinescan.synthetic import gen_synthetic

from conftest import MICRO_CONFIG_TEXT


@pytest.fixture
def micro_cfg_path(tmp_path):
    path = tmp_path / "micro.cfg"
    path.write_text(MICRO_CONFIG_TEXT)
    return str(path)


class TestOrders:
    def test_prints_all_three_orders(self, capsys):
        assert main(["orders"]) == 0
        assert capsys.readouterr().out == (
            "index (0..21): 0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21\n"
            "fks (32 entries, 5 branches): 0,1,4,7,10,0,2,5,8,11,0,3,6,9,13,16,18,20,"
            "0,3,6,9,12,15,0,3,6,9,14,17,19,21\n"
            "uks (22 entries, root central): "
            "21,19,17,14,15,12,20,18,16,13,9,6,3,0,1,4,7,10,2,5,8,11\n"
        )


class TestGenSynthetic:
    def test_writes_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "seq.txt"
        code = main(["gen-synthetic", "--kind", "sparse_input", "--frames", "12",
                     "--seed", "5", "--fps", "30", "--out", str(out)])
        assert code == 0
        seq = load_sequence(out, "sparse_input")
        assert seq.frames == 12 and seq.fps == 30.0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(["gen-synthetic", "--frames", "8", "--seed", "2",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_pose_kind(self, tmp_path):
        out = tmp_path / "pose.txt"
        assert main(["gen-synthetic", "--kind", "pose", "--frames", "6",
                     "--out", str(out)]) == 0
        assert load_sequence(out, "pose").data.shape == (6, 132)

    def test_rate_overflowing_rig_velocity_exits_one(self, tmp_path, capsys):
        out = tmp_path / "in.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen-synthetic", "--fps", "1e50", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.splitlines() == [
            "kinescan: error: fps 1e+50 is too high: rig velocities overflow float32"
        ]


class TestInfer:
    def test_seventeen_digit_rate_survives_infer_then_eval(self, tmp_path,
                                                          micro_cfg_path, capsys):
        inp, gt, pred = (tmp_path / name for name in ("in.txt", "gt.txt", "pred.txt"))
        rate = "59.940059940059939"
        main(["gen-synthetic", "--frames", "30", "--fps", rate, "--out", str(inp)])
        main(["gen-synthetic", "--kind", "pose", "--frames", "30", "--fps", rate,
              "--out", str(gt)])
        assert main(["infer", str(inp), "--config", micro_cfg_path,
                     "--out", str(pred)]) == 0
        assert "#fps 59.94005994005994\n" in pred.read_text()
        assert load_sequence(pred, "pose").fps == float(rate)
        capsys.readouterr()
        assert main(["eval", str(pred), str(gt)]) == 0
        assert "frames: 30\n" in capsys.readouterr().out
        # a mismatch prints each rate exactly, so the two can be told apart
        other = tmp_path / "other.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "30", "--fps",
              "59.940059940059946", "--out", str(other)])
        assert main(["eval", str(pred), str(other)]) == 1
        err = capsys.readouterr().err
        assert (f"at 59.94005994005994 fps, {other} has 30 frames at "
                "59.940059940059946 fps") in err

    def test_end_to_end_deterministic(self, tmp_path, micro_cfg_path):
        inp = tmp_path / "in.txt"
        main(["gen-synthetic", "--frames", "30", "--seed", "1", "--out", str(inp)])
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["infer", str(inp), "--config", micro_cfg_path,
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert load_sequence(a, "pose").frames == 30

    def test_accepts_checkpoint_weights(self, tmp_path, micro_cfg_path, micro_config,
                                        capsys):
        from kinescan.io import save_checkpoint
        from kinescan.model import init_weights
        inp = tmp_path / "in.txt"
        main(["gen-synthetic", "--frames", "10", "--seed", "1", "--out", str(inp)])
        ckpt = tmp_path / "w.ckpt"
        save_checkpoint(ckpt, init_weights(micro_config))
        out = tmp_path / "out.txt"
        assert main(["infer", str(inp), "--config", micro_cfg_path,
                     "--weights", str(ckpt), "--out", str(out)]) == 0
        base = tmp_path / "base.txt"
        main(["infer", str(inp), "--config", micro_cfg_path, "--out", str(base)])
        assert out.read_bytes() == base.read_bytes()  # ckpt == fresh init

    def test_mismatched_checkpoint_rejected(self, tmp_path, micro_cfg_path,
                                            capsys):
        from kinescan.io import save_checkpoint
        inp = tmp_path / "in.txt"
        main(["gen-synthetic", "--frames", "10", "--out", str(inp)])
        ckpt = tmp_path / "w.ckpt"
        save_checkpoint(ckpt, {"stray": np.zeros(3, dtype=np.float32)})
        code = main(["infer", str(inp), "--config", micro_cfg_path,
                     "--weights", str(ckpt), "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "tensor names" in capsys.readouterr().err

    def test_pose_input_rejected(self, tmp_path, micro_cfg_path, capsys):
        inp = tmp_path / "pose.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6",
              "--out", str(inp)])
        code = main(["infer", str(inp), "--config", micro_cfg_path,
                     "--out", str(tmp_path / "o.txt")])
        assert code == 1
        assert "sparse_input" in capsys.readouterr().err

    @pytest.mark.parametrize("columns, value, config, layer", [
        (1, 3e38, None, "tfm0."),  # the layer norm of tfm0 overflows
        (36, 3e38, "n_tfm=0\nm_skfm=0\n", "embed"),
        # tfm0's layer-norm variance overflows, yet the output would be finite
        (1, 1e20, None, "tfm0."),
    ], ids=["first-value-full-scale", "whole-row-embed-only",
            "finite-output-full-scale"])
    def test_overflowing_input_names_file_frames_and_layer(self, tmp_path, capsys,
                                                           columns, value, config,
                                                           layer):
        # finite values overflow inside the forward; no numpy warning, one
        # error line
        inp = tmp_path / "in.txt"
        seq = gen_synthetic(seed=0, frames=96, kind="sparse_input")
        data = seq.data.copy()
        data[10, :columns] = value
        save_sequence(inp, Sequence(kind="sparse_input", data=data, fps=seq.fps))
        argv = ["infer", str(inp), "--out", str(tmp_path / "o.txt")]
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"kinescan: error: {inp}: frames 0-95: non-finite "
                                f"values, first in layer {layer!r}\n")

    def test_overflow_in_a_later_window_names_its_frames(self, tmp_path, capsys,
                                                         micro_cfg_path):
        inp = tmp_path / "in.txt"
        seq = gen_synthetic(seed=0, frames=60, kind="sparse_input")
        data = seq.data.copy()
        data[50] = 3e38  # the partial third window of the 24-frame config
        save_sequence(inp, Sequence(kind="sparse_input", data=data, fps=seq.fps))
        assert main(["infer", str(inp), "--config", micro_cfg_path,
                     "--out", str(tmp_path / "o.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"kinescan: error: {inp}: frames 48-59: non-finite ")
        assert err.count("\n") == 1

    def test_missing_input_file(self, tmp_path, micro_cfg_path, capsys):
        code = main(["infer", str(tmp_path / "absent.txt"),
                     "--config", micro_cfg_path,
                     "--out", str(tmp_path / "o.txt")])
        assert code == 1


class TestEval:
    def test_self_comparison_near_zero(self, tmp_path, capsys):
        pose = tmp_path / "pose.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "8",
              "--out", str(pose)])
        capsys.readouterr()  # drop the gen-synthetic status line
        report = tmp_path / "report.txt"
        assert main(["eval", str(pose), str(pose), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.splitlines():
            key, _, value = line.partition(":")
            values[key.strip()] = value.strip()
        assert float(values["mpjre_deg"]) < 1e-4
        assert float(values["mpjpe_cm"]) == 0.0
        assert float(values["mpjve_cm_s"]) == 0.0
        assert values["frames"] == "8"
        assert report.read_text() == out

    @pytest.mark.parametrize("rate", ["60", "59.94005994005994"])
    def test_report_prints_the_rate_of_the_files(self, tmp_path, capsys, rate):
        pose = tmp_path / "pose.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--fps", rate,
              "--out", str(pose)])
        assert f"\n#fps {rate}\n" in pose.read_text()
        capsys.readouterr()
        assert main(["eval", str(pose), str(pose)]) == 0
        assert capsys.readouterr().out.endswith(f"\nfps: {rate}\n")

    def test_non_finite_jitter_refused_naming_both_files(self, tmp_path, capsys):
        # at 5e102 fps, fps^3 is finite, but root translations that swing
        # by 3e38 each frame take jitter past the largest float64
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        root = np.zeros((6, 3), dtype=np.float32)
        root[::2, 0] = 3e38
        data = np.concatenate([gen_synthetic(0, 6, "pose").data, root], axis=1)
        for path in (pred, gt):
            save_sequence(path, Sequence(kind="pose", data=data, fps=5e102))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", str(pred), str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"kinescan: error: evaluating {pred} against {gt}: jitter_pred: "
            "jitter is inf at 5e+102 fps, not a finite float64"
        ]

    def test_short_sequence_reports_na_jitter(self, tmp_path, capsys):
        pose = tmp_path / "pose.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "3",
              "--out", str(pose)])
        assert main(["eval", str(pose), str(pose)]) == 0
        assert "jitter_pred: n/a" in capsys.readouterr().out

    def test_infinite_fps_file_rejected_naming_path(self, tmp_path, capsys):
        gt, gt_inf = tmp_path / "gt.txt", tmp_path / "gt_inf.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(gt)])
        gt_inf.write_text(gt.read_text().replace("#fps 60\n", "#fps inf\n"))
        capsys.readouterr()
        assert main(["eval", str(gt), str(gt_inf)]) == 1
        captured = capsys.readouterr()
        assert f"{gt_inf}: fps must be a finite positive number" in captured.err
        assert captured.out == ""

    def test_rate_too_high_for_jitter_rejected_naming_path(self, tmp_path, capsys):
        # 1e300 is finite, but its cube, which scales jitter, is not
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(gt)])
        text = gt.read_text().replace("#fps 60\n", "#fps 1e300\n")
        pred.write_text(text)
        gt.write_text(text)
        capsys.readouterr()
        assert main(["eval", str(pred), str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"kinescan: error: {pred}: fps 1e+300 is too high: fps^3, which "
            "scales jitter, overflows float64"
        ]

    def test_length_mismatch_rejected(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(a)])
        main(["gen-synthetic", "--kind", "pose", "--frames", "7", "--out", str(b)])
        assert main(["eval", str(a), str(b)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_single_frame_names_both_files(self, tmp_path, capsys):
        a, b = tmp_path / "one_a.txt", tmp_path / "one_b.txt"
        for path in (a, b):
            main(["gen-synthetic", "--kind", "pose", "--frames", "1", "--out", str(path)])
        capsys.readouterr()
        assert main(["eval", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "fewer than two frames" in captured.err
        assert f"{a} has 1 frames at 60 fps" in captured.err
        assert f"{b} has 1 frames at 60 fps" in captured.err
        assert captured.out == ""

    def test_root_less_prediction_against_rooted_truth_refused(self, tmp_path,
                                                               capsys):
        # a root-less file would score against a zero root: a perfect
        # prediction of a 3 m walk would read 150 cm of position error
        poses = gen_synthetic(0, 6, "pose").data
        root = np.zeros((6, 3), dtype=np.float32)
        root[:, 0] = np.linspace(0.0, 3.0, 6)
        pred, gt, pred_rooted = (tmp_path / name for name in
                                 ("pred.txt", "gt.txt", "pred_rooted.txt"))
        save_sequence(pred, Sequence(kind="pose", data=poses))
        rooted = Sequence(kind="pose", data=np.concatenate([poses, root], axis=1))
        save_sequence(gt, rooted)
        save_sequence(pred_rooted, rooted)
        capsys.readouterr()
        assert main(["eval", str(pred), str(gt)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "kinescan: error: frame count, rate or column mismatch, or fewer than "
            f"two frames: {pred} has 6 frames at 60 fps, {gt} has 6 frames at "
            "60 fps, with 132 and 135 columns"
        ]
        # a rooted pair is still scored
        assert main(["eval", str(pred_rooted), str(gt)]) == 0
        assert "mpjpe_cm: 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["pred-30", "gt-30"])
    def test_frame_rate_mismatch_names_both_files(self, tmp_path, capsys, order):
        slow, fast = tmp_path / "pose30.txt", tmp_path / "pose60.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--fps", "30",
              "--out", str(slow)])
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(fast)])
        files = [str(slow), str(fast)] if order == "pred-30" else [str(fast), str(slow)]
        capsys.readouterr()
        assert main(["eval", *files]) == 1
        captured = capsys.readouterr()
        assert "mismatch" in captured.err
        assert f"{slow} has 6 frames at 30 fps" in captured.err
        assert f"{fast} has 6 frames at 60 fps" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("which", ["pred", "gt"])
    def test_sparse_input_file_refused_by_name(self, tmp_path, capsys, which):
        pose, sparse = tmp_path / "pose.txt", tmp_path / "sparse.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(pose)])
        main(["gen-synthetic", "--frames", "6", "--out", str(sparse)])
        files = [str(sparse), str(pose)] if which == "pred" else [str(pose), str(sparse)]
        capsys.readouterr()
        assert main(["eval", *files]) == 1
        assert (f"{sparse}: expected a pose sequence, got kind 'sparse_input'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("which", ["pred", "gt"])
    def test_degenerate_6d_names_file_frame_and_joint(self, tmp_path, capsys, which):
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", "6", "--out", str(good)])
        seq = load_sequence(good, "pose")
        data = seq.data.copy()
        data[4, 6 * 13:6 * 13 + 3] = 0.0  # frame 4, joint 13: first column zero
        save_sequence(bad, Sequence(kind="pose", data=data, fps=seq.fps))
        files = [str(bad), str(good)] if which == "pred" else [str(good), str(bad)]
        capsys.readouterr()
        assert main(["eval", *files]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: frame 4, joint 13: first 6D vector has near-zero norm" in err

    @pytest.mark.parametrize("which", ["pred", "gt"])
    def test_degenerate_6d_in_a_later_block_names_the_absolute_frame(
            self, tmp_path, capsys, which):
        frame = kinematics_mod.FRAME_BLOCK + 5
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        main(["gen-synthetic", "--kind", "pose", "--frames", str(frame + 5),
              "--out", str(good)])
        seq = load_sequence(good, "pose")
        data = seq.data.copy()
        data[frame, 6 * 13:6 * 13 + 3] = 0.0
        save_sequence(bad, Sequence(kind="pose", data=data, fps=seq.fps))
        files = [str(bad), str(good)] if which == "pred" else [str(good), str(bad)]
        capsys.readouterr()
        assert main(["eval", *files]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: frame {frame}, joint 13: first 6D vector has near-zero norm" in err


class TestVerify:
    def test_all_pass_exit_zero(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out
        assert "8/8 properties passed" in out

    def test_corruption_exits_two(self, capsys, monkeypatch):
        monkeypatch.setitem(kinematics_mod.SCAN_ORDERS, "uks", tuple(range(22)))
        assert main(["verify"]) == 2
        out = capsys.readouterr().out
        assert "FAIL scan_orders" in out


class TestTrainMicro:
    def test_short_run_writes_artifacts(self, tmp_path, capsys):
        ckpt = tmp_path / "w.ckpt"
        trace = tmp_path / "trace.txt"
        code = main(["train-micro", "--iters", "25", "--seed", "0",
                     "--out", str(ckpt), "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "initial loss" in out and "reduction" in out
        assert len(trace.read_text().splitlines()) == 25
        weights = load_checkpoint(ckpt)
        assert "embed.weight" in weights

    def test_accepts_pose_data_file(self, tmp_path, capsys):
        data = tmp_path / "pose.txt"
        save_sequence(data, gen_synthetic(seed=3, frames=24, kind="pose"))
        assert main(["train-micro", "--iters", "5", "--data", str(data)]) == 0

    def test_wrong_frame_count_rejected(self, tmp_path, capsys):
        data = tmp_path / "pose.txt"
        save_sequence(data, gen_synthetic(seed=3, frames=10, kind="pose"))
        assert main(["train-micro", "--iters", "5", "--data", str(data)]) == 1
        assert "frames" in capsys.readouterr().err

    def test_rooted_data_refused_naming_file_and_columns(self, tmp_path, capsys):
        # training derives the rig from local poses; a walking root would be lost
        seq = gen_synthetic(seed=3, frames=24, kind="pose")
        root = np.zeros((24, 3), dtype=np.float32)
        root[:, 0] = 0.1 * np.arange(24)
        data = tmp_path / "rooted.txt"
        save_sequence(data, Sequence(kind="pose", data=np.concatenate([seq.data, root],
                                                                      axis=1)))
        assert main(["train-micro", "--iters", "1", "--data", str(data)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"kinescan: error: {data}: 24 frames of 135 columns, config expects "
            "24 frames of root-less poses (132 columns)"
        ]

    def test_data_rate_overflowing_rig_velocity_names_file(self, tmp_path, capsys):
        seq = gen_synthetic(seed=3, frames=24, kind="pose")
        data = tmp_path / "fast.txt"
        save_sequence(data, Sequence(kind="pose", data=seq.data, fps=1e50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train-micro", "--iters", "1", "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"kinescan: error: {data}: fps 1e+50 is too high: rig velocities "
            "overflow float32"
        ]

    def test_degenerate_6d_in_data_names_file_frame_and_joint(self, tmp_path, capsys):
        seq = gen_synthetic(seed=3, frames=24, kind="pose")
        data = seq.data.copy()
        data[4, 6 * 13:6 * 13 + 3] = 0.0  # frame 4, joint 13: first column zero
        bad = tmp_path / "bad.txt"
        save_sequence(bad, Sequence(kind="pose", data=data, fps=seq.fps))
        assert main(["train-micro", "--iters", "1", "--data", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"{bad}: frame 4, joint 13: first 6D vector has near-zero norm" in err

    def test_config_over_parameter_cap_names_file(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("seq_len=24\n")  # full-scale widths
        assert main(["train-micro", "--iters", "1", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: configuration has " in err and "capped at 20000" in err


class TestBench:
    def test_prints_table(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "256" in out and "4096" in out
        assert "speedup" in out.lower() or "chunked" in out.lower()


class TestArgErrors:
    def test_no_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_missing_required_option_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-synthetic"])  # --out is required
        assert exc.value.code == 1

    # eval --fps and bench --chunk, --seed, --trials and --t-list are gone
    # from the CLI; their rows, and each *-removed row, pass because argparse
    # refuses an unrecognized flag with exit 1, naming it
    @pytest.mark.parametrize("argv, flag", [
        (["train-micro", "--iters", "-1"], "--iters"),
        (["bench", "--trials", "0"], "--trials"),
        (["bench", "--t-list", "256,abc"], "--t-list"),
        (["bench", "--t-list", "0,128"], "--t-list"),
        (["gen-synthetic", "--frames", "0", "--out", "o.txt"], "--frames"),
        (["gen-synthetic", "--fps", "0", "--out", "o.txt"], "--fps"),
        (["eval", "pred.txt", "gt.txt", "--fps", "0"], "--fps"),
        (["eval", "pred.txt", "gt.txt", "--fps", "nan"], "--fps"),
        (["gen-synthetic", "--fps", "inf", "--out", "o.txt"], "--fps"),
        (["eval", "pred.txt", "gt.txt", "--fps", "inf"], "--fps"),
        (["infer", "in.txt", "--chunk", "16", "--out", "o.txt"], "--chunk"),
        (["eval", "pred.txt", "gt.txt", "--skeleton", "s.txt"], "--skeleton"),
        (["train-micro", "--skeleton", "s.txt"], "--skeleton"),
        (["bench", "--chunk", "0"], "--chunk"),
        (["gen-synthetic", "--seed", "-1", "--out", "o.txt"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["train-micro", "--seed", "-1"], "--seed"),
        (["bench", "--seed", "-1"], "--seed"),
        (["bench", "--t-list", "64"], "--t-list"),
        (["bench", "--t-list", "64,64"], "--t-list"),
        (["gen-synthetic", "--seed", str(2 ** 64), "--out", "o.txt"], "--seed"),
        (["verify", "--seed", str(2 ** 64)], "--seed"),
        (["train-micro", "--seed", str(2 ** 64)], "--seed"),
        # int() and float() take these; sequence files refuse them
        (["gen-synthetic", "--frames", "1_0", "--out", "o.txt"], "--frames"),
        (["gen-synthetic", "--fps", "\uff160", "--out", "o.txt"], "--fps"),
        (["gen-synthetic", "--fps", "6_0.0", "--out", "o.txt"], "--fps"),
        (["gen-synthetic", "--seed", "\u0663", "--out", "o.txt"], "--seed"),
        (["train-micro", "--iters", "1_0"], "--iters"),
        (["verify", "--seed", "\u0968"], "--seed"),
    ], ids=["iters-negative", "trials-zero", "t-list-not-int", "t-list-zero",
            "frames-zero", "fps-zero", "eval-fps-zero", "eval-fps-nan",
            "fps-inf", "eval-fps-inf", "infer-chunk-removed", "eval-skeleton-removed",
            "train-micro-skeleton-removed", "bench-chunk-zero",
            "gen-synthetic-seed-negative", "verify-seed-negative",
            "train-micro-seed-negative", "bench-seed-negative", "t-list-single",
            "t-list-repeated", "gen-synthetic-seed-2**64", "verify-seed-2**64",
            "train-micro-seed-2**64", "frames-underscore", "fps-fullwidth",
            "fps-underscore", "seed-arabic-indic", "iters-underscore",
            "verify-seed-devanagari"])
    def test_refused_flag_is_named(self, tmp_path, monkeypatch, capsys, argv, flag):
        monkeypatch.chdir(tmp_path)  # a command that ran would write o.txt here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["gen-synthetic", "--out", "o.txt"],
                                         ["verify"], ["train-micro"]])
    def test_largest_seed_accepted(self, command):
        args = _build_parser().parse_args([*command, "--seed", str(2 ** 64 - 1)])
        assert args.seed == 2 ** 64 - 1

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0"])
    def test_fps_flag_must_be_finite_positive(self, tmp_path, monkeypatch, capsys,
                                              value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit):
            main(["gen-synthetic", f"--fps={value}", "--out", "o.txt"])
        assert "must be a finite positive number" in capsys.readouterr().err


def test_readme_command_lines_parse():
    # a flag removed from the CLI must not linger in the documented examples
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("kinescan ")]
    parser = _build_parser()
    documented = {parser.parse_args(shlex.split(line)[1:]).command for line in lines}
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert documented == set(commands)


def test_subcommand_argument_table():
    # every subcommand and the dests of its arguments, as _build_parser
    # builds them: a new flag or command has to be added here on purpose
    parser = _build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    table = {name: [a.dest for a in sub._actions if a.dest != "help"]
             for name, sub in commands.items()}
    assert table == {
        "orders": [],
        "gen-synthetic": ["kind", "frames", "seed", "fps", "out"],
        "infer": ["input", "config", "weights", "out"],
        "eval": ["pred", "gt", "out"],
        "verify": ["seed"],
        "train-micro": ["config", "data", "iters", "seed", "out", "trace"],
        "bench": [],
    }
    assert sum(map(len, table.values())) == 19


def _child_env():
    """This environment, with the package's ``src`` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _modules_loaded_by_cli_import():
    """The names in ``sys.modules`` after a fresh ``import kinescan.cli``."""
    code = "import sys, kinescan.cli; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return set(done.stdout.split())


def test_cli_import_does_not_load_scipy():
    # every fresh `kinescan` process pays for what importing the CLI loads
    loaded = _modules_loaded_by_cli_import()
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


def test_cli_import_loads_no_command_only_module():
    # infer and eval use none of these; the commands that do import them
    only = {f"kinescan.{m}" for m in ("bench", "synthetic", "training", "verify")}
    assert sorted(_modules_loaded_by_cli_import() & only) == []


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the process-entry heap policy applies to glibc only")
def test_fresh_infer_reuses_heap_pages_across_windows(tmp_path):
    # each full-scale window allocates and frees multi-MB temporaries; a
    # fresh process must reuse those heap pages, not map and fault them in
    # anew per window (measured on a 2-core x86 box with glibc: about 60 extra
    # minor faults per window with the heap policy, about 3,500 without it)
    ckpt = tmp_path / "w.ckpt"
    save_checkpoint(ckpt, init_weights(ModelConfig()))
    env = {**_child_env(), "OPENBLAS_NUM_THREADS": "1"}
    faults = {}
    for windows in (2, 8):
        inp = tmp_path / f"in{windows}.txt"
        save_sequence(inp, gen_synthetic(0, 96 * windows, "sparse_input"))
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        done = subprocess.run(
            [sys.executable, "-m", "kinescan.cli", "infer", str(inp),
             "--weights", str(ckpt), "--out", str(tmp_path / "out.txt")],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        faults[windows] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    per_window = (faults[8] - faults[2]) / 6
    assert per_window < 1000, f"{per_window:.0f} minor faults per extra window"
