import re
import struct
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kinescan.io import (
    Sequence,
    format_metric_report,
    load_checkpoint,
    load_run_config,
    load_sequence,
    pose_from_sequence,
    save_checkpoint,
    save_sequence,
    sequence_from_pose,
)
from kinescan.metrics import MetricReport
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights
from kinescan.synthetic import gen_synthetic

from conftest import MICRO_CONFIG_TEXT, make_rng


class TestSequence:
    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            Sequence(kind="mystery", data=rng.standard_normal((4, 36)))

    def test_wrong_columns_rejected(self, rng):
        with pytest.raises(ValueError):
            Sequence(kind="sparse_input", data=rng.standard_normal((4, 35)))
        with pytest.raises(ValueError):
            Sequence(kind="pose", data=rng.standard_normal((4, 130)))

    def test_pose_accepts_both_widths(self, rng):
        for cols in (132, 135):
            seq = Sequence(kind="pose", data=rng.standard_normal((4, cols)))
            assert seq.frames == 4

    def test_nonfinite_rejected(self):
        data = np.zeros((2, 36))
        data[1, 0] = np.nan
        with pytest.raises(ValueError):
            Sequence(kind="sparse_input", data=data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Sequence(kind="sparse_input", data=np.zeros((0, 36)))

    def test_bad_fps_rejected(self):
        with pytest.raises(ValueError):
            Sequence(kind="sparse_input", data=np.zeros((2, 36)), fps=-1.0)

    @pytest.mark.parametrize("fps", [np.inf, -np.inf, np.nan])
    def test_non_finite_fps_rejected(self, fps):
        with pytest.raises(ValueError, match="fps must be a finite positive number"):
            Sequence(kind="sparse_input", data=np.zeros((2, 36)), fps=fps)


class TestSequenceFile:
    def test_round_trip_bitwise(self, tmp_path, rng):
        data = rng.standard_normal((17, 36)).astype(np.float32)
        # signed zeros, the smallest subnormals, FLT_MIN and +-FLT_MAX
        f32 = np.finfo(np.float32)
        data[3, :8] = [0.0, -0.0, 1e-45, -1e-45, f32.tiny, -f32.tiny, f32.max, -f32.max]
        seq = Sequence(kind="sparse_input", data=data, fps=59.94)
        path = tmp_path / "seq.txt"
        save_sequence(path, seq)
        again = load_sequence(path, "sparse_input")
        assert again.kind == "sparse_input"
        assert again.fps == np.float64(np.float32(59.94)) or again.fps == 59.94
        assert np.array_equal(again.data, data)
        assert np.array_equal(np.signbit(again.data), np.signbit(data))

    def test_saved_file_is_byte_stable(self, tmp_path, rng):
        seq = Sequence(kind="pose", data=rng.standard_normal((5, 132)))
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_sequence(a, seq)
        save_sequence(b, load_sequence(a, "pose"))
        assert a.read_bytes() == b.read_bytes()

    def test_header_content(self, tmp_path):
        seq = Sequence(kind="sparse_input", data=np.zeros((2, 36)), fps=30.0)
        path = tmp_path / "seq.txt"
        save_sequence(path, seq)
        lines = path.read_text().splitlines()
        assert lines[0] == "#kinescan-sequence v1"
        assert "#kind sparse_input" in lines
        assert "#frames 2" in lines
        assert "#columns 36" in lines
        assert "#fps 30" in lines

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#something else\n0 0\n")
        with pytest.raises(ValueError, match="magic"):
            load_sequence(path, "sparse_input")

    def test_frame_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=np.zeros((3, 36))))
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1]) + "\n")  # drop one data row
        with pytest.raises(ValueError, match="frames"):
            load_sequence(path, "sparse_input")

    def test_column_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=np.zeros((2, 36))))
        lines = path.read_text().splitlines()
        lines[-1] = "1 2 3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="columns"):
            load_sequence(path, "sparse_input")

    def test_missing_header_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#kinescan-sequence v1\n#kind pose\n#frames 0\n#fps 60\n")
        with pytest.raises(ValueError, match="columns"):
            load_sequence(path, "pose")

    def test_unparsable_header_value_names_path_and_field(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#kinescan-sequence v1\n#kind pose\n#frames abc\n"
                        "#columns 132\n#fps 60\n")
        with pytest.raises(ValueError, match=r"bad\.txt: header field 'frames'.*'abc'"):
            load_sequence(path, "pose")

    @pytest.mark.parametrize("field, text", [
        ("frames", "9_6"), ("frames", "\uff19\uff16"), ("columns", "3_6"),
        ("fps", "\uff16\uff10"), ("fps", "6_0"), ("frames", "\u0669\u0666"),
    ], ids=["frames-underscore", "frames-fullwidth", "columns-underscore",
            "fps-fullwidth", "fps-underscore", "frames-arabic-indic"])
    def test_header_numbers_follow_the_row_rule(self, tmp_path, field, text):
        # int and float take "_" separators and non-ASCII digits; the header
        # refuses them as the rows do
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=np.zeros((96, 36))))
        value = {"frames": "96", "columns": "36", "fps": "60"}[field]
        path.write_text(path.read_text().replace(f"#{field} {value}\n",
                                                 f"#{field} {text}\n"))
        with pytest.raises(ValueError) as exc:
            load_sequence(path, "sparse_input")
        conv = "float" if field == "fps" else "int"
        assert str(exc.value) == (
            f"{path}: header field {field!r} is not a valid {conv}: {text!r}")

    @pytest.mark.parametrize("frames, columns", [(1, -5), (0, 36), (0, -5)])
    def test_nonpositive_header_sizes_name_path(self, tmp_path, frames, columns):
        path = tmp_path / "bad.txt"
        body = "0\n" * frames
        path.write_text(f"#kinescan-sequence v1\n#kind sparse_input\n#frames {frames}\n"
                        f"#columns {columns}\n#fps 60\n{body}")
        with pytest.raises(ValueError, match=r"bad\.txt:"):
            load_sequence(path, "sparse_input")

    def test_unparsable_body_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=np.zeros((3, 36))))
        lines = path.read_text().splitlines()
        lines[6] = "x" + lines[6][1:]  # frame 1, the 7th line of the file
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt:7: frame 1: .*'x'"):
            load_sequence(path, "sparse_input")

    def test_invalid_values_name_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=np.zeros((2, 36))))
        lines = path.read_text().splitlines()
        lines[5] = "nan" + lines[5][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt: sequence values must be finite"):
            load_sequence(path, "sparse_input")

    @pytest.mark.parametrize("field, value", [("kind", "pose"), ("frames", "4"),
                                              ("columns", "132"), ("fps", "30")])
    def test_repeated_header_field_rejected_with_location(self, tmp_path, field, value):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="pose", data=np.ones((4, 132))))
        lines = path.read_text().splitlines()
        lines.insert(5, f"#{field} {value}")  # after the four written fields
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_sequence(path, "pose")
        assert str(exc.value) == f"{path}:6: repeated header field '{field}'"

    def test_repeated_free_header_line_loads(self, tmp_path):
        path = tmp_path / "seq.txt"
        seq = Sequence(kind="pose", data=np.ones((4, 132)), fps=30.0)
        save_sequence(path, seq)
        lines = path.read_text().splitlines()
        lines[5:5] = ["#note first take", "#note second take"]
        path.write_text("\n".join(lines) + "\n")
        got = load_sequence(path, "pose")
        assert got.fps == 30.0
        np.testing.assert_array_equal(got.data, seq.data)

    def test_infinite_fps_header_names_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        save_sequence(path, Sequence(kind="pose", data=np.ones((4, 132))))
        path.write_text(path.read_text().replace("#fps 60\n", "#fps inf\n"))
        with pytest.raises(ValueError,
                           match=r"bad\.txt: fps must be a finite positive number, got inf"):
            load_sequence(path, "pose")

    @pytest.mark.parametrize("kind, other", [("pose", "sparse_input"),
                                             ("sparse_input", "pose")])
    def test_other_kind_refused_naming_path(self, tmp_path, kind, other):
        path = tmp_path / "seq.txt"
        save_sequence(path, gen_synthetic(1, 4, other))
        with pytest.raises(ValueError) as exc:
            load_sequence(path, kind)
        assert str(exc.value) == f"{path}: expected a {kind} sequence, got kind {other!r}"


def _write_body(path, rows, columns, kind="sparse_input"):
    """A sequence file with the given body lines under a valid header."""
    path.write_text(f"#kinescan-sequence v1\n#kind {kind}\n#frames {len(rows)}\n"
                    f"#columns {columns}\n#fps 60\n" + "".join(r + "\n" for r in rows))
    return path


def _float_parse(lines):
    """The body as a per-value ``float`` loop reads it, which is how
    sequence files were parsed before one ``np.loadtxt`` call replaced it."""
    return np.array([[float(p) for p in line.split()] for line in lines if line.strip()],
                    dtype=np.float32)


class TestBodyParse:
    """The body is parsed in one call; its values, and the line a refused
    body names, are those of a per-value ``float`` parse."""

    def test_bitwise_equal_to_float_parse(self, tmp_path, rng):
        # finite float32 values from random bit patterns span every exponent
        bits = rng.integers(0, 1 << 32, size=(64, 36), dtype=np.uint64).astype(np.uint32)
        data = bits.view(np.float32)
        data[~np.isfinite(data)] = 1.0
        f32 = np.finfo(np.float32)
        data[0, :10] = [0.0, -0.0, 1e-45, -1e-45, f32.smallest_subnormal * 77,
                        -f32.tiny / 3, f32.tiny, -f32.tiny, f32.max, -f32.max]
        path = tmp_path / "seq.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=data))
        got = load_sequence(path, "sparse_input").data
        expected = _float_parse(path.read_text().splitlines()[5:])
        assert got.tobytes() == expected.tobytes() == data.tobytes()

    def test_whitespace_and_blank_lines(self, tmp_path, rng):
        data = rng.standard_normal((4, 36)).astype(np.float32)
        path = tmp_path / "seq.txt"
        save_sequence(path, Sequence(kind="sparse_input", data=data))
        lines = path.read_text().splitlines()
        lines[5] = "\t".join(lines[5].split())
        lines[6] = "   " + "   ".join(lines[6].split()) + "  \t"
        lines[7:7] = ["", "  \t "]
        path.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
        got = load_sequence(path, "sparse_input").data
        assert got.tobytes() == _float_parse(lines[5:]).tobytes() == data.tobytes()

    @pytest.mark.parametrize("bad, message", [
        ("1 2 3", "frame 2 has 3 columns, expected 36"),
        ("x", "frame 2: could not convert string to float: 'x'"),
        ("1_0", "frame 2: could not convert string to float: '1_0'"),
        ("\u0661", "frame 2: could not convert string to float: '\u0661'"),
        ("#note", "frame 2: could not convert string to float: '#note'"),
    ], ids=["ragged", "letter", "underscore", "arabic-indic-digit", "comment"])
    def test_refused_body_names_path_line_and_frame(self, tmp_path, bad, message):
        rows = [" ".join(["0.5"] * 36)] * 4
        # the bad value replaces the first of a full row, except the ragged row
        rows[2] = bad if bad == "1 2 3" else " ".join([bad] + ["0.5"] * 35)
        path = _write_body(tmp_path / "bad.txt", rows, 36)
        # frame 2 follows the magic line, four header lines and two rows
        with pytest.raises(ValueError) as exc:
            load_sequence(path, "sparse_input")
        assert str(exc.value) == f"{path}:8: {message}"

    def test_no_frames_refused_without_a_warning(self, tmp_path):
        path = _write_body(tmp_path / "bad.txt", [], 36)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                load_sequence(path, "sparse_input")
        assert str(exc.value) == f"{path}: a sequence needs at least one frame"

    def test_parse_peaks_near_the_file_size(self, tmp_path, rng):
        path = tmp_path / "pose.txt"
        save_sequence(path, sequence_from_pose(rng.standard_normal((1920, 22, 6))))
        _, peak = _traced_peak(load_sequence, path, "pose")
        size = path.stat().st_size
        assert peak <= 2.5 * size, f"peak {peak / size:.2f}x the file's {size} bytes"


class TestPosePacking:
    def test_round_trip_without_root(self, rng):
        pose = rng.standard_normal((6, 22, 6)).astype(np.float32)
        seq = sequence_from_pose(pose)
        got, root = pose_from_sequence(seq)
        assert root is None
        assert np.array_equal(got, pose)

    def test_round_trip_with_root(self, rng):
        pose = rng.standard_normal((6, 22, 6)).astype(np.float32)
        root = rng.standard_normal((6, 3)).astype(np.float32)
        data = np.concatenate([pose.reshape(6, 132), root], axis=1)
        got, got_root = pose_from_sequence(Sequence(kind="pose", data=data))
        assert np.array_equal(got, pose)
        assert np.array_equal(got_root, root)

    def test_wrong_pose_shape_rejected(self, rng):
        with pytest.raises(ValueError):
            sequence_from_pose(rng.standard_normal((6, 21, 6)))

    def test_wrong_kind_rejected(self, rng):
        seq = Sequence(kind="sparse_input", data=rng.standard_normal((4, 36)))
        with pytest.raises(ValueError):
            pose_from_sequence(seq)


class TestRunConfig:
    def test_keys_are_the_model_fields(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MICRO_CONFIG_TEXT.replace("seed=0", "seed=7"))
        assert load_run_config(path) == ModelConfig(seed=7, **MICRO_CONFIG_KWARGS)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embed_dim=16\nwarp_factor=9\n")
        with pytest.raises(ValueError, match=r"warp_factor"):
            load_run_config(path)

    @pytest.mark.parametrize("key", ["tie_bidirectional", "gma_positional", "chunk",
                                     "joints", "input_dim", "output_dim",
                                     "alpha", "beta", "delta", "fps"])
    def test_removed_ablation_flags_are_unknown_keys(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed=25\n{key}=false\n")
        with pytest.raises(ValueError, match=rf"run\.cfg:2: unknown key '{key}'"):
            load_run_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embed_dim=tiny\n")
        with pytest.raises(ValueError, match="embed_dim"):
            load_run_config(path)

    @pytest.mark.parametrize("line, message", [
        ("embed_dim=0", "embed_dim must be positive"),
    ])
    def test_invalid_value_names_path(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"seed=1\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_run_config(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_negative_seed_names_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seq_len=24\nseed=-1\n")
        with pytest.raises(ValueError) as exc:
            load_run_config(path)
        assert str(exc.value) == f"{path}: seed must be in 0..2**64-1, got -1"

    def test_repeated_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seq_len=24\nseed=3\nseq_len=48\n")
        with pytest.raises(ValueError) as exc:
            load_run_config(path)
        assert str(exc.value) == f"{path}:3: repeated key 'seq_len'"

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("embed_dim 16\n")
        with pytest.raises(ValueError, match="key=value"):
            load_run_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\nseed=25  # trailing\n")
        assert load_run_config(path) == ModelConfig(seed=25)

    # Python's int() takes these; sequence headers and rows refuse them
    @pytest.mark.parametrize("line", ["embed_dim=1_6", "joint_dim=\u0664",
                                      "seed=\uff17", "seq_len=\u0662\u0664"])
    def test_int_values_are_ascii_decimals(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"n_tfm=1\n{line}\n", encoding="utf-8")
        key, value = line.split("=")
        with pytest.raises(ValueError) as exc:
            load_run_config(path)
        assert str(exc.value) == (f"{path}:2: bad value for {key}: "
                                  f"could not convert string to int: {value!r}")

def test_readme_run_config_keys_are_the_model_fields():
    # the documented key list must not drift from the loader's keys
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("**Run configs**", 1)[1].split("\n\n", 1)[0]
    count, keys = re.search(r"with (\d+) keys, all model\s+hyperparameters:([^.]*)\.",
                            paragraph).groups()
    documented = re.findall(r"`(\w+)`", keys)
    assert documented == [f.name for f in fields(ModelConfig)]
    assert int(count) == len(documented)


class TestCheckpoint:
    def test_round_trip_model_weights(self, tmp_path):
        weights = init_weights(ModelConfig(seed=0, **MICRO_CONFIG_KWARGS))
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, weights)
        again = load_checkpoint(path)
        assert again.keys() == weights.keys()
        for name in weights:
            assert np.array_equal(again[name], weights[name])
            assert again[name].dtype == np.float32

    def test_file_is_byte_stable(self, tmp_path, rng):
        weights = {"b": rng.standard_normal((3, 4)).astype(np.float32),
                   "a": rng.standard_normal(5).astype(np.float32)}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, weights)
        save_checkpoint(b, load_checkpoint(a))
        assert a.read_bytes() == b.read_bytes()

    def test_insertion_order_does_not_matter(self, tmp_path, rng):
        t1 = rng.standard_normal(4).astype(np.float32)
        t2 = rng.standard_normal((2, 2)).astype(np.float32)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, {"x": t1, "y": t2})
        save_checkpoint(b, {"y": t2, "x": t1})
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT-A-CHECKPOINT")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"a": rng.standard_normal(8).astype(np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"a": rng.standard_normal(8).astype(np.float32)})
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_names_path(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"ab": rng.standard_normal(2).astype(np.float32)})
        path.write_bytes(path.read_bytes().replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(ValueError, match=r"w\.ckpt: tensor name .*UTF-8"):
            load_checkpoint(path)

    def test_overflowing_dims_reported_as_truncated(self, tmp_path):
        # 2**16 ** 4 wraps to 0 in int64; the size check must still fire
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"a": np.zeros((1, 1, 1, 1), dtype=np.float32)})
        raw = path.read_bytes()
        dims = np.array([1, 1, 1, 1], dtype="<u4").tobytes()
        path.write_bytes(raw.replace(dims, np.full(4, 2 ** 16, dtype="<u4").tobytes()))
        with pytest.raises(ValueError, match=r"w\.ckpt: truncated tensor 'a'"):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # two tensors of one size whose names differ in one byte, then made equal
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32),
                               "b": np.ones(2, dtype=np.float32)})
        raw = path.read_bytes()
        tail = raw.rindex(b"b")
        path.write_bytes(raw[:tail] + b"a" + raw[tail + 1:])
        with pytest.raises(ValueError, match=r"w\.ckpt: tensor 'a' appears twice"):
            load_checkpoint(path)

    def test_scalar_saved_as_length_one_vector(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"s": np.float32(2.5)})
        got = load_checkpoint(path)["s"]
        assert got.shape == (1,) and got[0] == np.float32(2.5)


def _traced_peak(fn, *args):
    """(result, peak bytes that ``fn`` allocated through tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestStreamingIo:
    """Loading a checkpoint holds no copy of the file, and writing a
    sequence holds no copy of its text."""

    def test_checkpoint_load_peaks_at_its_tensor_bytes(self, tmp_path, rng):
        weights = {"a": rng.standard_normal((512, 1024)).astype(np.float32),
                   "b": rng.standard_normal(999).astype(np.float32),
                   "c": rng.standard_normal((3, 256, 512)).astype(np.float32)}
        nbytes = sum(t.nbytes for t in weights.values())
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, weights)
        got, peak = _traced_peak(load_checkpoint, path)
        assert peak <= 1.1 * nbytes, f"peak {peak} for {nbytes} tensor bytes"
        for name in weights:
            assert np.array_equal(got[name], weights[name])

    def test_loaded_tensors_aligned_writable_and_independent(self, tmp_path, rng):
        path = tmp_path / "w.ckpt"
        # odd name lengths and sizes put every tensor at an unaligned file offset
        save_checkpoint(path, {"a": rng.standard_normal((3, 5)).astype(np.float32),
                               "bb": rng.standard_normal(7).astype(np.float32),
                               "ccc": rng.standard_normal((2, 2, 3)).astype(np.float32)})
        got = load_checkpoint(path)
        for tensor in got.values():
            assert tensor.dtype == np.float32
            assert tensor.flags.aligned and tensor.flags.writeable
            assert tensor.flags.c_contiguous
        names = sorted(got)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(got[a], got[b])

    def test_rank_zero_and_zero_size_tensors(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"e": np.zeros((0, 3), dtype=np.float32)})
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, load_checkpoint(path))
        assert again.read_bytes() == path.read_bytes()
        assert load_checkpoint(again)["e"].shape == (0, 3)
        # save_checkpoint writes a scalar as a length-one vector, so a rank-0
        # record is written by hand: name "s", rank 0, no dims, one float
        path.write_bytes(b"KINESCAN-CKPT\x00" + struct.pack("<III", 1, 1, 1) + b"s"
                         + struct.pack("<If", 0, 2.5))
        got = load_checkpoint(path)["s"]
        assert got.shape == () and got == np.float32(2.5)

    def test_huge_rank_refused_without_allocating(self, tmp_path):
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, {"a": np.zeros(2, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        # magic (14), version and count (8), name length (4), name "a" (1)
        assert struct.unpack_from("<I", raw, 27) == (1,)
        struct.pack_into("<I", raw, 27, 0xFFFFFFF0)
        path.write_bytes(bytes(raw))

        def refused():
            with pytest.raises(ValueError, match=r"w\.ckpt: truncated checkpoint"):
                load_checkpoint(path)

        _, peak = _traced_peak(refused)
        assert peak < 1 << 20

    def test_sequence_save_holds_no_copy_of_the_text(self, tmp_path, rng):
        seq = sequence_from_pose(rng.standard_normal((1920, 22, 6)))
        path = tmp_path / "pose.txt"
        _, peak = _traced_peak(save_sequence, path, seq)
        assert path.stat().st_size > 2 << 20
        assert peak < 1 << 20, f"peak {peak} bytes"


class TestMetricReportText:
    def _report(self, jitter=1.25):
        return MetricReport(mpjre_deg=3.5, mpjpe_cm=4.25, mpjve_cm_s=10.0,
                            root_pe_cm=1.0, hand_pe_cm=2.0, upper_pe_cm=3.0,
                            lower_pe_cm=4.0, jitter_pred=jitter, jitter_gt=jitter,
                            frames=5, fps=60.0)

    def test_format_lists_all_fields(self):
        text = format_metric_report(self._report())
        for key in ("mpjre_deg", "mpjpe_cm", "mpjve_cm_s", "jitter_pred", "fps"):
            assert any(line.startswith(key + ":") for line in text.splitlines())

    def test_missing_jitter_prints_na(self):
        text = format_metric_report(self._report(jitter=None))
        assert "jitter_pred: n/a" in text


# ---------------------------------------------------------------------------
# corrupt files: every loader either loads or raises ValueError naming the path

_FORMATS = {
    "checkpoint": (
        lambda path: save_checkpoint(path, init_weights(ModelConfig(seed=0, **MICRO_CONFIG_KWARGS))),
        load_checkpoint,
    ),
    "sequence": (
        lambda path: save_sequence(path, gen_synthetic(1, 8, "sparse_input")),
        lambda path: load_sequence(path, "sparse_input"),
    ),
    "run_config": (lambda path: path.write_text(MICRO_CONFIG_TEXT), load_run_config),
}


@pytest.mark.parametrize("fmt", ["sequence", "run_config"])
def test_non_utf8_byte_names_path_and_offset(tmp_path, fmt):
    write, load = _FORMATS[fmt]
    path = tmp_path / "file.txt"
    write(path)
    raw = bytearray(path.read_bytes())
    raw[30] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError) as exc:
        load(path)
    assert str(exc.value) == f"{path}: byte 30 is not valid UTF-8"


def _mutants(raw, mutation, rng, count=150):
    """(description, bytes) pairs: ``raw`` cut short, or one byte changed."""
    n = len(raw)
    if mutation == "truncate":
        # every cut through the first 64 bytes (magic and header), then random ones
        cuts = set(range(min(n, 64))) | set(rng.integers(0, n, size=count).tolist())
        for k in sorted(cuts):
            yield f"truncated to {k} bytes", raw[:k]
    else:
        for k in rng.integers(0, n, size=count).tolist():
            mutant = bytearray(raw)
            mutant[k] ^= int(rng.integers(1, 256))
            yield f"byte {k} set to {mutant[k]:#04x}", bytes(mutant)


@pytest.mark.parametrize("mutation", ["truncate", "flip"])
@pytest.mark.parametrize("fmt", sorted(_FORMATS))
def test_corrupt_file_loads_or_names_path(tmp_path, fmt, mutation):
    write, load = _FORMATS[fmt]
    path = tmp_path / f"corrupt.{fmt}"
    write(path)
    raw = path.read_bytes()
    rng = make_rng(sorted(_FORMATS).index(fmt) * 2 + (mutation == "flip"))
    bad = []
    for what, blob in _mutants(raw, mutation, rng):
        path.write_bytes(blob)
        try:
            load(path)
        except ValueError as exc:
            if str(path) not in str(exc):
                bad.append(f"{what}: ValueError without the path: {exc}")
        except Exception as exc:  # any other type is a failure; report it with its case
            bad.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not bad, f"{len(bad)} cases:\n" + "\n".join(bad[:10])
