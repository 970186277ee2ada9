"""File formats: sequence files, run configs, checkpoints.

All text formats write floats with 9 significant digits, which round-trips
32-bit values exactly, so parse(serialize(x)) == x bitwise for valid x. The
frame rate is a float64 and is written by ``format_fps``, which round-trips
it exactly.
Sequences are written row by row and checkpoints read tensor by tensor,
straight between the file and the arrays, so neither holds a copy of the
file. A sequence body is parsed in one ``np.loadtxt`` call, as float64
then cast to float32 (the bits a per-value ``float`` parse gives); its
values and the header's numbers must be ASCII decimal numbers.
"""

import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .kinematics import NUM_JOINTS, POSE_WIDTH, RIG_CHANNELS
from .metrics import MetricReport, check_fps
from .model import ModelConfig

__all__ = [
    "Sequence",
    "load_sequence",
    "save_sequence",
    "sequence_from_pose",
    "pose_from_sequence",
    "load_run_config",
    "save_checkpoint",
    "load_checkpoint",
    "format_fps",
    "format_metric_report",
]

_SEQ_MAGIC = "#kinescan-sequence v1"
_SEQ_KINDS = {"sparse_input": (RIG_CHANNELS,), "pose": (POSE_WIDTH, POSE_WIDTH + 3)}
# the header fields a sequence is read by; other '#' lines are free comments
_SEQ_FIELDS = ("kind", "frames", "columns", "fps")

_CKPT_MAGIC = b"KINESCAN-CKPT\x00"
_CKPT_VERSION = 1


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def format_fps(fps: float) -> str:
    """The shortest text that reads back as float64 ``fps`` exactly: the
    9-digit form when that does, so 60 stays ``60``, else ``repr``."""
    text = _fmt(fps)
    return text if float(text) == fps else repr(fps)


def _read_text(path) -> str:
    """The file's UTF-8 text; a byte that does not decode is a ValueError
    naming the path and its offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not valid UTF-8") from None


@dataclass(frozen=True)
class Sequence:
    """A framed float32 signal: sparse_input (36 cols) or pose (132 cols,
    plus an optional 3 root-translation cols)."""

    kind: str
    data: np.ndarray
    fps: float = 60.0

    def __post_init__(self):
        if self.kind not in _SEQ_KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError(f"sequence data must be (L, columns), got {data.shape}")
        if data.shape[1] not in _SEQ_KINDS[self.kind]:
            raise ValueError(
                f"kind {self.kind!r} expects columns in {_SEQ_KINDS[self.kind]}, "
                f"got {data.shape[1]}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("sequence values must be finite")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "fps", check_fps(self.fps))

    @property
    def frames(self) -> int:
        return self.data.shape[0]


def save_sequence(path, seq: Sequence) -> None:
    """Write ``seq`` as text, each row as soon as it is formatted, so the
    write holds no copy of the file."""
    row_format = " ".join(["%.9g"] * seq.data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{_SEQ_MAGIC}\n#kind {seq.kind}\n#frames {seq.frames}\n"
            f"#columns {seq.data.shape[1]}\n#fps {format_fps(seq.fps)}\n"
        )
        fh.writelines(row_format % tuple(row.tolist()) for row in seq.data)


def load_sequence(path, kind: str) -> Sequence:
    """The sequence in ``path``; a file of another kind than ``kind`` is
    refused, naming the path."""
    lines = _read_text(path).splitlines()
    if not lines or lines[0] != _SEQ_MAGIC:
        raise ValueError(f"{path}: not a sequence file (bad magic line)")
    header = {}
    body_start = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.startswith("#"):
            break
        key, _, value = line[1:].partition(" ")
        if key in header and key in _SEQ_FIELDS:
            raise ValueError(f"{path}:{lineno}: repeated header field {key!r}")
        header[key] = value
        body_start += 1
    found = _header_field(path, header, "kind", str)
    if found != kind:
        raise ValueError(f"{path}: expected a {kind} sequence, got kind {found!r}")
    frames = _header_field(path, header, "frames", int)
    columns = _header_field(path, header, "columns", int)
    fps = _header_field(path, header, "fps", float)
    # (1-based line number, text) of each non-blank body line
    body = [(n, line) for n, line in enumerate(lines, start=1)
            if n > body_start and line.strip()]
    if len(body) != frames:
        raise ValueError(f"{path}: header says {frames} frames, found {len(body)}")
    if not body:
        raise ValueError(f"{path}: a sequence needs at least one frame")
    # one parse of the whole body; no header value sizes an array, and a
    # refused body is walked line by line only to name its first bad line
    try:
        data = np.loadtxt([line for _, line in body], dtype=np.float64,
                          comments=None, ndmin=2)
        if data.shape[1] != columns:
            raise ValueError(f"{data.shape[1]} columns, expected {columns}")
    except ValueError as exc:
        raise (_bad_body(path, body, columns) or ValueError(f"{path}: {exc}")) from None
    try:
        return Sequence(kind=kind, data=data.astype(np.float32), fps=fps)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decimal(text, conv):
    """``conv(text)`` if ``text`` is an ASCII decimal number as ``np.loadtxt``
    reads rows: no ``_`` separators or non-ASCII digits, which ``conv`` takes."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to {conv.__name__}: {text!r}")
    return conv(text)


def _bad_body(path, body, columns):
    """The error naming the first body line that is not ``columns`` ASCII
    decimal numbers. None if every line is."""
    for i, (n, line) in enumerate(body):
        parts = line.split()
        if len(parts) != columns:
            return ValueError(
                f"{path}:{n}: frame {i} has {len(parts)} columns, expected {columns}"
            )
        for part in parts:
            try:
                _decimal(part, float)
            except ValueError as exc:
                return ValueError(f"{path}:{n}: frame {i}: {exc}")
    return None


def _header_field(path, header, key, conv):
    if key not in header:
        raise ValueError(f"{path}: missing header field {key!r}")
    try:
        return header[key] if conv is str else _decimal(header[key], conv)
    except ValueError:
        raise ValueError(
            f"{path}: header field {key!r} is not a valid {conv.__name__}: {header[key]!r}"
        ) from None


def sequence_from_pose(pose: np.ndarray, fps: float = 60.0) -> Sequence:
    """Pack (L, 22, 6) rotations into a 132-column pose-kind sequence."""
    pose = np.asarray(pose, dtype=np.float32)
    if pose.ndim != 3 or pose.shape[1:] != (NUM_JOINTS, 6):
        raise ValueError(f"expected (L, {NUM_JOINTS}, 6) pose, got {pose.shape}")
    return Sequence(kind="pose", data=pose.reshape(pose.shape[0], POSE_WIDTH), fps=fps)


def pose_from_sequence(seq: Sequence):
    """Unpack a pose-kind sequence into ((L, 22, 6), root or None)."""
    if seq.kind != "pose":
        raise ValueError(f"expected a pose sequence, got kind {seq.kind!r}")
    pose = seq.data[:, :POSE_WIDTH].reshape(seq.frames, NUM_JOINTS, 6)
    root = seq.data[:, POSE_WIDTH:] if seq.data.shape[1] > POSE_WIDTH else None
    return pose, root


# ---------------------------------------------------------------------------
# run config


# key -> converter, one per ModelConfig field: its type, int or str
_CONFIG_KEYS = {f.name: f.type for f in fields(ModelConfig)}


def load_run_config(path) -> ModelConfig:
    """A ModelConfig from ``key=value`` lines, one key per ModelConfig
    field; ``#`` starts a comment."""
    kwargs = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        conv = _CONFIG_KEYS[key]
        try:
            kwargs[key] = value if conv is str else _decimal(value, conv)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    try:
        return ModelConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, weights: dict) -> None:
    """Flat named-tensor container; tensors written in sorted name order as
    (name_len, name, rank, dims, little-endian float32 data)."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(weights)))
        for name in sorted(weights):
            tensor = np.ascontiguousarray(weights[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.tobytes())


def load_checkpoint(path) -> dict:
    """The named float32 tensors in ``path``. Each tensor is read from the
    file into its own aligned array, so the load holds no copy of the file.
    Every field and tensor size is checked against the file's length before
    it is read or allocated, so a corrupt size is refused, naming the path,
    and never sizes an allocation."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        off = len(_CKPT_MAGIC)

        def claim(nbytes, what="checkpoint"):
            # the next ``nbytes`` of the file, refused unless the file has them
            nonlocal off
            if off + nbytes > size:
                raise ValueError(f"{path}: truncated {what}")
            off += nbytes
            return nbytes

        def take(fmt):
            return struct.unpack(fmt, fh.read(claim(struct.calcsize(fmt))))

        version, count = take("<II")
        if version != _CKPT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        weights = {}
        for _ in range(count):
            (name_len,) = take("<I")
            start = off
            try:
                name = fh.read(claim(name_len)).decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(
                    f"{path}: tensor name at byte {start} is not valid UTF-8") from None
            (rank,) = take("<I")
            dims = take(f"<{rank}I")
            # exact: huge dims fail the size check, not wrap
            nbytes = claim(4 * math.prod(dims), f"tensor {name!r}")
            if name in weights:
                raise ValueError(f"{path}: tensor {name!r} appears twice")
            tensor = np.empty(dims, dtype="<f4")
            if fh.readinto(tensor) != nbytes:
                raise ValueError(f"{path}: truncated tensor {name!r}")
            weights[name] = tensor
    if off != size:
        raise ValueError(f"{path}: trailing bytes after last tensor")
    return weights


# ---------------------------------------------------------------------------
# metric report text


def format_metric_report(report: MetricReport) -> str:
    """One ``key: value`` line per field; the rate is written by
    ``format_fps``, so the text reads back as the rate the metrics used."""
    lines = []
    for key, value in report.items():
        if value is None:
            lines.append(f"{key}: n/a")
        elif key == "fps":
            lines.append(f"{key}: {format_fps(value)}")
        elif isinstance(value, float):
            lines.append(f"{key}: {_fmt(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"

