"""Network forward pass: embedding, temporal flow modules, spatiotemporal
kinematic flow modules, and the linear pose regressor.

The network maps an L x 36 sparse tracking signal to L x 22 x 6 joint
rotations:

    embed -> n_tfm x TFM -> m_skfm x SKFM -> regressor

A TFM runs a bidirectional SSD pair over time and fuses with local (kernel-1
conv) and global (single-layer attention) aggregators. An SKFM flattens the
(frame, joint) axes along a kinematic-tree scan order and runs the same
bidirectional SSD over the mixed axis.

Weights live in a flat name -> ndarray dict. Activations, the SSD decays
and the scan follow the weights' dtype; float32 from ``init_weights`` and
checkpoints. The model needs numpy only.

Every layer broadcasts over leading batch axes of its input and of its
weights: weights stacked to shape (B,) + shape give B forwards in one
call, each bit-identical to its unbatched forward. Time is always axis -2.
"""

import math
import os
import queue
import re
import threading
from dataclasses import dataclass

import numpy as np

from .kinematics import (
    NUM_JOINTS,
    POSE_WIDTH,
    RIG_CHANNELS,
    SCAN_ORDERS,
    inverse_reorder_joint_features,
    reorder_joint_features,
)
from .ssd import SsdParams, chunked_scan

__all__ = [
    "ModelConfig",
    "MICRO_CONFIG_KWARGS",
    "SEED_LIMIT",
    "init_weights",
    "check_weights",
    "parameter_count",
    "embed",
    "ssd_block",
    "bi_ssd",
    "lma",
    "gma",
    "tfm_forward",
    "stmm_forward",
    "kinest_forward",
    "infer_windowed",
]

_LN_EPS = 1e-5
# softplus^-1(-log 0.9): raw-decay bias giving a ~= 0.9 at zero input
_DECAY_BIAS = float(np.log(np.expm1(-np.log(0.9))))
# every seed, a config's or a command's, is a PCG64 seed below this
SEED_LIMIT = 2 ** 64
# a block runs its stages as two halves, one on a worker thread, from this
# many rows or this many multiply-adds in its largest stage (see _halves)
_SPLIT_ROWS = 1024
_SPLIT_MACS = 28_000_000
# ssd_block keeps scratch arrays for this many shapes per thread
_SCRATCH_SHAPES = 4


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are the full-scale setting."""

    n_tfm: int = 2
    m_skfm: int = 2
    embed_dim: int = 256
    joint_dim: int = 64
    seq_len: int = 96
    gma_hidden: int = 512
    gma_heads: int = 8
    ssd_state: int = 16
    conv_width: int = 4
    scan_strategy: str = "uks"
    seed: int = 0

    def __post_init__(self):
        for name in ("embed_dim", "joint_dim", "seq_len", "gma_hidden",
                     "gma_heads", "ssd_state", "conv_width"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_tfm < 0 or self.m_skfm < 0:
            raise ValueError("module counts must be nonnegative")
        if self.gma_hidden % self.gma_heads != 0:
            raise ValueError("gma_hidden must be divisible by gma_heads")
        if self.scan_strategy not in SCAN_ORDERS:
            raise ValueError(f"scan_strategy must be one of {tuple(SCAN_ORDERS)}")
        # PCG64 refuses a negative seed, but only later, in init_weights
        if not 0 <= int(self.seed) < SEED_LIMIT:
            raise ValueError(f"seed must be in 0..2**64-1, got {self.seed}")

    @property
    def mixed_hidden(self) -> int:
        """H = J * D, the SKFM per-frame hidden width."""
        return NUM_JOINTS * self.joint_dim


# small enough for derivative-free training (parameter count ~16k)
MICRO_CONFIG_KWARGS = dict(
    n_tfm=1, m_skfm=1, embed_dim=16, joint_dim=4, seq_len=24,
    gma_hidden=32, gma_heads=2, ssd_state=4, conv_width=2,
)


# ---------------------------------------------------------------------------
# weights


def _lin(name, fan_in, fan_out, bias="zero"):
    """A linear layer's weights: ``.weight`` drawn uniform in
    +-1/sqrt(fan_in), then ``.bias``."""
    return [(name + ".weight", (fan_in, fan_out), fan_in),
            (name + ".bias", (fan_out,), bias)]


def _ln(name, width):
    """A layer norm's weights: ``.scale`` of ones, then a zero ``.bias``."""
    return [(name + ".scale", (width,), "one"), (name + ".bias", (width,), "zero")]


def _ssd_names(prefix, width, state, conv_width):
    n = width + 2 * state
    return [
        *_ln(prefix + "ln", width),
        *_lin(prefix + "xbc", width, n),
        (prefix + "conv.kernel", (conv_width, n), conv_width),
        (prefix + "conv.bias", (n,), "zero"),
        *_lin(prefix + "a", width, 1, bias="decay"),
        *_lin(prefix + "gate", width, width),
        *_ln(prefix + "out_ln", width),
        *_lin(prefix + "out", width, width),
    ]


def _lma_names(prefix, width):
    return _ln(prefix + "ln", width) + _lin(prefix + "conv", width, width)


def _gma_names(prefix, width, hidden):
    return [
        *_lin(prefix + "in", width, width),
        *_ln(prefix + "ln1", width),
        *_lin(prefix + "q", width, hidden),
        *_lin(prefix + "k", width, hidden),
        *_lin(prefix + "v", width, hidden),
        *_lin(prefix + "proj", hidden, width),
        *_ln(prefix + "ln2", width),
        *_lin(prefix + "ffn1", width, hidden),
        *_lin(prefix + "ffn2", hidden, width),
    ]


def _weight_plan(config: ModelConfig):
    """Ordered (name, shape, init) triples; the order fixes the RNG stream."""
    e, d, h = config.embed_dim, config.joint_dim, config.mixed_hidden
    s, k = config.ssd_state, config.conv_width
    plan = _lin("embed", RIG_CHANNELS, e)
    for i in range(config.n_tfm):
        p = f"tfm{i}."
        plan += _ssd_names(p + "fwd.", e, s, k) + _ssd_names(p + "bwd.", e, s, k)
        plan += _lma_names(p + "lma.", e) + _gma_names(p + "gma.", e, config.gma_hidden)
    for i in range(config.m_skfm):
        p = f"skfm{i}."
        plan += _lin(p + "in", e, h)
        plan += _ssd_names(p + "fwd.", d, s, k) + _ssd_names(p + "bwd.", d, s, k)
        plan += _lin(p + "out", h, e)
        plan += _lma_names(p + "lma.", e) + _gma_names(p + "gma.", e, config.gma_hidden)
    return plan + _lin("regressor", e, POSE_WIDTH)


def init_weights(config: ModelConfig) -> dict:
    """Deterministic seeded initialization: a PCG64 generator seeded with
    config.seed draws the plan's tensors in order, each by its init: uniform
    in +-1/sqrt(init) for a fan-in, else zeros, ones or the decay bias."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    weights = {}
    for name, shape, init in _weight_plan(config):
        if init == "zero":
            t = np.zeros(shape, dtype=np.float32)
        elif init == "one":
            t = np.ones(shape, dtype=np.float32)
        elif init == "decay":
            t = np.full(shape, _DECAY_BIAS, dtype=np.float32)
        else:
            bound = 1.0 / np.sqrt(float(init))
            t = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        weights[name] = t
    return weights


def check_weights(config: ModelConfig, weights: dict, source) -> None:
    """Raise ValueError, naming ``source``, unless ``weights`` has exactly
    the tensor names and shapes that ``init_weights(config)`` would draw,
    with finite values only."""
    expected = {name: shape for name, shape, _ in _weight_plan(config)}
    if set(weights) != set(expected):
        missing = [name for name in expected if name not in weights]
        unexpected = [name for name in weights if name not in expected]
        found = [f"{what} {names[0]!r} (first of {len(names)})"
                 for what, names in (("missing", missing), ("unexpected", unexpected))
                 if names]
        raise ValueError(
            f"{source}: tensor names do not match the config: {', '.join(found)}"
        )
    for name, tensor in weights.items():
        if tensor.shape != expected[name]:
            raise ValueError(
                f"{source}: tensor {name!r} has shape {tensor.shape}, "
                f"config expects {expected[name]}"
            )
        if not np.all(np.isfinite(tensor)):
            raise ValueError(f"{source}: tensor {name!r} has non-finite values")


def parameter_count(weights: dict) -> int:
    return int(sum(t.size for t in weights.values()))


# ---------------------------------------------------------------------------
# primitive layers


def _silu(x):
    """SiLU x * sigmoid(x) = x / (1 + exp(-x)), computed in place on ``x``:
    every caller passes a fresh temporary. Below x ~= -88.7, exp(-x)
    overflows float32 to inf and the quotient takes its limit, 0."""
    e = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1
    x /= e
    return x


def _linear(x, weights, name, out=None):
    """x @ W + b with W, b = weights[name + ".weight"], weights[name + ".bias"],
    into ``out`` when given; the bias broadcasts over time (axis -2) and any
    leading batch axes."""
    out = np.matmul(x, weights[name + ".weight"], out=out)
    out += weights[name + ".bias"][..., None, :]
    return out


def _lead(x, w):
    """The leading batch axes that x, a (..., T, W) input, and w, a
    (..., M, N) weight, broadcast to."""
    a, b = x.shape[:-2], w.shape[:-2]
    return a if a == b or not b else b if not a else np.broadcast_shapes(a, b)


def _layer_norm(x, weights, name):
    """Layer norm over the last axis, then * weights[name + ".scale"]
    + weights[name + ".bias"], both broadcast as in ``_linear``."""
    # the sums and divisions np.mean performs, without its Python wrapper;
    # the variance is the sum of squares np.var forms, without recentring
    n = x.shape[-1]
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    var = np.add.reduce(np.square(d), axis=-1, keepdims=True) / n
    d /= np.sqrt(var + _LN_EPS)
    scale = weights[name + ".scale"][..., None, :]
    if d.shape[-scale.ndim:-2] == scale.shape[:-2]:
        d *= scale
    else:  # weights stacked over axes x lacks: d takes their shape
        d = d * scale
    d += weights[name + ".bias"][..., None, :]
    return d


def _causal_depthwise_conv(x, kernel, bias, lo, out):
    """Rows lo .. lo + len(out) of the per-channel causal convolution of x
    along time (axis -2), written into ``out``:
    out[t - lo] = sum_k kernel[k] x[t-K+1+k], reading the K-1 rows of x
    before row lo as a halo.

    Tap i reads x shifted down by k-1-i; taps are added in order of i, then
    the bias. The first tap is written, not added to zeros, so an output
    whose every tap product and bias is -0.0 stays -0.0 where a sum from
    zero would read +0.0; no other bit depends on it. Any row range gives
    the bits the whole sequence gives in those rows.
    """
    k, t = kernel.shape[-2], x.shape[-2]
    hi = lo + out.shape[-2]
    first = min(k, t) - 1
    # the rows before ``first`` lack the first tap and start from zero
    zero = min(max(first - lo, 0), hi - lo)
    out[..., :zero, :] = 0
    np.multiply(kernel[..., k - 1 - first, None, :], x[..., lo + zero - first : hi - first, :],
                out=out[..., zero:, :])
    tmp = np.empty_like(out)
    for shift in reversed(range(first)):
        start = max(shift - lo, 0)
        out[..., start:, :] += np.multiply(kernel[..., k - 1 - shift, None, :],
                                           x[..., lo + start - shift : hi - shift, :],
                                           out=tmp[..., start:, :])
    out += bias[..., None, :]
    return out


_worker = {}  # "jobs": the worker thread's job queue, once it has started
if hasattr(os, "register_at_fork"):  # a forked child has no worker thread
    os.register_at_fork(after_in_child=_worker.clear)


def _serve_rows(jobs):
    """The worker thread: run each job's stage over its rows under the
    sender's error state, then reply with what it raised, or None."""
    while True:
        stage, lo, hi, errstate, reply = jobs.get()
        try:
            with np.errstate(**errstate):
                stage(lo, hi)
        except BaseException as exc:  # re-raised on the sending thread
            reply.put(exc)
        else:
            reply.put(None)


def _cpu_count():
    """The CPUs the forward may split its blocks across: those this process
    may run on when OpenBLAS runs one thread, else 1, leaving the spare
    cores to OpenBLAS's own threads. OpenBLAS reads its thread count, as
    C's atoi, from the first of these variables that holds a positive
    integer; with none it runs one thread per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        found = re.match(r"\s*([+-]?[0-9]+)", os.environ.get(name, ""))
        threads = int(found[1]) if found else 0
        if threads > 0:
            break
    if threads != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _halves(lead, rows, row_macs):
    """Whether a block over ``rows`` rows with leading axes ``lead``, whose
    largest stage does ``row_macs`` multiply-adds per row, runs its stages
    as two halves: from _SPLIT_ROWS rows or _SPLIT_MACS multiply-adds, and
    where ``_cpu_count`` gives two CPUs or more. A split costs each stage a
    hand-off to the worker and back; the constants are where splitting
    measured faster."""
    macs = math.prod(lead) * rows * row_macs
    return (rows >= _SPLIT_ROWS or macs >= _SPLIT_MACS) and _cpu_count() > 1


def _split(stage, n, halves):
    """Run stage(lo, hi) over n independent units: rows, or attention heads.

    Without ``halves`` one call covers them all. Else the worker thread
    runs units mid..n while this thread runs units 0..mid. The stage must
    give every unit the bits one call would, and write only its own units.
    mid is a multiple of 16 from 32 units on: OpenBLAS's float32
    matrix-vector kernel (the decay projection) takes rows in groups of
    four, and a split off that grid (T=3071 at 1535) moved last bits. This
    thread waits for the worker's half before it returns or raises, and
    re-raises what that half raised. The first split in a process, of
    concurrent ones the one whose queue ``_worker`` keeps, starts the worker.
    """
    if not halves:
        stage(0, n)
        return
    mid = n // 32 * 16 or n // 2
    fresh, reply = queue.SimpleQueue(), queue.SimpleQueue()
    jobs = _worker.setdefault("jobs", fresh)  # one atomic step: one caller wins
    if jobs is fresh:
        try:
            threading.Thread(target=_serve_rows, args=(jobs,), name="kinescan-rows",
                             daemon=True).start()
        except BaseException:  # else the next split would wait on no thread
            _worker.clear()
            raise
    jobs.put((stage, mid, n, np.geterr(), reply))
    try:
        stage(0, mid)
    finally:
        raised = reply.get()
    if raised is not None:
        raise raised


def _split_linear(x, weights, name):
    """``_linear`` into a fresh array, its rows run through ``_split``."""
    w = weights[name + ".weight"]
    lead, length = _lead(x, w), x.shape[-2]
    out = np.empty(lead + (length, w.shape[-1]), np.result_type(x, w))
    _split(lambda lo, hi: _linear(x[..., lo:hi, :], weights, name, out=out[..., lo:hi, :]),
           length, _halves(lead, length, w.shape[-2] * w.shape[-1]))
    return out


_scratch = threading.local()


def _ssd_scratch(shape, dtype):
    """ssd_block's pre, xbc (both of ``shape``) and decay arrays: the same
    three on every call from this thread with this shape and dtype, the
    last _SCRATCH_SHAPES such keys kept. A warm forward then allocates
    none of them: on glibc's default heap their fresh pages cost thousands
    of page faults per full-scale forward."""
    cache = _scratch.__dict__.setdefault("ssd", {})
    key = (shape, np.dtype(dtype))
    arrays = cache.pop(key, None)
    if arrays is None:
        while len(cache) >= _SCRATCH_SHAPES:
            del cache[next(iter(cache))]
        arrays = (np.empty(shape, dtype), np.empty(shape, dtype), np.empty(shape[:-1], dtype))
    cache[key] = arrays
    return arrays


def embed(x: np.ndarray, weights: dict) -> np.ndarray:
    """Single linear layer lifting L x C input signals to L x E features,
    with the input cast to the weights' dtype."""
    w = weights["embed.weight"]
    x = np.asarray(x, dtype=w.dtype)
    if x.ndim < 2 or x.shape[-1] != w.shape[-2]:
        raise ValueError(f"expected input shape (L, {w.shape[-2]}), got {x.shape}")
    return _linear(x, weights, "embed")


def ssd_block(p: np.ndarray, weights: dict, prefix: str) -> np.ndarray:
    """One gated SSD block over a (..., T, W) sequence.

    X, B, C come from a shared layer norm through a linear layer and a causal
    depthwise conv with SiLU; the scalar decay a_t = exp(-softplus(raw_t))
    lies in [0, 1] (in float32 it rounds to exactly 1 below raw ~= -17 and
    to 0 above raw ~= 104); the scan output is gated by
    f1 = SiLU(Linear(LN(p))) and projected out through a second layer norm.

    The stages before and after the scan act on each row, or on causal
    rows, alone; they run through ``_split`` into this thread's scratch
    arrays and a fresh output array.
    """
    t, width = p.shape[-2:]
    kernel = weights[prefix + "conv.kernel"]
    lead = _lead(p, kernel)
    dtype = np.result_type(p, kernel)
    pre, xbc, a = _ssd_scratch(lead + (t, kernel.shape[-1]), dtype)
    gate = np.empty(lead + (t, width), dtype)  # then the output, row by row
    halves = _halves(lead, t, width * (kernel.shape[-1] + 1 + width))

    def project(lo, hi):
        z = _layer_norm(p[..., lo:hi, :], weights, prefix + "ln")
        _linear(z, weights, prefix + "xbc", out=pre[..., lo:hi, :])
        raw = _linear(z, weights, prefix + "a")
        np.exp(-np.logaddexp(0.0, raw[..., 0]), out=a[..., lo:hi])
        _silu(_linear(z, weights, prefix + "gate", out=gate[..., lo:hi, :]))

    def conv(lo, hi):
        _silu(_causal_depthwise_conv(pre, kernel, weights[prefix + "conv.bias"], lo,
                                     xbc[..., lo:hi, :]))

    def gate_out(lo, hi):
        g = gate[..., lo:hi, :]
        g *= y[..., lo:hi, :]
        _linear(_layer_norm(g, weights, prefix + "out_ln"), weights, prefix + "out", out=g)

    _split(project, t, halves)
    _split(conv, t, halves)
    state = (xbc.shape[-1] - width) // 2
    y = chunked_scan(
        SsdParams(a=a, b=xbc[..., width : width + state],
                  c=xbc[..., width + state :], x=xbc[..., :width])
    )
    _split(gate_out, t, halves)
    return gate


def bi_ssd(p: np.ndarray, weights: dict, prefix: str):
    """Forward and backward SSD branches with independent weights.

    f_f scans p causally; f_b = flip(ssd_block(flip(p))) so that f_b at
    frame t depends only on frames >= t.
    """
    f_f = ssd_block(p, weights, prefix + "fwd.")
    f_b = ssd_block(p[..., ::-1, :], weights, prefix + "bwd.")[..., ::-1, :]
    return f_f, f_b


def lma(f: np.ndarray, weights: dict, prefix: str) -> np.ndarray:
    """Local aggregation: SiLU(kernel-1 conv(LN(f))), no temporal mixing."""
    z = _layer_norm(f, weights, prefix + "ln")
    return _silu(_linear(z, weights, prefix + "conv"))


def gma(f: np.ndarray, weights: dict, prefix: str, heads: int) -> np.ndarray:
    """Global aggregation: in-projection, then pre-LN single-layer multi-head
    self-attention and a SiLU feed-forward, each with a residual connection.

    There is no positional encoding, so the block is permutation equivariant
    over frames. Three stages run through ``_split``: the in-projection, LN
    and q/k/v over rows, attention over heads, and the rest over rows.
    """
    w_in = weights[prefix + "in.weight"]
    length, hidden = f.shape[-2], weights[prefix + "q.weight"].shape[-1]
    lead = _lead(f, w_in)
    dtype = np.result_type(f, w_in)
    dim = hidden // heads
    g = np.empty(lead + (length, w_in.shape[-1]), dtype)
    qkv = np.empty((3,) + lead + (length, hidden), dtype)
    ctx = np.empty(lead + (length, hidden), dtype)
    # (..., heads, L, dim) views of q, k, v and ctx
    q, k, v, ctx_h = (m.reshape(m.shape[:-1] + (heads, dim)).swapaxes(-3, -2)
                      for m in (*qkv, ctx))
    halves = _halves(lead, length, w_in.shape[-2] * (w_in.shape[-1] + 3 * hidden))

    def attend_in(lo, hi):
        rows = _linear(f[..., lo:hi, :], weights, prefix + "in", out=g[..., lo:hi, :])
        z = _layer_norm(rows, weights, prefix + "ln1")
        for m, name in zip(qkv, "qkv"):
            _linear(z, weights, prefix + name, out=m[..., lo:hi, :])

    def attend(lo, hi):
        logits = (q[..., lo:hi, :, :] @ k[..., lo:hi, :, :].swapaxes(-1, -2))
        logits /= dtype.type(np.sqrt(dim))
        logits -= logits.max(axis=-1, keepdims=True)
        att = np.exp(logits, out=logits)
        att /= att.sum(axis=-1, keepdims=True)
        np.matmul(att, v[..., lo:hi, :, :], out=ctx_h[..., lo:hi, :, :])

    def feed_forward(lo, hi):
        rows = g[..., lo:hi, :]
        rows += _linear(ctx[..., lo:hi, :], weights, prefix + "proj")
        z = _layer_norm(rows, weights, prefix + "ln2")
        rows += _linear(_silu(_linear(z, weights, prefix + "ffn1")), weights, prefix + "ffn2")

    _split(attend_in, length, halves)
    _split(attend, heads, halves)
    _split(feed_forward, length, halves)
    return g


def tfm_forward(p: np.ndarray, weights: dict, prefix: str,
                config: ModelConfig) -> np.ndarray:
    """Temporal flow module: GMA(LMA(f_f + f_b))."""
    f_f, f_b = bi_ssd(p, weights, prefix)
    t = lma(f_f + f_b, weights, prefix + "lma.")
    return gma(t, weights, prefix + "gma.", config.gma_heads)


def stmm_forward(t_in: np.ndarray, weights: dict, prefix: str,
                 config: ModelConfig) -> np.ndarray:
    """Spatiotemporal mixing over the flattened (frame, joint) axis.

    Lift E -> H = J*D, reshape to (L, J, D), gather joints into the scan
    order ``SCAN_ORDERS[config.scan_strategy]``, flatten to one
    (L*len(order), D) sequence, run the bidirectional SSD over that mixed
    axis, scatter back to canonical joints (summing positions a
    non-permutation order visits twice), project H -> E, then LMA and GMA.
    """
    h = _split_linear(t_in, weights, prefix + "in")
    if h.shape[-1] != config.mixed_hidden:
        raise ValueError(
            f"mixed hidden {h.shape[-1]} does not match J*D = {config.mixed_hidden}"
        )
    order = SCAN_ORDERS[config.scan_strategy]
    lead, length = h.shape[:-2], h.shape[-2]
    s = h.reshape(lead + (length, NUM_JOINTS, config.joint_dim))
    flat = reorder_joint_features(s, order).reshape(
        lead + (length * len(order), config.joint_dim)
    )
    f_f, f_b = bi_ssd(flat, weights, prefix)
    mixed = (f_f + f_b).reshape(lead + (length, len(order), config.joint_dim))
    s_out = inverse_reorder_joint_features(mixed, order)
    e = _split_linear(s_out.reshape(lead + (length, config.mixed_hidden)), weights,
                      prefix + "out")
    e = lma(e, weights, prefix + "lma.")
    return gma(e, weights, prefix + "gma.", config.gma_heads)


def infer_windowed(x: np.ndarray, config: ModelConfig, weights: dict) -> np.ndarray:
    """Run the network over a sequence of any length T >= 1.

    The input splits into non-overlapping windows of config.seq_len frames;
    a final partial window is left-padded by repeating its first frame, and
    only its last r predictions are kept, so exactly T frames come out.
    Non-finite values raise FloatingPointError naming the window's frames.
    """
    x = np.asarray(x)
    if x.shape[0] < 1:
        raise ValueError("a sequence needs at least one frame")
    length = config.seq_len
    outputs = []
    for start in range(0, x.shape[0], length):
        window = x[start : start + length]
        r = window.shape[0]
        # both steps are identities on a full window (r == length)
        window = np.pad(window, ((length - r, 0), (0, 0)), mode="edge")
        try:
            outputs.append(kinest_forward(window, config, weights)[-r:])
        except FloatingPointError as exc:
            raise FloatingPointError(f"frames {start}-{start + r - 1}: {exc}") from None
    return np.concatenate(outputs, axis=0)


def _layer_outputs(x, config, weights):
    """Yield the output of each layer of the forward pass in turn: embed,
    TFMs, SKFMs, regressor."""
    p = embed(x, weights)
    yield p
    for i in range(config.n_tfm):
        p = tfm_forward(p, weights, f"tfm{i}.", config)
        yield p
    for i in range(config.m_skfm):
        p = stmm_forward(p, weights, f"skfm{i}.", config)
        yield p
    yield _linear(p, weights, "regressor")


def kinest_forward(x: np.ndarray, config: ModelConfig, weights: dict) -> np.ndarray:
    """Full forward pass: (L, 36) tracking signal -> (L, 22, 6) rotations,
    with any leading batch axes of the input or the weights in front.

    The layers run once. An overflow or invalid operation inside them, even
    one the output would not show, or a non-finite layer output raises
    FloatingPointError naming that layer.
    """
    # names[0] is the layer being computed; a finite layer drops its name
    names = ["embed", *(f"tfm{i}." for i in range(config.n_tfm)),
             *(f"skfm{i}." for i in range(config.m_skfm)), "regressor"]
    with np.errstate(over="raise", invalid="raise"):
        try:
            for y in _layer_outputs(x, config, weights):
                if not np.all(np.isfinite(y)):
                    break
                del names[0]
            else:
                return y.reshape(y.shape[:-1] + (NUM_JOINTS, 6))
        except FloatingPointError:
            pass
    raise FloatingPointError(f"non-finite values, first in layer {names[0]!r}")
