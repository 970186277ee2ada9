"""Network forward pass: embedding, temporal flow modules, spatiotemporal
kinematic flow modules, and the linear pose regressor.

The network maps an L x 36 sparse tracking signal to L x 22 x 6 joint
rotations:

    embed -> n_tfm x TFM -> m_skfm x SKFM -> regressor

A TFM runs a bidirectional SSD pair over time and fuses with local (kernel-1
conv) and global (single-layer attention) aggregators. An SKFM flattens the
(frame, joint) axes along a kinematic-tree scan order and runs the same
bidirectional SSD over the mixed axis.

Weights live in a flat name -> float32 ndarray dict. Activations, the SSD
decays and the scan are all float32. The model needs numpy only.
"""

from dataclasses import dataclass

import numpy as np

from .kinematics import (
    ScanOrder,
    fks_order,
    index_order,
    inverse_reorder_joint_features,
    reorder_joint_features,
    uks_order,
)
from .ssd import SsdParams, chunked_scan

__all__ = [
    "ModelConfig",
    "MICRO_CONFIG_KWARGS",
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
    "scan_order_for",
]

_LN_EPS = 1e-5
# softplus^-1(-log 0.9): raw-decay bias giving a ~= 0.9 at zero input
_DECAY_BIAS = float(np.log(np.expm1(-np.log(0.9))))

_SCAN_STRATEGIES = ("index", "fks", "uks")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; defaults are the full-scale setting."""

    n_tfm: int = 2
    m_skfm: int = 2
    embed_dim: int = 256
    joints: int = 22
    joint_dim: int = 64
    seq_len: int = 96
    input_dim: int = 36
    output_dim: int = 132
    gma_hidden: int = 512
    gma_heads: int = 8
    ssd_state: int = 16
    conv_width: int = 4
    scan_strategy: str = "uks"
    seed: int = 0

    def __post_init__(self):
        if self.joints != 22:
            raise ValueError("joints must be 22")
        if self.input_dim != 36:
            raise ValueError("input_dim must be 36 (3 tracked parts x 12 channels)")
        if self.output_dim != self.joints * 6:
            raise ValueError("output_dim must be joints * 6")
        for name in ("embed_dim", "joint_dim", "seq_len", "gma_hidden",
                     "gma_heads", "ssd_state", "conv_width"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.n_tfm < 0 or self.m_skfm < 0:
            raise ValueError("module counts must be nonnegative")
        if self.gma_hidden % self.gma_heads != 0:
            raise ValueError("gma_hidden must be divisible by gma_heads")
        if self.scan_strategy not in _SCAN_STRATEGIES:
            raise ValueError(f"scan_strategy must be one of {_SCAN_STRATEGIES}")
        if not -(2 ** 63) <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def mixed_hidden(self) -> int:
        """H = J * D, the SKFM per-frame hidden width."""
        return self.joints * self.joint_dim


# small enough for derivative-free training (parameter count ~16k)
MICRO_CONFIG_KWARGS = dict(
    n_tfm=1, m_skfm=1, embed_dim=16, joint_dim=4, seq_len=24,
    gma_hidden=32, gma_heads=2, ssd_state=4, conv_width=2,
)


def scan_order_for(strategy: str) -> ScanOrder:
    if strategy == "index":
        return index_order()
    if strategy == "fks":
        return fks_order()
    if strategy == "uks":
        return uks_order()
    raise ValueError(f"unknown scan strategy {strategy!r}")


# ---------------------------------------------------------------------------
# weights


def _ssd_names(prefix, width, state, conv_width):
    n = width + 2 * state
    return [
        (prefix + "ln.scale", (width,), "one"),
        (prefix + "ln.bias", (width,), "zero"),
        (prefix + "xbc.weight", (width, n), width),
        (prefix + "xbc.bias", (n,), "zero"),
        (prefix + "conv.kernel", (conv_width, n), conv_width),
        (prefix + "conv.bias", (n,), "zero"),
        (prefix + "a.weight", (width, 1), width),
        (prefix + "a.bias", (1,), "decay"),
        (prefix + "gate.weight", (width, width), width),
        (prefix + "gate.bias", (width,), "zero"),
        (prefix + "out_ln.scale", (width,), "one"),
        (prefix + "out_ln.bias", (width,), "zero"),
        (prefix + "out.weight", (width, width), width),
        (prefix + "out.bias", (width,), "zero"),
    ]


def _lma_names(prefix, width):
    return [
        (prefix + "ln.scale", (width,), "one"),
        (prefix + "ln.bias", (width,), "zero"),
        (prefix + "conv.weight", (width, width), width),
        (prefix + "conv.bias", (width,), "zero"),
    ]


def _gma_names(prefix, width, hidden):
    names = [
        (prefix + "in.weight", (width, width), width),
        (prefix + "in.bias", (width,), "zero"),
        (prefix + "ln1.scale", (width,), "one"),
        (prefix + "ln1.bias", (width,), "zero"),
    ]
    for p in ("q", "k", "v"):
        names += [
            (prefix + p + ".weight", (width, hidden), width),
            (prefix + p + ".bias", (hidden,), "zero"),
        ]
    names += [
        (prefix + "proj.weight", (hidden, width), hidden),
        (prefix + "proj.bias", (width,), "zero"),
        (prefix + "ln2.scale", (width,), "one"),
        (prefix + "ln2.bias", (width,), "zero"),
        (prefix + "ffn1.weight", (width, hidden), width),
        (prefix + "ffn1.bias", (hidden,), "zero"),
        (prefix + "ffn2.weight", (hidden, width), hidden),
        (prefix + "ffn2.bias", (width,), "zero"),
    ]
    return names


def _weight_plan(config: ModelConfig):
    """Ordered (name, shape, init) triples; the order fixes the RNG stream."""
    e, d, h = config.embed_dim, config.joint_dim, config.mixed_hidden
    plan = [
        ("embed.weight", (config.input_dim, e), config.input_dim),
        ("embed.bias", (e,), "zero"),
    ]
    for i in range(config.n_tfm):
        p = f"tfm{i}."
        plan += _ssd_names(p + "fwd.", e, config.ssd_state, config.conv_width)
        plan += _ssd_names(p + "bwd.", e, config.ssd_state, config.conv_width)
        plan += _lma_names(p + "lma.", e)
        plan += _gma_names(p + "gma.", e, config.gma_hidden)
    for i in range(config.m_skfm):
        p = f"skfm{i}."
        plan += [
            (p + "in.weight", (e, h), e),
            (p + "in.bias", (h,), "zero"),
        ]
        plan += _ssd_names(p + "fwd.", d, config.ssd_state, config.conv_width)
        plan += _ssd_names(p + "bwd.", d, config.ssd_state, config.conv_width)
        plan += [
            (p + "out.weight", (h, e), h),
            (p + "out.bias", (e,), "zero"),
        ]
        plan += _lma_names(p + "lma.", e)
        plan += _gma_names(p + "gma.", e, config.gma_hidden)
    plan += [
        ("regressor.weight", (e, config.output_dim), e),
        ("regressor.bias", (config.output_dim,), "zero"),
    ]
    return plan


def init_weights(config: ModelConfig) -> dict:
    """Deterministic seeded initialization.

    A PCG64 generator seeded with config.seed draws each tensor in plan
    order: linear/conv weights uniform in +-1/sqrt(fan_in), biases zero,
    layer-norm scales one, and the raw-decay bias set so the SSD decay is
    about 0.9 at zero input.
    """
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
        raise ValueError(f"{source}: tensor names do not match the config")
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


def _layer_norm(x, scale, bias):
    d = x - x.mean(axis=-1, keepdims=True)
    # the same sum of squares np.var forms, without recentring x again
    var = np.square(d).mean(axis=-1, keepdims=True)
    d /= np.sqrt(var + _LN_EPS)
    d *= scale
    d += bias
    return d


def _causal_depthwise_conv(x, kernel, bias):
    """Per-channel causal convolution: out[t] = sum_k kernel[k] x[t-K+1+k]."""
    k = kernel.shape[0]
    t = x.shape[0]
    out = np.zeros_like(x)
    # tap i reads x shifted down by k-1-i; taps are added in order of i
    for shift in reversed(range(min(k, t))):
        out[shift:] += kernel[k - 1 - shift] * x[: t - shift]
    out += bias
    return out


def embed(x: np.ndarray, weights: dict) -> np.ndarray:
    """Single linear layer lifting L x C input signals to L x E features."""
    x = np.asarray(x, dtype=np.float32)
    w = weights["embed.weight"]
    if x.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"expected input shape (L, {w.shape[0]}), got {x.shape}")
    return x @ w + weights["embed.bias"]


def ssd_block(p: np.ndarray, weights: dict, prefix: str) -> np.ndarray:
    """One gated SSD block over an (T, W) sequence.

    X, B, C come from a shared layer norm through a linear layer and a causal
    depthwise conv with SiLU; the scalar decay a_t = exp(-softplus(raw_t))
    lies in [0, 1] (in float32 it rounds to exactly 1 below raw ~= -17 and
    to 0 above raw ~= 104); the scan output is gated by
    f1 = SiLU(Linear(LN(p))) and projected out through a second layer norm.
    """
    p = np.asarray(p, dtype=np.float32)
    width = p.shape[-1]
    z = _layer_norm(p, weights[prefix + "ln.scale"], weights[prefix + "ln.bias"])
    xbc = z @ weights[prefix + "xbc.weight"]
    xbc += weights[prefix + "xbc.bias"]
    xbc = _silu(
        _causal_depthwise_conv(
            xbc, weights[prefix + "conv.kernel"], weights[prefix + "conv.bias"]
        )
    )
    state = (xbc.shape[-1] - width) // 2
    raw = z @ weights[prefix + "a.weight"] + weights[prefix + "a.bias"]
    a = np.exp(-np.logaddexp(0.0, raw[:, 0]))
    gate = z @ weights[prefix + "gate.weight"]
    gate += weights[prefix + "gate.bias"]
    gate = _silu(gate)
    gate *= chunked_scan(
        SsdParams(a=a, b=xbc[:, width : width + state],
                  c=xbc[:, width + state :], x=xbc[:, :width])
    )
    h = _layer_norm(
        gate, weights[prefix + "out_ln.scale"], weights[prefix + "out_ln.bias"]
    )
    out = h @ weights[prefix + "out.weight"]
    out += weights[prefix + "out.bias"]
    return out


def bi_ssd(p: np.ndarray, weights: dict, prefix: str):
    """Forward and backward SSD branches with independent weights.

    f_f scans p causally; f_b = flip(ssd_block(flip(p))) so that f_b at
    frame t depends only on frames >= t.
    """
    f_f = ssd_block(p, weights, prefix + "fwd.")
    f_b = ssd_block(p[::-1], weights, prefix + "bwd.")[::-1]
    return f_f, f_b


def lma(f: np.ndarray, weights: dict, prefix: str) -> np.ndarray:
    """Local aggregation: SiLU(kernel-1 conv(LN(f))), no temporal mixing."""
    z = _layer_norm(f, weights[prefix + "ln.scale"], weights[prefix + "ln.bias"])
    return _silu(z @ weights[prefix + "conv.weight"] + weights[prefix + "conv.bias"])


def gma(f: np.ndarray, weights: dict, prefix: str, heads: int) -> np.ndarray:
    """Global aggregation: in-projection, then pre-LN single-layer multi-head
    self-attention and a SiLU feed-forward, each with a residual connection.

    There is no positional encoding, so the block is permutation equivariant
    over frames.
    """
    g = f @ weights[prefix + "in.weight"] + weights[prefix + "in.bias"]
    z = _layer_norm(g, weights[prefix + "ln1.scale"], weights[prefix + "ln1.bias"])
    q = z @ weights[prefix + "q.weight"] + weights[prefix + "q.bias"]
    k = z @ weights[prefix + "k.weight"] + weights[prefix + "k.bias"]
    v = z @ weights[prefix + "v.weight"] + weights[prefix + "v.bias"]
    length, hidden = q.shape
    dim = hidden // heads
    # (heads, L, dim)
    q = q.reshape(length, heads, dim).transpose(1, 0, 2)
    k = k.reshape(length, heads, dim).transpose(1, 0, 2)
    v = v.reshape(length, heads, dim).transpose(1, 0, 2)
    logits = (q @ k.transpose(0, 2, 1)) / np.float32(np.sqrt(dim))
    logits -= logits.max(axis=-1, keepdims=True)
    att = np.exp(logits)
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(1, 0, 2).reshape(length, hidden)
    g = g + (ctx @ weights[prefix + "proj.weight"] + weights[prefix + "proj.bias"])

    z = _layer_norm(g, weights[prefix + "ln2.scale"], weights[prefix + "ln2.bias"])
    ff = _silu(z @ weights[prefix + "ffn1.weight"] + weights[prefix + "ffn1.bias"])
    return g + (ff @ weights[prefix + "ffn2.weight"] + weights[prefix + "ffn2.bias"])


def tfm_forward(p: np.ndarray, weights: dict, prefix: str,
                config: ModelConfig) -> np.ndarray:
    """Temporal flow module: GMA(LMA(f_f + f_b))."""
    f_f, f_b = bi_ssd(p, weights, prefix)
    t = lma(f_f + f_b, weights, prefix + "lma.")
    return gma(t, weights, prefix + "gma.", config.gma_heads)


def stmm_forward(t_in: np.ndarray, weights: dict, prefix: str,
                 config: ModelConfig, order: ScanOrder) -> np.ndarray:
    """Spatiotemporal mixing over the flattened (frame, joint) axis.

    Lift E -> H = J*D, reshape to (L, J, D), gather joints into scan order,
    flatten to one (L*len(order), D) sequence, run the bidirectional SSD over
    that mixed axis, scatter back to canonical joints (summing positions a
    non-permutation order visits twice), project H -> E, then LMA and GMA.
    """
    t_in = np.asarray(t_in, dtype=np.float32)
    length = t_in.shape[0]
    h = t_in @ weights[prefix + "in.weight"] + weights[prefix + "in.bias"]
    if h.shape[1] != config.mixed_hidden:
        raise ValueError(
            f"mixed hidden {h.shape[1]} does not match J*D = {config.mixed_hidden}"
        )
    s = h.reshape(length, config.joints, config.joint_dim)
    flat = reorder_joint_features(s, order).reshape(
        length * len(order), config.joint_dim
    )
    f_f, f_b = bi_ssd(flat, weights, prefix)
    mixed = (f_f + f_b).reshape(length, len(order), config.joint_dim)
    s_out = inverse_reorder_joint_features(mixed, order)
    e = s_out.reshape(length, config.mixed_hidden) @ weights[prefix + "out.weight"]
    e = e + weights[prefix + "out.bias"]
    e = lma(e, weights, prefix + "lma.")
    return gma(e, weights, prefix + "gma.", config.gma_heads)


def infer_windowed(x: np.ndarray, config: ModelConfig, weights: dict) -> np.ndarray:
    """Run the network over a sequence of any length T >= 1.

    The input splits into non-overlapping windows of config.seq_len frames;
    a final partial window is left-padded by repeating its first frame, and
    only its last r predictions are kept, so exactly T frames come out.
    """
    x = np.asarray(x, dtype=np.float32)
    length = config.seq_len
    outputs = []
    for start in range(0, x.shape[0], length):
        window = x[start : start + length]
        r = window.shape[0]
        # both steps are identities on a full window (r == length)
        window = np.pad(window, ((length - r, 0), (0, 0)), mode="edge")
        outputs.append(kinest_forward(window, config, weights)[-r:])
    return np.concatenate(outputs, axis=0)


def _layer_outputs(x, config, weights):
    """Yield (layer name, output) for each layer of the forward pass in turn,
    ending with the regressor."""
    order = scan_order_for(config.scan_strategy)
    p = embed(x, weights)
    yield "embed", p
    for i in range(config.n_tfm):
        p = tfm_forward(p, weights, f"tfm{i}.", config)
        yield f"tfm{i}.", p
    for i in range(config.m_skfm):
        p = stmm_forward(p, weights, f"skfm{i}.", config, order)
        yield f"skfm{i}.", p
    yield "regressor", p @ weights["regressor.weight"] + weights["regressor.bias"]


def kinest_forward(x: np.ndarray, config: ModelConfig, weights: dict) -> np.ndarray:
    """Full forward pass: (L, 36) tracking signal -> (L, 22, 6) rotations.

    A non-finite output raises FloatingPointError naming the first layer
    whose output is not finite, found by running the layers again.
    """
    for _, y in _layer_outputs(x, config, weights):
        pass
    if not np.all(np.isfinite(y)):
        first = next(name for name, out in _layer_outputs(x, config, weights)
                     if not np.all(np.isfinite(out)))
        raise FloatingPointError(
            f"non-finite values in network output, first in layer {first!r}"
        )
    return y.reshape(x.shape[0], config.joints, 6)
