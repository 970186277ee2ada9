import warnings

import numpy as np
import pytest
from scipy.special import expit

import kinescan.model as model_mod
from kinescan.kinematics import fks_order, uks_order
from kinescan.model import (
    MICRO_CONFIG_KWARGS,
    ModelConfig,
    _causal_depthwise_conv,
    _layer_norm,
    _silu,
    bi_ssd,
    check_weights,
    embed,
    gma,
    infer_windowed,
    init_weights,
    kinest_forward,
    lma,
    parameter_count,
    scan_order_for,
    ssd_block,
    stmm_forward,
)
from kinescan.ssd import SsdParams, ssm_recurrence

from conftest import make_rng

MICRO_PARAMS = 16024
FULL_PARAMS = 6071692


def micro_weights(**overrides):
    config = ModelConfig(**{"seed": 0, **MICRO_CONFIG_KWARGS, **overrides})
    return config, init_weights(config)


def naive_ssd_block(p, weights, prefix):
    """Dense per-frame reimplementation with a plain recurrence scan."""
    p = np.asarray(p, dtype=np.float32)
    t, width = p.shape

    def ln(x, scale, bias):
        mu = x.mean(-1, keepdims=True)
        sd = np.sqrt(x.var(-1, keepdims=True) + 1e-5)
        return (x - mu) / sd * scale + bias

    z = ln(p, weights[prefix + "ln.scale"], weights[prefix + "ln.bias"])
    pre = z @ weights[prefix + "xbc.weight"] + weights[prefix + "xbc.bias"]
    kern = weights[prefix + "conv.kernel"]
    k = kern.shape[0]
    conv = np.zeros_like(pre)
    for i in range(t):
        for tap in range(k):
            src = i - (k - 1) + tap
            if src >= 0:
                conv[i] += kern[tap] * pre[src]
    conv += weights[prefix + "conv.bias"]
    xbc = conv * expit(conv)
    state = (xbc.shape[1] - width) // 2
    xs, b, c = xbc[:, :width], xbc[:, width:width + state], xbc[:, width + state:]
    raw = (z @ weights[prefix + "a.weight"] + weights[prefix + "a.bias"])[:, 0]
    a = np.exp(-np.logaddexp(0.0, raw.astype(np.float64)))
    scan = ssm_recurrence(
        SsdParams(a=a, b=b.astype(np.float64), c=c.astype(np.float64),
                  x=xs.astype(np.float64))
    ).astype(np.float32)
    pre_gate = z @ weights[prefix + "gate.weight"] + weights[prefix + "gate.bias"]
    gate = pre_gate * expit(pre_gate)
    h = ln(gate * scan, weights[prefix + "out_ln.scale"],
           weights[prefix + "out_ln.bias"])
    return h @ weights[prefix + "out.weight"] + weights[prefix + "out.bias"]


def two_pass_layer_norm(x, scale, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mu) / np.sqrt(var + 1e-5)) * scale + bias


def zero_padded_conv(x, kernel, bias):
    k, t = kernel.shape[0], x.shape[0]
    padded = np.concatenate([np.zeros((k - 1, x.shape[1]), dtype=x.dtype), x])
    out = np.zeros_like(x)
    for i in range(k):
        out += kernel[i] * padded[i : i + t]
    return out + bias


# (T, W) at the FKS mixed axis, the full-scale TFM xbc width, and micro
# TFM / SKFM widths; T = 2 is shorter than the widest conv kernel
PRIMITIVE_SHAPES = [(3072, 64), (96, 288), (24, 16), (528, 4), (528, 12), (2, 24)]


class TestPrimitives:
    def test_silu_matches_expit(self):
        grid = np.linspace(-120.0, 120.0, 480001, dtype=np.float32)
        x = np.concatenate(
            [grid, np.float32([0.0, -0.0, 88.7, -88.7, -104.0])]
        ).astype(np.float32)
        want = x * expit(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _silu(x.copy())
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)

    def test_silu_updates_its_argument(self):
        x = make_rng(3).standard_normal(10).astype(np.float32)
        assert _silu(x) is x

    @pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
    def test_layer_norm_matches_two_pass_formula(self, shape):
        rng = make_rng(shape[0] + shape[1])
        x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(np.float32)
        scale = rng.uniform(0.5, 2.0, shape[1]).astype(np.float32)
        bias = rng.standard_normal(shape[1]).astype(np.float32)
        x_in = x.copy()
        got = _layer_norm(x, scale, bias)
        assert np.array_equal(got, two_pass_layer_norm(x, scale, bias))
        assert np.array_equal(x, x_in)

    @pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_causal_conv_matches_zero_padded_formula(self, shape, width):
        rng = make_rng(shape[0] + width)
        x = rng.standard_normal(shape).astype(np.float32)
        kernel = rng.standard_normal((width, shape[1])).astype(np.float32)
        bias = rng.standard_normal(shape[1]).astype(np.float32)
        x_in = x.copy()
        got = _causal_depthwise_conv(x, kernel, bias)
        assert np.array_equal(got, zero_padded_conv(x, kernel, bias))
        assert np.array_equal(x, x_in)


class TestModelConfig:
    def test_defaults_valid(self):
        config = ModelConfig()
        assert config.mixed_hidden == 22 * 64

    def test_joint_count_locked(self):
        with pytest.raises(ValueError):
            ModelConfig(joints=21, output_dim=126)

    def test_input_dim_locked(self):
        with pytest.raises(ValueError):
            ModelConfig(input_dim=54)

    def test_output_dim_must_match(self):
        with pytest.raises(ValueError):
            ModelConfig(output_dim=131)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig(gma_hidden=100, gma_heads=8)

    def test_unknown_scan_strategy(self):
        with pytest.raises(ValueError):
            ModelConfig(scan_strategy="bfs")

    def test_negative_module_count(self):
        with pytest.raises(ValueError):
            ModelConfig(n_tfm=-1)

    def test_scan_order_for(self):
        assert scan_order_for("index").forward == tuple(range(22))
        assert len(scan_order_for("fks")) == 32
        assert len(scan_order_for("uks")) == 22
        with pytest.raises(ValueError):
            scan_order_for("dfs")


class TestInitWeights:
    def test_deterministic(self):
        _, w1 = micro_weights()
        _, w2 = micro_weights()
        assert w1.keys() == w2.keys()
        for name in w1:
            assert np.array_equal(w1[name], w2[name])
            assert w1[name].dtype == np.float32

    def test_seed_changes_weights(self):
        _, w1 = micro_weights()
        _, w2 = micro_weights(seed=1)
        assert not np.array_equal(w1["embed.weight"], w2["embed.weight"])

    def test_biases_zero_scales_one(self):
        _, w = micro_weights()
        assert not np.any(w["embed.bias"])
        assert np.all(w["tfm0.fwd.ln.scale"] == 1.0)
        assert not np.any(w["tfm0.gma.q.bias"])

    def test_decay_bias_targets_point_nine(self):
        _, w = micro_weights()
        raw = float(w["skfm0.bwd.a.bias"][0])
        assert np.exp(-np.logaddexp(0.0, raw)) == pytest.approx(0.9, abs=1e-6)

    def test_fan_in_bound(self):
        _, w = micro_weights()
        bound = 1.0 / np.sqrt(16.0)
        t = w["tfm0.gma.q.weight"]
        assert t.shape == (16, 32)
        assert np.abs(t).max() <= bound

    def test_micro_parameter_count(self):
        _, w = micro_weights()
        assert parameter_count(w) == MICRO_PARAMS

    def test_full_parameter_count(self):
        w = init_weights(ModelConfig())
        assert parameter_count(w) == FULL_PARAMS

    def test_check_weights_accepts_init(self):
        config, w = micro_weights()
        check_weights(config, w, "w.ckpt")
        check_weights(ModelConfig(), init_weights(ModelConfig()), "full")

    def test_check_weights_rejects_names_and_shapes(self):
        config, w = micro_weights()
        missing = {k: v for k, v in w.items() if k != "embed.bias"}
        with pytest.raises(ValueError, match="w.ckpt: tensor names"):
            check_weights(config, missing, "w.ckpt")
        with pytest.raises(ValueError, match="w.ckpt: tensor names"):
            check_weights(config, {**w, "stray": w["embed.bias"]}, "w.ckpt")
        wrong = {**w, "tfm0.gma.q.weight": np.zeros((16, 31), dtype=np.float32)}
        with pytest.raises(ValueError, match=r"'tfm0.gma.q.weight' has shape \(16, 31\), "
                                             r"config expects \(16, 32\)"):
            check_weights(config, wrong, "w.ckpt")
        with pytest.raises(ValueError, match="tensor names"):
            check_weights(ModelConfig(**{**MICRO_CONFIG_KWARGS, "m_skfm": 2}), w, "w.ckpt")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_check_weights_rejects_non_finite(self, bad):
        config, w = micro_weights()
        tensor = w["skfm0.fwd.a.weight"].copy()
        tensor[2, 0] = bad
        with pytest.raises(ValueError, match=r"w\.ckpt: tensor 'skfm0\.fwd\.a\.weight' "
                                             r"has non-finite values"):
            check_weights(config, {**w, "skfm0.fwd.a.weight": tensor}, "w.ckpt")

    def test_no_skfm_weights_when_disabled(self):
        _, w = micro_weights(m_skfm=0)
        assert not any(name.startswith("skfm") for name in w)


class TestEmbed:
    def test_zero_input_gives_bias(self):
        _, w = micro_weights()
        out = embed(np.zeros((5, 36), dtype=np.float32), w)
        np.testing.assert_array_equal(out, np.broadcast_to(w["embed.bias"], (5, 16)))

    def test_output_shape_and_dtype(self, rng):
        _, w = micro_weights()
        out = embed(rng.standard_normal((24, 36)), w)
        assert out.shape == (24, 16) and out.dtype == np.float32

    def test_wrong_width_rejected(self, rng):
        _, w = micro_weights()
        with pytest.raises(ValueError):
            embed(rng.standard_normal((24, 35)), w)


class TestSsdBlock:
    def test_matches_dense_oracle(self):
        config, w = micro_weights()
        rng = make_rng(7)
        for t in (1, 2, 5, 24, 37):
            p = rng.standard_normal((t, 16)).astype(np.float32)
            got = ssd_block(p, w, "tfm0.fwd.")
            want = naive_ssd_block(p, w, "tfm0.fwd.")
            np.testing.assert_allclose(got, want, atol=2e-5)

    @pytest.mark.parametrize("raw", [-40.0, 120.0], ids=["a=1", "a=0"])
    def test_saturated_decays_stay_finite(self, raw):
        # in float32 every decay rounds to exactly 1 (carry) or 0 (reset)
        _, w = micro_weights()
        w = {**w, "skfm0.fwd.a.weight": np.zeros((4, 1), dtype=np.float32),
             "skfm0.fwd.a.bias": np.float32([raw])}
        p = make_rng(5).standard_normal((528, 4)).astype(np.float32)
        got = ssd_block(p, w, "skfm0.fwd.")
        assert got.dtype == np.float32 and np.all(np.isfinite(got))
        np.testing.assert_allclose(got, naive_ssd_block(p, w, "skfm0.fwd."), atol=2e-5)

    def test_causal_prefix_is_bit_stable(self, rng):
        _, w = micro_weights()
        p = rng.standard_normal((24, 16)).astype(np.float32)
        q = p.copy()
        q[15:] = rng.standard_normal((9, 16)).astype(np.float32)
        a = ssd_block(p, w, "tfm0.fwd.")
        b = ssd_block(q, w, "tfm0.fwd.")
        assert np.array_equal(a[:15], b[:15])
        assert not np.array_equal(a[15:], b[15:])


class TestBiSsd:
    def test_backward_suffix_is_bit_stable(self, rng):
        _, w = micro_weights()
        p = rng.standard_normal((24, 16)).astype(np.float32)
        q = p.copy()
        q[:9] = rng.standard_normal((9, 16)).astype(np.float32)
        _, fb_p = bi_ssd(p, w, "tfm0.")
        _, fb_q = bi_ssd(q, w, "tfm0.")
        assert np.array_equal(fb_p[9:], fb_q[9:])
        assert not np.array_equal(fb_p[:9], fb_q[:9])

    def test_branches_use_independent_weights(self, rng):
        _, w = micro_weights()
        p = rng.standard_normal((24, 16)).astype(np.float32)
        f_f, f_b = bi_ssd(p, w, "tfm0.")
        assert not np.allclose(f_f, f_b[::-1])

    def test_palindrome_with_tied_weights_is_mirror(self, rng):
        _, w = micro_weights()
        w = {name: w[name.replace(".bwd.", ".fwd.")] for name in w}
        half = rng.standard_normal((12, 16)).astype(np.float32)
        p = np.concatenate([half, half[::-1]])
        f_f, f_b = bi_ssd(p, w, "tfm0.")
        assert np.array_equal(f_b, f_f[::-1])


class TestLma:
    def test_matches_dense_formula(self, rng):
        _, w = micro_weights()
        f = rng.standard_normal((24, 16)).astype(np.float32)
        z = f - f.mean(-1, keepdims=True)
        z = z / np.sqrt(f.var(-1, keepdims=True) + 1e-5)
        z = z * w["tfm0.lma.ln.scale"] + w["tfm0.lma.ln.bias"]
        pre = z @ w["tfm0.lma.conv.weight"] + w["tfm0.lma.conv.bias"]
        np.testing.assert_allclose(lma(f, w, "tfm0.lma."), pre * expit(pre),
                                   atol=1e-6)

    def test_no_temporal_mixing(self, rng):
        _, w = micro_weights()
        f = rng.standard_normal((24, 16)).astype(np.float32)
        perm = make_rng(1).permutation(24)
        assert np.array_equal(lma(f[perm], w, "tfm0.lma."),
                              lma(f, w, "tfm0.lma.")[perm])


class TestGma:
    def test_matches_dense_formula(self, rng):
        _, w = micro_weights()
        f = rng.standard_normal((24, 16)).astype(np.float32)

        def ln(x, name):
            z = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5)
            return z * w[name + ".scale"] + w[name + ".bias"]

        def linear(x, name):
            return x @ w[name + ".weight"] + w[name + ".bias"]

        g = linear(f, "tfm0.gma.in")
        z = ln(g, "tfm0.gma.ln1")
        heads = []
        for h in range(2):  # 32 hidden channels, 2 heads of 16
            cols = slice(16 * h, 16 * (h + 1))
            q, k, v = (linear(z, "tfm0.gma." + n)[:, cols] for n in "qkv")
            logits = q @ k.T / np.sqrt(16.0)
            att = np.exp(logits - logits.max(-1, keepdims=True))
            heads.append(att / att.sum(-1, keepdims=True) @ v)
        g = g + linear(np.concatenate(heads, axis=1), "tfm0.gma.proj")
        pre = linear(ln(g, "tfm0.gma.ln2"), "tfm0.gma.ffn1")
        want = g + linear(pre * expit(pre), "tfm0.gma.ffn2")
        np.testing.assert_allclose(gma(f, w, "tfm0.gma.", heads=2), want, atol=1e-5)

    def test_permutation_equivariant_without_positions(self, rng):
        _, w = micro_weights()
        f = rng.standard_normal((24, 16)).astype(np.float32)
        perm = make_rng(2).permutation(24)
        np.testing.assert_allclose(gma(f[perm], w, "tfm0.gma.", heads=2),
                                   gma(f, w, "tfm0.gma.", heads=2)[perm],
                                   atol=1e-5)


class TestStmm:
    def test_mixed_axis_lengths(self, monkeypatch, rng):
        recorded = []
        real = model_mod.bi_ssd

        def recorder(p, weights, prefix):
            recorded.append(p.shape[0])
            return real(p, weights, prefix)

        monkeypatch.setattr(model_mod, "bi_ssd", recorder)
        config, w = micro_weights()
        t_in = rng.standard_normal((24, 16)).astype(np.float32)
        stmm_forward(t_in, w, "skfm0.", config, uks_order())
        assert recorded == [24 * 22]
        recorded.clear()
        stmm_forward(t_in, w, "skfm0.", config, fks_order())
        assert recorded == [24 * 32]

    def test_output_shape(self, rng):
        config, w = micro_weights()
        t_in = rng.standard_normal((24, 16)).astype(np.float32)
        out = stmm_forward(t_in, w, "skfm0.", config, uks_order())
        assert out.shape == (24, 16) and out.dtype == np.float32

    def test_hidden_width_mismatch_rejected(self, rng):
        config, w = micro_weights()
        wide = ModelConfig(seed=0, **{**MICRO_CONFIG_KWARGS, "joint_dim": 5})
        t_in = rng.standard_normal((24, 16)).astype(np.float32)
        with pytest.raises(ValueError, match="mixed hidden"):
            stmm_forward(t_in, w, "skfm0.", wide, uks_order())


class TestKinestForward:
    def test_output_shape(self, rng):
        config, w = micro_weights()
        y = kinest_forward(rng.standard_normal((24, 36)), config, w)
        assert y.shape == (24, 22, 6) and y.dtype == np.float32

    def test_full_scale_scans_in_float32(self, monkeypatch, rng):
        dtypes = []
        real = model_mod.chunked_scan

        def recorder(params, *args, **kwargs):
            y = real(params, *args, **kwargs)
            dtypes.extend(m.dtype for m in (params.a, params.b, params.c, params.x, y))
            return y

        monkeypatch.setattr(model_mod, "chunked_scan", recorder)
        config = ModelConfig(scan_strategy="fks")
        kinest_forward(rng.standard_normal((96, 36)), config, init_weights(config))
        assert len(dtypes) == 8 * 5
        assert set(dtypes) == {np.dtype(np.float32)}

    def test_bitwise_deterministic(self, rng):
        config, w = micro_weights()
        x = rng.standard_normal((24, 36)).astype(np.float32)
        assert np.array_equal(kinest_forward(x, config, w),
                              kinest_forward(x, config, w))

    def test_short_and_long_sequences(self, rng):
        config, w = micro_weights()
        for t in (1, 3, 50):
            assert kinest_forward(rng.standard_normal((t, 36)), config, w).shape \
                == (t, 22, 6)

    def test_scan_strategies_all_run_and_differ(self, rng):
        x = rng.standard_normal((24, 36)).astype(np.float32)
        outs = {}
        for strategy in ("index", "fks", "uks"):
            config, w = micro_weights(scan_strategy=strategy)
            outs[strategy] = kinest_forward(x, config, w)
        assert not np.array_equal(outs["uks"], outs["fks"])
        assert not np.array_equal(outs["uks"], outs["index"])

    def test_pure_temporal_stack_runs(self, rng):
        config, w = micro_weights(m_skfm=0)
        assert kinest_forward(rng.standard_normal((24, 36)), config, w).shape \
            == (24, 22, 6)

    def test_nonfinite_output_raises(self, rng):
        config, w = micro_weights()
        w = dict(w)
        w["regressor.bias"] = w["regressor.bias"] + np.float32(np.inf)
        with pytest.raises(FloatingPointError, match="'regressor'"):
            kinest_forward(rng.standard_normal((24, 36)), config, w)

    def test_nonfinite_output_names_first_layer(self, rng):
        config, w = micro_weights()
        w = dict(w)
        w["skfm0.out.bias"] = np.full_like(w["skfm0.out.bias"], 3e38)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match=r"'skfm0\.'"):
            kinest_forward(rng.standard_normal((24, 36)), config, w)


class TestInferWindowed:
    def test_matches_manual_windowing(self, rng):
        config, w = micro_weights()
        x = rng.standard_normal((100, 36)).astype(np.float32)
        got = infer_windowed(x, config, w)
        assert got.shape == (100, 22, 6)
        pieces = [kinest_forward(x[s:s + 24], config, w) for s in (0, 24, 48, 72)]
        padded = np.pad(x[96:], ((20, 0), (0, 0)), mode="edge")
        pieces.append(kinest_forward(padded, config, w)[-4:])
        assert np.array_equal(got, np.concatenate(pieces))

    def test_exact_multiple_has_no_padding_effect(self, rng):
        config, w = micro_weights()
        x = rng.standard_normal((48, 36)).astype(np.float32)
        got = infer_windowed(x, config, w)
        assert np.array_equal(got[:24], kinest_forward(x[:24], config, w))
        assert np.array_equal(got[24:], kinest_forward(x[24:], config, w))

    def test_input_shorter_than_window(self, rng):
        config, w = micro_weights()
        x = rng.standard_normal((5, 36)).astype(np.float32)
        got = infer_windowed(x, config, w)
        padded = np.pad(x, ((19, 0), (0, 0)), mode="edge")
        assert np.array_equal(got, kinest_forward(padded, config, w)[-5:])
