import dataclasses
import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.special import expit

import kinescan.model as model_mod
from kinescan.kinematics import SCAN_ORDERS
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
    ssd_block,
    stmm_forward,
    tfm_forward,
)
from kinescan.ssd import SsdParams, ssm_recurrence

import conftest
from conftest import ByThreads, golden, make_rng

MICRO_PARAMS = 16024
FULL_PARAMS = 6071692
# init_weights in plan order: tensor count, sha256 of its "name shape" lines
# and sha256 of its float32 bytes
INIT_PINS = {
    "full": (212, "aa8e25071a3f58f1f4624d591bb188817e2238bde87e725f5ed3a040e9f8ef29",
             "e29162b325a53f082e9fd824a7dfb922c65033932254587c4a7feb5a5adace16"),
    "micro": (108, "37feec63541673e8607e44934246a6d339cbc558462423ee241054fd7983f613",
              "d96dcf8d0c097508e91e62140abb9b166abd5811d1deb0a0713785f0a29704cf"),
}


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
        got = _layer_norm(x, {"ln.scale": scale, "ln.bias": bias}, "ln")
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
        got = _causal_depthwise_conv(x, kernel, bias, 0, np.empty_like(x))
        assert np.array_equal(got, zero_padded_conv(x, kernel, bias))
        assert np.array_equal(x, x_in)

    def test_causal_conv_negative_zero_only_where_every_term_is(self):
        # the first tap is written, not added to zeros: a row whose tap
        # products and bias are all -0.0 stays -0.0; any +0.0 term gives +0.0
        x = np.full((5, 2), -0.0, dtype=np.float32)
        kernel = np.ones((3, 2), dtype=np.float32)
        bias = np.float32([-0.0, 0.0])
        got = _causal_depthwise_conv(x, kernel, bias, 0, np.empty_like(x))
        want = zero_padded_conv(x, kernel, bias)
        assert np.array_equal(got, want)
        assert np.signbit(got[:, 1]).sum() == 0 and np.signbit(want).sum() == 0
        # rows 0 and 1 see zero padding: +0.0
        assert np.signbit(got[:, 0]).tolist() == [False, False, True, True, True]


class TestModelConfig:
    def test_defaults_valid(self):
        config = ModelConfig()
        assert config.mixed_hidden == 22 * 64

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError):
            ModelConfig(gma_hidden=100, gma_heads=8)

    def test_unknown_scan_strategy(self):
        with pytest.raises(ValueError):
            ModelConfig(scan_strategy="bfs")

    def test_negative_module_count(self):
        with pytest.raises(ValueError):
            ModelConfig(n_tfm=-1)

    @pytest.mark.parametrize("seed", [-1, -(2 ** 63), 2 ** 64])
    def test_seed_outside_pcg64_range_rejected(self, seed):
        # refused by name here, not by PCG64 inside init_weights
        with pytest.raises(ValueError, match=rf"seed must be in 0\.\.2\*\*64-1, got {seed}"):
            ModelConfig(seed=seed)

    def test_seed_range_ends_accepted(self):
        for seed in (0, 2 ** 64 - 1):
            init_weights(ModelConfig(seed=seed, **MICRO_CONFIG_KWARGS))


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

    def test_check_weights_names_the_tensors(self):
        config, w = micro_weights()
        # a micro checkpoint under the full-scale config lacks tfm1 onwards
        with pytest.raises(ValueError, match=r"micro\.ckpt: tensor names do not match "
                                             r"the config: missing 'tfm1\.[\w.]+' "
                                             r"\(first of \d+\)$"):
            check_weights(ModelConfig(), w, "micro.ckpt")
        renamed = {("embed.b" if k == "embed.bias" else k): v for k, v in w.items()}
        with pytest.raises(ValueError, match=r"missing 'embed\.bias' \(first of 1\), "
                                             r"unexpected 'embed\.b' \(first of 1\)$"):
            check_weights(config, renamed, "w.ckpt")

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

    @pytest.mark.parametrize("scale", sorted(INIT_PINS))
    def test_plan_and_bytes_pinned(self, scale):
        # PCG64 draws and float32 casts only: no BLAS, so one pin for every kernel set
        count, plan_digest, bytes_digest = INIT_PINS[scale]
        config = ModelConfig() if scale == "full" else micro_weights()[0]
        w = init_weights(config)
        plan = "".join(f"{name} {t.shape}\n" for name, t in w.items())
        assert len(w) == count
        assert hashlib.sha256(plan.encode()).hexdigest() == plan_digest
        weight_bytes = b"".join(t.tobytes() for t in w.values())
        assert hashlib.sha256(weight_bytes).hexdigest() == bytes_digest


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

    def test_scratch_keeps_the_last_shapes_and_outputs_stay_fresh(self):
        _, w = micro_weights()
        p = make_rng(6).standard_normal((7, 16)).astype(np.float32)
        first = ssd_block(p, w, "tfm0.fwd.")
        for t in range(1, 7):
            ssd_block(p[:t], w, "tfm0.fwd.")
        # four shapes are kept, the most recent last
        assert [shape[0] for shape, _ in model_mod._scratch.ssd] == [3, 4, 5, 6]
        again = ssd_block(p, w, "tfm0.fwd.")
        assert np.array_equal(again, first) and not np.shares_memory(again, first)


SPLIT = model_mod._SPLIT_ROWS


@pytest.fixture(scope="module")
def full_weights():
    """Full-scale FKS weights for seeds 0 and 1."""
    return [init_weights(ModelConfig(scan_strategy="fks", seed=s)) for s in (0, 1)]


def see_cpus(monkeypatch, n):
    """The model sees n CPUs: with 2 a long scan axis splits on any box."""
    monkeypatch.setattr(model_mod, "_cpu_count", lambda: n)


def record_layer_norms(monkeypatch):
    """(thread id, rows) of each layer norm the model runs from now on."""
    calls, real = [], model_mod._layer_norm

    def recorder(x, weights, name):
        calls.append((threading.get_ident(), x.shape[-2]))
        return real(x, weights, name)

    monkeypatch.setattr(model_mod, "_layer_norm", recorder)
    return calls


def assert_split_matches(split, inline):
    """Bit for bit where the BLAS gives each row its bits whatever rows share
    the call; else within the rows' last-bit spread."""
    if conftest.sgemm_rows_independent():
        assert np.array_equal(split, inline)
    else:  # the rows' matmuls differ in their last bits, split or not
        np.testing.assert_allclose(split, inline, rtol=0, atol=1e-5)


class TestRowSplit:
    """At SPLIT rows or more, ssd_block runs its row-local stages as two
    row halves, the second on a worker thread; every row keeps its bits."""

    @pytest.mark.parametrize("t", [SPLIT, SPLIT + 1, 2 * SPLIT + 1, 3071, 3072])
    def test_split_equals_inline_and_prefix_bitwise(self, monkeypatch, full_weights, t):
        w = full_weights[0]
        p = make_rng(t).standard_normal((t, 64)).astype(np.float32)
        see_cpus(monkeypatch, 1)
        inline = ssd_block(p, w, "skfm0.fwd.")
        see_cpus(monkeypatch, 2)
        calls = record_layer_norms(monkeypatch)
        split = ssd_block(p, w, "skfm0.fwd.")
        # two layer norms, each over the caller's rows 0..mid and the
        # worker's mid..t, mid a multiple of 16
        me = threading.get_ident()
        mid = t // 32 * 16
        assert sorted(rows for thread, rows in calls if thread == me) == [mid, mid]
        assert sorted(rows for thread, rows in calls if thread != me) == [t - mid, t - mid]
        s = SPLIT // 2  # a multiple of 16 below the split: runs inline
        assert_split_matches(split, inline)
        assert_split_matches(split[:s], ssd_block(p[:s], w, "skfm0.fwd."))

    def test_conv_halo_crosses_the_split(self, monkeypatch, full_weights):
        # with every decay 0 the scan keeps no state, so a row reaches later
        # rows only through the causal conv: changing row mid-1 changes
        # rows mid-1 .. mid+K-2, the last K-1 of them in the worker's half
        k, t, mid = 4, 3072, 1536
        w = {**full_weights[0], "skfm0.fwd.a.weight": np.zeros((64, 1), dtype=np.float32),
             "skfm0.fwd.a.bias": np.float32([120.0])}
        assert w["skfm0.fwd.conv.kernel"].shape[0] == k
        see_cpus(monkeypatch, 2)
        p = make_rng(9).standard_normal((t, 64)).astype(np.float32)
        q = p.copy()
        q[mid - 1] += 1.0
        a, b = ssd_block(p, w, "skfm0.fwd."), ssd_block(q, w, "skfm0.fwd.")
        changed = np.flatnonzero(np.any(a != b, axis=-1))
        assert changed.tolist() == list(range(mid - 1, mid + k - 1))

    def test_weight_batch_equals_unbatched_bitwise(self, monkeypatch, full_weights):
        see_cpus(monkeypatch, 2)
        stacked = stacked_weights(*full_weights)
        p = make_rng(2).standard_normal((2 * SPLIT + 1, 64)).astype(np.float32)
        got = ssd_block(np.stack([p, p]), stacked, "skfm1.bwd.")
        assert got.shape == (2,) + p.shape
        for i in range(2):
            assert np.array_equal(got[i], ssd_block(p, full_weights[i], "skfm1.bwd."))

    def test_caller_waits_for_the_worker_half_and_reraises_it(self, monkeypatch):
        see_cpus(monkeypatch, 2)
        ran = []

        def caller_fails(lo, hi):
            if lo == 0:
                raise KeyError("caller half")
            time.sleep(0.05)
            ran.append((lo, hi, threading.get_ident()))

        with pytest.raises(KeyError, match="caller half"):
            model_mod._split(caller_fails, 3072, True)
        assert len(ran) == 1 and ran[0][:2] == (1536, 3072)
        assert ran[0][2] != threading.get_ident()

        def worker_fails(lo, hi):
            if lo:
                raise KeyError("worker half")

        with pytest.raises(KeyError, match="worker half"):
            model_mod._split(worker_fails, 3072, True)

    def test_worker_half_runs_under_the_callers_error_state(self, monkeypatch, full_weights):
        # only rows of the worker's half overflow the first layer norm; with
        # warnings ignored, only the caller's error state, carried to the
        # worker, refuses them
        p = make_rng(3).standard_normal((3072, 64)).astype(np.float32)
        p[1536:] *= 1e30
        see_cpus(monkeypatch, 2)
        with warnings.catch_warnings(), np.errstate(over="raise"):
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(FloatingPointError, match="overflow"):
                ssd_block(p, full_weights[0], "skfm0.fwd.")

    def test_overflow_in_the_worker_half_names_its_layer(self, monkeypatch):
        # frames 48.. fill mixed rows 1536.. of the 3072, the forward
        # branch's worker half; a warning in place of the error would escape
        config = ModelConfig(n_tfm=0, scan_strategy="fks")
        x = make_rng(3).standard_normal((96, 36))
        x[48:] *= 1e20
        see_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=r"first in layer 'skfm0\.'$"):
                kinest_forward(x, config, init_weights(config))

    def test_one_cpu_runs_inline(self, monkeypatch, full_weights):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")  # else BLAS owns the cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = record_layer_norms(monkeypatch)
        p = make_rng(1).standard_normal((3072, 64)).astype(np.float32)
        ssd_block(p, full_weights[0], "skfm0.fwd.")
        assert calls == [(threading.get_ident(), 3072)] * 2

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    def test_forked_child_starts_its_own_worker(self, monkeypatch, full_weights):
        # the child inherits no worker thread; a split that waited on the
        # parent's would never finish
        config = ModelConfig(scan_strategy="fks")
        x = make_rng(4).standard_normal((96, 36))
        see_cpus(monkeypatch, 2)
        want = kinest_forward(x, config, full_weights[0])
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: there.send_bytes(
            kinest_forward(x, config, full_weights[0]).tobytes()))
        child.start()
        try:
            assert here.poll(60), "the forked child's forward did not finish"
            got = here.recv_bytes()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
        assert child.exitcode == 0
        assert got == want.tobytes()


class TestBlockSplit:
    """At full scale the GMA (rows, then heads, then rows) and the SKFM lift
    and output projection also run as two halves; small blocks run inline."""

    def test_gma_split_equals_one_cpu(self, monkeypatch, full_weights):
        f = make_rng(5).standard_normal((96, 256)).astype(np.float32)
        see_cpus(monkeypatch, 1)
        inline = gma(f, full_weights[0], "tfm0.gma.", 8)
        see_cpus(monkeypatch, 2)
        calls = record_layer_norms(monkeypatch)
        split = gma(f, full_weights[0], "tfm0.gma.", 8)
        # ln1 and ln2, each over rows 0..48 here and 48..96 on the worker
        me = threading.get_ident()
        assert [rows for thread, rows in calls if thread == me] == [48, 48]
        assert [rows for thread, rows in calls if thread != me] == [48, 48]
        assert_split_matches(split, inline)

    def test_stmm_split_equals_one_cpu(self, monkeypatch, full_weights):
        config = ModelConfig(scan_strategy="fks")
        t_in = make_rng(6).standard_normal((96, 256)).astype(np.float32)
        see_cpus(monkeypatch, 1)
        inline = stmm_forward(t_in, full_weights[0], "skfm0.", config)
        see_cpus(monkeypatch, 2)
        calls = record_layer_norms(monkeypatch)
        split = stmm_forward(t_in, full_weights[0], "skfm0.", config)
        # four SSD layer norms over 1536 mixed rows and the GMA's two over 48
        # frames on each thread; the LMA's (96 frames) stays here
        me = threading.get_ident()
        assert sorted(rows for thread, rows in calls if thread != me) == [48] * 2 + [1536] * 4
        assert sorted(rows for thread, rows in calls if thread == me) == \
            [48] * 2 + [96] + [1536] * 4
        assert_split_matches(split, inline)

    def test_small_blocks_run_inline(self, monkeypatch):
        # the full-scale TFM ssd_block and LMA, and every micro block
        see_cpus(monkeypatch, 2)
        calls = record_layer_norms(monkeypatch)
        config = ModelConfig(n_tfm=1, m_skfm=0)
        tfm_forward(make_rng(7).standard_normal((96, 256)).astype(np.float32),
                    init_weights(config), "tfm0.", config)
        # two SSD blocks (2 each), the LMA (1) here; the GMA (2) split
        assert sorted(rows for thread, rows in calls if thread == threading.get_ident()) \
            == [48] * 2 + [96] * 5
        calls.clear()
        config, w = micro_weights()
        kinest_forward(make_rng(8).standard_normal((24, 36)), config, w)
        assert {thread for thread, _ in calls} == {threading.get_ident()}

    def test_weight_batch_equals_unbatched_bitwise(self, monkeypatch, full_weights):
        see_cpus(monkeypatch, 2)
        stacked = stacked_weights(*full_weights)
        config = ModelConfig(scan_strategy="fks")
        f = make_rng(9).standard_normal((96, 256)).astype(np.float32)
        got_gma = gma(f, stacked, "skfm1.gma.", 8)
        got_stmm = stmm_forward(f, stacked, "skfm1.", config)
        for i in range(2):
            assert np.array_equal(got_gma[i], gma(f, full_weights[i], "skfm1.gma.", 8))
            assert np.array_equal(got_stmm[i],
                                  stmm_forward(f, full_weights[i], "skfm1.", config))

    def test_overflow_in_the_worker_half_of_a_gma_names_its_layer(self, monkeypatch):
        # q and k of heads 4..7, the worker's half of the attention stage,
        # are scaled until their logits overflow; a warning in place of the
        # error would escape the worker
        config = ModelConfig(n_tfm=1, m_skfm=0)
        w = dict(init_weights(config))
        for name in ("tfm0.gma.q.weight", "tfm0.gma.k.weight"):
            w[name] = w[name].copy()
            w[name][:, 256:] *= np.float32(1e25)
        x = make_rng(10).standard_normal((96, 36))
        see_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=r"first in layer 'tfm0\.'$"):
                kinest_forward(x, config, w)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# one full-scale FKS forward in a fresh interpreter; prints its threads' names
THREADS_SCRIPT = """
import threading
import numpy as np
import kinescan.model as model
config = model.ModelConfig(scan_strategy="fks")
model.kinest_forward(np.zeros((96, 36)), config, model.init_weights(config))
print(" ".join(thread.name for thread in threading.enumerate()))
"""


class TestSplitOwner:
    """The forward splits its blocks only where OpenBLAS runs one thread;
    else OpenBLAS's own threads take the spare cores."""

    @pytest.mark.parametrize("env, cpus, seen", [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"GOTO_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
        # OpenBLAS skips a variable that holds no positive integer
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
    ])
    def test_cpus_seen_follow_the_blas_thread_count(self, monkeypatch, env, cpus, seen):
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert model_mod._cpu_count() == seen

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    @pytest.mark.parametrize("blas_threads, workers", [(None, 0), ("1", 1)])
    def test_fresh_forward_starts_a_worker_only_at_one_blas_thread(self, blas_threads,
                                                                   workers):
        src = os.path.dirname(os.path.dirname(os.path.abspath(model_mod.__file__)))
        env = {name: value for name, value in os.environ.items()
               if name not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = src
        if blas_threads:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        out = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split().count("kinescan-rows") == workers

    def test_concurrent_first_splits_start_one_worker(self, monkeypatch, full_weights):
        # more callers than the two cores, switching threads as often as the
        # interpreter allows
        see_cpus(monkeypatch, 2)
        config = ModelConfig(scan_strategy="fks")
        xs = [make_rng(s).standard_normal((96, 36)) for s in (13, 14, 15)]
        want = [kinest_forward(x, config, full_weights[0]) for x in xs]
        monkeypatch.setattr(model_mod, "_worker", {})
        before = {t for t in threading.enumerate() if t.name == "kinescan-rows"}
        start, got = threading.Barrier(len(xs)), [None] * len(xs)

        def run(i):
            start.wait()
            got[i] = kinest_forward(xs[i], config, full_weights[0])

        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        after = {t for t in threading.enumerate() if t.name == "kinescan-rows"}
        assert len(after - before) == 1
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    def test_a_worker_that_failed_to_start_is_started_again(self, monkeypatch):
        see_cpus(monkeypatch, 2)
        monkeypatch.setattr(model_mod, "_worker", {})
        ran = []

        def stage(lo, hi):
            ran.append((lo, hi, threading.get_ident()))

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", refuse)
            with pytest.raises(RuntimeError, match="can't start new thread"):
                model_mod._split(stage, 3072, True)
        assert ran == [] and model_mod._worker == {}
        model_mod._split(stage, 3072, True)
        assert sorted(r[:2] for r in ran) == [(0, 1536), (1536, 3072)]
        assert len({r[2] for r in ran}) == 2


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
        # changing one frame changes that frame's output and no other frame's,
        # bit for bit; frames keep their positions, so this holds whatever
        # the BLAS kernel's tiling does with a row's place in its tile
        _, w = micro_weights()
        f = rng.standard_normal((24, 16)).astype(np.float32)
        g = f.copy()
        g[9] = rng.standard_normal(16)
        before, after = lma(f, w, "tfm0.lma."), lma(g, w, "tfm0.lma.")
        others = np.arange(24) != 9
        assert np.array_equal(after[others], before[others])
        assert not np.array_equal(after[9], before[9])


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
        # the order comes from config.scan_strategy alone
        for strategy, joints in (("uks", 22), ("index", 22), ("fks", 32)):
            recorded.clear()
            stmm_forward(t_in, w, "skfm0.",
                         dataclasses.replace(config, scan_strategy=strategy))
            assert recorded == [24 * joints]

    def test_output_shape(self, rng):
        config, w = micro_weights()
        t_in = rng.standard_normal((24, 16)).astype(np.float32)
        out = stmm_forward(t_in, w, "skfm0.", config)
        assert out.shape == (24, 16) and out.dtype == np.float32

    def test_hidden_width_mismatch_rejected(self, rng):
        config, w = micro_weights()
        wide = ModelConfig(seed=0, **{**MICRO_CONFIG_KWARGS, "joint_dim": 5})
        t_in = rng.standard_normal((24, 16)).astype(np.float32)
        with pytest.raises(ValueError, match="mixed hidden"):
            stmm_forward(t_in, w, "skfm0.", wide)


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
        with pytest.raises(FloatingPointError, match=r"'skfm0\.'"):
            kinest_forward(rng.standard_normal((24, 36)), config, w)

    def test_overflow_that_reaches_the_scan_decays_names_its_layer(self, rng):
        # the tfm0 layer norm overflows, which would turn its decays NaN;
        # the error names the layer, not the decays
        config, w = micro_weights()
        x = rng.standard_normal((24, 36))
        x[10, :6] = 3e38
        with pytest.raises(FloatingPointError, match=r"first in layer 'tfm0\.'"):
            kinest_forward(x, config, w)

    @pytest.mark.parametrize("value", [1e20, 1e35])
    @pytest.mark.parametrize("scale", ["micro", "full"])
    def test_overflow_with_a_finite_output_names_its_layer(self, rng, scale, value):
        # tfm0's layer-norm variance overflows, while the output would be
        # finite; the forward refuses it all the same
        config = ModelConfig() if scale == "full" else micro_weights()[0]
        x = rng.standard_normal((config.seq_len, 36))
        x[10, 0] = value
        with pytest.raises(FloatingPointError, match=r"first in layer 'tfm0\.'$"):
            kinest_forward(x, config, init_weights(config))

    def test_shape_errors_are_not_reported_as_non_finite(self, rng):
        config, w = micro_weights()
        with pytest.raises(ValueError, match=r"expected input shape \(L, 36\)"):
            kinest_forward(rng.standard_normal((24, 35)), config, w)
        w = dict(w)
        w["skfm0.out.weight"] = w["skfm0.out.weight"][:-1]
        with pytest.raises(ValueError, match="matmul"):
            kinest_forward(rng.standard_normal((24, 36)), config, w)


def float64_weights(weights):
    return {name: w.astype(np.float64) for name, w in weights.items()}


class TestFloat64Weights:
    """Float64 weights run the same layers in float64, an in-package oracle
    for the float32 forward; the bounds hold the measured worst case
    (1.2e-5 full scale, 2.4e-6 micro, over weight seeds 0, 1 and 7) with
    about 4x margin."""

    def check(self, monkeypatch, config, seed, tol):
        scans = []
        real = model_mod.chunked_scan

        def recorder(params, *args, **kwargs):
            y = real(params, *args, **kwargs)
            scans.append({m.dtype for m in (params.a, params.b, params.c, params.x, y)})
            return y

        monkeypatch.setattr(model_mod, "chunked_scan", recorder)
        weights = init_weights(config)
        w64 = float64_weights(weights)
        x = make_rng(seed).standard_normal((config.seq_len, 36))
        layers = list(model_mod._layer_outputs(x, config, w64))
        assert all(out.dtype == np.float64 for out in layers)
        assert len(scans) == 2 * (config.n_tfm + config.m_skfm)
        assert all(dtypes == {np.dtype(np.float64)} for dtypes in scans)
        y64 = kinest_forward(x, config, w64)
        y32 = kinest_forward(x, config, weights)
        assert y64.dtype == np.float64 and y32.dtype == np.float32
        np.testing.assert_allclose(y32, y64, rtol=0, atol=tol)

    @pytest.mark.parametrize("strategy", ["index", "fks", "uks"])
    def test_micro(self, monkeypatch, strategy):
        config, _ = micro_weights(scan_strategy=strategy, seed=7)
        self.check(monkeypatch, config, 107, 1e-5)

    def test_full_scale_fks(self, monkeypatch):
        self.check(monkeypatch, ModelConfig(scan_strategy="fks", seed=7), 107, 5e-5)

    @pytest.mark.parametrize("layer", ["embed", "ssd_block", "stmm_forward",
                                       "kinest_forward", "infer_windowed"])
    def test_no_float32_rounding_on_the_path(self, rng, layer):
        # an input change far below float32 resolution reaches the output
        config, w = micro_weights()
        w = float64_weights(w)
        fn, shape = {
            "embed": (lambda v: embed(v, w), (24, 36)),
            "ssd_block": (lambda v: ssd_block(v, w, "tfm0.fwd."), (24, 16)),
            "stmm_forward": (lambda v: stmm_forward(v, w, "skfm0.", config),
                             (24, 16)),
            "kinest_forward": (lambda v: kinest_forward(v, config, w), (24, 36)),
            "infer_windowed": (lambda v: infer_windowed(v, config, w), (30, 36)),
        }[layer]
        x = rng.standard_normal(shape)
        y = fn(x)
        assert y.dtype == np.float64
        assert not np.array_equal(y, fn(x + 1e-12))


def stacked_weights(*weights):
    return {name: np.stack([w[name] for w in weights]) for name in weights[0]}


class TestWeightBatch:
    @pytest.mark.parametrize("strategy", ["index", "fks", "uks"])
    def test_micro_stacked_seeds_equal_unbatched_bitwise(self, rng, strategy):
        config, w0 = micro_weights(scan_strategy=strategy)
        _, w1 = micro_weights(scan_strategy=strategy, seed=1)
        x = rng.standard_normal((24, 36)).astype(np.float32)
        got = kinest_forward(x, config, stacked_weights(w0, w1))
        assert got.shape == (2, 24, 22, 6) and got.dtype == np.float32
        assert np.array_equal(got[0], kinest_forward(x, config, w0))
        assert np.array_equal(got[1], kinest_forward(x, config, w1))

    def test_full_fks_stacked_seeds_equal_unbatched_bitwise(self, rng):
        configs = [ModelConfig(seed=s, scan_strategy="fks") for s in (0, 1)]
        weights = [init_weights(c) for c in configs]
        x = rng.standard_normal((96, 36)).astype(np.float32)
        got = kinest_forward(x, configs[0], stacked_weights(*weights))
        for i in range(2):
            assert np.array_equal(got[i], kinest_forward(x, configs[0], weights[i]))

    @pytest.mark.parametrize("layer", ["ssd_block", "lma", "gma"])
    def test_unbatched_input_with_stacked_weights(self, rng, layer):
        # the layer norms broadcast the input up to the weights' batch
        _, w0 = micro_weights()
        _, w1 = micro_weights(seed=1)
        fn = {"ssd_block": lambda w: ssd_block(p, w, "tfm0.fwd."),
              "lma": lambda w: lma(p, w, "tfm0.lma."),
              "gma": lambda w: gma(p, w, "tfm0.gma.", 2)}[layer]
        p = rng.standard_normal((24, 16)).astype(np.float32)
        assert np.array_equal(fn(stacked_weights(w0, w1)), np.stack([fn(w0), fn(w1)]))

    def test_batched_input_equals_unbatched_bitwise(self, rng):
        config, w = micro_weights()
        x = rng.standard_normal((2, 24, 36)).astype(np.float32)
        got = kinest_forward(x, config, w)
        for i in range(2):
            assert np.array_equal(got[i], kinest_forward(x[i], config, w))

    def test_batch_is_not_a_python_loop(self, monkeypatch, rng):
        # the batch rides the scan's chunk axis: a weight batch of 2 makes
        # the unbatched forward's 4 scan calls and 4 decay builds, each with
        # (2, T) decays
        import kinescan.ssd as ssd_mod

        scans, builds = [], []
        real_scan, real_build = model_mod.chunked_scan, ssd_mod.build_decay_matrix

        def scan_recorder(params, *args, **kwargs):
            scans.append(params.a.shape)
            return real_scan(params, *args, **kwargs)

        def build_recorder(a):
            builds.append(a.shape)
            return real_build(a)

        monkeypatch.setattr(model_mod, "chunked_scan", scan_recorder)
        monkeypatch.setattr(ssd_mod, "build_decay_matrix", build_recorder)
        config, w0 = micro_weights()
        _, w1 = micro_weights(seed=1)
        x = rng.standard_normal((24, 36)).astype(np.float32)
        kinest_forward(x, config, w0)
        assert scans == [(24,), (24,), (24 * 22,), (24 * 22,)]
        assert len(builds) == 4
        scans.clear()
        builds.clear()
        kinest_forward(x, config, stacked_weights(w0, w1))
        assert scans == [(2, 24), (2, 24), (2, 24 * 22), (2, 24 * 22)]
        assert len(builds) == 4 and all(b[0] == 2 for b in builds)


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

    def test_empty_input_rejected(self):
        config, w = micro_weights()
        with pytest.raises(ValueError, match="a sequence needs at least one frame"):
            infer_windowed(np.zeros((0, 36), dtype=np.float32), config, w)


# 20 warm full-scale FKS forwards in a fresh interpreter that sets no heap
# policy; prints the minor page faults per forward
FAULT_SCRIPT = """
import os, resource, sys
import numpy as np
import kinescan.model as model
if sys.argv[1] == "1":
    os.sched_getaffinity = lambda pid: {0}
else:
    model._cpu_count = lambda: 2
config = model.ModelConfig(scan_strategy="fks")
weights = model.init_weights(config)
x = np.random.default_rng(7).standard_normal((96, 36))
for _ in range(3):
    model.kinest_forward(x, config, weights)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    model.kinest_forward(x, config, weights)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's default heap")
class TestPageFaults:
    """A warm forward reuses its pages on glibc's default heap: without
    ssd_block's scratch arrays one CPU took about 3,400 faults per
    full-scale FKS forward."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_warm_forward_takes_few_page_faults(self, cpus):
        src = os.path.dirname(os.path.dirname(os.path.abspath(model_mod.__file__)))
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"}
        env["PYTHONPATH"] = src
        if cpus == 1:  # the affinity decides only where OpenBLAS runs one thread
            env["OPENBLAS_NUM_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, str(cpus)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert float(out.stdout) <= 50


# sha256 of the float32 bytes of full-scale outputs with seed-0 weights, per
# OpenBLAS kernel family: each family's matmul kernels round differently
GOLDEN_FORWARD = {
    "SkylakeX": {
        "index": "a19b706622d8ce6a291a6f169c7b9075918fd873aca9e63fdbc566b8d3c8e3b7",
        "fks": "145abfd9305b337691659f1d92de7fd33488b46055d0b19aa9ba2378ad6fbd81",
        "uks": "9a04161ebcef3de3a06d52e8a5d948e30e30dd4d86537ae3b47d4be7d720e149",
        "fks-windowed-130": "1e81b288fc04832d03d7aad329537477094a1c63b38376e340b2902f7a7c3cb9",
    },
    # the Haswell bits also follow the BLAS thread count
    "Haswell": ByThreads({
        1: {
            "index": "fd7b75d1d7915ee23832057a4ad319e2afe5d58136d5b000108b1cb4b06d5500",
            "fks": "2b06f54d7a52d36bb76db1ec0b1e8f23cc947eb664c822de04c72aee09e1147c",
            "uks": "24ba7248ae4eb8c0d114958e2641818f0a8bb799a415bbfbb2a221e65c9f00f6",
            "fks-windowed-130":
                "2d27f46fbda09340295f091f4049f9080f864a0ff097c94e9e4dd1afb2347b4b",
        },
        2: {
            "index": "64f59f4e1e6e8eac6060c4f57162b0e70b764e1e89694bce74c801fc887fb407",
            "fks": "948d091616031c3cfae8b7cbdc0ea5bb9f51c847a29d2ab398056278f127de3c",
            "uks": "d321fe81c7ca7e8a487f6fe6659c2347758a9db4c254d424592e975e7d3474d9",
            "fks-windowed-130":
                "8bf5d9cea1fa4fb9eb89e64e3376b48d41606dc8afd0cde3fe8b020099c00874",
        },
    }),
    "Sandybridge": {
        "index": "8b65546ade6ff5d6b1255ab0ef1c570fad1326e5bab319d8e03411d72385a367",
        "fks": "50804dc94bccaff7ac6de8769a41011ce306fac983af54c0078ef8a184d25f7e",
        "uks": "b294d527ee209f03f4dea0b5364174f6521abc4c1f624fb4b122f1218b2a26f1",
        "fks-windowed-130": "d7da204065e3b4fc58820e34e84ee3418768ec1bface485a9783cfa22c56b5e6",
    },
    "Nehalem": {
        "index": "5c1995a613358447a7505e89c0dd7d57df4e1185a29563920f9003d1db79ac07",
        "fks": "1045e5aadda749cbea0550cf3c6937768a1cd4f91a26829c3dd7934c9af2dda4",
        "uks": "91a9f3bbc374b6ed9bcd0ec523a7d11be5774fc3abf8ddda6a7264f0bebb9f73",
        "fks-windowed-130": "ee9586a5ac0d54f0c42c20813c551dd67eeb4139a66ca9a8428615126fe846d8",
    },
    "Katmai": {
        "index": "7f0880cd57e3476425293d062508bcd26a0413e80b70dfdba9ee4aeb8f641b65",
        "fks": "c10ec66d50936fcfd4ccd6e5617cdebbb84f0e3f7bcc1e710b47497d3f0c9280",
        "uks": "85da1a4ccc596009f684911a4be98cb0f75de504cf75bd123ed0a1db8cdb4221",
        "fks-windowed-130": "b29efb477018ec20944bca75f0fc42dcc6b29e484ff5953e5660076595deb9c9",
    },
}


def sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


class TestGolden:
    """The digests from the split blocks (two CPUs seen) ..."""

    cpus = 2

    @pytest.fixture(autouse=True)
    def cpus_seen(self, monkeypatch):
        see_cpus(monkeypatch, self.cpus)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("strategy", sorted(SCAN_ORDERS))
    def test_full_scale_forward_bit_for_bit(self, strategy, dtype):
        # a float64 input is cast once, to the weights' float32
        config = ModelConfig(scan_strategy=strategy)
        x = make_rng(11).standard_normal((96, 36)).astype(dtype)
        y = kinest_forward(x, config, init_weights(config))
        assert y.dtype == np.float32
        assert sha256(y) == golden(GOLDEN_FORWARD)[strategy]

    def test_full_scale_fks_windowed_bit_for_bit(self):
        config = ModelConfig(scan_strategy="fks")
        x = make_rng(12).standard_normal((130, 36))
        y = infer_windowed(x, config, init_weights(config))
        assert y.shape == (130, 22, 6) and y.dtype == np.float32
        assert sha256(y) == golden(GOLDEN_FORWARD)["fks-windowed-130"]

    def test_unmeasured_kernel_family_fails_naming_it(self, monkeypatch):
        monkeypatch.setattr(conftest, "openblas", lambda: ("OpenBLAS", "Zen5"))
        with pytest.raises(pytest.fail.Exception,
                           match=r"kernels 'Zen5'; measured: SkylakeX, Haswell, "):
            golden(GOLDEN_FORWARD)

    def test_unmeasured_thread_count_fails_naming_it(self, monkeypatch):
        monkeypatch.setattr(conftest, "openblas", lambda: ("OpenBLAS", "Haswell", 4))
        with pytest.raises(pytest.fail.Exception,
                           match=r"kernels 'Haswell' at 4 threads; measured: 1, 2$"):
            golden(GOLDEN_FORWARD)


class TestGoldenOneCpu(TestGolden):
    """... and the same digests from the inline blocks (one CPU seen)."""

    cpus = 1
