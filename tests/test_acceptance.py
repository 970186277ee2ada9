"""Acceptance gate: eleven end-to-end properties, one pass/fail line each.

Every criterion prints a single line (even under captured output) so a full
run reads as a checklist. Tolerances are stated inline next to each check.
"""

import re
import time

import numpy as np
import pytest

import kinescan.model as model_mod
from kinescan.bench import run_benchmark
from kinescan.cli import main
from kinescan.model import ModelConfig, init_weights, kinest_forward
from kinescan.verify import (
    check_causality,
    check_fk_oracle,
    check_grad,
    check_loss_recomposition,
    check_metric_fixtures,
    check_rotation_roundtrip,
    check_scan_orders,
    check_ssd_duality,
)


def report(capsys, num, name, passed, detail):
    with capsys.disabled():
        print(f"[{num:02d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_ssd_duality(capsys):
    # >= 200 random instances (T <= 128, N <= 8, P <= 4); recurrence,
    # matrix form, and chunked scan (chunk in {1, 7, 16, T}) within 1e-5
    # relative; under 30 s
    t0 = time.perf_counter()
    passed, detail = check_ssd_duality(seed=0)
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < 30.0
    report(capsys, 1, "ssd duality", passed, f"{detail}; {elapsed:.1f}s")


def test_criterion_02_causality(capsys):
    # 50 random sequences: future truncation leaves past forward outputs
    # bit-identical; past truncation leaves future backward outputs
    # bit-identical
    passed, detail = check_causality(seed=0)
    report(capsys, 2, "causal/anti-causal branches", passed, detail)


def test_criterion_03_rotation_roundtrip(capsys):
    # 10,000 rotations including theta in {1e-9, 1e-6, pi-1e-6, pi}:
    # exp(log(R)) within 1e-7 Frobenius; Gram-Schmidt orthonormal to 1e-9
    passed, detail = check_rotation_roundtrip(seed=0)
    report(capsys, 3, "rotation round-trips", passed, detail)


def test_criterion_04_scan_orders(capsys):
    # byte-exact 32-entry FKS and 22-entry UKS lists; every consecutive FKS
    # pair is a parent-child edge of the bundled skeleton
    passed, detail = check_scan_orders()
    report(capsys, 4, "scan-order exactness", passed, detail)


def test_criterion_05_fk_oracle(capsys):
    # 100 random poses vs homogeneous-chain oracle within 1e-9; bone
    # lengths preserved; rigid invariance under a global root rotation
    passed, detail = check_fk_oracle(seed=0)
    report(capsys, 5, "forward-kinematics oracle", passed, detail)


def test_criterion_06_gradient(capsys):
    # 20 random micro sequences vs central differences (h = 1e-5):
    # relative error <= 1e-4 on >= 99% of components, <= 1e-2 worst case
    # away from L1 kinks; under 2 min
    t0 = time.perf_counter()
    passed, detail = check_grad(seed=0)
    elapsed = time.perf_counter() - t0
    passed = passed and elapsed < 120.0
    report(capsys, 6, "analytic loss gradient", passed, f"{detail}; {elapsed:.1f}s")


def test_criterion_07_loss_recomposition(capsys):
    # total_loss == 1*rot + 0.02*ori + 1*angvel_geo to 1e-12
    passed, detail = check_loss_recomposition(seed=0)
    report(capsys, 7, "loss recomposition", passed, detail)


def test_criterion_08_metric_fixtures(capsys):
    # identity pair -> all zeros; linear trajectory -> zero jitter; cubic
    # trajectory -> jitter 0.06 within 1e-6
    passed, detail = check_metric_fixtures()
    report(capsys, 8, "metric fixtures", passed, detail)


def test_criterion_09_model_shape_determinism(capsys, monkeypatch):
    # full-scale config (n=2, m=2, E=256, D=64, L=96): output 96 x 132,
    # bit-reproducible; STMM mixed-axis length 2112 under UKS, 3072 under FKS
    mixed_lengths = {}
    real = model_mod.bi_ssd

    def recorder(p, weights, prefix):
        if prefix.startswith("skfm"):
            mixed_lengths.setdefault(current, set()).add(p.shape[0])
        return real(p, weights, prefix)

    monkeypatch.setattr(model_mod, "bi_ssd", recorder)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((96, 36)).astype(np.float32)

    current = "uks"
    config = ModelConfig(scan_strategy="uks")
    weights = init_weights(config)
    y1 = kinest_forward(x, config, weights)
    y2 = kinest_forward(x, config, weights)

    current = "fks"
    config_fks = ModelConfig(scan_strategy="fks")
    kinest_forward(x, config_fks, init_weights(config_fks))

    ok_shape = y1.shape == (96, 22, 6) and y1.size == 96 * 132
    ok_bits = np.array_equal(y1, y2)
    ok_mixed = mixed_lengths == {"uks": {96 * 22}, "fks": {96 * 32}}
    passed = ok_shape and ok_bits and ok_mixed
    detail = (f"output {y1.shape}, bit-reproducible={ok_bits}, "
              f"mixed lengths uks={sorted(mixed_lengths.get('uks', ()))} "
              f"fks={sorted(mixed_lengths.get('fks', ()))}")
    report(capsys, 9, "model shape & determinism", passed, detail)


def test_criterion_10_micro_training(capsys, tmp_path):
    # the train-micro command cuts the smoothed loss by >= 50% within 500
    # iterations, in under 5 minutes
    t0 = time.perf_counter()
    code = main(["train-micro", "--iters", "500", "--seed", "0",
                 "--trace", str(tmp_path / "trace.txt")])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    match = re.search(r"initial loss (\S+), smoothed final (\S+)", out)
    assert code == 0 and match, out
    initial, final = float(match.group(1)), float(match.group(2))
    reduction = 1.0 - final / initial
    passed = reduction >= 0.5 and elapsed < 300.0
    report(capsys, 10, "micro-training smoke", passed,
           f"smoothed loss {initial:.4f} -> {final:.4f} "
           f"({reduction:.0%} reduction) in {elapsed:.1f}s / 500 iters")


def test_criterion_11_benchmark(capsys):
    # chunked scan >= 5x faster than the quadratic matrix form at T = 4096
    # (slopes are machine-dependent and reported, not gated; the 1e-5
    # agreement gate inside run_benchmark is hard)
    result = run_benchmark()
    speedup = result.rows[-1].speedup
    slope_m = result.loglog_slope("matrix_s")
    slope_c = result.loglog_slope("chunked_s")
    passed = speedup >= 5.0 and slope_c < slope_m
    report(capsys, 11, "scan benchmark", passed,
           f"speedup@4096 = {speedup:.1f}x, log-log slopes matrix "
           f"{slope_m:.2f} / chunked {slope_c:.2f}")
