"""SSD kernel rows at the shapes the model runs, each gated against the
``ssm_recurrence`` oracle before it is timed.

GFLOP and bytes are computed, not measured. GFLOP counts the chunked form
at chunk q = 16 (a multiply-add is 2 flops): per chunk of m steps,
C B^T (2 m^2 N), the decay mask product (m^2), its product with X
(2 m^2 P), the carried-state read-out and update (4 m N P + 2 m N) and
the decay matrix itself (m (m - 1) / 2). Bytes are the compulsory float64
traffic: a, B, C and X read once and Y written once.
"""

import time

import numpy as np

CHUNK = 16
AGREE_RTOL = 1e-5  # the bound kinescan.bench already gates on
# (name, T, P, N): a TFM at full scale, the SKFM mixed axis under UKS and
# FKS, and the micro SKFM mixed axis
SHAPES = (
    ("T96xP256", 96, 256, 16),
    ("T2112xP64", 2112, 64, 16),
    ("T3072xP64", 3072, 64, 16),
    ("T528xP4", 528, 4, 4),
)


def gflop(t, p, n, q=CHUNK):
    total = 0
    for start in range(0, t, q):
        m = min(q, t - start)
        total += 2 * m * m * n + m * m + 2 * m * m * p + 4 * m * n * p + 2 * m * n
        total += m * (m - 1) // 2
    return total / 1e9


def bytes_moved(t, p, n):
    return 8 * (t * (1 + 2 * n + p) + t * p)


def kernel_rows(seed, budget_s=0.3, min_reps=5):
    """({row name: ms, plus computed .gflop and .bytes}, [failures]); a
    row that disagrees with the oracle is a failed op (and still timed, so
    the run reports every metric)."""
    from kinescan.ssd import SsdParams, chunked_scan, ssm_recurrence

    rng = np.random.Generator(np.random.PCG64(seed))
    out, failures = {}, []
    for name, t, p, n in SHAPES:
        params = SsdParams(a=rng.uniform(0.7, 1.0, size=t),
                           b=rng.standard_normal((t, n)),
                           c=rng.standard_normal((t, n)),
                           x=rng.standard_normal((t, p)))
        want = ssm_recurrence(params)
        got = chunked_scan(params, chunk=CHUNK)
        err = np.abs(got - want).max() / max(np.abs(want).max(), 1e-30)
        if not err <= AGREE_RTOL:
            failures.append(f"kernel {name}: relative error {err:.3g} vs ssm_recurrence")
        samples = []
        stop = time.perf_counter() + budget_s
        while len(samples) < min_reps or time.perf_counter() < stop:
            t0 = time.perf_counter()
            chunked_scan(params, chunk=CHUNK)
            samples.append(time.perf_counter() - t0)
        key = f"ssd.kernel.{name}"
        out[key + ".ms"] = float(np.median(samples)) * 1e3
        out[key + ".gflop"] = gflop(t, p, n)
        out[key + ".bytes"] = float(bytes_moved(t, p, n))
    return out, failures
