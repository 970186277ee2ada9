"""Reference outputs recorded at the commit that defined this benchmark.

The network forward pass and the ``kinescan eval`` report are re-derived
here from their definitions, independently of ``kinescan.model`` and
``kinescan.metrics``: the scan runs as the literal left-to-right
recurrence, and the scan orders and skeleton are written out as data. A
later change to the program that alters its outputs therefore disagrees
with this file, while one that only reorders sums stays within the
tolerances below.

Tolerances (stated once, used by every check):

* ``WINDOW_ATOL`` -- max abs difference of a predicted 6D value against
  the reference window. The network is float32 with a float64 scan; the
  reference and the program differ only in summation order. At this
  commit they agree bit for bit at full scale; reordering float32 sums
  (another BLAS blocking, batched windows) moves outputs of magnitude
  ~0.7 by ~1e-6, well inside 1e-4, while a reference off by 0.1%
  (``selfcheck.py``) is rejected.
* ``REPORT_RTOL`` -- relative difference per field of the eval report.
  Both sides compute in float64 from the same float32 files; the report
  prints 9 significant digits.
"""

import numpy as np
from scipy.special import expit

WINDOW_ATOL = 1e-4
REPORT_RTOL = 1e-6
GS_EPS = 1e-8  # 6D vectors shorter than this have no orthonormalization

# joint visitation orders of the two scan strategies the benchmark runs
ORDERS = {
    "fks": (0, 1, 4, 7, 10, 0, 2, 5, 8, 11, 0, 3, 6, 9, 13, 16, 18, 20,
            0, 3, 6, 9, 12, 15, 0, 3, 6, 9, 14, 17, 19, 21),
    "uks": (21, 19, 17, 14, 15, 12, 20, 18, 16, 13, 9, 6, 3, 0,
            1, 4, 7, 10, 2, 5, 8, 11),
}

# SMPL-22 parents and rest offsets (meters); parents precede children
PARENTS = (-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19)
OFFSETS = np.array([
    [0.0, 0.0, 0.0], [0.058, -0.082, -0.017], [-0.060, -0.090, -0.013],
    [0.004, 0.124, -0.038], [0.040, -0.402, -0.014], [-0.039, -0.400, -0.014],
    [0.001, 0.129, 0.034], [-0.007, -0.382, -0.029], [0.008, -0.381, -0.033],
    [-0.003, 0.057, 0.007], [0.021, -0.052, 0.130], [-0.026, -0.052, 0.126],
    [0.000, 0.218, -0.018], [0.069, 0.111, -0.008], [-0.083, 0.111, -0.012],
    [0.006, 0.062, 0.043], [0.101, 0.028, -0.012], [-0.094, 0.025, -0.011],
    [0.260, -0.010, -0.023], [-0.261, -0.009, -0.023], [0.258, 0.006, -0.005],
    [-0.254, 0.005, -0.005],
])
JOINT_SETS = {
    "root_pe_cm": (0,),
    "hand_pe_cm": (20, 21),
    "upper_pe_cm": (3, 6, 9, 12, 13, 14, 15, 16, 17, 18, 19),
    "lower_pe_cm": (1, 2, 4, 5, 7, 8, 10, 11),
}


# ---------------------------------------------------------------------------
# network forward


def _ln(x, w, prefix):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return ((x - mu) / np.sqrt(var + 1e-5)) * w[prefix + "scale"] + w[prefix + "bias"]


def _silu(x):
    return x * expit(x)


def _recurrence(a, b, c, x):
    h = np.zeros((b.shape[1], x.shape[1]))
    y = np.empty((a.shape[0], x.shape[1]))
    for t in range(a.shape[0]):
        h = a[t] * h + np.outer(b[t], x[t])
        y[t] = c[t] @ h
    return y


def _chunked(a, b, c, x, q=16):
    # quadratic form inside each chunk of q steps, state carried across
    y = np.empty((a.shape[0], x.shape[1]))
    h = np.zeros((b.shape[1], x.shape[1]))
    for start in range(0, a.shape[0], q):
        sl = slice(start, start + q)
        ac, bc, cc, xc = a[sl], b[sl], c[sl], x[sl]
        m = ac.shape[0]
        f = np.zeros((m, m))
        f[0, 0] = 1.0
        for j in range(1, m):
            f[j, :j] = ac[j] * f[j - 1, :j]
            f[j, j] = 1.0
        prefix = np.cumprod(ac)
        y[sl] = (f * (cc @ bc.T)) @ xc + (cc * prefix[:, None]) @ h
        h = prefix[-1] * h + (f[-1][:, None] * bc).T @ xc
    return y


def _ssd(p, w, prefix, scan):
    width = p.shape[-1]
    z = _ln(p, w, prefix + "ln.")
    xbc = z @ w[prefix + "xbc.weight"] + w[prefix + "xbc.bias"]
    k = w[prefix + "conv.kernel"]
    padded = np.concatenate([np.zeros((k.shape[0] - 1, xbc.shape[1]), xbc.dtype), xbc])
    conv = np.zeros_like(xbc)
    for i in range(k.shape[0]):
        conv += k[i] * padded[i : i + xbc.shape[0]]
    xbc = _silu(conv + w[prefix + "conv.bias"])
    state = (xbc.shape[-1] - width) // 2
    raw = z @ w[prefix + "a.weight"] + w[prefix + "a.bias"]
    a = np.exp(-np.logaddexp(0.0, raw[:, 0].astype(np.float64)))
    y = scan(a, xbc[:, width : width + state].astype(np.float64),
                    xbc[:, width + state :].astype(np.float64),
                    xbc[:, :width].astype(np.float64)).astype(np.float32)
    gate = _silu(z @ w[prefix + "gate.weight"] + w[prefix + "gate.bias"])
    h = _ln(gate * y, w, prefix + "out_ln.")
    return h @ w[prefix + "out.weight"] + w[prefix + "out.bias"]


def _bi(p, w, prefix, scan):
    return (_ssd(p, w, prefix + "fwd.", scan)
            + _ssd(p[::-1], w, prefix + "bwd.", scan)[::-1])


def _lma(f, w, prefix):
    return _silu(_ln(f, w, prefix + "ln.") @ w[prefix + "conv.weight"] + w[prefix + "conv.bias"])


def _gma(f, w, prefix, heads):
    g = f @ w[prefix + "in.weight"] + w[prefix + "in.bias"]
    z = _ln(g, w, prefix + "ln1.")
    q, k, v = (z @ w[prefix + n + ".weight"] + w[prefix + n + ".bias"] for n in "qkv")
    length, hidden = q.shape
    dim = hidden // heads
    q, k, v = (m.reshape(length, heads, dim).transpose(1, 0, 2) for m in (q, k, v))
    logits = (q @ k.transpose(0, 2, 1)) / np.float32(np.sqrt(dim))
    att = np.exp(logits - logits.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(1, 0, 2).reshape(length, hidden)
    g = g + (ctx @ w[prefix + "proj.weight"] + w[prefix + "proj.bias"])
    ff = _silu(_ln(g, w, prefix + "ln2.") @ w[prefix + "ffn1.weight"] + w[prefix + "ffn1.bias"])
    return g + (ff @ w[prefix + "ffn2.weight"] + w[prefix + "ffn2.bias"])


def forward(x, w, order, heads=8, scan="recurrence"):
    """(L, 36) window -> (L, 22, 6) with the weights ``w`` and scan order
    ``order`` ('fks' or 'uks'); module counts are read from the weights.

    ``scan="chunked"`` evaluates the scan blockwise, as the program did
    when this file was written; the benchmark times that variant as its
    control (see ``workloads.Workload.control``)."""
    scan = {"recurrence": _recurrence, "chunked": _chunked}[scan]
    seq = np.asarray(ORDERS[order])
    p = np.asarray(x, np.float32) @ w["embed.weight"] + w["embed.bias"]
    length = p.shape[0]
    i = 0
    while f"tfm{i}.lma.ln.scale" in w:
        pre = f"tfm{i}."
        p = _gma(_lma(_bi(p, w, pre, scan), w, pre + "lma."), w, pre + "gma.", heads)
        i += 1
    i = 0
    while f"skfm{i}.in.weight" in w:
        pre = f"skfm{i}."
        d = w[pre + "fwd.ln.scale"].shape[0]
        s = (p @ w[pre + "in.weight"] + w[pre + "in.bias"]).reshape(length, 22, d)
        mixed = _bi(s[:, seq, :].reshape(length * len(seq), d), w, pre, scan)
        back = np.zeros((length, 22, d), np.float32)
        np.add.at(back, (slice(None), seq, slice(None)), mixed.reshape(length, len(seq), d))
        e = back.reshape(length, 22 * d) @ w[pre + "out.weight"] + w[pre + "out.bias"]
        p = _gma(_lma(e, w, pre + "lma."), w, pre + "gma.", heads)
        i += 1
    y = p @ w["regressor.weight"] + w["regressor.bias"]
    return y.reshape(length, 22, 6)


# ---------------------------------------------------------------------------
# eval report


def _sixd_to_matrix(r):
    a1, a2 = r[..., 0:3], r[..., 3:6]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    u = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = u / np.linalg.norm(u, axis=-1, keepdims=True)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


def _positions(pose):
    local = _sixd_to_matrix(pose)
    rot = np.empty_like(local)
    pos = np.zeros(pose.shape[:-1][:-1] + (22, 3))
    for j, parent in enumerate(PARENTS):
        if parent < 0:
            rot[:, j] = local[:, j]
        else:
            rot[:, j] = rot[:, parent] @ local[:, j]
            pos[:, j] = pos[:, parent] + rot[:, parent] @ OFFSETS[j]
    return pos


def _jitter(pos, fps):
    d3 = pos[3:] - 3.0 * pos[2:-1] + 3.0 * pos[1:-2] - pos[:-3]
    return float(np.linalg.norm(d3, axis=-1).mean() * fps ** 3 / 100.0)


def eval_report(pred, gt, fps):
    """The fields of ``kinescan eval`` for (L, 22, 6) pred and gt poses
    with roots at the origin."""
    y = np.asarray(pred, np.float64)
    z = np.asarray(gt, np.float64)
    rel = np.swapaxes(_sixd_to_matrix(z), -1, -2) @ _sixd_to_matrix(y)
    angle = np.arccos(np.clip((np.trace(rel, axis1=-2, axis2=-1) - 1.0) / 2.0, -1.0, 1.0))
    py, pz = _positions(y), _positions(z)
    dist = np.linalg.norm(py - pz, axis=-1)
    vel = np.linalg.norm(np.diff(py, axis=0) - np.diff(pz, axis=0), axis=-1)
    report = {
        "mpjre_deg": float(np.degrees(angle.mean())),
        "mpjpe_cm": float(dist.mean() * 100.0),
        "mpjve_cm_s": float(vel.mean() * fps * 100.0),
    }
    for key, joints in JOINT_SETS.items():
        report[key] = float(dist[:, list(joints)].mean() * 100.0)
    report["jitter_pred"] = _jitter(py, fps)
    report["jitter_gt"] = _jitter(pz, fps)
    report["frames"] = float(y.shape[0])
    report["fps"] = float(fps)
    return report


# ---------------------------------------------------------------------------
# checks; each returns None when the output passes, else a reason


def check_pose(pose, frames):
    """Finite, non-degenerate (L, 22, 6) output with ``frames`` frames."""
    pose = np.asarray(pose)
    if pose.shape != (frames, 22, 6):
        return f"shape {pose.shape}, expected ({frames}, 22, 6)"
    if not np.all(np.isfinite(pose)):
        return "non-finite output"
    p = pose.astype(np.float64)
    a1, a2 = p[..., 0:3], p[..., 3:6]
    n1 = np.linalg.norm(a1, axis=-1)
    u = a2 - (np.sum(a1 * a2, axis=-1) / np.maximum(n1, GS_EPS) ** 2)[..., None] * a1
    if n1.min() < GS_EPS or np.linalg.norm(u, axis=-1).min() < GS_EPS:
        return "degenerate 6D output"
    return None


def check_window(got, want, label):
    err = float(np.abs(np.asarray(got, np.float64) - want).max())
    if not err <= WINDOW_ATOL:
        return f"{label}: max abs error {err:.3g} > {WINDOW_ATOL:g}"
    return None


def check_report(got, want):
    for key, value in want.items():
        if key not in got:
            return f"eval report lacks {key}"
        if not abs(got[key] - value) <= REPORT_RTOL * max(abs(value), 1e-12):
            return f"eval report {key} = {got[key]!r}, reference {value!r}"
    return None
