"""Scalar-decay state-space scan kernels.

Three equivalent realizations of the same sequence transform

    h_t = a_t * h_{t-1} + b_t x_t^T,    y_t = c_t^T h_t

with per-step scalar decay a_t, state dimension N and channel width P:

* ``ssm_recurrence``   -- the literal left-to-right recurrence, O(T*N*P);
* ``ssd_matrix_form``  -- multiplication by the lower-triangular
  semiseparable matrix M = F * (C B^T), O(T^2);
* ``chunked_scan``     -- the chunk-batched SSD algorithm of Mamba-2 (Dao &
  Gu, arXiv 2405.21060): every chunk's quadratic form and end state as one
  batched matmul, then a short loop carrying the state across chunks,
  O(T*chunk) per channel.

Every function computes in float32 when all its inputs are float32 (the
model's scans) and in float64 otherwise (the oracles, ``verify`` and the
benchmarks, where the three forms agree to tight tolerances).
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SsdParams",
    "ssm_recurrence",
    "build_decay_matrix",
    "ssd_matrix_form",
    "chunked_scan",
]


def _float_arrays(*arrays):
    """The arrays as float32 when all of them are float32, else as float64."""
    arrays = [np.asarray(m) for m in arrays]
    dtype = np.float32 if all(m.dtype == np.float32 for m in arrays) else np.float64
    return [m.astype(dtype, copy=False) for m in arrays]


@dataclass
class SsdParams:
    """Parameters of one scan call: decays ``a`` (T,), input projections
    ``b`` (T, N), output projections ``c`` (T, N) and inputs ``x`` (T, P).

    Decays must lie in [0, 1]; a_t = 0 resets the state, a_t = 1 carries
    it unchanged. All four are float32 if all four arrive so, else float64.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        self.a, self.b, self.c, self.x = _float_arrays(self.a, self.b, self.c, self.x)
        self.b, self.c, self.x = (np.atleast_2d(m) for m in (self.b, self.c, self.x))
        if self.a.ndim != 1 or self.a.size == 0:
            raise ValueError("a must be a non-empty 1-D array of decays")
        t = self.a.shape[0]
        if self.b.shape[0] != t or self.c.shape[0] != t or self.x.shape[0] != t:
            raise ValueError(
                f"inconsistent scan lengths: a={t}, b={self.b.shape[0]}, "
                f"c={self.c.shape[0]}, x={self.x.shape[0]}"
            )
        if self.b.shape[1] != self.c.shape[1]:
            raise ValueError(
                f"b and c disagree on state dimension: {self.b.shape[1]} vs {self.c.shape[1]}"
            )
        if not np.all(np.isfinite(self.a)) or np.any(self.a < 0.0) or np.any(self.a > 1.0):
            raise ValueError("decays a must be finite and lie in [0, 1]")

    @property
    def seq_len(self) -> int:
        return self.a.shape[0]

    @property
    def state_dim(self) -> int:
        return self.b.shape[1]

    @property
    def channels(self) -> int:
        return self.x.shape[1]


def ssm_recurrence(params: SsdParams) -> np.ndarray:
    """Run the recurrence left to right from the zero state. Returns the
    (T, P) output sequence."""
    t, n, p = params.seq_len, params.state_dim, params.channels
    h = np.zeros((n, p), dtype=params.a.dtype)
    y = np.empty((t, p), dtype=params.a.dtype)
    for i in range(t):
        h = params.a[i] * h + np.outer(params.b[i], params.x[i])
        y[i] = params.c[i] @ h
    return y


def build_decay_matrix(a: np.ndarray) -> np.ndarray:
    """Lower-triangular matrices of cumulative decay products.

    (..., T) decays give (..., T, T) matrices; leading axes are batched.
    F[j, i] = a_j * a_{j-1} * ... * a_{i+1} for i < j, 1 on the diagonal,
    0 above it. Row j is a_j times the previous row, which stays exact
    when some decays are zero (no division by cumulative products).
    """
    (a,) = _float_arrays(a)
    if a.ndim == 0 or a.size == 0:
        raise ValueError("a must be a non-empty array of decays along its last axis")
    t = a.shape[-1]
    f = np.zeros(a.shape + (t,), dtype=a.dtype)
    f[..., 0, 0] = 1.0
    for j in range(1, t):
        f[..., j, :j] = a[..., j, None] * f[..., j - 1, :j]
        f[..., j, j] = 1.0
    return f


def ssd_matrix_form(params: SsdParams) -> np.ndarray:
    """Evaluate the scan as y = (F * (C B^T)) x with zero initial state."""
    f = build_decay_matrix(params.a)
    g = params.c @ params.b.T  # g[j, i] = c_j . b_i
    return (f * g) @ params.x


def chunked_scan(params: SsdParams, chunk: int = 16) -> np.ndarray:
    """Chunk-batched scan with zero initial state; matches ``ssm_recurrence``.

    The sequence is cut into k chunks of q = min(chunk, T) steps, the tail
    padded with a = 1 and b = c = x = 0 so every chunk has the same shape.
    One call builds all k decay blocks; the intra-chunk form
    (F * C B^T) X and each chunk's end state are batched matmuls. A loop
    over the k chunks carries the (N, P) state, and its read-out
    (C * prefix) H is one more batched matmul.
    """
    t, p = params.seq_len, params.channels
    if not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be a positive integer, got {chunk!r}")
    q = min(int(chunk), t)
    k = -(-t // q)
    pad = k * q - t
    # No copies when q divides T, and in-place updates below: every fresh
    # megabyte of temporaries costs page faults, which at T=3072 took as
    # long as the arithmetic.
    a, b, c, x = params.a, params.b, params.c, params.x
    if pad:
        a = np.concatenate([a, np.ones(pad, a.dtype)])
        b, c, x = (np.concatenate([m, np.zeros((pad, m.shape[1]), m.dtype)])
                   for m in (b, c, x))
    a = a.reshape(k, q)
    b, c, x = (m.reshape(k, q, -1) for m in (b, c, x))
    f = build_decay_matrix(a)  # (k, q, q)
    prefix = np.cumprod(a, axis=1)  # prefix[i, s] = a_{i,0} * ... * a_{i,s}
    g = c @ b.swapaxes(1, 2)
    g *= f
    y = g @ x
    # state at each chunk's end: what the chunk adds (decay from step s to
    # the end is F's last row) plus the state carried in, decayed across it
    h = (f[:, -1, :, None] * b).swapaxes(1, 2) @ x  # (k, N, P)
    for i in range(1, k):
        h[i] += prefix[i, -1] * h[i - 1]
    # chunk 0 starts from the zero state, so only later chunks read one out
    y[1:] += (c[1:] * prefix[1:, :, None]) @ h[:-1]
    return y.reshape(k * q, p)[:t]

