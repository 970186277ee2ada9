"""Derivative-free micro-scale training via simultaneous perturbation.

Each step draws one Rademacher direction, evaluates the objective at
theta +- c_k * delta (one forward pass and one loss call over the two
probes, stacked as a weight batch of 2), and descends the resulting
gradient estimate. Step sizes follow the standard decaying schedule

    a_k = a / (k + 1 + A)^0.602        c_k = c / (k + 1)^0.101

This is a demonstration-scale optimizer: configurations are capped at
20,000 parameters.
"""

from dataclasses import dataclass

import numpy as np

from .losses import angular_velocity, total_loss
from .model import ModelConfig, init_weights, kinest_forward, parameter_count

__all__ = [
    "PARAM_LIMIT",
    "TrainResult",
    "train_micro",
    "smoothed_trace",
]

PARAM_LIMIT = 20000

_SMOOTH_WINDOW = 50

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_PATIENCE = 50

_STEP_A = 0.001
_STEP_C = 0.01
_STEP_BIG_A = 50.0
_STEP_ALPHA = 0.602
_STEP_GAMMA = 0.101


def _step_sizes(k: int):
    """(a_k, c_k) at iteration k, by the schedule in the module docstring."""
    a_k = _STEP_A / (k + 1 + _STEP_BIG_A) ** _STEP_ALPHA
    c_k = _STEP_C / (k + 1) ** _STEP_GAMMA
    return a_k, c_k


@dataclass(frozen=True)
class TrainResult:
    weights: dict
    trace: np.ndarray
    initial_loss: float
    final_loss: float


def _flatten(weights):
    names = list(weights)
    vec = np.concatenate([weights[n].astype(np.float64).ravel() for n in names])
    layout = [(n, weights[n].shape, weights[n].size) for n in names]
    return vec, layout


def _unflatten(vec, layout):
    """Float32 weights, as ``init_weights`` draws them, from a (..., n)
    vector; leading axes become batch axes. The vector is cast once and
    each tensor is a view into the cast."""
    cast = vec.astype(np.float32)
    out = {}
    off = 0
    for name, shape, size in layout:
        out[name] = cast[..., off : off + size].reshape(vec.shape[:-1] + shape)
        off += size
    return out


def smoothed_trace(trace: np.ndarray) -> np.ndarray:
    """Trailing moving average; entry k averages the last <= 50 values."""
    trace = np.asarray(trace, dtype=np.float64)
    csum = np.concatenate([[0.0], np.cumsum(trace)])
    idx = np.arange(1, len(trace) + 1)
    lo = np.maximum(idx - _SMOOTH_WINDOW, 0)
    return (csum[idx] - csum[lo]) / (idx - lo)


def train_micro(config: ModelConfig, x: np.ndarray, z: np.ndarray,
                iters: int = 500, seed: int = 0) -> TrainResult:
    """Fit a micro configuration, from ``init_weights(config)``, to one
    (input, target) sequence pair.

    The trace records (loss_plus + loss_minus) / 2 per iteration. Raises if
    the parameter count exceeds PARAM_LIMIT or if the loss stays above ten
    times its initial value for 50 consecutive steps.
    """
    weights = init_weights(config)
    n_params = parameter_count(weights)
    if n_params > PARAM_LIMIT:
        raise ValueError(
            f"configuration has {n_params} parameters; micro training is "
            f"capped at {PARAM_LIMIT}"
        )
    z = np.asarray(z, dtype=np.float64)
    # the target's angular velocity, computed once for every evaluation
    wz = angular_velocity(z) if z.ndim == 3 and len(z) >= 2 else None

    theta, layout = _flatten(weights)
    rng = np.random.Generator(np.random.PCG64(seed))

    def objective(vec):
        """Losses at the weight vectors ``vec`` (..., n), from one forward
        pass and one loss call over the weight batch."""
        # a perturbation that blows up the forward pass reads as infinite
        # loss, for every vector in the batch, so the divergence guard, not
        # a crash, handles it
        try:
            y = kinest_forward(x, config, _unflatten(vec, layout))
        except FloatingPointError:
            return np.full(vec.shape[:-1], np.inf)
        return total_loss(np.asarray(y, np.float64), z, wz)

    initial = objective(theta)
    if not np.isfinite(initial):
        raise RuntimeError("initial loss is not finite")
    trace = np.empty(iters)
    high = 0
    for k in range(iters):
        a_k, c_k = _step_sizes(k)
        delta = rng.integers(0, 2, size=theta.size).astype(np.float64) * 2.0 - 1.0
        loss_plus, loss_minus = objective(np.stack([theta + c_k * delta,
                                                    theta - c_k * delta]))
        trace[k] = 0.5 * (loss_plus + loss_minus)
        if np.isfinite(loss_plus) and np.isfinite(loss_minus):
            # rademacher entries are +-1, so delta^-1 = delta
            theta = theta - a_k * (loss_plus - loss_minus) / (2.0 * c_k) * delta
        if trace[k] > _DIVERGENCE_FACTOR * initial:
            high += 1
            if high >= _DIVERGENCE_PATIENCE:
                raise RuntimeError(
                    f"training diverged: loss above {_DIVERGENCE_FACTOR}x the "
                    f"initial value for {_DIVERGENCE_PATIENCE} consecutive steps"
                )
        else:
            high = 0
    final = objective(theta)
    return TrainResult(
        weights=_unflatten(theta, layout),
        trace=trace,
        initial_loss=float(initial),
        final_loss=float(final),
    )
