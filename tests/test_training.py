import hashlib

import numpy as np
import pytest

from kinescan import training
from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights, parameter_count
from kinescan.synthetic import sparse_from_pose, synthetic_pose
from kinescan.training import PARAM_LIMIT, TrainResult, smoothed_trace, train_micro


def micro_problem(frames=24, seed=0):
    config = ModelConfig(seed=0, **MICRO_CONFIG_KWARGS)
    z = synthetic_pose(seed=seed, frames=frames)
    x = sparse_from_pose(z, default_tree())
    return config, x, z


class TestSchedule:
    def test_defaults(self):
        # the gains a, c, A and Spall's standard exponents alpha, gamma
        constants = (training._STEP_A, training._STEP_C, training._STEP_BIG_A,
                     training._STEP_ALPHA, training._STEP_GAMMA)
        assert constants == (0.001, 0.01, 50.0, 0.602, 0.101)

    def test_step_size_formulas(self, monkeypatch):
        a_k, c_k = training._step_sizes(4)
        assert a_k == pytest.approx(0.001 / 55.0 ** 0.602)
        assert c_k == pytest.approx(0.01 / 5.0 ** 0.101)
        # the schedule reads the constants at call time
        monkeypatch.setattr(training, "_STEP_A", 0.2)
        monkeypatch.setattr(training, "_STEP_C", 0.05)
        monkeypatch.setattr(training, "_STEP_BIG_A", 10.0)
        a_k, c_k = training._step_sizes(4)
        assert a_k == pytest.approx(0.2 / 15.0 ** 0.602)
        assert c_k == pytest.approx(0.05 / 5.0 ** 0.101)

    def test_monotone_decay(self):
        sizes = [training._step_sizes(k) for k in range(100)]
        a_seq = [a for a, _ in sizes]
        c_seq = [c for _, c in sizes]
        assert all(x > y > 0 for x, y in zip(a_seq, a_seq[1:]))
        assert all(x > y > 0 for x, y in zip(c_seq, c_seq[1:]))


class TestSmoothedTrace:
    def test_short_prefix_uses_available_values(self):
        trace = np.arange(1.0, 61.0)
        got = smoothed_trace(trace)
        # the first 50 entries average every value so far
        np.testing.assert_allclose(got[:50], [trace[:k + 1].mean() for k in range(50)])

    def test_window_is_fifty_steps(self):
        trace = np.arange(1.0, 61.0)
        got = smoothed_trace(trace)
        np.testing.assert_allclose(got[50:], [trace[k - 49:k + 1].mean()
                                              for k in range(50, 60)])
        assert got[-1] == pytest.approx(35.5)  # mean of 11..60

    def test_constant_trace_unchanged(self):
        trace = np.full(20, 7.0)
        np.testing.assert_allclose(smoothed_trace(trace), trace)


class TestTrainMicro:
    def test_parameter_cap_enforced(self):
        _, x, z = micro_problem()
        with pytest.raises(ValueError, match=str(PARAM_LIMIT)):
            train_micro(ModelConfig(), x, z, iters=1)

    def test_zero_iterations_returns_init(self):
        config, x, z = micro_problem()
        result = train_micro(config, x, z, iters=0)
        assert isinstance(result, TrainResult)
        init = init_weights(config)
        assert result.weights.keys() == init.keys()
        for name in init:
            assert np.array_equal(result.weights[name], init[name])
        assert result.trace.shape == (0,)
        assert result.final_loss == result.initial_loss

    def test_same_seed_reproduces_trace(self):
        config, x, z = micro_problem()
        r1 = train_micro(config, x, z, iters=15, seed=3)
        r2 = train_micro(config, x, z, iters=15, seed=3)
        assert np.array_equal(r1.trace, r2.trace)
        for name in r1.weights:
            assert np.array_equal(r1.weights[name], r2.weights[name])

    def test_different_seed_changes_trace(self):
        config, x, z = micro_problem()
        r1 = train_micro(config, x, z, iters=15, seed=3)
        r2 = train_micro(config, x, z, iters=15, seed=4)
        assert not np.array_equal(r1.trace, r2.trace)

    def test_loss_decreases_on_short_run(self):
        config, x, z = micro_problem()
        result = train_micro(config, x, z, iters=120, seed=0)
        assert result.trace.shape == (120,)
        assert result.final_loss < result.initial_loss
        smoothed = smoothed_trace(result.trace)
        assert smoothed[-1] < 0.75 * smoothed[0]

    def test_divergent_step_size_raises(self, monkeypatch):
        config, x, z = micro_problem()
        monkeypatch.setattr(training, "_STEP_A", 1e4)
        with pytest.raises(RuntimeError, match="diverg"):
            train_micro(config, x, z, iters=400, seed=0)


# 10-iteration train_micro on micro_problem(), pinned bit for bit: the trace,
# both losses as float.hex and the sha256 of the final weight bytes
GOLDEN = {
    0: (
        ["0x1.9406354682e0ap+5", "0x1.c10deeca845a2p+5", "0x1.8ca6c2f1f5915p+5",
         "0x1.7219251f694c6p+5", "0x1.7d04e2d59c77ap+5", "0x1.143c2250322dap+5",
         "0x1.2b8586efe4656p+5", "0x1.ca247b19f1934p+4", "0x1.7ce246b1cc0d4p+4",
         "0x1.888c7967fe7e8p+4"],
        "0x1.98d25263ee1d7p+5", "0x1.a89d994d71cfap+4",
        "bbcb1769d03cd0f80d8936c2b96c4c7ddbe1ad0e66ca01fbcdd43c688f515a62",
    ),
    3: (
        ["0x1.8680f80cf1872p+5", "0x1.4165b95266076p+5", "0x1.30dc112e0b504p+5",
         "0x1.64ac9000dee7fp+5", "0x1.36a197ce0ea00p+5", "0x1.e5f5f0ac10268p+4",
         "0x1.f3fe3f3c8d44fp+4", "0x1.94ff8f3a74821p+4", "0x1.b1096044b87fap+4",
         "0x1.ad5adc134e04ap+4"],
        "0x1.98d25263ee1d7p+5", "0x1.cbabaefde88a9p+4",
        "b02effcbb58aeb1e2a975e9da654caa3b496f13b7b0ee4c51267dc86a653148d",
    ),
}


class TestFlatten:
    def test_batch_unflatten_equals_per_tensor_cast(self, micro_config):
        weights = init_weights(micro_config)
        vec, layout = training._flatten(weights)
        assert vec.dtype == np.float64 and vec.shape == (parameter_count(weights),)
        again = training._unflatten(vec, layout)
        assert all(np.array_equal(again[name], w) for name, w in weights.items())
        # float64 values that float32 cannot hold, so every cast rounds
        batch = vec + 1e-3 * np.random.default_rng(0).standard_normal((2, vec.size))
        got = training._unflatten(batch, layout)
        assert got.keys() == weights.keys()
        off = 0
        for name, shape, size in layout:
            want = batch[:, off : off + size].reshape((2,) + shape).astype(np.float32)
            off += size
            assert got[name].dtype == want.dtype and got[name].shape == want.shape
            assert got[name].tobytes() == want.tobytes()


class TestGolden:
    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_ten_iterations_bit_for_bit(self, seed):
        trace, initial, final, digest = GOLDEN[seed]
        config, x, z = micro_problem()
        result = train_micro(config, x, z, iters=10, seed=seed)
        assert [float(v).hex() for v in result.trace] == trace
        assert float(result.initial_loss).hex() == initial
        assert float(result.final_loss).hex() == final
        weight_bytes = b"".join(w.tobytes() for w in result.weights.values())
        assert hashlib.sha256(weight_bytes).hexdigest() == digest

    def test_one_forward_per_step(self, monkeypatch):
        # the first and last evaluations are unbatched; each step's two
        # probes share one forward on a weight batch of 2
        forward = training.kinest_forward
        batches = []

        def recorder(x, config, weights):
            batches.append(weights["embed.bias"].shape[:-1])
            return forward(x, config, weights)

        monkeypatch.setattr(training, "kinest_forward", recorder)
        config, x, z = micro_problem()
        train_micro(config, x, z, iters=10, seed=0)
        assert batches == [()] + [(2,)] * 10 + [()]

    def test_one_loss_call_per_forward(self, monkeypatch):
        # each forward's poses, batched or not, go to total_loss in one call
        loss = training.total_loss
        batches = []

        def recorder(y, z, wz=None):
            batches.append(np.shape(y)[:-3])
            return loss(y, z, wz)

        monkeypatch.setattr(training, "total_loss", recorder)
        config, x, z = micro_problem()
        train_micro(config, x, z, iters=10, seed=0)
        assert batches == [()] + [(2,)] * 10 + [()]

    def test_failed_batched_forward_reads_infinite_for_both_probes(self, monkeypatch):
        forward = training.kinest_forward

        def fail_on_batch(x, config, weights):
            if weights["embed.bias"].ndim > 1:
                raise FloatingPointError("batched forward failed")
            return forward(x, config, weights)

        monkeypatch.setattr(training, "kinest_forward", fail_on_batch)
        config, x, z = micro_problem()
        result = train_micro(config, x, z, iters=10, seed=0)
        assert np.all(result.trace == np.inf)
        init = init_weights(config)
        for name in init:
            assert np.array_equal(result.weights[name], init[name])
