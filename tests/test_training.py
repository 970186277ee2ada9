import hashlib

import numpy as np
import pytest

from kinescan import training
from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights, parameter_count
from kinescan.synthetic import sparse_from_pose, synthetic_pose
from kinescan.training import PARAM_LIMIT, TrainResult, smoothed_trace, train_micro

from conftest import golden


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

    def test_shape_error_is_not_reported_as_non_finite_loss(self):
        config, _, z = micro_problem()
        with pytest.raises(ValueError, match=r"expected input shape \(L, 36\), got \(24, 35\)"):
            train_micro(config, np.zeros((24, 35)), z, iters=1)

    def test_divergent_step_size_raises(self, monkeypatch):
        config, x, z = micro_problem()
        monkeypatch.setattr(training, "_STEP_A", 1e4)
        with pytest.raises(RuntimeError, match="diverg"):
            train_micro(config, x, z, iters=400, seed=0)


# 10-iteration train_micro on micro_problem(), pinned bit for bit per OpenBLAS
# kernel family: the trace, both losses as float.hex and the sha256 of the
# final weight bytes
GOLDEN = {
    "SkylakeX": {
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
    },
    "Haswell": {
        0: (
            ["0x1.94062f503cce8p+5", "0x1.c10de1bfe69e4p+5", "0x1.8ca6b37945a5ep+5",
             "0x1.7218c99eefc62p+5", "0x1.7d06f214f8274p+5", "0x1.143dedd1f7528p+5",
             "0x1.2b840246e9e5bp+5", "0x1.ca93ca1815dfap+4", "0x1.7cc42773d2fe5p+4",
             "0x1.8890cfa024daap+4"],
            "0x1.98d24b312e7c3p+5", "0x1.a9df670873d5dp+4",
            "5c1c79f365a11532906e808ff6789120dcfcf7a7bc6f834c19c07308452ce91f",
        ),
        3: (
            ["0x1.8681040f93bdep+5", "0x1.4165b46ef9496p+5", "0x1.30dbda2a1aaedp+5",
             "0x1.64ac888a23e74p+5", "0x1.36a1d47899e65p+5", "0x1.e5cacf0347776p+4",
             "0x1.f459ec8676a06p+4", "0x1.9661cb3251e6ap+4", "0x1.ac75df94e887ep+4",
             "0x1.cd703c7792ff4p+4"],
            "0x1.98d24b312e7c3p+5", "0x1.0b6409901f453p+5",
            "364c3407245dd0d3c8ab161582575a028e66baf63ade124b9cdefad9c9e1e89b",
        ),
    },
    "Sandybridge": {
        0: (
            ["0x1.940631b4cc438p+5", "0x1.c10e1e715e00cp+5", "0x1.8ca1389df5aa9p+5",
             "0x1.72261cbe745acp+5", "0x1.7d34da470a636p+5", "0x1.14eeaac97b538p+5",
             "0x1.25535f4af749ap+5", "0x1.bf0af5f88813bp+4", "0x1.a9038ee4e5c9ep+4",
             "0x1.caaf82193090bp+4"],
            "0x1.98d24f47030edp+5", "0x1.a7fc7792bc1fdp+4",
            "32a72a050e7b9c5f13bd1282463a07369f9aebe35b74ac7a85207ec8b73167d6",
        ),
        3: (
            ["0x1.8680f606f7669p+5", "0x1.4165ba9aebe80p+5", "0x1.30dc23d49b3bep+5",
             "0x1.64ac6d6c6117fp+5", "0x1.36a1720204085p+5", "0x1.e5e85a90be550p+4",
             "0x1.f4e09daa87fecp+4", "0x1.999a35c2e997ep+4", "0x1.aa3e53909726dp+4",
             "0x1.e6a78094b89e4p+4"],
            "0x1.98d24f47030edp+5", "0x1.0a7735984d913p+5",
            "70eba1b5bbf9012465c7f0ec3d6e2ae41f267e8d0fc84be7b78a39fb783f094d",
        ),
    },
    "Nehalem": {
        0: (
            ["0x1.9406342eee844p+5", "0x1.c10df842ac50ep+5", "0x1.8ca6d2a8b18dap+5",
             "0x1.7219f5b8a6fbap+5", "0x1.7cff7f58b05e8p+5", "0x1.143629ffc0872p+5",
             "0x1.2badd3b60d1d5p+5", "0x1.c98aedad91053p+4", "0x1.7e12074a283a6p+4",
             "0x1.883663bc5e67ap+4"],
            "0x1.98d24f47030edp+5", "0x1.a2a1ddef6b2f8p+4",
            "ed2a353fc15b284298b69bba6854003f3a760612e2fdb36cd97aee1800ec8d9d",
        ),
        3: (
            ["0x1.8680f5f72e5a0p+5", "0x1.4165bd3ed6184p+5", "0x1.30dc2332b5ddap+5",
             "0x1.64ac843acafbdp+5", "0x1.36a1889e85d7ep+5", "0x1.e5ece45cf401cp+4",
             "0x1.f4714b8bed61fp+4", "0x1.988e95dc67beap+4", "0x1.aa32501b34214p+4",
             "0x1.e7874cfa1882dp+4"],
            "0x1.98d24f47030edp+5", "0x1.0d720e9ba3361p+5",
            "f24ad8b515080128f6c0bc56ec4d969b58d24d5f6bbfd2de8bea38a273efd621",
        ),
    },
    "Katmai": {
        0: (
            ["0x1.94063886f6750p+5", "0x1.c10dfc8bd38eep+5", "0x1.8ca6de116cc92p+5",
             "0x1.721a84a763f66p+5", "0x1.7cfc2e3df80dep+5", "0x1.1432eaecb3ddep+5",
             "0x1.2bc929b6180f0p+5", "0x1.c95b5c44ad245p+4", "0x1.7eb44dac4ba9cp+4",
             "0x1.86eed0bfd1c13p+4"],
            "0x1.98d24e5754978p+5", "0x1.9a78cae632a0ap+4",
            "a8528e7114982945e929b015d85a52897062ff75125cd9ce4698f69ca60346dc",
        ),
        3: (
            ["0x1.8680f6245834ep+5", "0x1.4165be2f57161p+5", "0x1.30dc2535aaa41p+5",
             "0x1.64ac92653cf8bp+5", "0x1.36a187206ccb7p+5", "0x1.e5f0dea88e8dap+4",
             "0x1.f43faf2ea2154p+4", "0x1.96eafbe08d2eap+4", "0x1.ac44543b718b8p+4",
             "0x1.dd240aeb34f4ep+4"],
            "0x1.98d24e5754978p+5", "0x1.0c3a86e9aa4d4p+5",
            "9c126d2b8e9a68011693c30c52591c878accbf77266fdf7024a436a6f5e7faeb",
        ),
    },
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
    @pytest.mark.parametrize("seed", [0, 3])
    def test_ten_iterations_bit_for_bit(self, seed):
        trace, initial, final, digest = golden(GOLDEN)[seed]
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
