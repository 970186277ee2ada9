import numpy as np
import pytest

from kinescan import training
from kinescan.kinematics import default_tree
from kinescan.model import MICRO_CONFIG_KWARGS, ModelConfig, init_weights
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
        got = smoothed_trace(np.array([4.0, 2.0, 6.0]), window=2)
        np.testing.assert_allclose(got, [4.0, 3.0, 4.0])

    def test_window_one_is_identity(self):
        trace = np.array([3.0, 1.0, 5.0, 2.0])
        np.testing.assert_array_equal(smoothed_trace(trace, window=1), trace)

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
