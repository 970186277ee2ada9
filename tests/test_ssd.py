import numpy as np
import pytest

from kinescan.ssd import (
    SsdParams,
    build_decay_matrix,
    chunked_scan,
    ssd_matrix_form,
    ssm_recurrence,
)

from conftest import make_rng


def naive_scan(params, h0=None):
    """Oracle: the recurrence written as plain per-step loops."""
    t, n, p = params.seq_len, params.state_dim, params.channels
    h = np.zeros((n, p)) if h0 is None else np.array(h0, dtype=np.float64)
    if h.ndim == 1:
        h = np.repeat(h[:, None], p, axis=1)
    y = np.zeros((t, p))
    for i in range(t):
        h = params.a[i] * h + np.outer(params.b[i], params.x[i])
        y[i] = params.c[i] @ h
    return y


def random_params(rng, t, n, p, a_lo=0.0, a_hi=1.0):
    return SsdParams(
        a=rng.uniform(a_lo, a_hi, size=t),
        b=rng.standard_normal((t, n)),
        c=rng.standard_normal((t, n)),
        x=rng.standard_normal((t, p)),
    )


class TestSsdParams:
    def test_shapes_exposed(self, rng):
        p = random_params(rng, 7, 3, 2)
        assert (p.seq_len, p.state_dim, p.channels) == (7, 3, 2)

    def test_mismatched_t_rejected(self, rng):
        with pytest.raises(ValueError):
            SsdParams(a=np.ones(3), b=np.ones((4, 2)), c=np.ones((3, 2)),
                      x=np.ones((3, 1)))

    def test_mismatched_state_rejected(self):
        with pytest.raises(ValueError):
            SsdParams(a=np.ones(3), b=np.ones((3, 2)), c=np.ones((3, 5)),
                      x=np.ones((3, 1)))

    def test_decay_out_of_range_rejected(self):
        for bad in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError):
                SsdParams(a=np.array([0.5, bad]), b=np.ones((2, 1)),
                          c=np.ones((2, 1)), x=np.ones((2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SsdParams(a=np.ones(0), b=np.ones((0, 1)), c=np.ones((0, 1)),
                      x=np.ones((0, 1)))


class TestRecurrence:
    def test_single_step_ignores_decay(self):
        p = SsdParams(a=[0.5], b=[[1.0]], c=[[1.0]], x=[[2.0]])
        np.testing.assert_allclose(ssm_recurrence(p), [[2.0]])

    def test_two_step_hand_unrolled(self):
        # h1 = 1, h2 = 0.5*1 + 1 -> y = [1, 1.5]
        p = SsdParams(a=[1.0, 0.5], b=[[1.0], [1.0]], c=[[1.0], [1.0]],
                      x=[[1.0], [1.0]])
        np.testing.assert_allclose(ssm_recurrence(p), [[1.0], [1.5]])

    def test_matches_naive_loop_oracle(self):
        for seed in range(20):
            rng = make_rng(seed)
            p = random_params(rng, int(rng.integers(1, 40)), 4, 3)
            np.testing.assert_allclose(ssm_recurrence(p), naive_scan(p),
                                       rtol=1e-12, atol=1e-12)

    def test_initial_state_vector_and_matrix(self, rng):
        p = random_params(rng, 6, 3, 2)
        h0 = rng.standard_normal(3)
        np.testing.assert_allclose(ssm_recurrence(p, h0=h0), naive_scan(p, h0=h0))
        h0m = rng.standard_normal((3, 2))
        np.testing.assert_allclose(ssm_recurrence(p, h0=h0m), naive_scan(p, h0=h0m))

    def test_bad_initial_state_rejected(self, rng):
        p = random_params(rng, 4, 3, 2)
        with pytest.raises(ValueError):
            ssm_recurrence(p, h0=np.zeros(5))


class TestDecayMatrix:
    def test_three_step_case_table(self):
        a2, a3 = 0.7, 0.4
        f = build_decay_matrix(np.array([0.9, a2, a3]))
        expected = [[1, 0, 0], [a2, 1, 0], [a3 * a2, a3, 1]]
        np.testing.assert_allclose(f, expected)

    def test_all_ones_gives_lower_triangular_ones(self):
        f = build_decay_matrix(np.ones(4))
        np.testing.assert_array_equal(f, np.tri(4))

    def test_all_zeros_gives_identity(self):
        f = build_decay_matrix(np.zeros(4))
        np.testing.assert_array_equal(f, np.eye(4))

    def test_decay_monotone_down_columns(self, rng):
        a = rng.uniform(0.01, 0.99, size=12)
        f = build_decay_matrix(a)
        for i in range(12):
            col = np.abs(f[i:, i])
            assert np.all(np.diff(col) <= 0)

    def test_batched_equals_per_row_calls_bitwise(self, rng):
        a = rng.uniform(0.0, 1.0, size=(6, 16))
        a[:, 0] = 0.0  # resets at a chunk's first step
        a[1::2, -1] = 0.0  # and at its last
        a[2, 7] = 0.0
        f = build_decay_matrix(a)
        assert f.shape == (6, 16, 16)
        for i in range(6):
            assert np.array_equal(f[i], build_decay_matrix(a[i]))

    def test_leading_axes_broadcast(self, rng):
        a = rng.uniform(0.0, 1.0, size=(2, 3, 5))
        f = build_decay_matrix(a)
        assert f.shape == (2, 3, 5, 5)
        assert np.array_equal(f[1, 2], build_decay_matrix(a[1, 2]))

    def test_scalar_and_empty_rejected(self):
        for bad in (np.float64(0.5), np.zeros(0), np.zeros((3, 0))):
            with pytest.raises(ValueError):
                build_decay_matrix(bad)


class TestMatrixForm:
    def test_zero_decay_is_diagonal_only(self, rng):
        p = random_params(rng, 8, 3, 2, a_lo=0.0, a_hi=0.0)
        expected = (np.sum(p.c * p.b, axis=1)[:, None]) * p.x
        np.testing.assert_allclose(ssd_matrix_form(p), expected)

    def test_two_step_example(self):
        p = SsdParams(a=[1.0, 0.5], b=[[1.0], [1.0]], c=[[1.0], [1.0]],
                      x=[[1.0], [1.0]])
        np.testing.assert_allclose(ssd_matrix_form(p), [[1.0], [1.5]])

    def test_matches_recurrence_randomly(self):
        rng = make_rng(3)
        p = random_params(rng, 64, 8, 4)
        y_rec = ssm_recurrence(p)
        y_mat = ssd_matrix_form(p)
        assert np.max(np.abs(y_mat - y_rec)) <= 1e-6 * (1.0 + np.abs(y_rec).max())


class TestChunkedScan:
    def test_chunk_equals_t_matches_matrix_form(self, rng):
        p = random_params(rng, 24, 4, 3)
        np.testing.assert_allclose(chunked_scan(p, chunk=24), ssd_matrix_form(p),
                                   rtol=1e-12, atol=1e-12)

    def test_chunk_one_matches_recurrence(self, rng):
        p = random_params(rng, 24, 4, 3)
        np.testing.assert_allclose(chunked_scan(p, chunk=1), ssm_recurrence(p),
                                   rtol=1e-12, atol=1e-12)

    def test_chunk_sixteen_on_t96(self, rng):
        p = random_params(rng, 96, 4, 3)
        y = ssm_recurrence(p)
        err = np.abs(chunked_scan(p, chunk=16) - y).max()
        assert err <= 1e-6 * (1.0 + np.abs(y).max())

    def test_chunk_independence_divisor_or_not(self, rng):
        p = random_params(rng, 30, 3, 2)
        base = ssm_recurrence(p)
        for chunk in (2, 5, 7, 13, 30, 111):
            assert np.abs(chunked_scan(p, chunk=chunk) - base).max() <= 1e-6

    @pytest.mark.parametrize("t,n,p", [(96, 16, 256), (2112, 16, 64),
                                       (3072, 16, 64), (528, 4, 4)],
                             ids=["T96xP256", "T2112xP64", "T3072xP64", "T528xP4"])
    def test_model_shapes_match_recurrence(self, t, n, p):
        params = random_params(make_rng(t), t, n, p)
        y = ssm_recurrence(params)
        err = np.abs(chunked_scan(params, chunk=16) - y).max()
        assert err <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize("t,chunk", [(97, 16), (2111, 16), (45, 16), (40, 1),
                                         (40, 40), (40, 41), (40, 1000)])
    def test_ragged_lengths_match_recurrence(self, t, chunk):
        params = random_params(make_rng(t + chunk), t, 4, 3)
        q = min(chunk, t)
        params.a[(t // q) * q:][::3] = 0.0  # resets inside the padded last chunk
        params.a[q - 1] = 0.0
        y = ssm_recurrence(params)
        err = np.abs(chunked_scan(params, chunk=chunk) - y).max()
        assert err <= 1e-12 * np.abs(y).max()

    @pytest.mark.parametrize("t", [32, 37])
    def test_inputs_left_unmodified(self, rng, t):
        p = random_params(rng, t, 3, 2)
        before = [m.copy() for m in (p.a, p.b, p.c, p.x)]
        chunked_scan(p, chunk=8)
        for m, m0 in zip((p.a, p.b, p.c, p.x), before):
            assert np.array_equal(m, m0)

    def test_invalid_chunk_rejected(self, rng):
        p = random_params(rng, 10, 2, 1)
        for bad in (0, -3, 2.5):
            with pytest.raises(ValueError):
                chunked_scan(p, chunk=bad)


class TestCausality:
    def test_future_zeroing_leaves_past_bits(self):
        rng = make_rng(11)
        for form in (ssm_recurrence, ssd_matrix_form,
                     lambda q: chunked_scan(q, chunk=5)):
            p = random_params(rng, 20, 3, 2)
            cut = 12
            x2 = p.x.copy()
            x2[cut:] = 0.0
            q = SsdParams(a=p.a, b=p.b, c=p.c, x=x2)
            assert np.array_equal(form(p)[:cut], form(q)[:cut])


def test_duality_property_sweep():
    """The three realizations agree within 1e-5 relative across shapes."""
    rng = make_rng(99)
    for _ in range(60):
        t = int(rng.integers(1, 129))
        p = random_params(rng, t, int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        y = ssm_recurrence(p)
        scale = max(np.abs(y).max(), 1e-30)
        assert np.abs(ssd_matrix_form(p) - y).max() / scale <= 1e-5
        for chunk in (1, 7, 16, t):
            assert np.abs(chunked_scan(p, chunk=chunk) - y).max() / scale <= 1e-5
