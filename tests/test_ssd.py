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


def naive_scan(params):
    """Oracle: the recurrence written as plain per-step loops."""
    t, n, p = params.seq_len, params.state_dim, params.channels
    h = np.zeros((n, p))
    y = np.zeros((t, p))
    for i in range(t):
        h = params.a[i] * h + np.outer(params.b[i], params.x[i])
        y[i] = params.c[i] @ h
    return y


# float32 scans against the float64 recurrence on the same rounded inputs
# measure ~1.4e-7 of max |y| at the model's shapes, about one float32 eps
F32_RTOL = 16 * np.finfo(np.float32).eps


def as_dtype(params, dtype):
    return SsdParams(*(m.astype(dtype) for m in (params.a, params.b, params.c, params.x)))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0,), (4,), (2, 4)],
                             ids=["first", "middle", "batched-row"])
    def test_non_finite_decay_rejected(self, dtype, bad, where):
        lead = (3,) if len(where) == 2 else ()
        a = np.full(lead + (9,), 0.5, dtype=dtype)
        a[where] = bad
        ones = np.ones(lead + (9, 2), dtype=dtype)
        with pytest.raises(ValueError, match=r"decays a must be finite and lie in \[0, 1\]"):
            SsdParams(a=a, b=ones, c=ones, x=ones)

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


class TestDtype:
    def test_float64_and_mixed_inputs_compute_in_float64(self, rng):
        p = random_params(rng, 37, 3, 2)
        mixed = SsdParams(a=p.a.astype(np.float32), b=p.b, c=p.c, x=p.x)
        ints = SsdParams(a=[1, 0], b=[[1], [2]], c=[[1], [1]], x=[[3], [4]])
        for q in (p, mixed, ints):
            assert {m.dtype for m in (q.a, q.b, q.c, q.x)} == {np.dtype(np.float64)}
            for form in (ssm_recurrence, ssd_matrix_form, chunked_scan):
                assert form(q).dtype == np.float64
        assert build_decay_matrix([0.5, 1]).dtype == np.float64

    @pytest.mark.parametrize("t", [32, 37])
    def test_float32_inputs_compute_in_float32(self, rng, t):
        p = as_dtype(random_params(rng, t, 3, 2), np.float32)
        assert {m.dtype for m in (p.a, p.b, p.c, p.x)} == {np.dtype(np.float32)}
        for form in (ssm_recurrence, ssd_matrix_form, chunked_scan):
            assert form(p).dtype == np.float32
        assert build_decay_matrix(p.a).dtype == np.float32

    @pytest.mark.parametrize("t,n,p", [(96, 16, 256), (3072, 16, 64), (528, 4, 4), (97, 4, 3)],
                             ids=["T96xP256", "T3072xP64", "T528xP4", "T97xP3"])
    def test_float32_scan_matches_float64_recurrence(self, t, n, p):
        p32 = as_dtype(random_params(make_rng(t), t, n, p, a_lo=0.7), np.float32)
        y = ssm_recurrence(as_dtype(p32, np.float64))
        assert np.abs(chunked_scan(p32) - y).max() <= F32_RTOL * np.abs(y).max()

    @pytest.mark.parametrize("t", [45, 96])
    def test_float32_decay_edges_carry_and_reset(self, t):
        # in float32, exp(-softplus(raw)) is exactly 1 below raw ~= -17 and
        # exactly 0 above raw ~= 104
        rng = make_rng(t)
        raw = rng.uniform(-3.0, 3.0, t).astype(np.float32)
        raw[3:14] = -18.0  # carry inside chunk 0
        raw[20:40] = -40.0  # carry across the seam at 32
        raw[[15, 16, t - 1]] = 104.0  # reset at the seam at 16 and in the tail
        a = np.exp(-np.logaddexp(0.0, raw))
        assert a.dtype == np.float32
        assert np.all(a[3:14] == 1.0) and np.all(a[20:40] == 1.0)
        assert np.all(a[[15, 16, t - 1]] == 0.0)
        b, c, x = (rng.standard_normal((t, m)).astype(np.float32) for m in (4, 4, 3))
        p32 = SsdParams(a=a, b=b, c=c, x=x)
        y = ssm_recurrence(as_dtype(p32, np.float64))
        got = chunked_scan(p32)
        assert np.abs(got - y).max() <= F32_RTOL * np.abs(y).max()
        # a = 0 forgets everything before it: the rest is a fresh scan
        tail = chunked_scan(SsdParams(a=a[16:], b=b[16:], c=c[16:], x=x[16:]))
        assert np.abs(got[16:] - tail).max() <= F32_RTOL * np.abs(tail).max()


def stacked(rows):
    """One SsdParams whose leading axis holds the given unbatched params."""
    return SsdParams(*(np.stack([getattr(r, m) for r in rows]) for m in "abcx"))


class TestBatchAxes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t,n,p", [(24, 4, 4), (96, 16, 32), (528, 4, 4), (2112, 16, 8)],
                             ids=["T24-padded", "T96", "T528", "T2112"])
    def test_batched_scan_equals_per_row_calls_bitwise(self, dtype, t, n, p):
        rng = make_rng(t + n)
        rows = [as_dtype(random_params(rng, t, n, p, a_lo=0.7), dtype) for _ in range(2)]
        batch = stacked(rows)
        assert batch.a.shape == (2, t) and batch.seq_len == t
        got = chunked_scan(batch)
        assert got.shape == (2, t, p) and got.dtype == dtype
        for i, row in enumerate(rows):
            assert np.array_equal(got[i], chunked_scan(row))
        if dtype == np.float64:
            scale = np.abs(got).max()
            for form in (ssm_recurrence, ssd_matrix_form):
                assert np.abs(form(batch) - got).max() <= 1e-10 * scale

    def test_two_leading_axes(self, rng):
        rows = [random_params(rng, 37, 3, 2) for _ in range(6)]
        nested = SsdParams(*(getattr(stacked(rows), m).reshape((2, 3) + getattr(rows[0], m).shape)
                             for m in "abcx"))
        want = np.stack([chunked_scan(r) for r in rows]).reshape(2, 3, 37, 2)
        assert np.array_equal(chunked_scan(nested), want)

    def test_mismatched_batch_axes_rejected(self, rng):
        rows = [random_params(rng, 5, 3, 2) for _ in range(2)]
        batch = stacked(rows)
        with pytest.raises(ValueError, match="batch axes"):
            SsdParams(a=batch.a, b=batch.b, c=batch.c, x=rows[0].x)


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
