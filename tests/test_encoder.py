import numpy as np
import pytest

from bayesgram.bsg import BatchGrads
from bayesgram.encoder import (EncoderParams, encode_batch, encoder_backward,
                               infer_posterior, init_encoder, uniform_table)
from bayesgram.optim import CHUNK
from bayesgram.oracles import gradcheck

NAMES = ("R", "M", "U", "b1", "W", "b2")


def dense_grads(enc, result):
    """encoder_backward's (dense, (R row ids, R rows)) scattered like training does."""
    dense, rows = result
    out = {n: np.zeros(getattr(enc, n).shape) for n in NAMES}
    BatchGrads(np.zeros(1), {"R": rows}, dense).scatter(out)
    return out


def zero_encoder(V=5, d=2, d_h=3, cov_kind="spherical"):
    k = 1 if cov_kind == "spherical" else d
    return EncoderParams(R=np.zeros((V, d)), M=np.zeros((d_h, 2 * d)),
                         U=np.zeros((d, d_h)), b1=np.zeros(d),
                         W=np.zeros((k, d_h)), b2=np.zeros(k))


def random_encoder(rng, V=6, d=3, d_h=4, cov_kind="spherical", scale=0.5,
                   dtype=np.float64):
    enc = init_encoder(V, d, d_h, cov_kind, rng, dtype)
    for name in ("R", "M", "U", "b1", "W", "b2"):
        arr = getattr(enc, name)
        arr += rng.normal(scale=scale, size=arr.shape)
    return enc


class TestInit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform_table_is_one_draw(self, dtype):
        shape = (2 * CHUNK // 17 + 5, 17)      # three chunks, the last one short
        assert np.prod(shape) % CHUNK != 0 and np.prod(shape) > 2 * CHUNK
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        table = uniform_table(a, 0.03, shape, dtype)
        expected = b.uniform(-0.03, 0.03, size=shape).astype(dtype)
        assert table.dtype == dtype and table.shape == shape
        assert table.tobytes() == expected.tobytes()
        assert a.random(5).tobytes() == b.random(5).tobytes()

    @pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_uniform_table_sizes_around_a_chunk(self, size):
        # the scratch buffer is sized by the first chunk and sliced for the last
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        table = uniform_table(a, 0.5, (size, 1), np.float32)
        expected = b.uniform(-0.5, 0.5, size=(size, 1)).astype(np.float32)
        assert table.shape == (size, 1)
        assert table.tobytes() == expected.tobytes()
        assert a.random(3).tobytes() == b.random(3).tobytes()

    def test_encoder_dtype_casts_the_float64_draws(self):
        enc64 = init_encoder(CHUNK // 3 + 1, 3, 4, "diagonal", np.random.default_rng(1))
        enc32 = init_encoder(CHUNK // 3 + 1, 3, 4, "diagonal", np.random.default_rng(1),
                             dtype=np.float32)
        for name in NAMES:
            a, b = getattr(enc64, name), getattr(enc32, name)
            assert a.dtype == np.float64 and b.dtype == np.float32
            assert b.tobytes() == a.astype(np.float32).tobytes()


class TestInferPosterior:
    def test_zero_network_gives_standard_normal(self):
        g = infer_posterior(0, [1, 2], zero_encoder())
        assert np.allclose(g.mean, 0.0)
        assert float(g.log_var) == 0.0
        assert g.cov_kind == "spherical"

    def test_permutation_invariance_exact(self):
        enc = random_encoder(np.random.default_rng(0))
        a = infer_posterior(0, [1, 2, 3], enc)
        b = infer_posterior(0, [3, 1, 2], enc)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.log_var, b.log_var)

    def test_hand_fixture(self):
        # d = 2, d_h = 2, integer weights, one context word
        R = np.array([[1.0, 0.0],   # word 0 (center)
                      [0.0, 1.0]])  # word 1 (context)
        M = np.array([[1.0, 0.0, 0.0, 1.0],
                      [0.0, -1.0, 1.0, 0.0]])
        U = np.array([[1.0, 2.0], [0.0, 1.0]])
        b1 = np.array([0.5, -0.5])
        W = np.array([[1.0, 1.0]])
        b2 = np.array([0.25])
        enc = EncoderParams(R, M, U, b1, W, b2)
        # x = [R_1; R_0] = [0,1,1,0]; a = M x = [0+0+0+0, -1+1] = [0, 0]... by hand:
        # a1 = 1*0 + 0*1 + 0*1 + 1*0 = 0 ; a2 = 0*0 -1*1 + 1*1 + 0*0 = 0
        # h = relu(a) = [0, 0]; mu = b1; log var = b2
        g = infer_posterior(0, [1], enc)
        assert np.allclose(g.mean, [0.5, -0.5])
        assert float(g.log_var) == pytest.approx(0.25)
        # swap roles: center 1, context 0 -> x = [1,0,0,1]; a = [1+1, 0] = [2,0]
        # h = [2,0]; mu = U h + b1 = [2.5, -0.5]; log var = 2 + 0.25
        g = infer_posterior(1, [0], enc)
        assert np.allclose(g.mean, [2.5, -0.5])
        assert float(g.log_var) == pytest.approx(2.25)

    def test_duplicate_context_adds_one_term(self):
        enc = random_encoder(np.random.default_rng(2))
        one = infer_posterior(0, [1], enc)
        two = infer_posterior(0, [1, 1], enc)
        # sum (not mean) of ReLU terms: the heads are affine in h, so
        # mu(two) - mu(one) equals the contribution of one extra h term
        x = np.concatenate([enc.R[1], enc.R[0]])
        h1 = np.maximum(enc.M @ x, 0.0)
        assert np.allclose(two.mean - one.mean, enc.U @ h1)

    def test_empty_contexts(self):
        with pytest.raises(ValueError, match="posterior undefined"):
            infer_posterior(0, [], zero_encoder())

    def test_log_var_finite(self):
        rng = np.random.default_rng(3)
        enc = random_encoder(rng, scale=50.0)
        g = infer_posterior(0, [1, 2, 3, 4, 5], enc)
        assert np.all(np.isfinite(g.log_var_vector()))

    def test_diagonal_output(self):
        enc = random_encoder(np.random.default_rng(4), cov_kind="diagonal")
        g = infer_posterior(0, [1, 2], enc)
        assert g.cov_kind == "diagonal"
        assert g.log_var.shape == (3,)


def padded_batch(rng, V, w, n_rows):
    """centers (B,), contexts and mask (B, 2w): row b has 1 + b % 2w real
    contexts at scattered positions, repeats among them, random padding ids."""
    P = 2 * w
    contexts = rng.integers(0, V, size=(n_rows, P))
    contexts[:, 1] = contexts[:, 0]
    mask = np.zeros((n_rows, P), bool)
    for b in range(n_rows):
        mask[b, rng.choice(P, size=1 + b % P, replace=False)] = True
    return rng.integers(0, V, size=n_rows), contexts, mask


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
class TestOneForward:
    """infer_posterior is encode_batch on a batch of one window."""

    def test_infer_posterior_is_a_batch_of_one(self, cov_kind, dtype):
        rng = np.random.default_rng(10)
        enc = random_encoder(rng, V=9, d=5, d_h=7, cov_kind=cov_kind, dtype=dtype)
        for length in range(1, 7):
            contexts = rng.integers(0, 9, size=length)
            contexts[-1] = contexts[0]
            g = infer_posterior(3, list(contexts), enc)
            for mask in (None, np.ones((1, length), bool)):
                _, mu, lv = encode_batch(np.array([3]), contexts[None], mask, enc)
                assert g.mean.tobytes() == mu[0].tobytes()
                lv_row = lv[0, 0] if cov_kind == "spherical" else lv[0]
                assert g.log_var.shape == np.shape(lv_row)
                assert g.log_var.tobytes() == np.asarray(lv_row).tobytes()

    def test_mask_none_is_an_all_true_mask(self, cov_kind, dtype):
        rng = np.random.default_rng(11)
        enc = random_encoder(rng, V=20, d=4, d_h=6, cov_kind=cov_kind, dtype=dtype)
        centers, contexts, _ = padded_batch(rng, 20, 3, 30)
        every = encode_batch(centers, contexts, np.ones(contexts.shape, bool), enc)
        none = encode_batch(centers, contexts, None, enc)
        for a, b in zip(every[0][3:] + every[1:], none[0][3:] + none[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_padding_contributes_nothing(self, cov_kind, dtype):
        rng = np.random.default_rng(12)
        enc = random_encoder(rng, V=20, d=4, d_h=6, cov_kind=cov_kind, dtype=dtype)
        centers, contexts, mask = padded_batch(rng, 20, 3, 30)
        _, mu, lv = encode_batch(centers, contexts, mask, enc)
        repadded = np.where(mask, contexts, rng.integers(0, 20, size=contexts.shape))
        _, mu2, lv2 = encode_batch(centers, repadded, mask, enc)
        assert mu.tobytes() == mu2.tobytes() and lv.tobytes() == lv2.tobytes()
        # each row is its unpadded window's posterior; the hidden-layer gemm is
        # not bit for bit, as BLAS picks its kernel, and so its summation
        # order, by the number of rows
        eps = np.finfo(dtype).eps
        for b in range(len(centers)):
            g = infer_posterior(centers[b], contexts[b][mask[b]], enc)
            assert np.abs(g.mean - mu[b]).max() <= 16 * eps * np.abs(mu).max()
            assert (np.abs(g.log_var_vector() - lv[b]).max()
                    <= 16 * eps * np.abs(lv).max())


class TestEncoderBackward:
    def test_zero_upstream_gives_zero_grads(self):
        enc = random_encoder(np.random.default_rng(5))
        grads = dense_grads(enc, encoder_backward(0, [1, 2], enc, np.zeros(3), 0.0))
        assert all(np.allclose(g, 0) for g in grads.values())

    def test_dead_relu_unit_blocks_gradient(self):
        enc = zero_encoder(V=3, d=2, d_h=2)
        enc.R[:] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        enc.M[0, :] = [-1.0, -1.0, -1.0, -1.0]   # always negative pre-activation
        enc.M[1, :] = [1.0, 1.0, 1.0, 1.0]
        enc.U[:] = 1.0
        dense, _ = encoder_backward(0, [1], enc, np.array([1.0, 1.0]), 0.0)
        # unit 0 is dead: no gradient reaches its row of M
        assert np.allclose(dense["M"][0], 0.0)
        assert not np.allclose(dense["M"][1], 0.0)

    def test_untouched_rows_have_no_gradient(self):
        enc = random_encoder(np.random.default_rng(6), V=10)
        result = encoder_backward(2, [4, 7], enc, np.ones(3), 0.5)
        assert set(result[1][0].tolist()) == {2, 4, 7}
        dR = dense_grads(enc, result)["R"]
        assert set(np.flatnonzero(np.any(dR != 0, axis=1))) == {2, 4, 7}

    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_matches_finite_differences(self, cov_kind):
        rng = np.random.default_rng(8)
        d, d_h = 3, 4
        k = 1 if cov_kind == "spherical" else d
        for trial in range(20):
            enc = random_encoder(rng, V=6, d=d, d_h=d_h, cov_kind=cov_kind)
            contexts = list(rng.integers(0, 6, size=2))
            center = int(rng.integers(0, 6))
            a = rng.normal(size=d)
            b = rng.normal(size=k)
            grads = dense_grads(enc, encoder_backward(center, contexts, enc, a,
                                                      b[0] if k == 1 else b))

            def loss():
                g = infer_posterior(center, contexts, enc)
                return a @ g.mean + b @ np.atleast_1d(np.asarray(g.log_var))

            params = {n: getattr(enc, n) for n in NAMES}
            assert gradcheck(loss, params, grads, 1e-5) <= 1e-4

    def test_shape_mismatch(self):
        enc = zero_encoder()
        with pytest.raises(ValueError):
            encoder_backward(0, [1], enc, np.zeros(5), 0.0)
