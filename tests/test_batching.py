"""The batched training kernels: batches against single windows, k = 2
gradients against finite differences, and the non-finite-loss guard."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from bayesgram import bsg, oracles
from bayesgram.baselines import (init_sg_model, init_w2g_model, sg_batch_gradients,
                                 w2g_batch_gradients)
from bayesgram.bsg import NumericalError, TrainConfig, batch_gradients
from bayesgram.corpus import (Vocabulary, iter_training_batches,
                              iter_training_windows, single_window)

from helpers import perturbed_bsg_model, tiny_vocab

WORDS = ["a", "b", "c", "d", "e", "f"]
# doc 1 repeats "a" as a context of "a"; both documents have truncated edges
DOCS = "a b a c a d\ne f b\n"


@pytest.fixture
def stream(tmp_path):
    """Vocabulary, corpus path and the one batch holding both documents."""
    vocab = Vocabulary(WORDS, np.array([6, 5, 4, 3, 2, 1]), subsample_t=1.0)
    path = tmp_path / "c.txt"
    path.write_text(DOCS)

    def get(k):
        batches = list(iter_training_batches(path, vocab, 2, k, 10**6,
                                             np.random.default_rng(0)))
        windows = list(iter_training_windows(path, vocab, 2, k,
                                             np.random.default_rng(0)))
        assert len(batches) == 1 and len(windows) == 9
        return vocab, batches[0], windows

    return get


def kernels(vocab, cfg, rng):
    """(name, kernel(centers, pos, neg, mask), params) for every model variant."""
    out = []
    for cov in ("spherical", "diagonal"):
        for objective in ("hinge", "soft"):
            c = TrainConfig(**{**cfg, "cov_kind": cov, "objective": objective})
            m = perturbed_bsg_model(vocab, c, rng, scale=0.3)
            out.append((f"bsg-{cov}-{objective}", partial(batch_gradients, m, cfg=c),
                        m.param_arrays()))
        for energy in ("expected_likelihood", "negated_kl"):
            m = init_w2g_model(vocab, TrainConfig(**cfg), rng, cov, energy_kind=energy)
            for arr in m.param_arrays().values():
                arr += rng.normal(scale=0.3, size=arr.shape)
            out.append((f"w2g-{cov}-{energy}", partial(w2g_batch_gradients, m, margin=1.0),
                        m.param_arrays()))
    m = init_sg_model(vocab, TrainConfig(**cfg), rng)
    m.out_vec += rng.normal(scale=0.3, size=m.out_vec.shape)
    out.append(("sg", partial(sg_batch_gradients, m), m.param_arrays()))
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_batch_equals_sum_of_single_windows(stream, k):
    vocab, batch, windows = stream(k)
    centers, pos, neg, mask = batch
    # the batch covers the cases the scatter must get right
    assert any(c in p for c, p, _ in windows)                 # center is a context
    assert any(len(set(p)) < len(p) for _, p, _ in windows)   # repeated context
    assert len({len(p) for _, p, _ in windows}) > 1           # truncated windows
    assert mask.sum(axis=1).tolist() == [len(p) for _, p, _ in windows]

    cfg = dict(dim=3, hidden_dim=4, window=2, margin=0.7, param_dtype="float64")
    for name, kernel, params in kernels(vocab, cfg, np.random.default_rng(k)):
        batched = {n: np.zeros(a.shape) for n, a in params.items()}
        g = kernel(centers, pos, neg, mask)
        g.scatter(batched)
        summed = {n: np.zeros(a.shape) for n, a in params.items()}
        losses = []
        for window in windows:
            one = kernel(*single_window(*window))
            one.scatter(summed)
            losses.append(one.losses[0])
        assert np.max(np.abs(g.losses - losses)) <= 1e-12, name
        for n in params:
            assert np.max(np.abs(batched[n] - summed[n])) <= 1e-12, (name, n)


def test_non_finite_loss_raises_before_the_step(stream, tmp_path):
    vocab, _, _ = stream(1)
    cfg = TrainConfig(dim=3, window=2, batch_size=4, epochs=1, subsample_t=1.0)
    model = bsg.init_bsg_model(vocab, cfg, np.random.default_rng(0))
    model.prior_log_var[:] = -1e4          # KL(q || prior) overflows
    params = model.param_arrays()
    before = {n: a.copy() for n, a in params.items()}

    def grad_of_batch(*batch):
        return batch_gradients(model, *batch, cfg)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="batch 0") as info:
            bsg.run_training_loop(tmp_path / "c.txt", vocab, cfg, params,
                                  grad_of_batch, lr=0.1)
    for n, a in params.items():
        assert np.array_equal(a, before[n]), n
    assert str(info.value) == (
        "non-finite loss; batch 0; parameter norms: prior_mean=0.474, "
        "prior_log_var=2.45e+04, ctx_mean=0.379, ctx_log_var=0, enc_R=0.402, enc_M=2.01, "
        "enc_U=1.73, enc_b1=0, enc_W=0.704, enc_b2=0")


def test_gradients_match_finite_differences_at_k_2():
    # negative r*n + j pairs with positive j: with k = 2 each positive has two
    vocab = tiny_vocab(8)
    cfg = dict(dim=3, hidden_dim=4, window=2, margin=0.7, param_dtype="float64")
    batch = single_window(1, [2, 3, 2], [4, 5, 6, 7, 1, 4])
    for name, kernel, params in kernels(vocab, cfg, np.random.default_rng(7)):
        assert oracles.kernel_gradcheck(kernel, params, batch, 1e-6) <= 1e-4, name


def random_batch(rng, V, B, k, P):
    """A padded batch over a V-word vocabulary: few words, so ids repeat within
    windows and across block edges; padding ids 0, ragged masks."""
    mask = np.arange(P) < rng.integers(1, P + 1, size=B)[:, None]
    mask[0] = True
    pos = np.where(mask, rng.integers(0, V, size=(B, P)), 0)
    neg = np.where(mask[:, None, :], rng.integers(0, V, size=(B, k, P)), 0)
    return rng.integers(0, V, size=B), pos, neg, mask


def as_bytes(g):
    """Everything a BatchGrads holds, as bytes: equal means bit for bit."""
    return ([g.losses.tobytes()]
            + [(n, ids.tobytes(), rows.tobytes()) for n, (ids, rows) in sorted(g.rows.items())]
            + [(n, a.tobytes()) for n, a in sorted(g.dense.items())])


class TestBlocks:
    """margin_pairs and sg_batch_gradients run over blocks of whole windows
    (bsg.blockwise); the block size changes no bit of any kernel's result."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("windows", [0, 1, 3, 4, 7, 10 ** 6])
    def test_block_size_does_not_change_the_result(self, monkeypatch, k, windows, dtype):
        P, d, B = 4, 3, 7               # 3 and 4 windows a block leave a ragged block
        rng = np.random.default_rng(k)
        batch = random_batch(rng, 5, B, k, P)
        cfg = dict(dim=d, hidden_dim=4, window=2, margin=0.7, param_dtype=dtype)
        for name, kernel, _ in kernels(tiny_vocab(5), cfg, rng):
            for want_grads in (True, False):
                monkeypatch.setattr(bsg, "BLOCK_FLOATS", 10 ** 9)
                whole = kernel(*batch, want_grads=want_grads)
                # 0 windows: a budget below one window still takes one a block
                monkeypatch.setattr(bsg, "BLOCK_FLOATS", max(1, windows * k * P * d))
                assert as_bytes(kernel(*batch, want_grads=want_grads)) == as_bytes(whole), \
                    (name, want_grads)

    def test_blocks_split_the_batch_into_whole_windows(self, monkeypatch):
        calls = []

        def kernel(*block):
            calls.append([len(a) for a in block])
            return block[0], [block[1]], [block[1], block[1] + 10]

        a, b = np.arange(7), np.arange(7) * 2
        monkeypatch.setattr(bsg, "BLOCK_FLOATS", 2 * 3 + 1)
        first, one, two = bsg.blockwise(kernel, 3, a, b)
        assert calls == [[2, 2], [2, 2], [2, 2], [1, 1]]
        assert np.array_equal(first, a)
        assert [p.tolist() for p in one] == [[0, 2], [4, 6], [8, 10], [12]]
        # every block's first piece ahead of any second one
        assert np.concatenate(two).tolist() == [0, 2, 4, 6, 8, 10, 12, 10, 12, 14, 16,
                                                18, 20, 22]

    def test_margin_pairs_peak_memory(self):
        """A batch of the zipf benchmark's shape (B = 515, P = 10, d = 100,
        diagonal) peaks within 2 MB of the bytes it returns."""
        rng = np.random.default_rng(0)
        V, B, P, d = 2000, 515, 10, 100
        _, pos, neg, mask = random_batch(rng, V, B, 1, P)
        mask[:] = True
        mean, log_var = rng.normal(size=(V, d)), rng.normal(scale=0.1, size=(V, d))
        mu_q, lv_q = rng.normal(size=(B, d)), rng.normal(scale=0.1, size=(B, d))
        tracemalloc.start()
        try:
            out = bsg.margin_pairs(mu_q, lv_q, mean, log_var, pos, neg, mask, 1.0,
                                   bsg.kl_parts, "hinge")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        losses, d_mu, d_lv, *pieces = out
        returned = losses.nbytes + d_mu.nbytes + d_lv.nbytes + sum(
            p.nbytes for part in pieces for p in part)
        assert peak - returned <= 2 * 2 ** 20, (peak, returned)
