"""The batched training kernels: batches against single windows, k = 2
gradients against finite differences, and the non-finite-loss guard."""

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
        with pytest.raises(NumericalError, match="batch 0"):
            bsg.run_training_loop(tmp_path / "c.txt", vocab, cfg, params,
                                  grad_of_batch, lr=0.1)
    for n, a in params.items():
        assert np.array_equal(a, before[n]), n


def test_gradients_match_finite_differences_at_k_2():
    # negative r*n + j pairs with positive j: with k = 2 each positive has two
    vocab = tiny_vocab(8)
    cfg = dict(dim=3, hidden_dim=4, window=2, margin=0.7, param_dtype="float64")
    batch = single_window(1, [2, 3, 2], [4, 5, 6, 7, 1, 4])
    for name, kernel, params in kernels(vocab, cfg, np.random.default_rng(7)):
        assert oracles.kernel_gradcheck(kernel, params, batch, 1e-6) <= 1e-4, name
