from functools import partial

import numpy as np
import pytest

from bayesgram import baselines, oracles
from bayesgram.baselines import (SgModel, W2gModel, _energy_parts, clip_params,
                                 init_sg_model, init_w2g_model, sg_batch_gradients,
                                 train_baseline, w2g_batch_gradients)
from bayesgram.bsg import TrainConfig, init_rng
from bayesgram.corpus import build_vocabulary, iter_documents, single_window
from bayesgram.optim import CHUNK

from helpers import kernel_gradcheck, rel_err, tiny_vocab


def sg_loss(m, center, positives, negatives):
    batch = single_window(center, positives, negatives)
    return float(sg_batch_gradients(m, *batch, want_grads=False).losses[0])


def w2g_loss(m, center, positives, negatives, margin):
    batch = single_window(center, positives, negatives)
    return float(w2g_batch_gradients(m, *batch, margin, want_grads=False).losses[0])


def pair_energy(mu_a, lv_a, mu_b, lv_b, kind):
    """_energy_parts on one pair of diagonal Gaussians: (energy, gradient parts)."""
    val, grads = _energy_parts(*(np.asarray(x, dtype=np.float64)
                                 for x in (mu_a, lv_a, mu_b, lv_b)), kind)
    return float(val), grads


def sg_model(V=8, d=4, rng=None):
    rng = rng or np.random.default_rng(0)
    v = tiny_vocab(V)
    return SgModel(vocab=v, dim=d,
                   in_vec=rng.normal(scale=0.5, size=(V, d)),
                   out_vec=rng.normal(scale=0.5, size=(V, d)))


def w2g_model(V=8, d=3, cov_kind="spherical", energy="expected_likelihood",
              rng=None):
    rng = rng or np.random.default_rng(0)
    v = tiny_vocab(V)
    lv_shape = (V,) if cov_kind == "spherical" else (V, d)
    return W2gModel(vocab=v, cov_kind=cov_kind, dim=d,
                    mean=rng.normal(scale=0.5, size=(V, d)),
                    log_var=rng.normal(scale=0.3, size=lv_shape),
                    energy_kind=energy)


class TestSgLoss:
    def test_zero_vectors(self):
        m = sg_model()
        m.in_vec[:] = 0
        m.out_vec[:] = 0
        assert sg_loss(m, 0, [1], [2]) == pytest.approx(
            -2 * np.log(0.5), abs=1e-12)

    def test_saturation_limit(self):
        m = sg_model(d=1)
        m.in_vec[0] = 1.0
        m.out_vec[1] = 50.0    # positive score -> +inf direction
        m.out_vec[2] = -50.0   # negative score -> -inf direction
        assert sg_loss(m, 0, [1], [2]) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = sg_model(rng=rng)
            center = int(rng.integers(8))
            pos = list(rng.integers(0, 8, size=2))
            neg = list(rng.integers(0, 8, size=2))
            batch = single_window(center, pos, neg)
            kernel = partial(sg_batch_gradients, m)
            assert kernel_gradcheck(kernel, m.param_arrays(), batch) <= 1e-4

    def test_length_mismatch(self):
        m = sg_model()
        with pytest.raises(ValueError, match="length mismatch"):
            sg_loss(m, 0, [1, 2], [3])


class TestW2gEnergy:
    def test_expected_likelihood_hand_value(self):
        # variances add: log N(0; 0, 1)
        half = [np.log(0.5)]
        value, _ = pair_energy([0.0], half, [0.0], half, "expected_likelihood")
        assert value == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_negated_kl_identical_is_zero(self):
        mu, lv = [0.3, -0.1], [0.2, 0.1]
        assert pair_energy(mu, lv, mu, lv, "negated_kl")[0] == pytest.approx(0.0, abs=1e-12)

    def test_expected_likelihood_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=3), rng.normal(size=3)
            b = rng.normal(size=3), rng.normal(size=3)
            assert pair_energy(*a, *b, "expected_likelihood")[0] == pytest.approx(
                pair_energy(*b, *a, "expected_likelihood")[0], abs=1e-10)

    @pytest.mark.parametrize("kind", ["expected_likelihood", "negated_kl"])
    def test_energy_gradients(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(10):
            mu_a, mu_b = rng.normal(size=2), rng.normal(size=2)
            lv_a, lv_b = rng.normal(size=2), rng.normal(size=2)
            _, grads = pair_energy(mu_a, lv_a, mu_b, lv_b, kind)
            x0 = np.concatenate([mu_a, lv_a, mu_b, lv_b])

            def f(vec):
                return pair_energy(vec[0:2], vec[2:4], vec[4:6], vec[6:8], kind)[0]

            fd = oracles.finite_diff_grad(f, x0, 1e-6)
            assert rel_err(np.concatenate(grads), fd) <= 1e-4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown energy"):
            pair_energy([0.0], [0.0], [0.0], [0.0], "mahalanobis")


class TestW2gWindowLoss:
    def test_satisfied_margin_gives_zero(self):
        m = w2g_model(d=1)
        m.mean[:] = 0.0
        m.log_var[:] = 0.0
        m.mean[0, 0] = 0.0
        m.mean[1, 0] = 0.1   # positive close -> high energy
        m.mean[2, 0] = 9.0   # negative far -> low energy
        assert w2g_loss(m, 0, [1], [2], margin=1.0) == 0.0

    def test_identical_pos_neg_gives_margin_each(self):
        m = w2g_model()
        loss = w2g_loss(m, 0, [1, 2], [1, 2], margin=0.8)
        assert loss == pytest.approx(2 * 0.8, abs=1e-10)

    @pytest.mark.parametrize("cov_kind,energy", [
        ("spherical", "expected_likelihood"), ("diagonal", "expected_likelihood"),
        ("spherical", "negated_kl"), ("diagonal", "negated_kl")])
    def test_gradient_matches_finite_differences(self, cov_kind, energy):
        rng = np.random.default_rng(4)
        for _ in range(5):
            m = w2g_model(cov_kind=cov_kind, energy=energy, rng=rng)
            center = int(rng.integers(8))
            pos = list(rng.integers(0, 8, size=2))
            neg = list(rng.integers(0, 8, size=2))
            batch = single_window(center, pos, neg)
            kernel = partial(w2g_batch_gradients, m, margin=1.0)
            assert kernel_gradcheck(kernel, m.param_arrays(), batch) <= 1e-4


class TestClipParams:
    def test_in_bounds_unchanged(self):
        m = w2g_model()
        m.mean[:] = 0.5
        m.log_var[:] = 0.0
        mean0, lv0 = m.mean.copy(), m.log_var.copy()
        clip_params(m)
        assert np.array_equal(m.mean, mean0)
        assert np.array_equal(m.log_var, lv0)

    def test_mean_rescaled_to_bound(self):
        m = w2g_model(d=3)
        m.max_mean_norm = 2.0
        m.mean[0] = [4.0, 0.0, 0.0]
        clip_params(m)
        assert np.linalg.norm(m.mean[0]) == pytest.approx(2.0, abs=1e-9)

    def test_variance_clamped(self):
        m = w2g_model()
        m.log_var[0] = np.log(100.0)
        m.log_var[1] = np.log(1e-9)
        clip_params(m)
        assert np.exp(m.log_var[0]) == pytest.approx(m.var_hi)
        assert np.exp(m.log_var[1]) == pytest.approx(m.var_lo)

    def test_blockwise_projection(self):
        d = 4
        block = CHUNK // d                   # rows per block of the projection
        rng = np.random.default_rng(3)
        m = w2g_model(V=3 * block + 10, d=d, rng=rng)
        m.mean = m.mean.astype(np.float32)
        m.max_mean_norm = 2.0
        over = [0, block - 1, block, block + 1, 2 * block + 7, 3 * block + 9]
        m.mean[over] *= 10.0
        norms0 = np.linalg.norm(m.mean.astype(np.float64), axis=1)
        assert (norms0[over] > 2.0).all()
        under = norms0 <= 2.0
        assert under.sum() > 0.9 * len(under)
        mean0 = m.mean.copy()
        clip_params(m)
        assert m.mean[under].tobytes() == mean0[under].tobytes()
        norms = np.linalg.norm(m.mean.astype(np.float64), axis=1)
        assert (norms <= 2.0).all()
        assert norms[over] == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("var_lo, var_hi", [(1e-3, 10.0), (1.0, 3.0), (0.05, 1.0),
                                                 (2e-9, 7e5)])
    def test_float32_clamp_matches_float64_bounds(self, var_lo, var_hi):
        # the bounds are cast to float32; clamping float32 values against the
        # float64 bounds and rounding back gives the same bits
        rng = np.random.default_rng(1)
        edges = []
        for bound in np.float32([np.log(var_lo), np.log(var_hi)]):
            edges += [np.nextafter(bound, np.float32(-np.inf)), bound,
                      np.nextafter(bound, np.float32(np.inf))]
        lv = np.concatenate([
            rng.normal(scale=10.0, size=1000).astype(np.float32),
            np.float32(edges), np.float32([np.nan, np.inf, -np.inf, -0.0, 0.0])])
        m = w2g_model(V=len(lv), d=2)
        m.var_lo, m.var_hi = var_lo, var_hi
        m.log_var = lv.copy()
        expect = np.clip(lv.astype(np.float64), np.log(var_lo), np.log(var_hi)).astype(np.float32)
        clip_params(m)
        assert m.log_var.dtype == np.float32
        assert m.log_var.tobytes() == expect.tobytes()

    def test_idempotent(self):
        for seed in range(20):     # 11 of these seeds failed a one-rescale projection
            rng = np.random.default_rng(seed)
            m = w2g_model(rng=rng)
            m.mean *= 100
            m.log_var *= 10
            clip_params(m)
            mean1, lv1 = m.mean.copy(), m.log_var.copy()
            clip_params(m)
            assert np.array_equal(m.mean, mean1), f"seed {seed}"
            assert np.array_equal(m.log_var, lv1), f"seed {seed}"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    spec = oracles.polysemy_spec(tokens_per_doc=400, n_docs=20, seed=11)
    oracles.write_synth_corpus(spec, path)
    vocab = build_vocabulary(iter_documents(path), 100, 1)
    return path, vocab


class TestTrainBaseline:
    def cfg(self, **kw):
        base = dict(dim=6, window=2, epochs=3, seed=2, batch_size=256,
                    subsample_t=1e-2)
        base.update(kw)
        return TrainConfig(**base)

    @pytest.mark.parametrize("kind", ["sg", "w2g_s", "w2g_d"])
    def test_deterministic(self, corpus, kind):
        path, vocab = corpus
        cfg = self.cfg(epochs=1)
        m1 = train_baseline(kind, path, vocab, cfg, learning_rate=0.02)
        m2 = train_baseline(kind, path, vocab, cfg, learning_rate=0.02)
        for k, a in m1.param_arrays().items():
            assert np.array_equal(a, m2.param_arrays()[k])

    def test_sg_loss_trend(self, corpus):
        path, vocab = corpus
        losses = []
        train_baseline("sg", path, vocab, self.cfg(epochs=8),
                       epoch_losses=losses, learning_rate=0.01)
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("kind", ["w2g_s", "w2g_d"])
    def test_w2g_clip_invariants_after_training(self, corpus, kind):
        path, vocab = corpus
        m = train_baseline(kind, path, vocab, self.cfg(epochs=2),
                           learning_rate=0.05)
        norms = np.linalg.norm(m.mean.astype(np.float64), axis=1)
        assert np.all(norms <= m.max_mean_norm + 1e-6)
        var = np.exp(m.log_var.astype(np.float64))
        assert np.all(var >= m.var_lo - 1e-9)
        assert np.all(var <= m.var_hi + 1e-6)

    @pytest.mark.parametrize("kind", ["w2g_s", "w2g_d"])
    def test_no_step_still_projects(self, corpus, kind):
        # epochs=0 takes no step, so no projection after one: the model
        # must still come back inside the bounds
        path, vocab = corpus
        kw = dict(max_mean_norm=0.01, var_lo=2.0)
        m = train_baseline(kind, path, vocab, self.cfg(epochs=0), **kw)
        init = init_w2g_model(vocab, self.cfg(epochs=0), init_rng(self.cfg()),
                              "spherical" if kind == "w2g_s" else "diagonal", **kw)
        assert np.linalg.norm(init.mean.astype(np.float64), axis=1).min() > 0.01
        clip_params(init)
        assert m.mean.tobytes() == init.mean.tobytes()
        assert m.log_var.tobytes() == init.log_var.tobytes()
        assert (m.log_var == np.float32(np.log(2.0))).all()

    @pytest.mark.parametrize("kind", ["w2g_s", "w2g_d"])
    def test_one_projection_per_step(self, corpus, kind, tmp_path, monkeypatch):
        path, vocab = corpus
        calls = []
        monkeypatch.setattr(baselines, "clip_params",
                            lambda m: calls.append(1) or clip_params(m))
        log = tmp_path / "log.csv"
        train_baseline(kind, path, vocab, self.cfg(epochs=2), log_path=log)
        steps = len(log.read_text().splitlines()) - 1
        assert steps > 2 and len(calls) == steps

    def test_unknown_kind(self, corpus):
        path, vocab = corpus
        with pytest.raises(ValueError, match="unknown baseline"):
            train_baseline("glove", path, vocab, self.cfg())

    def test_shared_stream_with_bsg(self, corpus):
        # identical seeds must give SG and BSG the same window/negative stream
        from bayesgram.bsg import data_rng, TrainConfig as TC
        from bayesgram.corpus import iter_training_windows
        path, vocab = corpus
        cfg = self.cfg()
        s1 = list(iter_training_windows(path, vocab, cfg.window,
                                        cfg.negatives_per_positive,
                                        data_rng(cfg)))
        s2 = list(iter_training_windows(path, vocab, cfg.window,
                                        cfg.negatives_per_positive,
                                        data_rng(cfg)))
        assert s1 == s2
