from functools import partial

import numpy as np
import pytest

from bayesgram import bsg, oracles
from bayesgram.bsg import (BatchGrads, BsgModel, TrainConfig, batch_gradients,
                           elbo_estimate, init_bsg_model, reparameterize, train)
from bayesgram.corpus import Vocabulary, build_vocabulary, iter_documents, single_window
from bayesgram.gauss import Gaussian, kl_divergence

from helpers import perturbed_bsg_model, tiny_vocab


def cfg64(**kw):
    base = dict(dim=3, hidden_dim=4, margin=1.0, param_dtype="float64", epochs=0)
    base.update(kw)
    return TrainConfig(**base)


def one_window_loss(model, center, positives, negatives, cfg):
    """The kernel's loss of one window, a batch of one."""
    batch = single_window(center, positives, negatives)
    return float(batch_gradients(model, *batch, cfg, want_grads=False).losses[0])


def onedim_model(vocab, prior=(0.0, 0.0), ctx_rows=None):
    """1-D model with a zeroed encoder (posterior N(0,1)) and set tables."""
    cfg = cfg64(dim=1, hidden_dim=2)
    model = init_bsg_model(vocab, cfg, np.random.default_rng(0))
    for arr in model.param_arrays().values():
        arr[...] = 0.0
    model.prior_mean[:, 0] = prior[0]
    model.prior_log_var[:] = prior[1]
    if ctx_rows:
        for w, (mu, lv) in ctx_rows.items():
            model.ctx_mean[w, 0] = mu
            model.ctx_log_var[w] = lv
    return model, cfg


class TestReparameterize:
    def test_zero_eps(self):
        g = Gaussian(np.array([1.0, 2.0]), np.float64(0.3))
        assert np.allclose(reparameterize(g, np.zeros(2)), g.mean)

    def test_standard_normal(self):
        g = Gaussian(np.zeros(3), np.float64(0.0))
        eps = np.array([0.1, -0.2, 0.3])
        assert np.allclose(reparameterize(g, eps), eps)

    def test_hand_value(self):
        g = Gaussian(np.array([1.0]), np.array(np.log(4.0)))
        assert reparameterize(g, np.array([0.5]))[0] == pytest.approx(2.0)


class TestWindowLoss:
    def test_hand_fixture_inactive_hinge(self):
        # zeroed encoder -> q = N(0,1); prior N(0,1); positive ctx N(1,1),
        # negative ctx N(-2,1), margin 1:
        # KL(q||pos) = 0.5, KL(q||neg) = 2 -> hinge max(0, 0.5 - 2 + 1) = 0
        v = tiny_vocab(4)
        model, cfg = onedim_model(v, ctx_rows={1: (1.0, 0.0), 2: (-2.0, 0.0)})
        loss = one_window_loss(model, 0, [1], [2], cfg)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_identical_pos_neg_gives_margin(self):
        v = tiny_vocab(4)
        model, cfg = onedim_model(v, ctx_rows={1: (0.7, 0.2)})
        loss = one_window_loss(model, 0, [1], [1], cfg)
        assert loss == pytest.approx(cfg.margin, abs=1e-12)

    def test_all_identical_gives_margin_per_positive(self):
        # every KL is zero, so each pair contributes exactly the margin
        v = tiny_vocab(5)
        model, cfg = onedim_model(v)
        loss = one_window_loss(model, 0, [1, 2, 3], [2, 3, 4], cfg)
        assert loss == pytest.approx(3 * cfg.margin, abs=1e-12)

    def test_loss_lower_bounded_by_prior_kl(self):
        rng = np.random.default_rng(1)
        v = tiny_vocab(8)
        cfg = cfg64()
        for _ in range(50):
            model = perturbed_bsg_model(v, cfg, rng)
            q = model.posterior(0, [1, 2])
            prior_kl = kl_divergence(q, model.prior_gaussian(0))
            loss = one_window_loss(model, 0, [1, 2], [3, 4], cfg)
            assert loss >= prior_kl - 1e-10
            assert loss >= -1e-10

    def test_soft_hand_value(self):
        # the fixture of test_hand_fixture_inactive_hinge: the hinge argument
        # is x = 0.5 - 2 + 1 = -0.5, so the soft loss is log(1 + e^-0.5) and
        # the positive context mean gets dKL(q||pos)/dmu_pos = 1 weighted by
        # sigmoid(-0.5)
        v = tiny_vocab(4)
        model, cfg = onedim_model(v, ctx_rows={1: (1.0, 0.0), 2: (-2.0, 0.0)})
        cfg = cfg64(dim=1, hidden_dim=2, objective="soft")
        g = batch_gradients(model, *single_window(0, [1], [2]), cfg)
        assert g.losses[0] == pytest.approx(0.47407698418010663, abs=1e-12)
        ids, d_ctx = g.rows["ctx_mean"]
        assert list(ids) == [1, 2]
        assert d_ctx[0, 0] == pytest.approx(0.3775406687981454, abs=1e-12)
        # dKL(q||neg)/dmu_neg = -(0 - (-2)) = -2, entering with a minus sign
        assert d_ctx[1, 0] == pytest.approx(2 * 0.3775406687981454, abs=1e-12)

    def test_soft_is_bounded_below_by_the_prior_kl(self):
        # a hinge argument of -1011.5: the soft term underflows to 0, where
        # the raw difference it replaces was -1011.5
        v = tiny_vocab(4)
        model, _ = onedim_model(v, ctx_rows={1: (0.0, 0.0), 2: (45.0, 0.0)})
        loss = one_window_loss(model, 0, [1], [2], cfg64(dim=1, hidden_dim=2,
                                                         objective="soft"))
        assert 0.0 <= loss < 1e-300

    def test_length_mismatch(self):
        v = tiny_vocab(6)
        model, cfg = onedim_model(v)
        with pytest.raises(ValueError, match="length mismatch"):
            one_window_loss(model, 0, [1, 2], [3], cfg)
        with pytest.raises(ValueError, match="empty"):
            one_window_loss(model, 0, [], [1], cfg)

    def test_no_rng_needed(self):
        # the training objective is sampling-free: repeated evaluation is
        # bit-identical with no generator in sight
        v = tiny_vocab(6)
        model = perturbed_bsg_model(v, cfg64(), np.random.default_rng(3))
        a = one_window_loss(model, 1, [2, 3], [4, 5], cfg64())
        b = one_window_loss(model, 1, [2, 3], [4, 5], cfg64())
        assert a == b


class TestOneKl:
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_inactive_hinge_loss_is_the_read_path_kl(self, cov_kind, dtype):
        # with each negative equal to its positive and margin 0, every hinge
        # argument is exactly 0, so a window's loss is its prior KL: the
        # training kernel and gauss.kl_divergence must agree bit for bit
        V = 9
        cfg = TrainConfig(dim=5, hidden_dim=4, margin=0.0, cov_kind=cov_kind,
                          param_dtype=dtype, epochs=0)
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = perturbed_bsg_model(tiny_vocab(V), cfg, rng, scale=0.5)
            for _ in range(10):
                c = int(rng.integers(V))
                ctx = rng.integers(V, size=int(rng.integers(1, 5))).tolist()
                want = kl_divergence(model.posterior(c, ctx), model.prior_gaussian(c))
                assert one_window_loss(model, c, ctx, ctx, cfg) == want


class TestWindowLossGradients:
    def test_inactive_hinge_leaves_prior_gradient_only(self):
        # positives/negatives symmetric -> all hinge args equal margin - 0...
        # instead construct a config where the hinge is strictly inactive
        v = tiny_vocab(4)
        model, cfg = onedim_model(v, ctx_rows={1: (0.5, 0.0), 2: (-9.0, 0.0)})
        cfg = cfg64(dim=1, hidden_dim=2, margin=0.5)
        g = batch_gradients(model, *single_window(0, [1], [2]), cfg)
        # context rows get zero gradient, prior row does not need to be zero
        for name in ("ctx_mean", "ctx_log_var"):
            assert np.allclose(g.rows[name][1], 0)
        assert g.rows["prior_mean"][0].tolist() == [0]
        assert g.rows["prior_log_var"][0].tolist() == [0]

    def test_gradient_sparsity(self):
        rng = np.random.default_rng(4)
        v = tiny_vocab(20)
        cfg = cfg64(dim=4)
        model = perturbed_bsg_model(v, cfg, rng)
        g = batch_gradients(model, *single_window(3, [5, 6], [7, 8]), cfg)
        dense = {n: np.zeros(a.shape) for n, a in model.param_arrays().items()}
        g.scatter(dense)
        touched = {n: set(np.flatnonzero(np.any(dense[n].reshape(20, -1), axis=1)))
                   for n in ("prior_mean", "ctx_mean", "ctx_log_var", "enc_R")}
        assert touched["prior_mean"] == {3}
        assert touched["ctx_mean"] | touched["ctx_log_var"] <= {5, 6, 7, 8}
        assert touched["enc_R"] <= {3, 5, 6}

    @pytest.mark.parametrize("cov_kind,objective", [
        ("spherical", "hinge"), ("diagonal", "hinge"), ("spherical", "soft")])
    def test_matches_finite_differences(self, cov_kind, objective):
        rng = np.random.default_rng(5)
        v = tiny_vocab(20)
        cfg = cfg64(dim=4, hidden_dim=4, cov_kind=cov_kind, objective=objective,
                    margin=0.7)
        for _ in range(10):
            model = perturbed_bsg_model(v, cfg, rng)
            center = int(rng.integers(20))
            pos = list(rng.integers(0, 20, size=3))
            neg = list(rng.integers(0, 20, size=3))
            kernel = partial(batch_gradients, model, cfg=cfg)
            batch = single_window(center, pos, neg)
            assert oracles.kernel_gradcheck(kernel, model.param_arrays(), batch) <= 1e-4


class TestScatter:
    @pytest.mark.parametrize("table_shape,row_shape", [
        ((50,), (1,)),          # spherical log-variance: a 1-D table
        ((50, 7), (7,)),
    ])
    def test_matches_row_loop_bit_for_bit(self, table_shape, row_shape):
        rng = np.random.default_rng(2)
        ids = rng.integers(0, 10, size=400)                # every id repeats
        # magnitudes over 12 decades: the sum depends on the order of additions
        g = rng.normal(size=(400,) + row_shape) * 10.0 ** rng.integers(-6, 6, (400, 1))
        buf = rng.normal(size=table_shape)
        expected = buf.copy()
        for i, r in enumerate(ids):
            expected[r] += g[i].reshape(table_shape[1:])
        BatchGrads(np.zeros(1), {"t": (ids, g)}).scatter({"t": buf})
        assert buf.tobytes() == expected.tobytes()

    def test_non_contiguous_buffer_raises(self):
        buf = np.zeros((6, 8))[:, ::2]
        grads = BatchGrads(np.zeros(1), {"t": (np.array([1, 1]), np.ones((2, 4)))})
        with pytest.raises(ValueError, match="C-contiguous"):
            grads.scatter({"t": buf})
        assert not buf.any()


class TestElboEstimate:
    def test_uniform_decoder_symmetry(self):
        # all context Gaussians identical and uniform p(c): reconstruction is
        # exactly C log(1/|V|); q equals the prior so the KL term is zero
        v = Vocabulary([f"w{i}" for i in range(4)], np.array([5, 5, 5, 5]))
        model, _ = onedim_model(v)
        val = elbo_estimate(model, 0, [1, 2], 100, np.random.default_rng(0))
        assert val == pytest.approx(2 * np.log(1 / 4), abs=1e-12)
        assert val == pytest.approx(-2.7725887, abs=1e-6)

    def test_bounded_by_marginal_loglik(self):
        rng = np.random.default_rng(6)
        v = tiny_vocab(10)
        cfg = cfg64(dim=1, hidden_dim=3)
        for _ in range(5):
            model = perturbed_bsg_model(v, cfg, rng, scale=0.4)
            ctx = [1, 4, 7]
            n = 20000
            el = elbo_estimate(model, 2, ctx, n, np.random.default_rng(9))
            ml = oracles.marginal_loglik_oracle(model, 2, ctx, 64)
            # allow 3 MC standard errors (bounded above by a generous constant)
            assert el <= ml + 0.05

    def test_mc_stabilization(self):
        v = tiny_vocab(10)
        model = perturbed_bsg_model(v, cfg64(dim=2, hidden_dim=3),
                                    np.random.default_rng(7), scale=0.3)
        a = elbo_estimate(model, 0, [1, 2], 10000, np.random.default_rng(0))
        b = elbo_estimate(model, 0, [1, 2], 100000, np.random.default_rng(1))
        assert abs(a - b) < 1e-2

    def test_deterministic_given_seed(self):
        v = tiny_vocab(6)
        model = perturbed_bsg_model(v, cfg64(), np.random.default_rng(8))
        a = elbo_estimate(model, 0, [1], 500, np.random.default_rng(5))
        b = elbo_estimate(model, 0, [1], 500, np.random.default_rng(5))
        assert a == b

    def test_vocab_guard(self):
        words = [f"w{i}" for i in range(10001)]
        v = Vocabulary(words, np.ones(10001, dtype=np.int64))
        cfg = cfg64(dim=1, hidden_dim=2)
        model = init_bsg_model(v, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="training loss"):
            elbo_estimate(model, 0, [1], 10, np.random.default_rng(0))


def write_corpus(tmp_path, spec):
    path = tmp_path / "corpus.txt"
    oracles.write_synth_corpus(spec, path)
    return path


class TestTrain:
    def test_zero_epochs_returns_initialized_model(self, tmp_path):
        spec = oracles.polysemy_spec(tokens_per_doc=200, n_docs=3)
        path = write_corpus(tmp_path, spec)
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        cfg = TrainConfig(dim=4, window=2, epochs=0, seed=1, batch_size=64)
        model = train(path, vocab, cfg)
        ref = init_bsg_model(vocab, cfg, bsg.init_rng(cfg))
        for k, a in model.param_arrays().items():
            assert np.array_equal(a, ref.param_arrays()[k])

    def test_same_seed_same_model(self, tmp_path):
        spec = oracles.polysemy_spec(tokens_per_doc=300, n_docs=5)
        path = write_corpus(tmp_path, spec)
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        cfg = TrainConfig(dim=4, window=2, epochs=1, seed=3, batch_size=128,
                          learning_rate=0.01)
        m1 = train(path, vocab, cfg)
        m2 = train(path, vocab, cfg)
        for k, a in m1.param_arrays().items():
            assert np.array_equal(a, m2.param_arrays()[k])

    def test_loss_decreases_on_synthetic_corpus(self, tmp_path):
        spec = oracles.polysemy_spec(tokens_per_doc=500, n_docs=30, seed=5)
        path = write_corpus(tmp_path, spec)
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        cfg = TrainConfig(dim=10, window=2, epochs=5, seed=0, batch_size=1024,
                          learning_rate=0.05)
        losses = []
        train(path, vocab, cfg, epoch_losses=losses)
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_config_disagreeing_with_vocabulary_rejected(self, tmp_path):
        path = write_corpus(tmp_path, oracles.polysemy_spec(tokens_per_doc=50, n_docs=1))
        vocab = build_vocabulary(iter_documents(path), 100, 1, t=1e-2)
        for kw, named in [(dict(), "subsample_t=0.0001, neg_exponent=1.0"),
                          (dict(subsample_t=1e-2, neg_exponent=0.75),
                           "subsample_t=0.01, neg_exponent=0.75")]:
            cfg = TrainConfig(dim=3, window=2, **kw)
            with pytest.raises(ValueError, match=f"config {named} disagree with the "
                               "vocabulary's subsample_t=0.01, neg_table_exponent=1.0"):
                train(path, vocab, cfg)

    @pytest.mark.parametrize("kw", [dict(batch_size=0), dict(batch_size=-5),
                                    dict(hidden_dim=-3)])
    def test_out_of_range_setting_rejected(self, kw):
        with pytest.raises(ValueError, match="batch_size must be >= 1 and hidden_dim >= 0"):
            TrainConfig(dim=3, **kw)

    @pytest.mark.parametrize("dtype", ["int8", "float16", "longdouble"])
    def test_param_dtype_not_float32_or_float64_rejected(self, dtype):
        with pytest.raises(ValueError, match=f"param_dtype must be float32 or float64, "
                                             f"got '{dtype}'"):
            TrainConfig(dim=3, param_dtype=dtype)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_learning_rate_not_finite_and_positive_rejected(self, tmp_path, lr):
        path = write_corpus(tmp_path, oracles.polysemy_spec(tokens_per_doc=50, n_docs=1))
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        with pytest.raises(ValueError, match="learning rate must be finite and > 0"):
            train(path, vocab, TrainConfig(dim=3, window=2, learning_rate=lr))

    def test_telemetry_csv(self, tmp_path):
        spec = oracles.polysemy_spec(tokens_per_doc=200, n_docs=2)
        path = write_corpus(tmp_path, spec)
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        log = tmp_path / "telemetry.csv"
        cfg = TrainConfig(dim=3, window=2, epochs=1, batch_size=64,
                          learning_rate=0.01)
        train(path, vocab, cfg, log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == "batch_index,loss,examples_seen"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[0] == "0"
        float(first[1])
        int(first[2])

    def test_bsg_log_is_the_default_path_and_log_path_wins(self, tmp_path, monkeypatch):
        path = write_corpus(tmp_path, oracles.polysemy_spec(tokens_per_doc=200, n_docs=2))
        vocab = build_vocabulary(iter_documents(path), 100, 1)
        cfg = TrainConfig(dim=3, window=2, batch_size=64, learning_rate=0.01)
        env, arg = tmp_path / "env.csv", tmp_path / "arg.csv"
        monkeypatch.setenv("BSG_LOG", str(env))
        train(path, vocab, cfg)
        logged = env.read_bytes()
        assert logged.startswith(b"batch_index,loss,examples_seen\r\n0,")
        env.unlink()
        train(path, vocab, cfg, log_path=arg)
        assert arg.read_bytes() == logged and not env.exists()
