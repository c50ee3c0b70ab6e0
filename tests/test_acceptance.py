"""End-to-end acceptance gate.

Each test checks one release criterion at its stated tolerance and prints a
single PASS/FAIL line with capture disabled so it always reaches the
terminal. The expensive model trainings are shared through module-scoped
fixtures.
"""

import time
from functools import partial

import numpy as np
import pytest
import scipy.stats

from bayesgram import baselines, bsg, oracles
from bayesgram.baselines import sg_batch_gradients, train_baseline, w2g_batch_gradients
from bayesgram.bsg import BatchGrads, TrainConfig, batch_gradients, init_bsg_model
from bayesgram.cli import main as cli_main
from bayesgram.corpus import build_vocabulary, iter_documents, single_window
from bayesgram.encoder import encoder_backward, infer_posterior
from bayesgram.evaluate import (EntailmentPair, best_f1_threshold,
                                eval_directionality, gap, pearson, spearman)
from bayesgram.gauss import Gaussian, kl_divergence, log_det_cov
from bayesgram.serialize import bundle_from_model, load_model, save_model

from helpers import tiny_vocab


@pytest.fixture
def report(capsys):
    def _report(num, ok, detail):
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def poly_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("accept")
    path = d / "poly.txt"
    spec = oracles.polysemy_spec(tokens_per_doc=1000, n_docs=100, seed=0)
    oracles.write_synth_corpus(spec, path)
    vocab = build_vocabulary(iter_documents(path), 1000, 1, t=1e-2)
    return spec, path, vocab


@pytest.fixture(scope="module")
def bsg_poly(poly_corpus):
    spec, path, vocab = poly_corpus
    cfg = TrainConfig(dim=10, window=2, epochs=5, seed=0, batch_size=1024,
                      learning_rate=0.05, subsample_t=1e-2)
    t0 = time.time()
    model = bsg.train(path, vocab, cfg)
    return spec, vocab, model, time.time() - t0


def test_criterion_1_kl_closed_form_vs_quadrature(report):
    rng = np.random.default_rng(10)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 3))
        p = Gaussian(rng.normal(size=d), rng.normal(scale=0.7, size=d))
        q = Gaussian(rng.normal(size=d), rng.normal(scale=0.7, size=d))
        worst = max(worst, abs(kl_divergence(p, q)
                               - oracles.kl_quadrature_oracle(p, q, 64)))
    elapsed = time.time() - t0
    report(1, worst <= 1e-6 and elapsed < 10.0,
           f"KL closed form vs quadrature, 1000 pairs: max |diff| = {worst:.3g}, "
           f"{elapsed:.1f} s")


def test_criterion_2_gradient_checks(report):
    rng = np.random.default_rng(11)
    vocab = tiny_vocab(20)
    t0 = time.time()

    worst_bsg = 0.0
    cfgs = [TrainConfig(dim=4, hidden_dim=4, cov_kind=ck, objective=obj,
                        margin=0.8, param_dtype="float64")
            for ck in ("spherical", "diagonal") for obj in ("hinge", "soft")]
    for i in range(100):
        cfg = cfgs[i % len(cfgs)]
        model = init_bsg_model(vocab, cfg, rng)
        for arr in model.param_arrays().values():
            arr += rng.normal(scale=0.3, size=arr.shape)
        center = int(rng.integers(20))
        pos = list(rng.integers(0, 20, size=2))
        neg = list(rng.integers(0, 20, size=2))
        worst_bsg = max(worst_bsg, oracles.kernel_gradcheck(
            partial(batch_gradients, model, cfg=cfg), model.param_arrays(),
            single_window(center, pos, neg), 1e-6))

    worst_enc = 0.0
    for i in range(100):
        ck = "spherical" if i % 2 else "diagonal"
        k = 1 if ck == "spherical" else 4
        cfg = TrainConfig(dim=4, hidden_dim=4, cov_kind=ck,
                          param_dtype="float64")
        model = init_bsg_model(vocab, cfg, rng)
        enc = model.enc
        params = {n: getattr(enc, n) for n in ("R", "M", "U", "b1", "W", "b2")}
        for p in params.values():
            p += rng.normal(scale=0.3, size=p.shape)
        center = int(rng.integers(20))
        ctx = list(rng.integers(0, 20, size=3))
        a = rng.normal(size=4)
        b = rng.normal(size=k)
        dense, rows = encoder_backward(center, ctx, enc, a, b[0] if k == 1 else b)
        grads = {n: np.zeros(p.shape) for n, p in params.items()}
        BatchGrads(np.zeros(1), {"R": rows}, dense).scatter(grads)

        def loss():
            g = infer_posterior(center, ctx, enc)
            return a @ g.mean + b @ np.atleast_1d(np.asarray(g.log_var))

        worst_enc = max(worst_enc, oracles.gradcheck(loss, params, grads, 1e-5))

    worst_sg = 0.0
    for _ in range(100):
        m = baselines.SgModel(vocab=vocab, dim=4,
                              in_vec=rng.normal(scale=0.5, size=(20, 4)),
                              out_vec=rng.normal(scale=0.5, size=(20, 4)))
        center = int(rng.integers(20))
        pos = list(rng.integers(0, 20, size=2))
        neg = list(rng.integers(0, 20, size=2))
        worst_sg = max(worst_sg, oracles.kernel_gradcheck(
            partial(sg_batch_gradients, m), m.param_arrays(),
            single_window(center, pos, neg), 1e-6))

    worst_w2g = 0.0
    variants = [("spherical", "expected_likelihood"), ("spherical", "negated_kl"),
                ("diagonal", "expected_likelihood"), ("diagonal", "negated_kl")]
    for i in range(100):
        ck, energy = variants[i % 4]
        lv_shape = (20,) if ck == "spherical" else (20, 4)
        m = baselines.W2gModel(vocab=vocab, cov_kind=ck, dim=4,
                               mean=rng.normal(scale=0.5, size=(20, 4)),
                               log_var=rng.normal(scale=0.3, size=lv_shape),
                               energy_kind=energy)
        center = int(rng.integers(20))
        pos = list(rng.integers(0, 20, size=2))
        neg = list(rng.integers(0, 20, size=2))
        worst_w2g = max(worst_w2g, oracles.kernel_gradcheck(
            partial(w2g_batch_gradients, m, margin=1.0), m.param_arrays(),
            single_window(center, pos, neg), 1e-6))

    elapsed = time.time() - t0
    worst = max(worst_bsg, worst_enc, worst_sg, worst_w2g)
    report(2, worst <= 1e-4 and elapsed < 60.0,
           f"gradient checks (100 configs each): max rel err "
           f"window={worst_bsg:.2g} encoder={worst_enc:.2g} sg={worst_sg:.2g} "
           f"w2g={worst_w2g:.2g}, {elapsed:.1f} s")


def test_criterion_3_elbo_bounded_by_marginal(report):
    rng = np.random.default_rng(12)
    t0 = time.time()
    failures = []
    for trial in range(20):
        V = int(rng.integers(8, 51))
        vocab = tiny_vocab(V)
        cfg = TrainConfig(dim=1, hidden_dim=3, param_dtype="float64")
        model = init_bsg_model(vocab, cfg, rng)
        for arr in model.param_arrays().values():
            arr += rng.normal(scale=0.4, size=arr.shape)
        center = int(rng.integers(V))
        ctx = list(rng.integers(0, V, size=3))
        # 10 independent chunks of 1e4 samples: mean is the 1e5-sample
        # estimate, spread gives the Monte-Carlo standard error
        chunks = [bsg.elbo_estimate(model, center, ctx, 10000,
                                    np.random.default_rng([13, trial, c]))
                  for c in range(10)]
        el = float(np.mean(chunks))
        stderr = float(np.std(chunks, ddof=1) / np.sqrt(len(chunks)))
        ml = oracles.marginal_loglik_oracle(model, center, ctx, 64)
        if el > ml + 3.0 * stderr:
            failures.append((trial, el, ml, stderr))
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 120.0,
           f"ELBO <= marginal log-likelihood + 3 MC stderr on 20 tiny models "
           f"({len(failures)} violations), {elapsed:.1f} s")


def test_criterion_4_polysemy_disambiguation(bsg_poly, report):
    spec, vocab, model, train_time = bsg_poly
    t0 = time.time()
    held = oracles.polysemy_spec(tokens_per_doc=1000, n_docs=3, seed=999)
    docs, tags = oracles.synth_corpus(held)
    stream = [t for doc in docs for t in doc]
    windows = [t for t in tags if t[1].startswith("poly")][:200]
    assert len(windows) == 200
    correct = 0
    for pos, word, group in windows:
        ctx = vocab.ids(stream[pos - 2:pos] + stream[pos + 1:pos + 3])
        q = model.posterior(vocab.lookup(word), ctx)
        wrong = next(g for g in held.groups if g != group)
        kl_true = np.mean([kl_divergence(q, model.prior_gaussian(vocab.lookup(w)))
                           for w in held.groups[group]])
        kl_wrong = np.mean([kl_divergence(q, model.prior_gaussian(vocab.lookup(w)))
                            for w in held.groups[wrong]])
        correct += int(kl_true < kl_wrong)
    frac = correct / len(windows)
    total = train_time + (time.time() - t0)
    report(4, frac >= 0.90 and total < 300.0,
           f"sense disambiguation on 200 held-out windows: {frac:.1%} "
           f"(>= 90% required), {total:.0f} s")


def test_criterion_5_hypernymy_direction_and_variance(tmp_path, report):
    spec = oracles.hypernymy_spec(tokens_per_doc=1000, n_docs=30, seed=0)
    path = tmp_path / "hyper.txt"
    oracles.write_synth_corpus(spec, path)
    vocab = build_vocabulary(iter_documents(path), 1000, 1, t=1e-2)
    cfg = TrainConfig(dim=10, window=2, epochs=5, seed=0, batch_size=512,
                      learning_rate=0.05, margin=2.0, subsample_t=1e-2)
    t0 = time.time()
    model = bsg.train(path, vocab, cfg)
    pairs = [EntailmentPair(a, b, True) for a, b in spec.gold_pairs]
    acc = eval_directionality(model, pairs)
    broader = sum(
        int(log_det_cov(model.prior_gaussian(vocab.lookup(hyper))) >
            log_det_cov(model.prior_gaussian(vocab.lookup(hypo))))
        for hypo, hyper in spec.gold_pairs)
    frac_broader = broader / len(spec.gold_pairs)
    elapsed = time.time() - t0
    report(5, acc >= 0.80 and frac_broader >= 0.80 and elapsed < 300.0,
           f"hypernymy: directionality {acc:.0%}, hypernym broader in "
           f"{broader}/{len(spec.gold_pairs)} pairs (>= 80% both), "
           f"{elapsed:.0f} s")


def test_criterion_6_metric_oracles(report):
    rng = np.random.default_rng(14)

    def gap_brute(ranked, full):
        # the definition, written out directly: precision-at-i averaged over
        # ranked gold hits, normalized by the ideal ranking's value
        num = sum(sum(ranked[:i]) / i
                  for i in range(1, len(ranked) + 1) if ranked[i - 1] > 0)
        ideal = sorted(full, reverse=True)
        ideal = ideal[:sum(1 for w in ideal if w > 0)]
        den = sum(sum(ideal[:i]) / i for i in range(1, len(ideal) + 1))
        return num / den

    gap_exact = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        full = [float(x) for x in rng.integers(0, 4, size=n)]
        if not any(w > 0 for w in full):
            full[0] = 1.0
        k = int(rng.integers(1, n + 1))
        perm = rng.permutation(n)[:k]
        ranked = [full[i] for i in perm]
        if gap(ranked, full) != gap_brute(ranked, full):
            gap_exact = False
            break

    corr_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 30))
        xs = rng.integers(0, 8, size=n).astype(float)
        ys = rng.normal(size=n)
        if len(set(xs)) == 1:
            continue
        corr_worst = max(
            corr_worst,
            abs(spearman(xs, ys) - scipy.stats.spearmanr(xs, ys).statistic),
            abs(pearson(xs, ys) - scipy.stats.pearsonr(xs, ys).statistic))

    f1_ok = True
    for _ in range(100):
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if not labels.any():
            labels[0] = 1
        _, best = best_f1_threshold(scores, labels)
        for t in rng.normal(scale=2.0, size=100):
            tp = int(np.sum((scores >= t) & (labels == 1)))
            fp = int(np.sum((scores >= t) & (labels == 0)))
            fn = int(np.sum((scores < t) & (labels == 1)))
            f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
            if best < f1 - 1e-12:
                f1_ok = False
    report(6, gap_exact and corr_worst <= 1e-12 and f1_ok,
           f"metric oracles: GAP exact on 1000 instances = {gap_exact}, "
           f"correlation max |diff| = {corr_worst:.2g}, best-F1 dominates "
           f"random thresholds = {f1_ok}")


def test_criterion_7_determinism_and_serialization(poly_corpus, tmp_path, report):
    _, corpus, _ = poly_corpus
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    argv = ["train", str(corpus), "--model", "bsg", "--dim", "6",
            "--window", "2", "--epochs", "1", "--batch-size", "512",
            "--subsample-t", "0.01", "--lr", "0.05", "--seed", "9"]
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    bundle = load_model(a)
    save_model(bundle, tmp_path / "a.txt", "text")
    back = load_model(tmp_path / "a.txt")
    text_ok = all(np.array_equal(bundle.arrays[k], back.arrays[k])
                  and bundle.arrays[k].dtype == back.arrays[k].dtype
                  for k in bundle.arrays)
    report(7, identical and text_ok,
           f"deterministic reruns byte-identical = {identical}, text "
           f"round-trip exact = {text_ok}")


def test_criterion_8_baseline_parity(poly_corpus, report):
    _, corpus, vocab = poly_corpus
    cfg = TrainConfig(dim=10, window=2, epochs=3, seed=0, batch_size=512,
                      subsample_t=1e-2, learning_rate=0.05)
    rates = {"bsg": 0.05, "sg": 0.005, "w2g_s": 0.01, "w2g_d": 0.01}
    trends, finite, streams_match = {}, {}, True

    stream_ref = None
    results = {}
    for kind, lr in rates.items():
        losses = []
        if kind == "bsg":
            model = bsg.train(corpus, vocab, cfg, epoch_losses=losses)
        else:
            model = train_baseline(kind, corpus, vocab, cfg,
                                   epoch_losses=losses, learning_rate=lr)
        finite[kind] = all(np.all(np.isfinite(arr))
                           for arr in model.param_arrays().values())
        trends[kind] = losses[-1] < losses[0]
        results[kind] = [round(x, 4) for x in losses]
        # every trainer draws its windows and negatives from data_rng(cfg),
        # so the first chunk of the stream must be identical across kinds
        from bayesgram.corpus import iter_training_windows
        stream = []
        it = iter_training_windows(corpus, vocab, cfg.window,
                                   cfg.negatives_per_positive,
                                   bsg.data_rng(cfg))
        for _ in range(500):
            stream.append(next(it))
        if stream_ref is None:
            stream_ref = stream
        elif stream != stream_ref:
            streams_match = False

    ok = all(finite.values()) and all(trends.values()) and streams_match
    report(8, ok,
           f"baseline parity: finite={all(finite.values())}, "
           f"loss decreased={trends}, shared stream={streams_match}")
