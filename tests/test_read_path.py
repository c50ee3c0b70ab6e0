"""The embedding view and the array-based read path: nearest and the evals.

The per-word loops the read path replaced are kept here as oracles: the
vectorized code must return exactly what they return.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesgram import serialize
from bayesgram.baselines import init_sg_model, init_w2g_model
from bayesgram.bsg import TrainConfig, init_bsg_model
from bayesgram.evaluate import (EntailmentPair, EvalError, LexsubInstance,
                                SimilarityPair, _ranks, best_f1_threshold,
                                eval_directionality, eval_entailment,
                                eval_similarity, lexsub_rank,
                                logdet_frequency_report)
from bayesgram.gauss import Gaussian, cosine, kl_divergence, log_det_cov
from bayesgram.serialize import (SerializationError, bundle_from_model,
                                 embedding_view, nearest)

from helpers import tiny_vocab


# ------------------------------------------------------------------ oracles

def ranks_oracle(xs):
    """Average ranks (1-based) with tie averaging, one group at a time."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def best_f1_oracle(scores, labels):
    """Best `score >= t` threshold, every candidate counted in full."""
    labels = [bool(b) for b in labels]
    if not any(labels):
        raise EvalError("no positive labels")
    distinct = sorted(set(float(s) for s in scores))
    candidates = [-np.inf]
    candidates += [0.5 * a + 0.5 * b for a, b in zip(distinct, distinct[1:])]
    candidates.append(np.inf)
    best_t, best_f1 = None, -1.0
    for t in sorted(candidates):
        tp = fp = fn = 0
        for s, y in zip(scores, labels):
            pred = s >= t
            if pred and y:
                tp += 1
            elif pred:
                fp += 1
            elif y:
                fn += 1
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1:
            best_t, best_f1 = t, f1
    return best_t, best_f1


def prior(model, i):
    """One word's density, built per word as the read path used to."""
    if hasattr(model, "prior_mean"):
        return Gaussian(model.prior_mean[i], model.prior_log_var[i])
    return Gaussian(model.mean[i], model.log_var[i])


def nearest_oracle(model, qid, k, measure):
    """(id, score) of every other word, best first, ties by id; top k."""
    scored = []
    for i in range(len(model.vocab)):
        if i == qid:
            continue
        if measure == "cosine_mean":
            s = cosine(prior(model, qid).mean, prior(model, i).mean)
        else:
            s = -kl_divergence(prior(model, qid), prior(model, i))
        scored.append((i, s))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


# ------------------------------------------------------------------- models

def density_model(kind, cov_kind, V=12, d=5, seed=0):
    """A bsg or w2g model with perturbed float32 tables."""
    vocab = tiny_vocab(V)
    cfg = TrainConfig(dim=d, hidden_dim=4, cov_kind=cov_kind)
    rng = np.random.default_rng(seed)
    if kind == "bsg":
        model = init_bsg_model(vocab, cfg, rng)
        mean, lv = model.prior_mean, model.prior_log_var
    else:
        model = init_w2g_model(vocab, cfg, rng, cov_kind)
        mean, lv = model.mean, model.log_var
    mean += rng.normal(size=mean.shape).astype(mean.dtype)
    lv += rng.normal(scale=0.5, size=lv.shape).astype(lv.dtype)
    return model


DENSITY_KINDS = [("bsg", "spherical"), ("bsg", "diagonal"),
                 ("w2g", "spherical"), ("w2g", "diagonal")]
MEASURES = ["cosine_mean", "neg_kl"]


def check_nearest(model, word, k, measure):
    got = nearest(bundle_from_model(model), word, k, measure)
    want = nearest_oracle(model, model.vocab.lookup(word), k, measure)
    assert [w for w, _ in got] == [model.vocab.word(i) for i, _ in want]
    for (_, s), (_, t) in zip(got, want):
        assert s == pytest.approx(t, rel=1e-12, abs=0.0)
    return got


# ------------------------------------------------------------------ the view

class TestEmbeddingView:
    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    def test_density_tables_are_shared(self, kind, cov_kind):
        model = density_model(kind, cov_kind)
        mean, lv = ((model.prior_mean, model.prior_log_var) if kind == "bsg"
                    else (model.mean, model.log_var))
        for source in (model, bundle_from_model(model)):
            view = embedding_view(source)
            assert view.vocab is model.vocab
            assert np.shares_memory(view.means, mean)
            assert np.shares_memory(view.log_vars, lv)
            assert view.log_vars.shape == (12, 1 if cov_kind == "spherical" else 5)
            assert (view.posterior is None) == (kind == "w2g")

    def test_sg_has_means_only(self):
        model = init_sg_model(tiny_vocab(6), TrainConfig(dim=3),
                              np.random.default_rng(0))
        view = embedding_view(bundle_from_model(model))
        assert np.shares_memory(view.means, model.in_vec)
        assert view.log_vars is None and view.posterior is None
        with pytest.raises(SerializationError, match="no density"):
            view.density_rows([0])

    def test_bsg_posterior_is_the_encoder(self):
        model = density_model("bsg", "diagonal")
        view = embedding_view(bundle_from_model(model))
        got, want = view.posterior(3, [1, 2]), model.posterior(3, [1, 2])
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.log_var, want.log_var)

    def test_rows_are_float64_and_checked(self):
        model = density_model("w2g", "diagonal")
        mu, lv = embedding_view(model).density_rows(np.array([2, 0]))
        assert mu.dtype == lv.dtype == np.float64
        assert np.array_equal(mu, model.mean[[2, 0]].astype(np.float64))
        model.log_var[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            embedding_view(model).density_rows([0])


# ------------------------------------------------------------------ nearest

class TestNearest:
    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_matches_per_word_scores(self, kind, cov_kind, measure):
        model = density_model(kind, cov_kind, V=40, d=7)
        for word in ("w0", "w7", "w39"):
            check_nearest(model, word, 10, measure)

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_duplicates_across_block_boundary(self, kind, cov_kind, measure,
                                              monkeypatch):
        model = density_model(kind, cov_kind, V=11, d=5)
        tables = ((model.prior_mean, model.prior_log_var) if kind == "bsg"
                  else (model.mean, model.log_var))
        for table in tables:
            table[[3, 4, 5, 9]] = table[2]     # blocks of 2 rows: 2-3 | 4-5 | ...
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * 5)
        got = check_nearest(model, "w0", 10, measure)
        tied = [w for w, s in got if s == dict(got)["w2"]]
        assert tied == ["w2", "w3", "w4", "w5", "w9"]

    @pytest.mark.parametrize("block_floats", [1, 3, 7, 10 ** 6])
    def test_block_size_does_not_change_the_result(self, block_floats, monkeypatch):
        model = density_model("w2g", "diagonal", V=23, d=3)
        want = [nearest(bundle_from_model(model), "w5", 22, m) for m in MEASURES]
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", block_floats)
        assert [nearest(bundle_from_model(model), "w5", 22, m) for m in MEASURES] == want

    @pytest.mark.parametrize("measure", MEASURES)
    def test_k_at_least_vocabulary(self, measure):
        model = density_model("bsg", "diagonal", V=9)
        for k in (8, 9, 50):
            got = check_nearest(model, "w4", k, measure)
            assert sorted(w for w, _ in got) == [f"w{i}" for i in range(9) if i != 4]

    def test_single_word_vocabulary(self):
        model = density_model("w2g", "spherical", V=1)
        assert nearest(bundle_from_model(model), "w0", 3, "neg_kl") == []

    def test_zero_vector(self):
        model = density_model("w2g", "diagonal")
        model.mean[6] = 0.0
        b = bundle_from_model(model)
        with pytest.raises(ValueError, match="zero vector"):
            nearest(b, "w0", 3)
        nearest(b, "w0", 3, measure="neg_kl")   # KL is defined at a zero mean

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows(self, measure, bad):
        model = density_model("bsg", "diagonal", V=30)
        model.prior_mean[17, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nearest(bundle_from_model(model), "w1", 3, measure)
        if measure == "neg_kl":
            model = density_model("w2g", "spherical", V=30)
            model.log_var[29] = bad
            with pytest.raises(ValueError, match="finite"):
                nearest(bundle_from_model(model), "w1", 3, measure)


# -------------------------------------------------------------------- evals

def pairs_for(vocab, rng, n, labelled):
    ids = rng.integers(0, len(vocab), size=(n, 2))
    words = [(vocab.word(i), vocab.word(j)) for i, j in ids] + [("w0", "zzz")]
    if labelled:
        return [EntailmentPair(a, b, bool(k % 2)) for k, (a, b) in enumerate(words)]
    return [SimilarityPair(a, b, float(k % 7)) for k, (a, b) in enumerate(words)]


class TestEvalsMatchPerWordLoops:
    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    def test_entailment_and_direction(self, kind, cov_kind):
        model = density_model(kind, cov_kind, V=20)
        pairs = pairs_for(model.vocab, np.random.default_rng(1), 60, True)
        used = pairs[:-1]
        ids = [(model.vocab.lookup(p.word1), model.vocab.lookup(p.word2)) for p in used]
        neg_kl = [-kl_divergence(prior(model, i), prior(model, j)) for i, j in ids]
        f1, t, scores, labels, n_oov = eval_entailment(model, pairs)
        assert scores == neg_kl and n_oov == 1
        assert (t, f1) == best_f1_oracle(neg_kl, [p.label for p in used])
        cos = [cosine(prior(model, i).mean, prior(model, j).mean) for i, j in ids]
        assert eval_entailment(model, pairs, "cosine")[2] == cos
        fwd = sum(kl_divergence(prior(model, i), prior(model, j))
                  <= kl_divergence(prior(model, j), prior(model, i)) for i, j in ids)
        assert eval_directionality(model, pairs) == fwd / len(ids)

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    def test_logdet_report(self, kind, cov_kind):
        model = density_model(kind, cov_kind, V=15)
        rows, r = logdet_frequency_report(model, model.vocab)
        assert [x[2] for x in rows] == [log_det_cov(prior(model, i)) for i in range(15)]
        assert [x[1] for x in rows] == [float(np.log(c)) for c in model.vocab.counts]
        assert r is not None

    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_lexsub_one_kl_over_candidates(self, cov_kind):
        model = density_model("bsg", cov_kind, V=10)
        inst = LexsubInstance("w3", 2, ("w1", "w9", "w3", "w4", "qq"),
                              ("w7", "zz", "w0", "w5", "w2"), {"w5": 1.0})
        got = lexsub_rank(bundle_from_model(model), inst, window=2)
        q = model.posterior(3, [1, 9, 4])
        want = sorted(((kl_divergence(q, prior(model, int(c[1:]))), pos, c)
                       for pos, c in enumerate(inst.candidates) if c != "zz"))
        assert got == [(c, s) for s, _, c in want] + [("zz", None)]

    def test_lexsub_needs_an_encoder(self):
        model = density_model("w2g", "diagonal")
        inst = LexsubInstance("w3", 0, ("w3", "w1"), ("w2",), {"w2": 1.0})
        with pytest.raises(SerializationError, match="no encoder"):
            lexsub_rank(model, inst, window=2)


class TestEvalsOnBaselines:
    def sg(self):
        model = init_sg_model(tiny_vocab(10), TrainConfig(dim=4),
                              np.random.default_rng(2))
        model.in_vec += np.random.default_rng(3).normal(
            size=model.in_vec.shape).astype(np.float32)
        return model

    def test_sg_similarity_and_cosine_entailment(self):
        model = self.sg()
        rng = np.random.default_rng(4)
        rho, n_used, n_oov = eval_similarity(model, pairs_for(model.vocab, rng, 30, False))
        assert -1.0 <= rho <= 1.0 and (n_used, n_oov) == (30, 1)
        f1, *_ = eval_entailment(model, pairs_for(model.vocab, rng, 30, True), "cosine")
        assert 0.0 < f1 <= 1.0

    def test_sg_density_evals_refuse(self):
        model = self.sg()
        pairs = pairs_for(model.vocab, np.random.default_rng(5), 5, True)
        for call in (lambda: eval_entailment(model, pairs),
                     lambda: eval_directionality(model, pairs),
                     lambda: logdet_frequency_report(model, model.vocab)):
            with pytest.raises(SerializationError, match="no density embeddings"):
                call()

    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_w2g_evals_run(self, cov_kind):
        model = density_model("w2g", cov_kind, V=16)
        pairs = pairs_for(model.vocab, np.random.default_rng(6), 40, True)
        assert 0.0 < eval_entailment(model, pairs)[0] <= 1.0
        assert 0.0 <= eval_directionality(model, pairs) <= 1.0
        rows, _ = logdet_frequency_report(bundle_from_model(model), model.vocab)
        assert len(rows) == 16


# ---------------------------------------------------- ranks and best-F1 sweep

# a small pool makes ties common; the wide strategy covers magnitudes
# where midpoints round onto a neighbour or overflow to infinity
TIED = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.25, 1.0, 3.0])
WIDE = st.floats(allow_nan=False, allow_infinity=False)
# neighbouring floats, whose midpoint rounds onto one of them
ADJACENT = st.floats(-1e300, 1e300).flatmap(lambda x: st.lists(st.sampled_from(
    [x, float(np.nextafter(x, np.inf)), float(np.nextafter(x, -np.inf))]), max_size=20))
SCORES = st.one_of(st.lists(TIED, max_size=40), st.lists(WIDE, max_size=40),
                   st.lists(st.one_of(TIED, WIDE), max_size=40), ADJACENT)


class TestVectorizedStatistics:
    @settings(max_examples=300, deadline=None)
    @given(SCORES)
    def test_ranks_equal_loop(self, xs):
        assert np.array_equal(_ranks(xs), ranks_oracle(xs))

    @settings(max_examples=300, deadline=None)
    @given(SCORES.flatmap(lambda xs: st.tuples(
        st.just(xs), st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))))
    def test_best_f1_equal_loop(self, case):
        scores, labels = case
        if not any(labels):
            with pytest.raises(EvalError, match="no positive"):
                best_f1_threshold(scores, labels)
            return
        assert best_f1_threshold(scores, labels) == best_f1_oracle(scores, labels)

    def test_best_f1_ties_resolve_low(self):
        # every threshold in (-inf, 1] labels all positive: the lowest wins
        assert best_f1_threshold([1.0, 2.0, 3.0], [1, 1, 1]) == (-np.inf, 1.0)
        assert best_f1_threshold([1.0, 1.0, 2.0], [0, 0, 1]) == (1.5, 1.0)

    def test_midpoint_rounding_onto_a_score(self):
        # the midpoint of 1 and its successor is 1 itself, and `1 >= 1` holds
        scores = [1.0, float(np.nextafter(1.0, 2.0))]
        assert best_f1_threshold(scores, [0, 1]) == (-np.inf, 2 / 3)
