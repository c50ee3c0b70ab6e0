"""The embedding view and the array-based read path: nearest and the evals.

The per-word loops the read path replaced are kept here as oracles: the
vectorized code must return exactly what they return.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bayesgram import serialize
from bayesgram.baselines import init_sg_model, init_w2g_model
from bayesgram.bsg import TrainConfig, init_bsg_model
from bayesgram.corpus import context_tokens
from bayesgram.evaluate import (EntailmentPair, EvalError, LexsubInstance,
                                SimilarityPair, _ranks, add_mult_baseline,
                                best_f1_threshold,
                                eval_directionality, eval_entailment,
                                eval_similarity, lexsub_rank,
                                logdet_frequency_report)
from bayesgram.gauss import (Gaussian, cosine, cosine_bounds, cosine_finish, cosine_rows,
                             kl_bounds, kl_divergence, kl_rows, log_det_cov, row_sums)
from bayesgram.serialize import (EmbeddingView, SerializationError, bundle_from_model,
                                 embedding_view, load_model, nearest, save_model)

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


def add_mult_oracle(model, inst, window, mode):
    """The add/mult ranker over a word -> vector dict, one cosine at a time."""
    vectors = dict(zip(model.vocab.words, embedding_view(model).means))
    t = vectors[inst.target]
    ctx = [vectors[c] for c in context_tokens(inst.context_tokens, inst.target_index,
                                              window) if c in vectors]
    scored = []
    for pos, cand in enumerate(inst.candidates):
        if cand not in vectors:
            continue
        cos = [cosine(vectors[cand], u) for u in [t] + ctx]
        if mode == "add":
            score = sum(cos) / len(cos)
        else:
            score = float(np.prod([(c + 1.0) / 2.0 for c in cos])) ** (1.0 / len(cos))
        scored.append((-score, pos, cand))
    return [(cand, -s) for s, _, cand in sorted(scored)]


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


def density_tables(model):
    """(means, log-variances) of a bsg prior or a w2g model, the tables nearest reads."""
    return ((model.prior_mean, model.prior_log_var) if hasattr(model, "prior_mean")
            else (model.mean, model.log_var))


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

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_every_k_across_tied_blocks(self, kind, cov_kind, measure, monkeypatch):
        """The top k by partition is the prefix of the full stable sort for
        every k, including each k that cuts the tie group w2 w3 w4 w5 w9."""
        model = density_model(kind, cov_kind, V=11, d=5)
        for table in density_tables(model):
            table[[3, 4, 5, 9]] = table[2]     # blocks of 2 rows: 2-3 | 4-5 | ...
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * 5)
        tie, cuts = {"w2", "w3", "w4", "w5", "w9"}, 0
        for k in range(1, 13):
            got = check_nearest(model, "w0", k, measure)
            assert len(got) == min(k, 10)
            cuts += 0 < len(tie.intersection(w for w, _ in got)) < len(tie)
        assert cuts == 4

    @pytest.mark.parametrize("kind", ["bsg", "w2g"])
    @pytest.mark.parametrize("measure", MEASURES)
    def test_overflowed_kl_orders_as_a_stable_sort(self, kind, measure, monkeypatch):
        """A query log-variance of 705 overflows the KL to inf against w6 and
        w7 (log-variance -10), and to NaN against w8 and w10 (log-variance
        -800 where their mean equals the query's): those words score -inf,
        then NaN, after every finite score, each group by word id."""
        model = density_model(kind, "diagonal", V=11, d=5)
        mean, lv = density_tables(model)
        mean[[3, 4, 5, 9]] = mean[2]
        lv[[3, 4, 5, 9]] = lv[2]
        lv[0, :2] = 705.0
        lv[[6, 7], 0] = -10.0
        lv[[8, 10], 1] = -800.0
        mean[[8, 10], 1] = mean[0, 1]
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * 5)
        with np.errstate(over="ignore", invalid="ignore"):
            want = nearest_oracle(model, 0, 10, measure)
            want.sort(key=lambda t: (np.isnan(t[1]), 0.0 if np.isnan(t[1]) else -t[1], t[0]))
            for k in range(1, 13):
                got = nearest(bundle_from_model(model), "w0", k, measure)
                assert [w for w, _ in got] == [f"w{i}" for i, _ in want[:k]]
                np.testing.assert_allclose([s for _, s in got], [s for _, s in want[:k]],
                                           rtol=1e-12, atol=0)
        if measure == "neg_kl":
            assert [w for w, _ in got[6:]] == ["w6", "w7", "w8", "w10"]
            assert [s for _, s in got[6:8]] == [-np.inf, -np.inf]
            assert np.isnan([s for _, s in got[8:]]).all()

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

    @pytest.mark.parametrize("measure, table", [("cosine_mean", 0), ("neg_kl", 0), ("neg_kl", 1)],
                             ids=["cosine-mean", "neg_kl-mean", "neg_kl-log_var"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [1, 29], ids=["query-row", "last-partial-block"])
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_non_finite_in_query_row_or_last_block(self, measure, table, bad, row, cov_kind,
                                                   monkeypatch):
        """Blocks of 4 rows (0-3 | ... | 28-29): the check on the scan's result finds a
        bad value in the query's own row, which every KL then carries, and in the
        last, partial block."""
        model = density_model("w2g", cov_kind, V=30)
        t = density_tables(model)[table]
        t.reshape(len(t), -1)[row, -1] = bad
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 4 * 5)
        with pytest.raises(ValueError, match="^embedding parameters must be finite$"):
            nearest(bundle_from_model(model), "w1", 3, measure)


@st.composite
def corrupted_tables(draw):
    """(cov_kind, means, log-variances, block rows, query id, k) of a small w2g table:
    nonzero means in [-4, 4], log-variances in [-3, 3] or +-400 or +-800 (a KL may
    overflow); then perhaps one zero mean row, and up to two entries of either table
    set to NaN or +-inf."""
    V, d = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    cov_kind = draw(st.sampled_from(["spherical", "diagonal"]))
    mean = draw(hnp.arrays(np.float32, (V, d), elements=st.floats(-4, 4, width=32).filter(bool)))
    lv = draw(hnp.arrays(np.float32, (V, 1 if cov_kind == "spherical" else d),
                         elements=st.one_of(st.floats(-3, 3, width=32),
                                            st.sampled_from([-800.0, -400.0, 400.0, 800.0]))))
    if draw(st.integers(0, 4)) == 4:
        mean[draw(st.integers(0, V - 1))] = 0.0
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.sampled_from([mean, lv]))
        t[draw(st.integers(0, V - 1)), draw(st.integers(0, t.shape[1] - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return (cov_kind, mean, lv, draw(st.integers(1, V + 1)), draw(st.integers(0, V - 1)),
            draw(st.integers(1, V + 1)))


def nearest_or_error(mean, lv, qid, k, measure):
    """The error nearest raises, in its precedence, or its (id, score) list: every
    score of the whole table at once, then a stable sort, NaN last."""
    mu, lvs = mean.astype(np.float64), lv.astype(np.float64)
    if measure == "cosine_mean":
        if not mu[qid].any():
            return "undefined cosine: zero vector"
        if not np.isfinite(mu).all():
            return "embedding parameters must be finite"
        if not mu.any(axis=1).all():
            return "undefined cosine: zero vector"
        scores = cosine_rows(mu[qid], mu)
    else:
        if not (np.isfinite(mu).all() and np.isfinite(lvs).all()):
            return "embedding parameters must be finite"
        with np.errstate(over="ignore", invalid="ignore"):
            scores = -kl_rows(mu[qid], lvs[qid], mu, lvs)
    nan = np.isnan(scores)
    order = sorted((i for i in range(len(mu)) if i != qid),
                   key=lambda i: (nan[i], 0.0 if nan[i] else -scores[i], i))
    return [(i, scores[i]) for i in order[:k]]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(corrupted_tables(), st.sampled_from(MEASURES))
def test_nearest_raises_exactly_on_a_non_finite_stored_value(case, measure):
    """Blocks cast unchecked, a check on the scan's result: nearest raises the finite
    error exactly when a value it reads is not finite, else returns the oracle's
    words and scores; no RuntimeWarning escapes, KL overflow included."""
    cov_kind, mean, lv, block_rows, qid, k = case
    model = density_model("w2g", cov_kind, V=len(mean), d=mean.shape[1])
    model.mean[...] = mean
    model.log_var[...] = lv.reshape(model.log_var.shape)
    want = nearest_or_error(mean, lv, qid, k, measure)
    with mock.patch.object(serialize, "BLOCK_FLOATS", block_rows * mean.shape[1]), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{want}$"):
                nearest(bundle_from_model(model), f"w{qid}", k, measure)
            return
        got = nearest(bundle_from_model(model), f"w{qid}", k, measure)
    assert [w for w, _ in got] == [f"w{i}" for i, _ in want]
    np.testing.assert_array_equal([s for _, s in got], [s for _, s in want])


class TestNearestBySums:
    """Cosine nearest writes the row sums q.v and v.v of each block into two
    table-long arrays and finishes the cosine once over them."""

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    @pytest.mark.parametrize("d", [5, 101])    # a long row sums in another order than a short
    def test_scores_are_cosine_rows_bit_for_bit(self, kind, cov_kind, d, monkeypatch):
        model = density_model(kind, cov_kind, V=11, d=d)
        mean, _ = density_tables(model)
        mean[[3, 4, 5, 9]] = mean[2]           # blocks of 2 rows: 2-3 | 4-5 | ... | 8-9
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * d)
        table = mean.astype(np.float64)
        want = cosine_rows(table[0], table)
        order = sorted(range(1, 11), key=lambda i: (-want[i], i))
        tied = [i for i in order if want[i] == want[2]]
        assert tied == [2, 3, 4, 5, 9]
        for k in range(1, 13):
            got = nearest(bundle_from_model(model), "w0", k)
            assert [w for w, _ in got] == [f"w{i}" for i in order[:k]]
            assert np.array([s for _, s in got]).tobytes() == want[order[:k]].tobytes()

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS)
    @pytest.mark.parametrize("d", [5, 101])
    def test_neg_kl_scores_are_kl_rows_bit_for_bit(self, kind, cov_kind, d, monkeypatch):
        """Negated-KL nearest, its query tiled to a block's rows, gives each word the
        bits of -kl_rows of the (d,) query row against the whole table."""
        model = density_model(kind, cov_kind, V=11, d=d)
        for table in density_tables(model):
            table[[3, 4, 5, 9]] = table[2]     # blocks of 2 rows: 2-3 | 4-5 | ... | 8-9
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * d)
        mu, lv = (t.astype(np.float64).reshape(11, -1) for t in density_tables(model))
        want = -kl_rows(mu[0], lv[0], mu, lv)
        order = sorted(range(1, 11), key=lambda i: (-want[i], i))
        tied = [i for i in order if want[i] == want[2]]
        assert tied == [2, 3, 4, 5, 9]
        for k in range(1, 13):
            got = nearest(bundle_from_model(model), "w0", k, "neg_kl")
            assert [w for w, _ in got] == [f"w{i}" for i in order[:k]]
            assert np.array([s for _, s in got]).tobytes() == want[order[:k]].tobytes()

    def test_zero_query_raises_before_the_table_is_scanned(self, monkeypatch):
        model = density_model("w2g", "diagonal", V=11, d=5)
        model.mean[0] = 0.0
        model.mean[1, 2] = np.nan              # in the first block: a scan raises "finite"
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * 5)
        with pytest.raises(ValueError, match="^undefined cosine: zero vector$"):
            nearest(bundle_from_model(model), "w0", 3)

    @pytest.mark.parametrize("zero, bad, message",
                             [(8, None, "undefined cosine: zero vector"),
                              (2, 8, "embedding parameters must be finite"),
                              (8, 2, "embedding parameters must be finite")])
    def test_zero_row_and_non_finite_row(self, zero, bad, message, monkeypatch):
        """The whole table is checked finite before the one cosine finish, so
        a non-finite row is named whichever block holds the zero row."""
        model = density_model("w2g", "diagonal", V=11, d=5)
        model.mean[zero] = 0.0
        if bad is not None:
            model.mean[bad, 3] = np.inf
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * 5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            nearest(bundle_from_model(model), "w0", 3)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                        reason="longdouble is float64 here")
    @pytest.mark.parametrize("measure", MEASURES)
    def test_wide_float_past_float64_is_not_finite(self, measure):
        """Rows are checked finite as stored, except a float wider than
        float64, whose value may overflow the cast to float64."""
        model = density_model("w2g", "diagonal", V=11, d=5)
        model.mean = model.mean.astype(np.longdouble)
        model.mean[7, 1] = np.longdouble("1e400")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            nearest(bundle_from_model(model), "w0", 3, measure)


class TestNearestByBounds:
    """Past one block, negated-KL nearest scores with kl_rows only the rows whose
    kl_bounds may reach the top k + 1; those scores decide the order."""

    @staticmethod
    def ulp_chain(mu, lv, qid, row, n):
        """n copies of `row`, each mean moved by up to 100 float64 ulps per coordinate, so
        that their KLs against row qid, sorted, step by 1 or 2 ulps, and the upper bounds
        kl_bounds gives them are out of that order: (means, log-variances, KLs), by KL."""
        means = np.repeat(mu[row:row + 1], 800, 0)
        means += np.random.default_rng(1).integers(-100, 100, means.shape) * np.spacing(mu[row])
        lvs = np.repeat(lv[row:row + 1], 800, 0)
        kl = kl_rows(mu[qid], lv[qid], means, lvs)
        _, hi = kl_bounds(mu[qid:qid + 1], lv[qid:qid + 1], [(slice(None), (means, lvs))],
                          len(means), {})
        _, first = np.unique(kl, return_index=True)          # one row per KL, ascending
        gaps = np.diff(kl[first]) / np.spacing(kl[first][:-1])
        for i in range(len(first) - n + 1):
            pick = first[i:i + n]
            if np.isin(gaps[i:i + n - 1], (1.0, 2.0)).all() and (np.diff(hi[pick]) < 0).any():
                return means[pick], lvs[pick], kl[pick]
        raise AssertionError("no chain of 1-2 ulp KL steps")

    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_ulp_apart_kls_across_blocks_rank_as_the_whole_table(self, cov_kind,
                                                                 monkeypatch):
        """Six KLs 1-2 ulps apart, one of them twice, sit in scattered 2-row blocks among
        nearer and farther rows: for every k, one cut falling between each neighbouring
        pair, nearest returns the whole table's stable sort, words and score bits."""
        d, V = 4, 16
        model = density_model("w2g", cov_kind, V=V, d=d)
        model.mean, model.log_var = (t.astype(np.float64) for t in density_tables(model))
        mu, lv = model.mean, model.log_var.reshape(V, -1)
        means, lvs, kl = self.ulp_chain(mu, lv, 0, 5, 6)
        slots = [3, 8, 9, 12, 14, 15]                      # first, second, second of a pair...
        mu[slots], lv[slots] = means, lvs
        mu[6], lv[6] = means[2], lvs[2]                     # an exact tie with slot 9
        mu[[1, 10]] = mu[0] + 1e-3                          # nearer than the chain
        lv[[1, 10]] = lv[0]
        mu[[2, 4, 7, 11, 13]] += 5.0                        # farther
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 2 * d)
        want = -kl_rows(mu[0], lv[0], mu, lv)
        assert np.array_equal(-want[slots], kl) and want[6] == want[9]
        order = sorted(range(1, V), key=lambda i: (-want[i], i))
        assert order[:2] == [1, 10] and order[2:9] == [3, 8, 6, 9, 12, 14, 15]
        for k in range(1, V + 2):
            got = nearest(bundle_from_model(model), "w0", k, "neg_kl")
            assert [w for w, _ in got] == [f"w{i}" for i in order[:k]]
            assert np.array([s for _, s in got]).tobytes() == want[order[:k]].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_kl_rows_scores_few_rows_of_a_query_model(self, cov_kind, dtype, monkeypatch):
        """A 1k x 100 prior perturbed as the benchmark's query model is (seed 0), stored as
        float32 or cast to float64: each k = 10 query sends at most 64 of its 1,000 rows to
        kl_rows."""
        V, d = 1000, 100
        rng = np.random.default_rng([0, 1002])
        model = init_bsg_model(tiny_vocab(V), TrainConfig(dim=d, cov_kind=cov_kind, seed=0),
                               rng)
        model.prior_mean += rng.normal(0.0, 0.3, (V, d)).astype(np.float32)
        model.prior_log_var += rng.normal(0.0, 0.5, model.prior_log_var.shape).astype(
            np.float32)
        model.prior_mean, model.prior_log_var = (
            t.astype(dtype) for t in (model.prior_mean, model.prior_log_var))
        seen = []

        def counted(mu1, lv1, mu2, lv2):
            seen.append(len(mu2))
            return kl_rows(mu1, lv1, mu2, lv2)

        monkeypatch.setattr(serialize, "kl_rows", counted)
        b = bundle_from_model(model)
        for word in ("w0", "w1", "w17", "w500", "w998", "w999"):
            seen.clear()
            got = nearest(b, word, 10, "neg_kl")
            assert len(got) == 10 and 10 < sum(seen) <= 64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["query log-variance", "row log-variances", "row means"])
    def test_a_table_out_of_range_scores_every_row(self, case, dtype, monkeypatch):
        """If the query has a log-variance below -L, every row one above L (L = log(1/4t), t
        the dtype's least normal), or every row a mean whose square overflows, kl_bounds leaves
        every row unsure: kl_rows scores all 40 rows and they rank as the whole table."""
        model = density_model("w2g", "diagonal", V=40, d=7)
        model.mean, model.log_var = (t.astype(dtype) for t in density_tables(model))
        L = np.log(0.25 / np.finfo(dtype).tiny)
        if case == "query log-variance":
            model.log_var[0, 3] = -L - 1
        elif case == "row log-variances":
            model.log_var[:, 2] = L + 1
        else:
            model.mean[:, 0] = 2 * np.sqrt(np.finfo(dtype).max)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 3 * 7)
        seen = []

        def counted(mu1, lv1, mu2, lv2):
            seen.append(len(mu2))
            return kl_rows(mu1, lv1, mu2, lv2)

        monkeypatch.setattr(serialize, "kl_rows", counted)
        check_nearest(model, "w0", 5, "neg_kl")
        assert sum(seen) == 40

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_a_query_writes_nothing_into_the_model(self, cov_kind, dtype, monkeypatch):
        """Past one block, nearest by either measure and infer leave every array of the
        bundle with its dtype and bytes."""
        rng = np.random.default_rng(4)
        model = init_bsg_model(tiny_vocab(40), TrainConfig(dim=7, hidden_dim=4, cov_kind=cov_kind,
                                                           param_dtype=dtype), rng)
        model.prior_mean += rng.normal(size=model.prior_mean.shape).astype(dtype)
        model.prior_log_var += rng.normal(0.0, 0.5, model.prior_log_var.shape).astype(dtype)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 3 * 7)
        b = bundle_from_model(model)
        before = {name: (a.dtype, a.tobytes()) for name, a in b.arrays.items()}
        for word in ("w0", "w17", "w39"):
            for measure in MEASURES:
                nearest(b, word, 5, measure)
            serialize.infer(b, ["w1", word, "w2"], 1, 1)
        assert {name: (a.dtype, a.tobytes()) for name, a in b.arrays.items()} == before

    def test_the_kl_sums_are_built_once(self):
        """The first negated-KL query fills the view's kl_sums; later queries reuse them, and
        they give the bounds of a fresh pass, bit for bit."""
        b = bundle_from_model(query_model())
        view = embedding_view(b)
        assert "kl_sums" not in vars(view)
        nearest(b, "w1", 10, "neg_kl")
        sums = dict(view.kl_sums)
        nearest(b, "w17", 10, "neg_kl")
        assert view.kl_sums.keys() == {"c", "w"}
        assert all(view.kl_sums[k] is sums[k] for k in sums)
        mu, lv = view.density_rows(slice(17, 18))
        blocks = list(view.blocks(lambda s: (view.means[s], view.log_vars[s])))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = kl_bounds(mu, lv, blocks, 1000, sums), kl_bounds(mu, lv, blocks, 1000, {})
        assert np.array(got).tobytes() == np.array(want).tobytes()


@st.composite
def cosine_cases(draw):
    """(float64 table, query id): entries in [-4, 4], none within 2^-20 of 0, each times 1,
    1e-30 or 1e-160 (products that underflow float32 or float64 inside a row of ordinary
    norm); then perhaps one row times 1e19 or 1e-30 (its norm leaves [2^-40, 2^60]), a row
    equal to the query's times 1, -1 or 2 (a cosine clipped to +-1), a zero row, and up to
    two NaN or +-inf entries."""
    V, d = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    t = draw(hnp.arrays(np.float64, (V, d), elements=st.builds(
        lambda m, sign: sign * m, st.floats(2.0 ** -20, 4), st.sampled_from([1.0, -1.0]))))
    t *= draw(hnp.arrays(np.float64, (V, d),
                         elements=st.sampled_from([1.0] * 4 + [1e-30, 1e-160])))
    qid, row = draw(st.integers(0, V - 1)), st.integers(0, V - 1)
    if draw(st.integers(0, 3)) == 3:
        t[draw(row)] *= draw(st.sampled_from([1e19, 1e-30]))
    if draw(st.booleans()):
        t[draw(row)] = t[qid] * draw(st.sampled_from([1.0, -1.0, 2.0]))
    if draw(st.integers(0, 4)) == 4:
        t[draw(row)] = 0.0
    for _ in range(max(0, draw(st.integers(-6, 2)))):
        t[draw(row), draw(st.integers(0, d - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    return t, qid


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cosine_cases())
def test_cosine_bounds_hold_for_every_row_or_it_is_unsure(dtype, case):
    """Every row's float64 cosine key, as nearest scores it, lies in cosine_bounds's [lo, hi],
    or the row is unsure: nearest filters only when the query's norm and every row's are in
    [2^-40, 2^60] (so not for a NaN, an inf or a zero row), and else scores every row."""
    table, qid = case[0].astype(dtype), case[1]
    t64 = table.astype(np.float64)
    with np.errstate(all="ignore"):
        nv = np.sqrt(row_sums(t64, t64))
        key = -cosine_finish(row_sums(t64[qid], t64), nv[qid], nv)
    _, _, norms, least, most = EmbeddingView(tiny_vocab(len(table)), table).cosine_tables
    assert norms.tobytes() == nv.tobytes()
    assert np.array_equal([least, most], [nv.min(), nv.max()], equal_nan=True)
    if not (2.0 ** -40 <= nv.min() and nv.max() <= 2.0 ** 60):
        return                          # every row is unsure
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key64, b = cosine_bounds(table @ table[qid], nv[qid], nv, table.shape[1])
        lo, hi = key64 - b, key64 + b
    assert ((lo <= key) & (key <= hi)).all()


def query_model(V=1000, d=100, dtype=np.float32):
    """A V x d bsg prior perturbed as the benchmark's query model is (seed 0)."""
    rng = np.random.default_rng([0, 1002])
    model = init_bsg_model(tiny_vocab(V), TrainConfig(dim=d, seed=0), rng)
    model.prior_mean = (model.prior_mean + rng.normal(0.0, 0.3, (V, d))).astype(dtype)
    return model


def counted_row_sums(monkeypatch):
    """Patch serialize.row_sums to count the rows it sums; returns the list of counts."""
    seen = []

    def counted(a, b, out=None):
        seen.append(int(np.prod(np.broadcast_shapes(a.shape, b.shape)[:-1])))
        return row_sums(a, b, out=out)

    monkeypatch.setattr(serialize, "row_sums", counted)
    return seen


class TestOneViewPerBundle:
    """A bundle builds its EmbeddingView on first use and keeps it; the view caches the
    cosine norms on its first cosine query."""

    def test_the_view_is_built_once(self, tmp_path):
        save_model(bundle_from_model(density_model("bsg", "diagonal")), tmp_path / "m.bin")
        b = load_model(tmp_path / "m.bin")
        assert "view" not in vars(b)
        view = embedding_view(b)
        assert embedding_view(b) is view and embedding_view(view) is view
        assert "cosine_tables" not in vars(view)
        nearest(b, "w1", 3)
        assert vars(b)["view"] is view and "cosine_tables" in vars(view)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_repeated_query_sums_only_the_refined_rows(self, dtype, monkeypatch):
        model = query_model(dtype=dtype)
        b, seen = bundle_from_model(model), counted_row_sums(monkeypatch)
        for i, word in enumerate(("w0", "w1", "w17", "w500", "w998", "w999")):
            seen.clear()
            got = nearest(b, word, 10)
            assert len(got) == 10
            table = 1000 * (i == 0)     # the first query also sums the table's v.v, once
            assert 10 < sum(seen) - table <= 64
        check_nearest(model, "w17", 10, "cosine_mean")

    def test_a_norm_out_of_range_scores_every_row(self, monkeypatch):
        model = density_model("w2g", "diagonal", V=40, d=7)
        model.mean = model.mean.astype(np.float64)
        model.mean[23] *= 1e-13                 # a norm below 2^-40
        b, seen = bundle_from_model(model), counted_row_sums(monkeypatch)
        for word in ("w0", "w23"):      # the first query also sums the table's v.v
            check_nearest(model, word, 5, "cosine_mean")
            seen.clear()
            nearest(b, word, 5)
            assert sum(seen) == 40 * (1 + (word == "w0"))

    def test_a_changed_model_gets_a_new_bundle(self):
        model = density_model("w2g", "diagonal", V=40, d=7)
        b = bundle_from_model(model)
        before = nearest(b, "w0", 3)
        model.mean[17] = 2 * model.mean[0]
        assert nearest(bundle_from_model(model), "w0", 3)[0] == ("w17", 1.0) != before[0]
        check_nearest(model, "w0", 3, "cosine_mean")

    @pytest.mark.parametrize("zero, bad, word, message",
                             [(8, None, "w8", "undefined cosine: zero vector"),
                              (8, 2, "w0", "embedding parameters must be finite"),
                              (8, None, "w0", "undefined cosine: zero vector")])
    def test_the_cached_norms_keep_the_errors(self, zero, bad, word, message):
        """Every query over a view with cached norms raises as the first did: a zero query,
        then a non-finite value, then a zero row."""
        model = density_model("w2g", "diagonal", V=11, d=5)
        model.mean[zero] = 0.0
        if bad is not None:
            model.mean[bad, 3] = np.nan
        b = bundle_from_model(model)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                nearest(b, word, 3)
        assert "cosine_tables" in vars(embedding_view(b))

    def test_infer_reads_the_bundles_view(self, monkeypatch):
        model = density_model("bsg", "diagonal")
        b, built = bundle_from_model(model), []
        monkeypatch.setattr(serialize, "model_from_bundle",
                            lambda bundle: built.append(bundle) or model)
        g = [serialize.infer(b, ["w1", "w2", "w3"], 1, 1) for _ in range(3)]
        nearest(b, "w1", 3)
        assert built == [b]
        want = model.posterior(2, [1, 3])
        assert all(np.array_equal(x.mean, want.mean) for x in g)

    def test_near_ties_rank_as_the_whole_table(self, monkeypatch):
        """Rows a few float32 ulps from the query's differ in cosine by less than the
        filter's bound, so the filter keeps them all and their exact scores decide: for
        every k, words and bits are the whole table's stable sort."""
        model = density_model("w2g", "diagonal", V=40, d=5)
        rng = np.random.default_rng(3)
        steps = rng.integers(-3, 4, (30, 5)) * np.spacing(model.mean[0])
        model.mean[10:] = model.mean[0] + steps.astype(np.float32)
        model.mean[[12, 20]] = model.mean[15]
        table = model.mean.astype(np.float64)
        want = cosine_rows(table[0], table)
        order = sorted(range(1, 40), key=lambda i: (-want[i], i))
        assert len(set(want[10:])) > 5
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 3 * 5)
        b = bundle_from_model(model)
        for k in range(1, 42):
            got = nearest(b, "w0", k)
            assert [w for w, _ in got] == [f"w{i}" for i in order[:k]]
            assert np.array([s for _, s in got]).tobytes() == want[order[:k]].tobytes()


def kl_query_model(cov_kind, dtype, V=1000, d=100):
    """A V x d bsg prior, mean and log-variance perturbed as the benchmark's query model
    is (seed 0), stored as float32 or cast to float64."""
    rng = np.random.default_rng([0, 1002])
    model = init_bsg_model(tiny_vocab(V), TrainConfig(dim=d, cov_kind=cov_kind, seed=0), rng)
    model.prior_mean += rng.normal(0.0, 0.3, (V, d)).astype(np.float32)
    model.prior_log_var += rng.normal(0.0, 0.5, model.prior_log_var.shape).astype(np.float32)
    model.prior_mean, model.prior_log_var = (
        t.astype(dtype) for t in (model.prior_mean, model.prior_log_var))
    return model


def own_arrays(view, bundle):
    """The arrays a view caches that share no memory with the bundle's arrays."""
    def arrays(x):
        if isinstance(x, np.ndarray):
            return [x]
        items = x.values() if isinstance(x, dict) else x if isinstance(x, tuple) else ()
        return [a for item in items for a in arrays(item)]

    return [a for a in arrays(tuple(vars(view).values()))
            if not any(np.shares_memory(a, t) for t in bundle.arrays.values())]


class TestKlTables:
    """From a view's second negated-KL query on, kl_bounds reads the view's kl_tables,
    (e^-lv, e^-lv means) in the stored dtype, through one product each; the first query
    streams the table by blocks and keeps only the two |V|-long kl_sums."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    @pytest.mark.parametrize("size", ["40 x 7, 3-row blocks", "1k x 100"])
    def test_repeated_queries_give_fresh_bundle_results(self, size, cov_kind, dtype,
                                                         monkeypatch):
        """One bundle queried word after word (the first query streams, the second builds
        the tables, the rest read them) returns, for each word, the words and score bits of
        a fresh bundle's first query."""
        if size == "1k x 100":
            model, words = kl_query_model(cov_kind, dtype), ["w0", "w17", "w500", "w999"]
        else:
            model = density_model("w2g", cov_kind, V=40, d=7)
            model.mean, model.log_var = (t.astype(dtype) for t in density_tables(model))
            words = ["w0", "w17", "w39", "w5"]
            monkeypatch.setattr(serialize, "BLOCK_FLOATS", 3 * 7)
        b = bundle_from_model(model)
        for word, k in zip(words + words[::-1], [10, 1, 30, 10, 5, 10, 1, 30]):
            got = nearest(b, word, k, "neg_kl")
            want = nearest(bundle_from_model(model), word, k, "neg_kl")
            assert [w for w, _ in got] == [w for w, _ in want] and len(got) == k
            assert np.array([s for _, s in got]).tobytes() == np.array(
                [s for _, s in want]).tobytes()
        assert "kl_tables" in vars(embedding_view(b))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    def test_the_tables_are_built_on_the_second_query(self, cov_kind, dtype, monkeypatch):
        """After infer and one negated-KL query the view holds only the two |V|-long sums;
        cosine queries and infer build no KL table; the second negated-KL query builds
        e^-lv and e^-lv means as stored, (V, 1 or d) and (V, d), which later queries of any
        kind reuse."""
        V, d = 40, 7
        rng = np.random.default_rng(4)
        model = init_bsg_model(tiny_vocab(V), TrainConfig(dim=d, hidden_dim=4, cov_kind=cov_kind,
                                                          param_dtype=dtype), rng)
        model.prior_mean += rng.normal(size=model.prior_mean.shape).astype(dtype)
        monkeypatch.setattr(serialize, "BLOCK_FLOATS", 3 * 7)
        b = bundle_from_model(model)
        view = embedding_view(b)
        serialize.infer(b, ["w1", "w3", "w2"], 1, 1)
        nearest(b, "w3", 5, "neg_kl")
        own = own_arrays(view, b)
        assert [a.shape for a in own] == [(V,), (V,)] and set(view.kl_sums) == {"c", "w"}
        assert all(any(a is s for s in view.kl_sums.values()) for a in own)
        for word in ("w0", "w17"):
            nearest(b, word, 5)
            serialize.infer(b, ["w1", word, "w2"], 1, 1)
        assert "kl_tables" not in vars(view)
        nearest(b, "w4", 5, "neg_kl")
        e, em = vars(view)["kl_tables"]
        lv = model.prior_log_var.reshape(V, -1)
        assert e.dtype == em.dtype == np.dtype(dtype)
        assert e.shape == (V, 1 if cov_kind == "spherical" else d) and em.shape == (V, d)
        assert e.tobytes() == np.exp(-lv).tobytes()
        assert em.tobytes() == (np.exp(-lv) * model.prior_mean).tobytes()
        for word in ("w5", "w6"):
            for measure in MEASURES:
                nearest(b, word, 5, measure)
            serialize.infer(b, ["w1", word, "w2"], 1, 1)
        assert vars(view)["kl_tables"][0] is e and vars(view)["kl_tables"][1] is em


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

    @pytest.mark.parametrize("kind,cov_kind", DENSITY_KINDS + [("sg", None)])
    @pytest.mark.parametrize("mode", ["add", "mult"])
    def test_add_mult(self, kind, cov_kind, mode):
        if kind == "sg":
            model = init_sg_model(tiny_vocab(10), TrainConfig(dim=5),
                                  np.random.default_rng(7))
        else:
            model = density_model(kind, cov_kind, V=10)
        inst = LexsubInstance("w3", 2, ("w1", "w9", "w3", "w4", "qq"),
                              ("w7", "zz", "w0", "w5", "w2"), {"w5": 1.0})
        got = add_mult_baseline(bundle_from_model(model), inst, window=2, mode=mode)
        want = add_mult_oracle(model, inst, 2, mode)
        assert [c for c, _ in got] == [c for c, _ in want] + ["zz"]
        assert got[-1] == ("zz", None)
        for (_, s), (_, t) in zip(got, want):
            assert s == pytest.approx(t, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_raises_in_every_context_reader(self, window):
        """context_tokens, behind lexsub_rank, add_mult_baseline and infer, refuses a
        window that would leave only the target word."""
        model = density_model("bsg", "diagonal", V=10)
        inst = LexsubInstance("w3", 1, ("w1", "w3", "w4"), ("w7", "w0"), {"w0": 1.0})
        with pytest.raises(ValueError, match="^window must be >= 1$"):
            context_tokens(inst.context_tokens, 1, window)
        for call in (lambda: lexsub_rank(model, inst, window),
                     lambda: add_mult_baseline(model, inst, window, "add"),
                     lambda: add_mult_baseline(model, inst, window, "mult"),
                     lambda: serialize.infer(bundle_from_model(model),
                                             list(inst.context_tokens), 1, window)):
            with pytest.raises(ValueError, match="^window must be >= 1$"):
                call()

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
