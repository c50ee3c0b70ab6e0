import io

import numpy as np
import pytest
import scipy.stats

from bayesgram.corpus import Vocabulary
from bayesgram.evaluate import (EntailmentPair, EvalError, LexsubInstance,
                                SimilarityPair, add_mult_baseline,
                                best_f1_threshold, eval_directionality,
                                eval_entailment, eval_similarity,
                                frequency_direction_baseline, gap,
                                lexsub_rank, load_entailment_pairs,
                                load_lexsub_instances, load_similarity_pairs,
                                logdet_frequency_report, pearson, spearman)
from bayesgram.gauss import Gaussian, kl_divergence


class DensityModel:
    """Duck-typed stand-in: explicit per-word priors and a fixed posterior."""

    def __init__(self, words, means, log_vars, counts=None, post=None):
        counts = counts if counts is not None else np.ones(len(words), int)
        self.vocab = Vocabulary(list(words), np.asarray(counts))
        self.means = [np.atleast_1d(np.asarray(m, float)) for m in means]
        self.log_vars = [np.asarray(v, float) for v in log_vars]
        self.post = post

    def prior_gaussian(self, i):
        return Gaussian(self.means[i], self.log_vars[i])

    def posterior(self, center, contexts):
        return self.post


class TestCorrelations:
    def test_spearman_hand_value(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_pearson_hand_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(
            0.9819805060619659, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        base = spearman(xs, ys)
        assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
        assert spearman(xs ** 3, ys) == pytest.approx(base, abs=1e-12)

    def test_against_scipy_no_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xs = rng.normal(size=20)
            ys = rng.normal(size=20)
            assert spearman(xs, ys) == pytest.approx(
                scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)
            assert pearson(xs, ys) == pytest.approx(
                scipy.stats.pearsonr(xs, ys).statistic, abs=1e-12)

    def test_against_scipy_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.integers(0, 5, size=25).astype(float)
            ys = rng.integers(0, 5, size=25).astype(float)
            if len(set(xs)) == 1 or len(set(ys)) == 1:
                continue
            assert spearman(xs, ys) == pytest.approx(
                scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(EvalError, match="constant"):
            spearman([1, 1, 1], [1, 2, 3])
        with pytest.raises(EvalError, match="constant"):
            pearson([2, 2], [1, 3])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1])
        with pytest.raises(ValueError):
            pearson([1], [1])


class TestBestF1Threshold:
    def test_hand_value(self):
        t, f1 = best_f1_threshold([0.9, 0.5, 0.4, 0.2], [1, 0, 1, 0])
        assert f1 == pytest.approx(0.8)
        assert t == pytest.approx(0.3)

    def test_perfect_separation(self):
        t, f1 = best_f1_threshold([3.0, 2.0, -1.0, -2.0], [1, 1, 0, 0])
        assert f1 == 1.0
        assert -1.0 < t <= 2.0

    def test_all_positive_labels(self):
        t, f1 = best_f1_threshold([0.3, 0.1], [1, 1])
        assert f1 == 1.0
        assert t == -np.inf

    def test_beats_random_thresholds(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            scores = rng.normal(size=40)
            labels = rng.integers(0, 2, size=40)
            if not labels.any():
                continue
            _, best = best_f1_threshold(scores, labels)
            for t in rng.normal(scale=2.0, size=100):
                tp = sum(1 for s, y in zip(scores, labels) if s >= t and y)
                fp = sum(1 for s, y in zip(scores, labels) if s >= t and not y)
                fn = sum(1 for s, y in zip(scores, labels) if s < t and y)
                f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
                assert best >= f1 - 1e-12

    def test_no_positive_labels(self):
        with pytest.raises(EvalError, match="no positive"):
            best_f1_threshold([0.1, 0.2], [0, 0])

    def test_midpoint_near_float_max(self):
        # 0.9 max + max overflows; the threshold between them must not be lost
        big = np.finfo(np.float64).max
        t, f1 = best_f1_threshold([0.0, 0.9 * big, big], [0, 0, 1])
        assert f1 == 1.0
        assert 0.9 * big < t <= big


def four_word_model():
    # ids: broad (large var), narrow (unit var), east, west
    return DensityModel(
        ["broad", "narrow", "east", "west"],
        means=[[0.0], [0.0], [1.0], [-1.0]],
        log_vars=[np.array(np.log(4.0)), np.array(0.0),
                  np.array(0.0), np.array(0.0)],
        counts=[100, 10, 5, 5])


class TestEvalSimilarity:
    def test_skips_oov_and_correlates(self):
        m = DensityModel(["a", "b", "c"],
                         means=[[1.0, 0.0], [0.9, 0.1], [-1.0, 0.2]],
                         log_vars=[np.zeros(2)] * 3)
        pairs = [SimilarityPair("a", "b", 9.0),
                 SimilarityPair("a", "c", 1.0),
                 SimilarityPair("b", "c", 2.0),
                 SimilarityPair("a", "zzz", 5.0)]
        rho, n_used, n_oov = eval_similarity(m, pairs)
        assert (n_used, n_oov) == (3, 1)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_all_oov(self):
        m = four_word_model()
        with pytest.raises(EvalError, match="out of vocabulary"):
            eval_similarity(m, [SimilarityPair("x", "y", 1.0)])


class TestEvalEntailment:
    def test_neg_kl_separates(self):
        m = four_word_model()
        pairs = [EntailmentPair("narrow", "broad", True),
                 EntailmentPair("east", "broad", True),
                 EntailmentPair("east", "west", False),
                 EntailmentPair("west", "east", False),
                 EntailmentPair("narrow", "oov-word", True)]
        f1, threshold, scores, labels, n_oov = eval_entailment(m, pairs)
        assert n_oov == 1
        assert len(scores) == len(labels) == 4
        assert f1 == 1.0
        # scores are negated KL so entailing pairs sit above the threshold
        for s, y in zip(scores, labels):
            assert (s >= threshold) == y

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="unknown measure"):
            eval_entailment(four_word_model(), [], measure="dot")


class TestDirectionality:
    def test_hand_kl_values(self):
        m = four_word_model()
        b, a = 1, 0  # narrow, broad
        fwd = kl_divergence(m.prior_gaussian(b), m.prior_gaussian(a))
        rev = kl_divergence(m.prior_gaussian(a), m.prior_gaussian(b))
        assert fwd == pytest.approx(np.log(2.0) + 1.0 / 8.0 - 0.5, abs=1e-12)
        assert rev == pytest.approx(np.log(0.5) + 2.0 - 0.5, abs=1e-12)
        assert fwd == pytest.approx(0.3181472, abs=1e-6)
        assert rev == pytest.approx(0.8068528, abs=1e-6)

    def test_accuracy(self):
        m = four_word_model()
        pairs = [EntailmentPair("narrow", "broad", True),
                 EntailmentPair("broad", "narrow", True),
                 EntailmentPair("oov", "broad", True)]
        # first pair predicted forward (correct), second forward too (wrong
        # under the hyponym-first convention), third skipped
        assert eval_directionality(m, pairs) == pytest.approx(0.5)

    def test_frequency_baseline(self):
        m = four_word_model()
        pairs = [EntailmentPair("narrow", "broad", True),
                 EntailmentPair("broad", "narrow", True),
                 EntailmentPair("east", "west", True),
                 EntailmentPair("oov", "broad", True)]
        acc, n_used, n_skipped = frequency_direction_baseline(m.vocab, pairs)
        # hyponym-first holds for pair 1 (10 <= 100), fails for pair 2,
        # ties count as forward for pair 3
        assert acc == pytest.approx(2 / 3)
        assert (n_used, n_skipped) == (3, 1)


class TestLexsub:
    def model(self):
        return DensityModel(
            ["t", "c1", "near", "far"],
            means=[[0.0], [0.0], [0.5], [-2.0]],
            log_vars=[np.array(0.0)] * 4,
            post=Gaussian(np.array([0.0]), np.array(0.0)))

    def inst(self, candidates):
        return LexsubInstance(target="t", target_index=1,
                              context_tokens=("c1", "t", "c1"),
                              candidates=tuple(candidates),
                              gold_weights={"near": 2.0})

    def test_rank_by_posterior_kl(self):
        out = lexsub_rank(self.model(), self.inst(["far", "near"]), window=2)
        assert [c for c, _ in out] == ["near", "far"]
        # KL[N(0,1) || N(0.5,1)] = 0.125 and KL[N(0,1) || N(-2,1)] = 2
        assert out[0][1] == pytest.approx(0.125, abs=1e-12)
        assert out[1][1] == pytest.approx(2.0, abs=1e-12)

    def test_oov_candidates_last(self):
        out = lexsub_rank(self.model(), self.inst(["zzz", "near"]), window=2)
        assert out[0][0] == "near"
        assert out[-1] == ("zzz", None)

    def test_oov_target_and_no_context(self):
        m = self.model()
        bad = LexsubInstance("qq", 0, ("qq",), ("near",), {"near": 1.0})
        with pytest.raises(EvalError, match="target"):
            lexsub_rank(m, bad, window=2)

    def test_gap_hand_value(self):
        assert gap([2.0, 0.0, 1.0], [2.0, 0.0, 1.0]) == pytest.approx(
            6 / 7, abs=1e-12)

    def test_gap_perfect_and_missing_gold(self):
        assert gap([3.0, 1.0], [3.0, 1.0]) == 1.0
        # gold item never ranked still counts in the denominator
        assert gap([3.0], [3.0, 1.0]) < 1.0

    def test_gap_no_positive(self):
        with pytest.raises(EvalError, match="no positive"):
            gap([0.0], [0.0])


class TestAddMult:
    def test_orthogonal_no_context(self):
        vecs = {"t": np.array([1.0, 0.0]), "s": np.array([0.0, 1.0])}
        inst = LexsubInstance("t", 0, ("t",), ("s",), {"s": 1.0})
        add = add_mult_baseline(vecs, inst, window=2, mode="add")
        mult = add_mult_baseline(vecs, inst, window=2, mode="mult")
        assert add[0][1] == pytest.approx(0.0, abs=1e-12)
        assert mult[0][1] == pytest.approx(0.5, abs=1e-12)

    def test_context_pulls_ranking(self):
        vecs = {"t": np.array([1.0, 0.0]), "c": np.array([0.0, 1.0]),
                "s1": np.array([1.0, 1.0]), "s2": np.array([1.0, -1.0])}
        inst = LexsubInstance("t", 0, ("t", "c"), ("s2", "s1"), {"s1": 1.0})
        for mode in ("add", "mult"):
            out = add_mult_baseline(vecs, inst, window=2, mode=mode)
            assert out[0][0] == "s1"

    def test_unknown_mode(self):
        inst = LexsubInstance("t", 0, ("t",), ("s",), {"s": 1.0})
        with pytest.raises(ValueError, match="unknown mode"):
            add_mult_baseline({"t": np.ones(2)}, inst, 2, mode="avg")


class TestLogdetReport:
    def test_positive_correlation_and_csv(self):
        words = [f"w{i}" for i in range(6)]
        counts = [64, 32, 16, 8, 4, 2]
        # log det grows with log count by construction
        m = DensityModel(words, means=[[0.0]] * 6,
                         log_vars=[np.array(np.log(c) / 2) for c in counts],
                         counts=counts)
        buf = io.StringIO()
        rows, r = logdet_frequency_report(m, m.vocab, out=buf)
        assert len(rows) == 6
        assert r == pytest.approx(1.0, abs=1e-9)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "word,log_count,log_det_cov"
        assert lines[-1].startswith("# pearson_r,")

    def test_undefined_correlation(self):
        m = DensityModel(["a", "b"], means=[[0.0], [0.0]],
                         log_vars=[np.array(0.0), np.array(0.0)],
                         counts=[3, 1])
        rows, r = logdet_frequency_report(m, m.vocab)
        assert r is None


class TestLoaders:
    def test_similarity_tsv(self, tmp_path):
        p = tmp_path / "sim.tsv"
        p.write_text("cat\tdog\t7.5\n\nfish\tcar\t1.0\n")
        pairs = load_similarity_pairs(p)
        assert pairs[0] == SimilarityPair("cat", "dog", 7.5)
        assert len(pairs) == 2

    def test_entailment_tsv_and_errors(self, tmp_path):
        p = tmp_path / "ent.tsv"
        p.write_text("cat\tanimal\t1\ncar\tanimal\t0\n")
        pairs = load_entailment_pairs(p)
        assert pairs[0].label is True and pairs[1].label is False
        p.write_text("cat\tanimal\tyes\n")
        with pytest.raises(EvalError, match="line 1"):
            load_entailment_pairs(p)

    def test_lexsub_jsonl(self, tmp_path):
        p = tmp_path / "lexsub.jsonl"
        p.write_text('{"target": "bright", "target_index": 1, '
                     '"context_tokens": ["a", "bright", "boy"], '
                     '"candidates": ["smart", "shiny"], '
                     '"gold_weights": {"smart": 3}}\n')
        insts = load_lexsub_instances(p)
        assert insts[0].candidates == ("smart", "shiny")
        p.write_text('{"target": "x"}\n')
        with pytest.raises(EvalError, match="line 1"):
            load_lexsub_instances(p)

    def test_instance_validation(self):
        with pytest.raises(ValueError, match="target_index"):
            LexsubInstance("t", 5, ("t",), ("s",), {"s": 1.0})
        with pytest.raises(ValueError, match="must equal target"):
            LexsubInstance("t", 0, ("u",), ("s",), {"s": 1.0})
        with pytest.raises(ValueError, match="gold weight"):
            LexsubInstance("t", 0, ("t",), ("s",), {"s": 0.0})
