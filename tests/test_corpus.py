import errno
import hashlib
import os
import re
import stat
from collections import Counter

import numpy as np
import pytest

from bayesgram import corpus, oracles
from bayesgram.bsg import TrainConfig, data_rng
from bayesgram.corpus import (CorpusError, Vocabulary, atomic_open, build_vocabulary,
                              iter_documents, iter_training_batches,
                              iter_training_windows, sample_negatives, subsample_stream)

from helpers import LINE_BREAKING_WORDS, PartWrite


class TestBuildVocabulary:
    def test_direct_counts(self):
        v = build_vocabulary(["a", "a", "b"], max_size=10, min_count=1)
        assert v.words == ["a", "b"]
        assert list(v.counts) == [2, 1]
        assert v.unigram_prob == pytest.approx([2 / 3, 1 / 3])
        assert abs(v.unigram_prob.sum() - 1.0) < 1e-9

    def test_frequency_cutoff(self):
        v = build_vocabulary(["a", "a", "b"], max_size=1, min_count=1)
        assert v.words == ["a"]

    def test_min_count(self):
        v = build_vocabulary(["a", "a", "b"], max_size=10, min_count=2)
        assert v.words == ["a"]

    def test_keep_prob_formula(self):
        # unigram 1e-2 at t = 1e-4 -> keep prob sqrt(1e-4 / 1e-2) = 0.1
        tokens = ["rare"] * 1 + ["common"] * 99
        v = build_vocabulary(tokens, max_size=10, min_count=1, t=1e-4)
        i = v.lookup("common")
        assert v.unigram_prob[i] == pytest.approx(0.99)
        expected = np.sqrt(1e-4 / 0.99)
        assert v.keep_prob[i] == pytest.approx(expected)
        # a word at or below t keeps probability exactly 1
        tokens = ["a"] * 1 + ["b"] * 9999
        v = build_vocabulary(tokens, max_size=10, min_count=1, t=1e-4)
        assert v.keep_prob[v.lookup("a")] == 1.0

    def test_keep_prob_example_value(self):
        # unigram probability 1e-2 constructed directly from the counts
        v = Vocabulary(["x", "y"], np.array([1, 99], dtype=np.int64),
                       subsample_t=1e-4)
        assert v.keep_prob[v.lookup("x")] == pytest.approx(np.sqrt(1e-4 / 0.01))

    def test_lookup_roundtrip(self):
        v = build_vocabulary(["c", "b", "b", "a", "a", "a"], 10, 1)
        for i, w in enumerate(v.words):
            assert v.lookup(w) == i
            assert v.word(i) == w

    def test_tie_break_first_seen(self):
        v = build_vocabulary(["z", "q", "z", "q"], 10, 1)
        assert v.words == ["z", "q"]

    @pytest.mark.parametrize("max_size", [1, 2, 5, 17, 40, 41, 1000])
    def test_ties_and_cutoff_as_most_common_n(self, max_size):
        # 41 types over 6 counts, so most ranks are ties, cut at several places
        rng = np.random.default_rng(0)
        words = [f"t{i}" for i in rng.permutation(41)]
        tokens = [w for i, w in enumerate(words) for _ in range(1 + i % 6)]
        tokens = [tokens[i] for i in rng.permutation(len(tokens))]
        want = Counter(tokens).most_common(max_size)     # a heap, not a sort
        v = build_vocabulary(tokens, max_size, 1)
        assert list(zip(v.words, v.counts.tolist())) == want

    def test_empty_stream(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            build_vocabulary([], 10, 1)

    @pytest.mark.parametrize("t", [0.0, -1e-4])
    def test_non_positive_t_rejected_before_reading(self, t):
        def unread():
            pytest.fail("the token stream was read")

        with pytest.raises(ValueError, match="t must be > 0"):
            build_vocabulary(iter(unread, None), 10, 1, t=t)

    def test_chunking_invariance(self):
        flat = ["a", "b", "a", "c", "b", "a"]
        chunked = [["a", "b"], ["a", "c", "b"], ["a"]]
        v1 = build_vocabulary(flat, 10, 1)
        v2 = build_vocabulary(chunked, 10, 1)
        assert v1.words == v2.words
        assert list(v1.counts) == list(v2.counts)

    def test_non_utf8_reports_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"good line\nbad \xff\xfe line\n")
        with pytest.raises(CorpusError, match=r"byte offset 14"):
            list(iter_documents(path))


class TestSubsampleStream:
    def test_identity_when_keep_is_one(self):
        v = Vocabulary(["a", "b"], np.array([1, 1]), subsample_t=1.0)
        rng = np.random.default_rng(0)
        toks = [0, 1, 0, 1, 1]
        assert subsample_stream(toks, v, rng).tolist() == toks

    def test_retained_fraction(self):
        # keep prob 0.1 from unigram 1e-2 at t 1e-4
        v = Vocabulary(["x", "y"], np.array([1, 99]), subsample_t=1e-4)
        assert v.keep_prob[0] == pytest.approx(0.1)
        rng = np.random.default_rng(0)
        out = subsample_stream([0] * 100000, v, rng)
        assert 0.09 <= len(out) / 100000 <= 0.11

    def test_empty_input(self):
        v = Vocabulary(["a"], np.array([1]))
        assert subsample_stream([], v, np.random.default_rng(0)).tolist() == []

    def test_deterministic(self):
        v = Vocabulary(["x", "y"], np.array([1, 99]), subsample_t=1e-4)
        toks = [0, 1] * 500
        a = subsample_stream(toks, v, np.random.default_rng(7))
        b = subsample_stream(toks, v, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_order_preserved(self):
        v = Vocabulary(["x", "y"], np.array([50, 50]), subsample_t=1e-4)
        out = subsample_stream(list(range(2)) * 100, v, np.random.default_rng(1))
        # subsequence of the input
        it = iter([0, 1] * 100)
        assert all(any(x == y for y in it) for x in out)


def stream_windows(tokens, window_size):
    """(center, contexts) of each window of one token stream, as the stream cuts them."""
    centers, ctx, mask = corpus._window_arrays(np.asarray(tokens, dtype=np.intp),
                                               window_size)
    return [(c, tuple(x[m].tolist())) for c, x, m in zip(centers.tolist(), ctx, mask)]


class TestExtractWindows:
    def test_window_one(self):
        assert stream_windows([0, 1, 2], 1) == [(0, (1,)), (1, (0, 2)), (2, (1,))]

    def test_single_token(self):
        assert stream_windows([5], 3) == []

    def test_window_two_interior(self):
        by_pos = dict(enumerate(stream_windows([0, 1, 2, 3], 2)))
        assert by_pos[1] == (1, (0, 2, 3))

    def test_context_distance_bound(self):
        toks = list(np.random.default_rng(0).integers(0, 5, size=50))
        for center, contexts in stream_windows(toks, 3):
            assert 1 <= len(contexts) <= 6

    def test_document_sharding(self, tmp_path):
        # windows never cross documents: the stream windows each line alone
        path = tmp_path / "c.txt"
        path.write_text("a b c\nd e\n")
        v = Vocabulary(list("abcde"), np.ones(5, dtype=np.int64), subsample_t=1.0)
        windows = list(iter_training_windows(path, v, 2, 1, np.random.default_rng(0)))
        assert [(c, p) for c, p, _ in windows] == [
            (0, [1, 2]), (1, [0, 2]), (2, [0, 1]), (3, [4]), (4, [3])]

    def test_bad_window_size(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n")
        v = Vocabulary(["a", "b"], np.array([1, 1]), subsample_t=1.0)
        with pytest.raises(ValueError, match="window_size"):
            list(iter_training_windows(path, v, 0, 1, np.random.default_rng(0)))


class TestSampleNegatives:
    def test_unigram_concentration(self):
        v = Vocabulary(["a", "b"], np.array([3, 1]), neg_table_exponent=1.0)
        rng = np.random.default_rng(0)
        draws = sample_negatives(v, 100000, rng)
        frac_a = sum(1 for d in draws if d == 0) / len(draws)
        assert abs(frac_a - 0.75) <= 0.01

    def test_single_word(self):
        v = Vocabulary(["only"], np.array([5]))
        assert sample_negatives(v, 20, np.random.default_rng(0)).tolist() == [0] * 20

    def test_exponent_zero_uniform(self):
        v = Vocabulary(["a", "b", "c"], np.array([100, 10, 1]),
                       neg_table_exponent=0.0)
        draws = sample_negatives(v, 100000, np.random.default_rng(0))
        counts = np.bincount(draws, minlength=3) / len(draws)
        assert np.all(np.abs(counts - 1 / 3) <= 0.01)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_exponent(self, exponent):
        with pytest.raises(ValueError, match="negative-sampling exponent must be finite"):
            Vocabulary(["a", "b"], np.array([3, 1]), neg_table_exponent=exponent)

    @pytest.mark.parametrize("exponent", [2000.0, -2000.0])
    def test_exponent_that_under_or_overflows(self, exponent):
        # 0.5 ** 2000 underflows to 0, the sum too; 0.5 ** -2000 overflows
        with pytest.raises(ValueError, match=f"exponent {exponent} under- or overflows"):
            Vocabulary(["a", "b"], np.array([1, 1]), neg_table_exponent=exponent)

    def test_deterministic(self):
        v = Vocabulary(["a", "b"], np.array([3, 1]))
        a = sample_negatives(v, 50, np.random.default_rng(3))
        b = sample_negatives(v, 50, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_k_validation(self):
        v = Vocabulary(["a"], np.array([1]))
        with pytest.raises(ValueError):
            sample_negatives(v, 0, np.random.default_rng(0))


class TestVocabularyIO:
    def test_tsv_roundtrip(self, tmp_path):
        v = build_vocabulary(["b", "a", "a", "c", "a", "b"], 10, 1)
        path = tmp_path / "vocab.tsv"
        v.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a\t3"
        v2 = Vocabulary.load(path)
        assert v2.words == v.words
        assert list(v2.counts) == list(v.counts)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t3\nbroken-line\n")
        with pytest.raises(CorpusError, match="line 2"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("word", LINE_BREAKING_WORDS)
    def test_line_breaking_word_roundtrip(self, tmp_path, word):
        v = Vocabulary(["a", word, "b"], np.array([3, 2, 1]))
        path = tmp_path / "vocab.tsv"
        v.save(path)
        v2 = Vocabulary.load(path)
        assert v2.words == v.words
        assert list(v2.counts) == [3, 2, 1]

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"a\t3\r\nb\r\t2\r\n\r\n")
        v = Vocabulary.load(path)
        assert v.words == ["a", "b\r"]
        assert list(v.counts) == [3, 2]

    @pytest.mark.parametrize("data, line", [(b"a\r\t5\nb\xff\t3\n", 2),
                                            (b"a\t5\r\nb\t4\r\nc\xff\t3\r\n", 3)],
                             ids=["word-holding-cr", "crlf"])
    def test_non_utf8_names_the_line_counted_at_line_feeds(self, tmp_path, data, line):
        """A vocabulary line ends at a line feed only, since a word may hold "\r"."""
        path = tmp_path / "vocab.tsv"
        path.write_bytes(data)
        at = data.index(b"\xff")
        with pytest.raises(CorpusError,
                           match=f"^non-UTF-8 vocabulary line {line} at byte offset {at}$"):
            Vocabulary.load(path)

    def test_repeated_word_rejected(self):
        with pytest.raises(ValueError, match="repeated vocabulary word 'a'"):
            Vocabulary(["a", "b", "a"], np.array([3, 2, 1]))

    def test_repeated_word_names_its_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t3\nb\t2\n\na\t1\n")
        with pytest.raises(CorpusError, match="repeated word 'a' on vocab line 4"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("word", ["a\tb", "a\nb"])
    def test_writer_refuses_tab_or_line_feed(self, tmp_path, word):
        v = build_vocabulary(["x", word, "x"], 10, 1)     # flat tokens keep any character
        with pytest.raises(CorpusError, match=re.escape(repr(word))):
            v.save(tmp_path / "vocab.tsv")
        assert not (tmp_path / "vocab.tsv").exists()


class TestAtomicOpen:
    def test_replaces_the_target_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path) as f:
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                f".out.txt.{os.getpid()}", "out.txt"] and path.read_text() == "old"
            f.write("new")
        assert path.read_text() == "new" and list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
                                     KeyboardInterrupt(), ValueError("bad")],
                             ids=["oserror", "interrupt", "error"])
    def test_failure_partway_keeps_the_old_file(self, tmp_path, exc):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old")
        with pytest.raises(type(exc)) as info:
            with atomic_open(path) as f:
                f.write("half of the new")
                f.flush()
                raise exc
        assert path.read_bytes() == b"old" and list(tmp_path.iterdir()) == [path]
        if isinstance(exc, OSError):            # no file of its own: named by the target
            assert info.value.filename == str(path)

    def test_an_input_error_keeps_its_file_name(self, tmp_path):
        missing = tmp_path / "missing.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_open(tmp_path / "out.txt"):
                open(missing)
        assert info.value.filename == str(missing) and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["dir", "missing/out.txt", ""])
    def test_unwritable_target_fails_on_entry(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError) as info:
            with atomic_open(target):
                raise AssertionError("the block ran")
        assert info.value.filename == target
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]

    def test_the_old_file_mode_is_kept(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        path.chmod(0o600)
        with atomic_open(path) as f:
            f.write("new")
        assert stat.S_IMODE(path.stat().st_mode) == 0o600 and path.read_text() == "new"

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real.txt").write_text("old")
        (tmp_path / "link.txt").symlink_to("real.txt")
        with atomic_open(tmp_path / "link.txt") as f:
            f.write("new")
        assert (tmp_path / "real.txt").read_text() == "new"
        assert (tmp_path / "link.txt").is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_a_pipe_is_written_as_is(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with atomic_open(pipe) as f:
                f.write("through")
            assert os.read(reader, 100) == b"through"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode) and list(tmp_path.iterdir()) == [pipe]

    def test_vocabulary_save_failing_partway_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"old")
        monkeypatch.setattr(corpus, "open", lambda *a, **kw: PartWrite(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match=re.escape(f"No space left on device: '{path}'")):
            build_vocabulary(["a", "b", "a"], 10, 1).save(path)
        assert path.read_bytes() == b"old" and list(tmp_path.iterdir()) == [path]


def stream_digest(stream):
    """SHA-256 over (center, |pos|, |neg|, pos..., neg...) of every window."""
    h = hashlib.sha256()
    for center, positives, negatives in stream:
        row = [center, len(positives), len(negatives), *positives, *negatives]
        h.update(np.asarray(row, dtype=np.int64).tobytes())
    return h.hexdigest()


def reference_stream(path, vocab, window, k, rng):
    """The per-window loop the vectorized stream replaced: one rng.random()
    per token that may be subsampled, one rng.choice per window."""
    for doc in iter_documents(path):
        ids = [w for w in vocab.ids(doc)
               if vocab.keep_prob[w] >= 1.0 or rng.random() < vocab.keep_prob[w]]
        for i, center in enumerate(ids):
            ctx = ids[max(0, i - window):i] + ids[i + 1:i + window + 1]
            if ctx:
                negs = rng.choice(len(vocab), size=k * len(ctx), p=vocab.neg_prob)
                yield center, ctx, negs.tolist()


class TestTrainingStream:
    # recorded from the per-window stream (one rng.random() per subsampled
    # token, one rng.choice per window) that the vectorized stream replaced
    POLY_DIGESTS = {
        1: "381072c90405fafe4a7c1ab005a4eb9dfed70745c4de5439ccc20335ceb0ca12",
        2: "ef7d195a9b91f384b55618c9744e103951a4de7d6a48acc00c72fa710b7ec3e7",
    }

    @pytest.mark.parametrize("k,block", [(1, None), (2, None), (2, 3)])
    def test_polysemy_stream_is_pinned(self, tmp_path, monkeypatch, k, block):
        if block:   # documents split into blocks of 3 windows draw the same stream
            monkeypatch.setattr(corpus, "_BLOCK", block)
        path = tmp_path / "poly.txt"
        spec = oracles.polysemy_spec(tokens_per_doc=1000, n_docs=20, seed=0)
        oracles.write_synth_corpus(spec, path)
        vocab = build_vocabulary(iter_documents(path), 1000, 1, t=1e-2)
        rng = data_rng(TrainConfig(seed=0))
        digest = stream_digest(iter_training_windows(path, vocab, 2, k, rng))
        assert digest == self.POLY_DIGESTS[k]

    @pytest.mark.parametrize("window,k,t,exponent", [
        (1, 1, 1e-2, 1.0), (2, 3, 1e-3, 0.75), (3, 2, 1.0, 0.0), (5, 1, 1e-4, 1.0)])
    def test_matches_per_window_reference(self, tmp_path, window, k, t, exponent):
        path = tmp_path / "c.txt"
        oracles.write_synth_corpus(oracles.polysemy_spec(tokens_per_doc=150, n_docs=5,
                                                         seed=3), path)
        path.write_text(path.read_text() + "oov\npoly0\n")     # one-token documents
        vocab = build_vocabulary(iter_documents(path), 12, 1, t=t, neg_exponent=exponent)
        got = iter_training_windows(path, vocab, window, k, np.random.default_rng(5))
        ref = reference_stream(path, vocab, window, k, np.random.default_rng(5))
        got, ref = list(got), list(ref)
        assert got == ref and len(got) >= 20

    def test_degenerate_documents_draw_no_negatives(self, tmp_path):
        # "a" is never subsampled, "b" almost always is; "zz" is out of vocabulary
        v = Vocabulary(["a", "b"], np.array([1, 10**9]), subsample_t=1e-9)
        assert v.keep_prob[0] == 1.0 and v.keep_prob[1] < 1e-4
        path = tmp_path / "c.txt"
        path.write_text("b a b b\nzz zz\nzz\n")
        rng = np.random.default_rng(0)
        assert subsample_stream([1, 0, 1, 1], v, np.random.default_rng(0)) == [0]
        assert list(iter_training_windows(path, v, 2, 3, rng)) == []
        # exactly the three subsampling uniforms were drawn, nothing else
        ref = np.random.default_rng(0)
        ref.random(3)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("batch_size", [1, 7, 50, 10**6])
    def test_batches_close_at_batch_size_across_documents(self, tmp_path, batch_size):
        path = tmp_path / "poly.txt"
        spec = oracles.polysemy_spec(tokens_per_doc=60, n_docs=4, seed=1)
        oracles.write_synth_corpus(spec, path)
        vocab = build_vocabulary(iter_documents(path), 1000, 1, t=1e-2)
        # reference: close a batch at the first window reaching batch_size tasks
        expected, current, tasks = [], [], 0
        for window in iter_training_windows(path, vocab, 2, 2, np.random.default_rng(4)):
            current.append(window)
            tasks += len(window[2])
            if tasks >= batch_size:
                expected.append(current)
                current, tasks = [], 0
        if current:
            expected.append(current)
        got = []
        for centers, pos, neg, mask in iter_training_batches(
                path, vocab, 2, 2, batch_size, np.random.default_rng(4)):
            n = mask.sum(axis=1)
            got.append([(c, p[:m].tolist(), q[:, :m].ravel().tolist())
                        for c, p, q, m in zip(centers.tolist(), pos, neg, n)])
        assert got == expected
