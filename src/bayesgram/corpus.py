"""Corpus machinery: vocabulary, subsampling, windows, negative sampling.

Input corpora are plain UTF-8 text files with one document per line.
Tokenization is whitespace split (optionally lowercased). Training windows
never cross document boundaries.
"""

import errno
import os
import shutil
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

__all__ = [
    "Vocabulary",
    "atomic_open",
    "format_vocab",
    "parse_vocab",
    "read_utf8",
    "tokenize_line",
    "iter_documents",
    "build_vocabulary",
    "subsample_stream",
    "sample_negatives",
    "iter_training_windows",
    "iter_training_batches",
    "single_window",
    "context_tokens",
]


class CorpusError(Exception):
    """Raised for unusable corpus input (empty, undecodable, ...)."""


@dataclass
class Vocabulary:
    words: list
    counts: np.ndarray
    subsample_t: float = 1e-4
    neg_table_exponent: float = 1.0
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.words) != len(self.counts):
            raise ValueError("words and counts length mismatch")
        if len(self.words) == 0:
            raise CorpusError("empty corpus")
        if np.any(self.counts <= 0):
            raise ValueError("counts must be positive")
        _check_sampling(self.subsample_t, self.neg_table_exponent)
        self._index = dict(zip(self.words, range(len(self.words))))
        if len(self._index) != len(self.words):    # a repeat's later id overwrote it
            repeated = next(w for i, w in enumerate(self.words) if self._index[w] != i)
            raise ValueError(f"repeated vocabulary word {repeated!r}")
        total = float(self.counts.sum())
        self.unigram_prob = self.counts / total
        # a t/p past the float range keeps every token; an exponent out of range is named below
        with np.errstate(over="ignore"):
            keep = np.sqrt(self.subsample_t / self.unigram_prob)
            p = self.unigram_prob ** self.neg_table_exponent
        self.keep_prob = np.minimum(1.0, keep)
        if not 0.0 < (p_sum := p.sum()) < np.inf:
            raise ValueError(f"negative-sampling exponent {self.neg_table_exponent} under- "
                             "or overflows the sampling probabilities")
        self.neg_prob = p / p_sum

    @cached_property
    def neg_cdf(self) -> np.ndarray:    # as Generator.choice(p=neg_prob) builds it
        cdf = self.neg_prob.cumsum()
        return cdf / cdf[-1]

    def __len__(self):
        return len(self.words)

    def __contains__(self, word) -> bool:
        return word in self._index

    def lookup(self, word):
        """word -> id, or None when out of vocabulary."""
        return self._index.get(word)

    def word(self, idx: int) -> str:
        return self.words[idx]

    def ids(self, tokens):
        """Map tokens to ids, dropping out-of-vocabulary tokens."""
        idx = self._index
        return [idx[t] for t in tokens if t in idx]

    def save(self, path):
        """Write the vocabulary as `word<TAB>count` lines, most frequent first."""
        text = format_vocab(self.words, self.counts)
        with atomic_open(path, encoding="utf-8", newline="\n") as f:
            f.write(text)

    @classmethod
    def load(cls, path, subsample_t=1e-4, neg_table_exponent=1.0):
        words, counts = parse_vocab(read_utf8(path, "vocabulary").split("\n"))
        return cls(words, counts, subsample_t=subsample_t,
                   neg_table_exponent=neg_table_exponent)


def _check_sampling(t, neg_exponent):
    if not t > 0:
        raise ValueError(f"subsampling t must be > 0, got {t}")
    if not np.isfinite(neg_exponent):
        raise ValueError(f"negative-sampling exponent must be finite, got {neg_exponent}")


def read_utf8(path, what, error=CorpusError, newline="\n"):
    """A UTF-8 file's text; a bad byte raises error naming its offset and its line, lines
    ending at "\n", or also at "\r" as open() ends them if newline is None."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        if newline is None:
            lineno += data.count(b"\r", 0, e.start) - data.count(b"\r\n", 0, e.start)
        raise error(f"non-UTF-8 {what} line {lineno} at byte offset {e.start}") from None


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """open(path, mode, **kwargs) for writing, by way of a temporary file
    `.<name>.<pid>` beside path: it is made on entry, so an unwritable path
    fails before any work, and renamed onto path when the block ends. On any
    failure the temporary is removed and path left as it was. An OSError of
    the temporary's own (naming it or no file) is raised naming path. As with
    open, a symlink is written through, a file replaced keeps its mode, and a
    path that exists but is no regular file, such as /dev/stdout, is written
    as it is."""
    path = os.fspath(path)
    if os.path.isdir(path or "."):       # "" is refused as the current directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **kwargs) as f:
            yield f
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}")
    try:
        with open(tmp, mode, **kwargs) as f:
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            yield f
        os.replace(tmp, target)
    except OSError as e:
        if e.filename not in (None, tmp):    # an input's error, raised in the block
            raise
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def format_vocab(words, counts) -> str:
    """The `word<TAB>count` lines of a vocabulary file or of a model file's
    vocab section. A word holding a tab or a line feed would not read back,
    so it is refused."""
    text = "".join(f"{w}\t{int(c)}\n" for w, c in zip(words, counts))
    if text.count("\t") != len(words) or text.count("\n") != len(words):
        bad = next(w for w in words if "\t" in w or "\n" in w)
        raise CorpusError(f"vocabulary word {bad!r} holds a tab or a line feed")
    return text


def parse_vocab(lines, first: int = 1, error=CorpusError):
    """(words, counts) of `word<TAB>count` lines given without their line feed,
    lines[0] being line `first`. Blank lines are skipped, and so is the `\r`
    ending a CRLF line, as int() reads past it. A malformed line, a count
    that is not positive or takes the total past int64, or a repeated word
    raises error(message), the message naming its line."""
    words, counts = [], []
    for lineno, line in enumerate(lines, first):
        if line in ("", "\r"):
            continue
        try:
            word, count = line.split("\t")
            counts.append(int(count))
        except ValueError:
            raise error(f"malformed vocab line {lineno}: {line!r}") from None
        words.append(word)
    # each count positive and their total within int64, so Vocabulary's sum cannot wrap
    if min(counts, default=1) <= 0 or sum(counts) >= 2 ** 63 or len(set(words)) < len(words):
        line_of = [n for n, line in enumerate(lines, first) if line not in ("", "\r")]
        j = next((j for j, (c, total) in enumerate(zip(counts, accumulate(counts)))
                  if c <= 0 or total >= 2 ** 63), None)
        if j is not None:
            why = "is not positive" if counts[j] <= 0 else "takes the total past 2**63 - 1"
            raise error(f"count {counts[j]} on vocab line {line_of[j]} {why}")
        index = {}                                # name the first repeat's line
        j = next(j for j, w in enumerate(words) if index.setdefault(w, j) != j)
        raise error(f"repeated word {words[j]!r} on vocab line {line_of[j]}")
    return words, np.asarray(counts, dtype=np.int64)


def tokenize_line(line: str, lowercase: bool = True):
    if lowercase:
        line = line.lower()
    return line.split()


def iter_documents(path, lowercase: bool = True):
    """Yield one token list per non-empty line of a UTF-8 text file."""
    with open(path, "rb") as f:
        offset = 0
        for raw in f:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise CorpusError(f"non-UTF-8 input at byte offset {offset + e.start}")
            offset += len(raw)
            tokens = tokenize_line(line, lowercase=lowercase)
            if tokens:
                yield tokens


def build_vocabulary(token_stream, max_size: int, min_count: int,
                     t: float = 1e-4, neg_exponent: float = 1.0) -> Vocabulary:
    """Count a token stream and keep the most frequent words.

    Words below min_count or beyond max_size are dropped; frequency ties are
    broken by first-seen order. token_stream may be a flat iterable of tokens
    or an iterable of token lists (documents): chunking does not affect counts.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    _check_sampling(t, neg_exponent)
    counts = Counter()
    for item in token_stream:
        if isinstance(item, str):
            counts[item] += 1
        else:
            counts.update(item)
    if not counts:
        raise CorpusError("empty corpus")
    # one stable sort (most_common(n) takes a slower heap), so ties keep first-seen order
    kept = [(w, c) for w, c in counts.most_common()[:max_size] if c >= min_count]
    if not kept:
        raise CorpusError("empty corpus: no word reaches min_count")
    words = [w for w, _ in kept]
    cts = np.array([c for _, c in kept], dtype=np.int64)
    return Vocabulary(words, cts, subsample_t=t, neg_table_exponent=neg_exponent)


_BLOCK = 1 << 16   # most windows per array block: bounds memory on long documents


def subsample_stream(tokens, vocab: Vocabulary, rng: np.random.Generator):
    """Keep each token independently with probability keep_prob[id]: intp ids."""
    ids = np.asarray(tokens, dtype=np.intp)
    keep = vocab.keep_prob[ids]
    drawn = keep < 1.0                  # one uniform each, in token order
    kept = ~drawn
    kept[drawn] = rng.random(drawn.sum()) < keep[drawn]    # random(0) draws nothing
    return ids[kept]


def _window_arrays(ids: np.ndarray, window_size: int, lo: int = 0, hi=None):
    """The windows centered in ids[lo:hi]: centers (W,), contexts and mask (W, 2w).

    Contexts are the left then right neighbours, truncated at the stream
    boundaries and left-aligned; mask marks the real ones, padding ids are 0.
    """
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    n = len(ids)
    hi = n if hi is None or n < 2 else min(hi, n)     # one token: no window
    i = np.arange(lo if n > 1 else hi, hi)[:, None]
    j = np.arange(2 * window_size)[None, :]
    left = np.minimum(i, window_size)
    mask = j < left + np.minimum(n - 1 - i, window_size)
    at = i - left + j + (j >= left)                     # skip the center itself
    return ids[i[:, 0]], np.where(mask, ids[np.minimum(at, n - 1)], 0), mask


def context_tokens(tokens, i: int, window: int):
    """The up to `window` tokens left of tokens[i], then those right of it."""
    if window < 1:
        raise ValueError("window must be >= 1")
    return list(tokens[max(0, i - window):i]) + list(tokens[i + 1:i + 1 + window])


def sample_negatives(vocab: Vocabulary, k: int, rng: np.random.Generator):
    """k i.i.d. ids (intp) from unigram probabilities raised to neg_table_exponent."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return vocab.neg_cdf.searchsorted(rng.random(k), side="right")


def iter_training_windows(corpus_path, vocab: Vocabulary, window_size: int,
                          negatives_per_positive: int, rng: np.random.Generator,
                          lowercase: bool = True):
    """Yield (center, positives, negatives) triples for one epoch: the stream
    of iter_training_batches, one window at a time."""
    for (c,), (p,), (q,), (m,) in iter_training_batches(
            corpus_path, vocab, window_size, negatives_per_positive, 1, rng, lowercase):
        n = int(m.sum())
        yield int(c), p[:n].tolist(), q[:, :n].ravel().tolist()


def iter_training_batches(corpus_path, vocab: Vocabulary, window_size: int,
                          negatives_per_positive: int, batch_size: int,
                          rng: np.random.Generator, lowercase: bool = True):
    """Yield one epoch of the stream as padded batches (centers, pos, neg, mask).

    This is the single stream shared by every trainer so that model
    comparisons see identical windows and negatives for a given seed. OOV
    tokens are dropped, the remainder subsampled, then windowed per document;
    pos and mask (B, 2w) are as in _window_arrays. A window with n positives
    gets k*n negatives: negative r*n + j pairs with positive j and sits at
    neg[:, r, j] of neg (B, k, 2w). One rng.random call draws a document's
    subsampling uniforms, one more the negatives of each block of _BLOCK
    windows, through neg_cdf: the draws of one rng.random() per subsampled
    token and one rng.choice per window. A batch closes at the first window
    that brings it to batch_size prediction tasks (k per positive); batches
    span documents.
    """
    k = negatives_per_positive
    if k < 1:
        raise ValueError("k must be >= 1")
    parts, carried = [], 0
    for doc in iter_documents(corpus_path, lowercase=lowercase):
        ids = subsample_stream(vocab.ids(doc), vocab, rng)
        for lo in range(0, len(ids), _BLOCK):
            centers, pos, mask = _window_arrays(ids, window_size, lo, lo + _BLOCK)
            n = mask.sum(axis=1)
            if not len(n):
                continue
            draws = sample_negatives(vocab, k * int(n.sum()), rng)
            at = (k * (np.cumsum(n) - n)[:, None, None]       # the window's first draw
                  + np.arange(k)[:, None] * n[:, None, None] + np.arange(pos.shape[1]))
            neg = np.where(mask[:, None, :], draws[np.minimum(at, len(draws) - 1)], 0)
            block = (centers, pos, neg, mask)
            cum = carried + np.cumsum(n) * k
            start = base = 0                   # the open batch began at task base
            while (end := max(start, np.searchsorted(cum, base + batch_size))) < len(cum):
                parts.append([a[start:end + 1] for a in block])
                yield tuple(map(np.concatenate, zip(*parts)))
                parts, start, base = [], end + 1, int(cum[end])
            if start < len(cum):
                parts.append([a[start:] for a in block])
            carried = int(cum[-1]) - base
    if parts:
        yield tuple(map(np.concatenate, zip(*parts)))


def single_window(center, positives, negatives):
    """One window as a batch of one (centers, pos, neg, mask)."""
    n = len(positives)
    if n == 0:
        raise ValueError("empty positives")
    if len(negatives) % n != 0 or len(negatives) == 0:
        raise ValueError("length mismatch: need k >= 1 negatives per positive")
    return (np.array([center], dtype=np.intp), np.array([positives], dtype=np.intp),
            np.asarray(negatives, dtype=np.intp).reshape(1, -1, n), np.ones((1, n), bool))
