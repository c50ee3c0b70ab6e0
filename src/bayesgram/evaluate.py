"""Benchmark evaluation procedures and the statistics behind them.

Dataset formats: similarity pairs are TSV `word1<TAB>word2<TAB>score`;
entailment pairs are TSV `word1<TAB>word2<TAB>label` with label in {0,1};
lexical-substitution instances are JSON lines with fields target,
target_index, context_tokens, candidates, gold_weights.

Every evaluation takes a model (BSG, SG, W2G, a bundle, or an
`serialize.EmbeddingView`) and reads it through its embedding view: word
rows are gathered by id and scored as arrays. Evaluations use the prior
densities (W2G: its densities; SG: its input vectors, cosine only) except
lexical substitution, which ranks by KL from the inferred posterior.
"""

import io
import json
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .corpus import context_tokens, read_utf8
from .gauss import cosine_rows, kl_rows
from .serialize import SerializationError, embedding_view

__all__ = ["SimilarityPair", "EntailmentPair", "LexsubInstance",
           "spearman", "pearson", "eval_similarity", "best_f1_threshold",
           "eval_entailment", "eval_directionality",
           "frequency_direction_baseline", "lexsub_rank", "gap",
           "add_mult_baseline", "logdet_frequency_report",
           "load_similarity_pairs", "load_entailment_pairs",
           "load_lexsub_instances"]


class EvalError(Exception):
    """Raised when an evaluation is undefined on the given input."""


@dataclass(frozen=True)
class SimilarityPair:
    word1: str
    word2: str
    gold: float


@dataclass(frozen=True)
class EntailmentPair:
    word1: str
    word2: str
    label: bool


@dataclass(frozen=True)
class LexsubInstance:
    target: str
    target_index: int
    context_tokens: tuple
    candidates: tuple
    gold_weights: dict

    def __post_init__(self):
        if not (0 <= self.target_index < len(self.context_tokens)):
            raise ValueError("target_index out of range")
        if self.context_tokens[self.target_index] != self.target:
            raise ValueError("context_tokens[target_index] must equal target")
        if not any(w > 0 for w in self.gold_weights.values()):
            raise ValueError("at least one gold weight must be positive")


def _ranks(xs):
    """Average ranks (1-based) with tie averaging."""
    xs = np.asarray(xs, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])   # of each run of ties
    last = np.r_[first[1:], len(xs)] - 1
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average-rank tie handling."""
    return pearson(_ranks(xs), _ranks(ys))      # pearson checks lengths and constancy


def pearson(xs, ys) -> float:
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = np.sqrt(np.sum(dx * dx))
    sy = np.sqrt(np.sum(dy * dy))
    if sx == 0.0 or sy == 0.0:
        raise EvalError("undefined correlation: constant input")
    return float(np.clip(np.sum(dx * dy) / (sx * sy), -1.0, 1.0))


def _pair_ids(vocab, pairs):
    """(in-vocabulary pairs, their word-id arrays i and j, number skipped); none: EvalError."""
    ids = [(p, vocab.lookup(p.word1), vocab.lookup(p.word2)) for p in pairs]
    used = [t for t in ids if t[1] is not None and t[2] is not None]
    if not used:
        raise EvalError(f"no usable pairs ({len(ids)} out of vocabulary)")
    i, j = (np.array([t[c] for t in used], dtype=np.intp) for c in (1, 2))
    return [t[0] for t in used], i, j, len(ids) - len(used)


def eval_similarity(model, pairs):
    """Spearman rho of cosine(prior means) vs gold scores.

    Returns (rho, n_used, n_oov); pairs with either word out of vocabulary
    are skipped and counted.
    """
    view = embedding_view(model)
    used, i, j, n_oov = _pair_ids(view.vocab, pairs)
    scores = cosine_rows(view.mean_rows(i), view.mean_rows(j))
    return spearman(scores, [p.gold for p in used]), len(used), n_oov


def best_f1_threshold(scores, labels):
    """Best threshold for the rule `score >= threshold -> positive`.

    Sweeps all midpoints between adjacent distinct sorted scores plus
    +/- infinity; ties in F1 resolve to the lowest threshold.
    """
    if len(scores) != len(labels):
        raise ValueError("length mismatch")
    labels = np.asarray(labels, dtype=bool).reshape(-1)
    if not labels.any():
        raise EvalError("no positive labels")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    order = np.argsort(scores, kind="stable")
    scores = scores[order]
    pos_below = np.r_[0, np.cumsum(labels[order])]   # positives among the i lowest
    distinct = np.unique(scores)
    # halves first: 0.5 * (a + b) overflows near the float64 maximum
    mid = 0.5 * distinct[:-1] + 0.5 * distinct[1:]
    candidates = np.sort(np.r_[-np.inf, mid, np.inf])
    below = np.searchsorted(scores, candidates, side="left")   # count of s < t
    tp = pos_below[-1] - pos_below[below]
    f1 = 2 * tp / (len(scores) - below + pos_below[-1])   # 2tp / (2tp + fp + fn)
    best = int(np.argmax(f1))       # the first, i.e. lowest, best threshold
    return float(candidates[best]), float(f1[best])


def eval_entailment(model, pairs, measure: str = "neg_kl"):
    """Best-threshold F1 of an entailment score over in-vocabulary pairs.

    measure "neg_kl" scores -KL[prior(w1) || prior(w2)]; "cosine" scores
    the cosine of the prior means. Returns (f1, threshold, scores, labels,
    n_oov); the raw score list supports downstream histogram reports.
    """
    if measure not in ("neg_kl", "cosine"):
        raise ValueError(f"unknown measure {measure!r}")
    view = embedding_view(model)
    used, i, j, n_oov = _pair_ids(view.vocab, pairs)
    if measure == "neg_kl":
        scores = -kl_rows(*view.density_rows(i), *view.density_rows(j))
    else:
        scores = cosine_rows(view.mean_rows(i), view.mean_rows(j))
    labels = [p.label for p in used]
    threshold, f1 = best_f1_threshold(scores, labels)
    return f1, threshold, scores.tolist(), labels, n_oov


def eval_directionality(model, pairs):
    """Accuracy of KL-asymmetry direction prediction on entailing pairs.

    Predicts w1 entails w2 iff KL[p(w1)||p(w2)] < KL[p(w2)||p(w1)];
    exact ties predict w1 -> w2. Pairs are assumed gold-labelled as
    (hyponym, hypernym); OOV pairs are skipped.
    """
    view = embedding_view(model)
    used, i, j, _ = _pair_ids(view.vocab, pairs)
    p1, p2 = view.density_rows(i), view.density_rows(j)
    return int(np.sum(kl_rows(*p1, *p2) <= kl_rows(*p2, *p1))) / len(used)


def frequency_direction_baseline(vocab, pairs):
    """Direction heuristic: the less frequent word entails the more frequent.

    Returns (accuracy, n_used, n_skipped); count ties predict w1 -> w2.
    """
    used, i, j, skipped = _pair_ids(vocab, pairs)
    return int(np.sum(vocab.counts[i] <= vocab.counts[j])) / len(used), len(used), skipped


def _ranked(vocab, candidates, score, descending=False):
    """(candidate, score) of the in-vocabulary candidates sorted by score(ids),
    ties in input order, then the others, in input order, with score None."""
    ids = [vocab.lookup(c) for c in candidates]
    known = [c for c, cid in zip(candidates, ids) if cid is not None]
    if not known:
        raise EvalError("all candidates out of vocabulary")
    s = score([cid for cid in ids if cid is not None])
    order = np.argsort(-s if descending else s, kind="stable")
    return ([(known[r], float(s[r])) for r in order]
            + [(c, None) for c, cid in zip(candidates, ids) if cid is None])


def lexsub_rank(model, inst: LexsubInstance, window: int):
    """Rank substitution candidates by KL from the inferred posterior.

    The posterior conditions on the in-window, in-vocabulary context of the
    target occurrence; candidates sort ascending by KL[q || prior(s)].
    Out-of-vocabulary candidates go last, in input order, with score None.
    """
    view = embedding_view(model)
    if view.posterior is None:
        raise SerializationError("no encoder: model kind is not bsg")
    vocab = view.vocab
    target_id = vocab.lookup(inst.target)
    if target_id is None:
        raise EvalError(f"target {inst.target!r} out of vocabulary")
    ctx_ids = vocab.ids(context_tokens(inst.context_tokens, inst.target_index, window))
    if not ctx_ids:
        raise EvalError("no usable context")
    q = view.posterior(target_id, ctx_ids)
    return _ranked(vocab, inst.candidates,
                   lambda ids: kl_rows(q.mean, q.log_var_vector(), *view.density_rows(ids)))


def gap(ranked_gold_weights, all_gold_weights) -> float:
    """Generalized average precision of a ranking against graded gold weights.

    ranked_gold_weights lists the gold weight of each ranked item in system
    order; all_gold_weights is the full gold weight multiset (including any
    gold items the system never ranked, which count in the denominator).
    """
    gold_sorted = sorted(all_gold_weights, reverse=True)
    n_pos = sum(1 for w in gold_sorted if w > 0)
    if n_pos == 0:
        raise EvalError("no positive gold weights")
    denom = num = 0.0
    for j, csum in enumerate(accumulate(gold_sorted[:n_pos]), start=1):
        denom += csum / j
    for i, (csum, w) in enumerate(zip(accumulate(ranked_gold_weights), ranked_gold_weights), 1):
        if w > 0:
            num += csum / i
    return num / denom


def add_mult_baseline(model, inst: LexsubInstance, window: int, mode: str = "add"):
    """Cosine-composition ranking baselines over the model's means.

    Add averages the cosine of a candidate to the target and to each
    in-window, in-vocabulary context word; Mult takes the geometric mean of
    the shifted cosines pcos = (cos + 1) / 2. Returns candidates sorted
    descending by score (ties in input order), OOV candidates last with
    score None.
    """
    if mode not in ("add", "mult"):
        raise ValueError(f"unknown mode {mode!r}")
    view = embedding_view(model)
    vocab = view.vocab
    target_id = vocab.lookup(inst.target)
    if target_id is None:
        raise EvalError(f"target {inst.target!r} out of vocabulary")
    ctx_ids = vocab.ids(context_tokens(inst.context_tokens, inst.target_index, window))
    rows = view.mean_rows([target_id] + ctx_ids)

    def score(ids):
        cos = cosine_rows(view.mean_rows(ids)[:, None], rows)    # candidates x rows
        if mode == "add":
            return cos.mean(axis=1)
        return np.prod((cos + 1.0) / 2.0, axis=1) ** (1.0 / cos.shape[1])

    return _ranked(vocab, inst.candidates, score, descending=True)


def logdet_frequency_report(model, vocab, out=None):
    """Per-word (word, log count, log det cov) rows plus their Pearson r.

    Writes CSV to the `out` stream when given. Returns (rows, r) with
    r = None when the correlation is undefined (constant log-dets).
    """
    view = embedding_view(model)
    log_counts = np.log(vocab.counts)
    log_dets = np.concatenate([np.sum(np.broadcast_to(lv, mu.shape), axis=1)
                               for _, (mu, lv) in view.blocks(view.density_rows)])
    rows = list(zip(vocab.words, log_counts.tolist(), log_dets.tolist()))
    try:
        r = pearson(log_counts[:len(rows)], log_dets[:len(rows)])
    except EvalError:
        r = None
    if out is not None:
        out.write("word,log_count,log_det_cov\n")
        for w, lc, ld in rows:
            out.write(f"{w},{lc:.10g},{ld:.10g}\n")
        out.write(f"# pearson_r,{'undefined' if r is None else f'{r:.10g}'}\n")
    return rows, r


def _tsv_rows(path, what, parse):
    """(word1, word2, parse(field 3)) of each non-blank line; a line is malformed unless
    it has three tab-separated fields and parse reads its third as a finite number."""
    lines = io.StringIO(read_utf8(path, what, EvalError, None), newline=None)   # as open()
    for lineno, line in enumerate(lines, 1):
        parts = line.strip().split("\t")
        if parts == [""]:
            continue
        try:
            a, b, y = parts
            if not math.isfinite(y := parse(y)):
                raise ValueError
        except ValueError:
            raise EvalError(f"malformed {what} line {lineno}: {line.strip()!r}") from None
        yield a, b, y


def load_similarity_pairs(path):
    return [SimilarityPair(*row) for row in _tsv_rows(path, "similarity", float)]


def load_entailment_pairs(path):
    return [EntailmentPair(*row) for row in _tsv_rows(   # index: a ValueError unless 0 or 1
        path, "entailment", lambda y: ("0", "1").index(y) == 1)]


def _strings(value):
    return type(value) is list and all(type(v) is str for v in value)


# field of a lexical-substitution JSON line -> the test its value must pass
LEXSUB_FIELDS = {"target": lambda v: type(v) is str, "target_index": lambda v: type(v) is int,
                 "context_tokens": _strings, "candidates": _strings,
                 "gold_weights": lambda v: type(v) is dict and all(
                     type(w) in (int, float) and math.isfinite(w) for w in v.values())}


def load_lexsub_instances(path):
    out = []
    lines = io.StringIO(read_utf8(path, "lexsub", EvalError, None), newline=None)
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if type(obj) is not dict:
                raise ValueError("not a JSON object")
            for key, ok in LEXSUB_FIELDS.items():
                if not ok(obj[key]):
                    raise ValueError(f"{key} has the wrong type")
            out.append(LexsubInstance(
                obj["target"], obj["target_index"], tuple(obj["context_tokens"]),
                tuple(obj["candidates"]), {k: float(v) for k, v in obj["gold_weights"].items()}))
        except (KeyError, ValueError, OverflowError) as e:   # an int past the float range
            raise EvalError(f"malformed instance at line {lineno}: {e}") from None
    return out
