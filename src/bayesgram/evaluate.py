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

import json
from dataclasses import dataclass

import numpy as np

from .corpus import context_tokens
from .gauss import cosine, cosine_rows, kl_rows
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
    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least 2 points")
    return pearson(_ranks(xs), _ranks(ys))      # constant input: EvalError


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
    """(in-vocabulary pairs, their word-id arrays i and j, number skipped)."""
    ids = [(p, vocab.lookup(p.word1), vocab.lookup(p.word2)) for p in pairs]
    used = [t for t in ids if t[1] is not None and t[2] is not None]
    i, j = (np.array([t[c] for t in used], dtype=np.intp) for c in (1, 2))
    return [t[0] for t in used], i, j, len(ids) - len(used)


def eval_similarity(model, pairs):
    """Spearman rho of cosine(prior means) vs gold scores.

    Returns (rho, n_used, n_oov); pairs with either word out of vocabulary
    are skipped and counted.
    """
    view = embedding_view(model)
    used, i, j, n_oov = _pair_ids(view.vocab, pairs)
    if not used:
        raise EvalError(f"no usable pairs ({n_oov} out of vocabulary)")
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
    if not used:
        raise EvalError(f"no usable pairs ({n_oov} out of vocabulary)")
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
    if not used:
        raise EvalError("no usable pairs")
    p1, p2 = view.density_rows(i), view.density_rows(j)
    return int(np.sum(kl_rows(*p1, *p2) <= kl_rows(*p2, *p1))) / len(used)


def frequency_direction_baseline(vocab, pairs):
    """Direction heuristic: the less frequent word entails the more frequent.

    Returns (accuracy, n_used, n_skipped); count ties predict w1 -> w2.
    """
    used, i, j, skipped = _pair_ids(vocab, pairs)
    if not used:
        raise EvalError("no usable pairs")
    return int(np.sum(vocab.counts[i] <= vocab.counts[j])) / len(used), len(used), skipped


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
    ids = [vocab.lookup(c) for c in inst.candidates]
    known = [c for c, cid in zip(inst.candidates, ids) if cid is not None]
    if not known:
        raise EvalError("all candidates out of vocabulary")
    kl = kl_rows(q.mean, q.log_var_vector(),
                 *view.density_rows([cid for cid in ids if cid is not None]))
    return ([(known[r], float(kl[r])) for r in np.argsort(kl, kind="stable")]
            + [(c, None) for c, cid in zip(inst.candidates, ids) if cid is None])


def gap(ranked_gold_weights, all_gold_weights) -> float:
    """Generalized average precision of a ranking against graded gold weights.

    ranked_gold_weights lists the gold weight of each ranked item in system
    order; all_gold_weights is the full gold weight multiset (including any
    gold items the system never ranked, which count in the denominator).
    """
    gold_sorted = sorted((w for w in all_gold_weights), reverse=True)
    n_pos = sum(1 for w in gold_sorted if w > 0)
    if n_pos == 0:
        raise EvalError("no positive gold weights")
    denom = 0.0
    csum = 0.0
    for j, w in enumerate(gold_sorted[:n_pos], start=1):
        csum += w
        denom += csum / j
    num = 0.0
    csum = 0.0
    for i, w in enumerate(ranked_gold_weights, start=1):
        csum += w
        if w > 0:
            num += csum / i
    return num / denom


def add_mult_baseline(vectors, inst: LexsubInstance, window: int,
                      mode: str = "add"):
    """Cosine-composition ranking baselines over point embeddings.

    vectors maps word -> mean vector. Add averages cosine to the target and
    each context word; Mult takes the geometric mean of shifted cosines
    pcos = (cos + 1) / 2. Returns candidates sorted descending by score,
    OOV candidates last with score None.
    """
    if mode not in ("add", "mult"):
        raise ValueError(f"unknown mode {mode!r}")
    if inst.target not in vectors:
        raise EvalError(f"target {inst.target!r} out of vocabulary")
    t = vectors[inst.target]
    ctx_vecs = [vectors[c] for c in context_tokens(inst.context_tokens,
                                                   inst.target_index, window)
                if c in vectors]
    scored, oov = [], []
    for pos, cand in enumerate(inst.candidates):
        if cand not in vectors:
            oov.append((cand, None))
            continue
        s = vectors[cand]
        n = len(ctx_vecs) + 1
        if mode == "add":
            score = (cosine(s, t) + sum(cosine(s, c) for c in ctx_vecs)) / n
        else:
            pc = (cosine(s, t) + 1.0) / 2.0
            for c in ctx_vecs:
                pc *= (cosine(s, c) + 1.0) / 2.0
            score = pc ** (1.0 / n)
        scored.append((pos, cand, score))
    if not scored:
        raise EvalError("all candidates out of vocabulary")
    scored.sort(key=lambda x: (-x[2], x[0]))
    return [(cand, score) for _, cand, score in scored] + oov


def logdet_frequency_report(model, vocab, out=None):
    """Per-word (word, log count, log det cov) rows plus their Pearson r.

    Writes CSV to the `out` stream when given. Returns (rows, r) with
    r = None when the correlation is undefined (constant log-dets).
    """
    view = embedding_view(model)
    log_counts = np.log(vocab.counts)
    log_dets = np.concatenate([np.sum(np.broadcast_to(lv, mu.shape), axis=1)
                               for mu, lv in view.blocks(view.density_rows)])
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


def _tsv_rows(path, what, valid=lambda parts: True):
    """The tab-separated fields of each non-blank line, three per line."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.strip().split("\t")
            if parts == [""]:
                continue
            if len(parts) != 3 or not valid(parts):
                raise EvalError(f"malformed {what} line {lineno}: {line.strip()!r}")
            yield parts


def load_similarity_pairs(path):
    return [SimilarityPair(a, b, float(s)) for a, b, s in _tsv_rows(path, "similarity")]


def load_entailment_pairs(path):
    return [EntailmentPair(a, b, y == "1")
            for a, b, y in _tsv_rows(path, "entailment", lambda p: p[2] in ("0", "1"))]


def load_lexsub_instances(path):
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                out.append(LexsubInstance(
                    target=obj["target"],
                    target_index=int(obj["target_index"]),
                    context_tokens=tuple(obj["context_tokens"]),
                    candidates=tuple(obj["candidates"]),
                    gold_weights={k: float(v)
                                  for k, v in obj["gold_weights"].items()}))
            except (KeyError, ValueError, json.JSONDecodeError) as e:
                raise EvalError(f"malformed instance at line {lineno}: {e}")
    return out
