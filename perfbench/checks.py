"""Output checks: independent NumPy/SciPy references for what the library returns.

Each check returns True when the library's output agrees with the
reference. The checks run outside every timed region, and a check that
returns False counts its operation as failed (see `Ops`).
"""

import sys
import time

import numpy as np
import scipy.stats

SCORE_TOL = 1e-9


class Ops:
    """Counts attempted and failed operations.

    An operation fails when it raises or when its output check rejects the
    result. Only the call itself is timed.
    """

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, label, fn, check=None):
        """Call fn(); return (result, seconds), or (None, None) on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # a failed operation is counted, not fatal
            self._fail(label, f"{type(e).__name__}: {e}")
            return None, None
        seconds = time.perf_counter() - t0
        if check is not None:
            self.check(label, lambda: check(result), counted=False)
        return result, seconds

    def check(self, label, predicate, counted=True):
        """Run a standalone check; False or an exception fails it."""
        if counted:
            self.attempted += 1
        try:
            ok = bool(predicate())
            detail = "output check failed"
        except Exception as e:  # a broken check is a failed check
            ok, detail = False, f"check raised {type(e).__name__}: {e}"
        if not ok:
            self._fail(label, detail)
        return ok

    def _fail(self, label, detail):
        self.failed += 1
        self.failures.append(f"{label}: {detail}")
        print(f"[{self.name}] FAILED {label}: {detail}", file=sys.stderr)


# ------------------------------------------------------------------ tables

def prior_tables(bundle):
    """(means, log-variances as V x d) in float64, as nearest/evals read them."""
    a = bundle.arrays
    if bundle.model_kind == "bsg":
        mean, lv = a["prior_mean"], a["prior_log_var"]
    elif bundle.model_kind == "w2g":
        mean, lv = a["mean"], a["log_var"]
    else:
        return np.asarray(a["in_vec"], dtype=np.float64), None
    mean = np.asarray(mean, dtype=np.float64)
    lv = np.asarray(lv, dtype=np.float64)
    if lv.ndim == 1:
        lv = np.repeat(lv[:, None], mean.shape[1], axis=1)
    return mean, lv


def kl_rows(mu1, lv1, mu2, lv2):
    """KL[N(mu1, e^lv1) || N(mu2, e^lv2)] along the last axis, broadcasting."""
    dmu = mu2 - mu1
    return 0.5 * np.sum(np.exp(lv1 - lv2) + dmu * dmu * np.exp(-lv2) - 1.0
                        + (lv2 - lv1), axis=-1)


def cosine_rows(means, q):
    norms = np.linalg.norm(means, axis=1) * np.linalg.norm(q)
    return np.clip(means @ q / norms, -1.0, 1.0)


# --------------------------------------------------------------- read path

def nearest_ok(bundle, word, k, measure, result):
    """Brute-force ranking: distinct words, score descending, ties by word id,
    query excluded."""
    vocab = bundle.vocab
    qid = vocab.lookup(word)
    mean, lv = prior_tables(bundle)
    if measure == "cosine_mean":
        scores = cosine_rows(mean, mean[qid])
    else:
        scores = -kl_rows(mean[qid], lv[qid], mean, lv)
    scores[qid] = -np.inf
    order = np.lexsort((np.arange(len(scores)), -scores))[:k]
    if len(result) != len(order):
        return False
    ids = [vocab.lookup(w) for w, _ in result]
    got = np.array([s for _, s in result])
    if (qid in ids or len(set(ids)) != len(ids)
            or not np.allclose(got, scores[ids], rtol=0, atol=SCORE_TOL)):
        return False
    # same top-k up to near-ties, listed best first, ties by id
    if got[-1] < scores[order[-1]] - SCORE_TOL:
        return False
    for (i, s), (j, t) in zip(zip(ids, got), zip(ids[1:], got[1:])):
        if s < t - SCORE_TOL or (abs(s - t) == 0.0 and i > j):
            return False
    return True


def context_ids(vocab, sentence, index, window):
    ctx = sentence[max(0, index - window):index] + sentence[index + 1:index + 1 + window]
    return [vocab.lookup(w) for w in ctx if w in vocab]


def encoder_forward(arrays, center, ctx):
    """The inference network's forward pass, written out in float64."""
    f = {k: np.asarray(arrays[k], dtype=np.float64)
         for k in ("enc_R", "enc_M", "enc_U", "enc_b1", "enc_W", "enc_b2")}
    R = f["enc_R"]
    X = np.concatenate([R[ctx], np.repeat(R[center][None, :], len(ctx), axis=0)], axis=1)
    h = np.maximum(X @ f["enc_M"].T, 0.0).sum(axis=0)
    return f["enc_U"] @ h + f["enc_b1"], f["enc_W"] @ h + f["enc_b2"]


def infer_ok(bundle, sentence, index, window, result):
    vocab = bundle.vocab
    mu, lv = encoder_forward(bundle.arrays, vocab.lookup(sentence[index]),
                             context_ids(vocab, sentence, index, window))
    return (np.allclose(result.mean, mu, rtol=1e-4, atol=1e-5)
            and np.allclose(result.log_var_vector(),
                            np.broadcast_to(lv, mu.shape), rtol=1e-4, atol=1e-5))


# -------------------------------------------------------------------- evals

def pair_ids(vocab, pairs):
    return (np.array([vocab.lookup(p.word1) for p in pairs]),
            np.array([vocab.lookup(p.word2) for p in pairs]))


def similarity_ok(bundle, pairs, result):
    rho, n_used, n_oov = result
    mean, _ = prior_tables(bundle)
    i, j = pair_ids(bundle.vocab, pairs)
    cos = np.sum(mean[i] * mean[j], axis=1) / (
        np.linalg.norm(mean[i], axis=1) * np.linalg.norm(mean[j], axis=1))
    ref = scipy.stats.spearmanr(cos, [p.gold for p in pairs]).statistic
    return n_used == len(pairs) and n_oov == 0 and abs(rho - ref) <= 1e-9


def exhaustive_best_f1(scores, labels):
    """Best F1 of `score >= t` over every distinct score and +inf."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    best = 0.0
    for t in np.append(np.unique(s), np.inf):
        pred = s >= t
        tp = np.sum(pred & y)
        if tp:
            best = max(best, 2 * tp / (2 * tp + np.sum(pred & ~y) + np.sum(~pred & y)))
    return float(best)


def entailment_ok(bundle, pairs, result):
    f1, _, scores, labels, n_oov = result
    mean, lv = prior_tables(bundle)
    i, j = pair_ids(bundle.vocab, pairs)
    ref = -kl_rows(mean[i], lv[i], mean[j], lv[j])
    return (n_oov == 0 and np.allclose(scores, ref, rtol=1e-9, atol=SCORE_TOL)
            and abs(f1 - exhaustive_best_f1(scores, labels)) <= 1e-12)


def directionality_ok(bundle, pairs, result):
    mean, lv = prior_tables(bundle)
    i, j = pair_ids(bundle.vocab, pairs)
    fwd = kl_rows(mean[i], lv[i], mean[j], lv[j])
    back = kl_rows(mean[j], lv[j], mean[i], lv[i])
    decided = np.abs(fwd - back) > SCORE_TOL
    ref = np.mean(fwd <= back)
    return abs(result - ref) <= np.sum(~decided) / len(pairs)


def lexsub_ok(bundle, inst, window, ranking):
    vocab = bundle.vocab
    mu, lv = encoder_forward(bundle.arrays, vocab.lookup(inst.target),
                             context_ids(vocab, list(inst.context_tokens),
                                         inst.target_index, window))
    mean, plv = prior_tables(bundle)
    ids = [vocab.lookup(c) for c, _ in ranking]
    got = np.array([s for _, s in ranking])
    ref = kl_rows(mu, np.broadcast_to(lv, mu.shape), mean[ids], plv[ids])
    return (sorted(c for c, _ in ranking) == sorted(inst.candidates)
            and np.all(np.diff(got) >= -SCORE_TOL)
            and np.allclose(got, ref, rtol=1e-3, atol=1e-3))


def gap_ok(value):
    return 0.0 <= value <= 1.0 + 1e-12


def logdet_ok(bundle, result):
    rows, r = result
    _, lv = prior_tables(bundle)
    logdet = lv.sum(axis=1)
    logc = np.log(bundle.vocab.counts.astype(np.float64))
    got = np.array([x[2] for x in rows])
    ref_r = np.corrcoef(logc, logdet)[0, 1]
    return (len(rows) == len(bundle.vocab)
            and np.allclose(got, logdet, rtol=1e-9, atol=1e-9)
            and r is not None and abs(r - ref_r) <= 1e-9)


# ----------------------------------------------------------------- training

def finite_params(model):
    return all(np.all(np.isfinite(a)) for a in model.param_arrays().values())


def last_examples_seen(log_path):
    with open(log_path, encoding="utf-8") as f:
        rows = f.read().splitlines()
    return int(rows[-1].split(",")[2])


def round_trip_ok(bundle, loaded):
    if sorted(bundle.arrays) != sorted(loaded.arrays):
        return False
    return all(loaded.arrays[k].dtype == v.dtype and np.array_equal(loaded.arrays[k], v)
               for k, v in bundle.arrays.items())
