"""Seeded input generators for the benchmark.

Everything a workload feeds the library is written here from the workload
seed: corpora, the query model, query words and windows, and the evaluation
datasets in the TSV/JSONL formats that `bayesgram.evaluate` loads. The same
seed gives the same bytes.
"""

import json

import numpy as np

from bayesgram import bsg, oracles, serialize

ZIPF_TYPES = 60_000         # type universe; about 50k survive max_size
ZIPF_EXPONENT = 1.0
DOC_TOKENS = 1000
# Eval dataset sizes of the public sets the W2G (arXiv:1412.6623) and BSG
# (arXiv:1711.11027) evaluations use, as their publications state them:
# SimLex-999 (999 similarity pairs), the entailment pairs of Baroni et al.
# (2012) (2,770, half positive) and the SemEval-2007 lexical substitution
# sentences (2,010: 300 trial + 1,710 test). The candidate and gold counts
# per lexsub instance follow no source.
EVAL_SIZES = (999, 2770, 2010)   # similarity pairs, entailment pairs, lexsub instances
LEXSUB_CANDIDATES = 10
LEXSUB_GOLD = 3


def _rng(seed, stream):
    # one independent generator per input, so adding an input never shifts
    # the bytes of another
    return np.random.default_rng([seed, 1000 + stream])


def write_poly_corpus(full_path, shard_path, seed, shard_docs):
    """The acceptance polysemy corpus (|V| = 16), from the public oracles.

    The full corpus is the acceptance spec's 100 documents; the shard is its
    first `shard_docs` documents.
    """
    spec = oracles.polysemy_spec(tokens_per_doc=DOC_TOKENS, seed=seed)
    oracles.write_synth_corpus(spec, full_path)
    with open(full_path, encoding="utf-8") as f:
        lines = f.readlines()
    _write_shard(shard_path, lines, shard_docs)


def _write_shard(path, lines, shard_docs):
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines[:shard_docs])


def write_zipf_corpus(full_path, shard_path, seed, n_tokens, shard_docs):
    """Zipf(s = 1) text over ZIPF_TYPES word types, one document per line.

    The shard is the first `shard_docs` documents of the full corpus.
    """
    rng = _rng(seed, 1)
    ranks = np.arange(1, ZIPF_TYPES + 1, dtype=np.float64)
    p = ranks ** -ZIPF_EXPONENT
    p /= p.sum()
    # word spellings are a seeded permutation, so frequency rank and
    # spelling order differ
    words = np.array([f"w{i}" for i in rng.permutation(ZIPF_TYPES)])
    ids = rng.choice(ZIPF_TYPES, size=n_tokens, p=p)
    lines = [" ".join(words[ids[i:i + DOC_TOKENS]].tolist()) + "\n"
             for i in range(0, n_tokens, DOC_TOKENS)]
    with open(full_path, "w", encoding="utf-8") as f:
        f.writelines(lines)
    _write_shard(shard_path, lines, shard_docs)


def query_model(vocab, dim, seed):
    """A diagonal BSG model over `vocab` with seeded, perturbed parameters."""
    rng = _rng(seed, 2)
    cfg = bsg.TrainConfig(dim=dim, cov_kind="diagonal", seed=seed)
    model = bsg.init_bsg_model(vocab, cfg, rng)
    V = len(vocab)
    model.prior_mean += rng.normal(0.0, 0.3, (V, dim)).astype(np.float32)
    model.prior_log_var += rng.normal(0.0, 0.5, (V, dim)).astype(np.float32)
    model.ctx_mean += rng.normal(0.0, 0.3, (V, dim)).astype(np.float32)
    model.ctx_log_var += rng.normal(0.0, 0.5, (V, dim)).astype(np.float32)
    model.enc.R += rng.normal(0.0, 0.3, (V, dim)).astype(np.float32)
    return serialize.bundle_from_model(model, {"dim": dim, "cov_kind": "diagonal"})


def query_words(vocab, seed, n):
    rng = _rng(seed, 3)
    return [vocab.words[i] for i in rng.integers(0, len(vocab), size=n)]


def sentences(vocab, seed, n, window, stream=4):
    """n token lists of length 2*window+1; the target is the middle token."""
    rng = _rng(seed, stream)
    ids = rng.integers(0, len(vocab), size=(n, 2 * window + 1))
    return [[vocab.words[i] for i in row] for row in ids]


def write_eval_datasets(vocab, seed, window, sim_path, ent_path, lex_path,
                        n_sim, n_ent, n_lex):
    """Similarity TSV, entailment TSV and lexical-substitution JSONL.

    Half of the entailment pairs are positive. Each lexsub instance has
    LEXSUB_CANDIDATES candidates, the first LEXSUB_GOLD of them gold.
    """
    rng = _rng(seed, 5)
    words = vocab.words
    V = len(words)

    def pair():
        i, j = rng.choice(V, size=2, replace=False)
        return words[i], words[j]

    with open(sim_path, "w", encoding="utf-8") as f:
        for _ in range(n_sim):
            w1, w2 = pair()
            f.write(f"{w1}\t{w2}\t{rng.uniform(0.0, 10.0):.2f}\n")
    labels = rng.permutation(np.arange(n_ent) < (n_ent + 1) // 2)
    with open(ent_path, "w", encoding="utf-8") as f:
        for label in labels:
            w1, w2 = pair()
            f.write(f"{w1}\t{w2}\t{int(label)}\n")
    contexts = sentences(vocab, seed, n_lex, window, stream=6)
    with open(lex_path, "w", encoding="utf-8") as f:
        for ctx in contexts:
            cands = [words[i] for i in rng.choice(V, size=LEXSUB_CANDIDATES, replace=False)]
            gold = {c: float(rng.integers(1, 6)) for c in cands[:LEXSUB_GOLD]}
            f.write(json.dumps({"target": ctx[window], "target_index": window,
                                "context_tokens": ctx, "candidates": cands,
                                "gold_weights": gold}) + "\n")
