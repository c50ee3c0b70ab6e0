"""Walkthrough: broader words get broader densities.

Trains the Bayesian model on a synthetic hypernymy corpus where each
hypernym's contexts mix over its four hyponyms' sense groups. Two effects
fall out of the learned priors:

  1. KL asymmetry points from hyponym to hypernym (directionality);
  2. hypernyms carry larger covariance determinants than their hyponyms.

Run:  python3 demos/entailment_and_variance.py
"""

import tempfile
from pathlib import Path

from bayesgram import bsg, oracles
from bayesgram.corpus import build_vocabulary, iter_documents
from bayesgram.evaluate import (EntailmentPair, eval_directionality,
                                frequency_direction_baseline)
from bayesgram.gauss import log_det_cov

with tempfile.TemporaryDirectory(prefix="bayesgram_demo_") as workdir:
    corpus = Path(workdir) / "corpus.txt"

    spec = oracles.hypernymy_spec(n_hypernyms=5, hyponyms_per=4,
                                  tokens_per_doc=1000, n_docs=30, seed=0)
    oracles.write_synth_corpus(spec, corpus)
    vocab = build_vocabulary(iter_documents(corpus), 1000, 1, t=1e-2)

    cfg = bsg.TrainConfig(dim=10, window=2, epochs=5, seed=0, batch_size=512,
                          learning_rate=0.05, margin=2.0, subsample_t=1e-2)
    model = bsg.train(corpus, vocab, cfg)

pairs = [EntailmentPair(a, b, True) for a, b in spec.gold_pairs]
acc = eval_directionality(model, pairs)
base, _, _ = frequency_direction_baseline(vocab, pairs)
print(f"directionality accuracy: {acc:.0%} "
      f"(frequency heuristic: {base:.0%})")

print("\nlog det covariance, hypernym vs its hyponyms:")
for h in range(3):
    hyper = f"hyper{h}"
    ld_hyper = log_det_cov(model.prior_gaussian(vocab.lookup(hyper)))
    ld_hypos = [log_det_cov(model.prior_gaussian(vocab.lookup(f"hypo{h}_{s}")))
                for s in range(4)]
    marks = " ".join(f"{x:+.2f}" for x in ld_hypos)
    print(f"  {hyper}: {ld_hyper:+.2f}   hyponyms: {marks}")
print("\nBroader meaning shows up as broader density, which is what makes")
print("the asymmetric KL a usable entailment direction signal.")
