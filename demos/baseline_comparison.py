"""Walkthrough: four model kinds on one identical training stream.

Each trainer derives its window/negative stream from the same seeded
generator, so differences between the models come from the objectives, not
from the data order. This script trains all four briefly and prints their
epoch mean losses side by side.

Run:  python3 demos/baseline_comparison.py
"""

import tempfile
from pathlib import Path

from bayesgram import bsg, oracles
from bayesgram.baselines import train_baseline
from bayesgram.corpus import build_vocabulary, iter_documents

with tempfile.TemporaryDirectory(prefix="bayesgram_demo_") as workdir:
    corpus = Path(workdir) / "corpus.txt"

    spec = oracles.polysemy_spec(tokens_per_doc=1000, n_docs=20, seed=0)
    oracles.write_synth_corpus(spec, corpus)
    vocab = build_vocabulary(iter_documents(corpus), 1000, 1, t=1e-2)

    cfg = bsg.TrainConfig(dim=10, window=2, epochs=3, seed=0, batch_size=512,
                          subsample_t=1e-2, learning_rate=0.05)
    rates = {"bsg": 0.05, "sg": 0.005, "w2g_s": 0.01, "w2g_d": 0.01}

    print(f"{'model':8s} epoch mean losses")
    for kind, lr in rates.items():
        losses = []
        if kind == "bsg":
            bsg.train(corpus, vocab, cfg, epoch_losses=losses)
        else:
            train_baseline(kind, corpus, vocab, cfg, epoch_losses=losses,
                           learning_rate=lr)
        print(f"{kind:8s} " + "  ".join(f"{x:.4f}" for x in losses))

print("\nLoss scales are not comparable across objectives; the point is that")
print("every kind trains stably downward on the exact same stream.")
