"""Shared test utilities: tiny vocabularies, perturbed models and a failing file."""

import errno
import os

import numpy as np

from bayesgram import bsg
from bayesgram.corpus import Vocabulary


# words a `word<TAB>count` line holds, though str.splitlines or universal
# newlines would split them
LINE_BREAKING_WORDS = ["a\x85b", "a\u2028b", "a\x0cb", "a\rb", "a\r", "\r"]


def tiny_vocab(n=12, seed=None):
    words = [f"w{i}" for i in range(n)]
    counts = np.arange(1, n + 1, dtype=np.int64)
    return Vocabulary(words, counts)


def perturbed_bsg_model(vocab, cfg, rng, scale=0.2):
    model = bsg.init_bsg_model(vocab, cfg, rng)
    for arr in model.param_arrays().values():
        arr += rng.normal(scale=scale, size=arr.shape)
    return model



class PartWrite:
    """A writable file whose first write lands, then raises ENOSPC."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.f.close()

    def write(self, data):
        self.f.write(data)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
