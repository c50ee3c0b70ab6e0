"""Shared test utilities: flat parameter vectors and gradient checking."""

import numpy as np

from bayesgram import bsg, oracles
from bayesgram.corpus import Vocabulary


# words a `word<TAB>count` line holds, though str.splitlines or universal
# newlines would split them
LINE_BREAKING_WORDS = ["a\x85b", "a\u2028b", "a\x0cb", "a\rb", "a\r", "\r"]


def tiny_vocab(n=12, seed=None):
    words = [f"w{i}" for i in range(n)]
    counts = np.arange(1, n + 1, dtype=np.int64)
    return Vocabulary(words, counts)


def flatten(params: dict, names):
    return np.concatenate([np.asarray(params[n], dtype=np.float64).reshape(-1)
                           for n in names])


def write_back(params: dict, names, vec):
    off = 0
    for n in names:
        a = params[n]
        a[...] = vec[off:off + a.size].reshape(a.shape)
        off += a.size


def rel_err(analytic, fd):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-3)
    return float(np.max(np.abs(analytic - fd) / denom))


def perturbed_bsg_model(vocab, cfg, rng, scale=0.2):
    model = bsg.init_bsg_model(vocab, cfg, rng)
    for arr in model.param_arrays().values():
        arr += rng.normal(scale=scale, size=arr.shape)
    return model


def kernel_gradcheck(kernel, params, batch, h=1e-6):
    """Max relative error of a batch kernel's gradients vs finite differences.

    kernel(*batch, want_grads=...) is a model's batch kernel bound to its model
    (and config), params the arrays it reads. The analytic gradients are
    densified with BatchGrads.scatter, as training does; the loss differentiated
    is the sum of the batch's window losses.
    """
    names = sorted(params)
    dense = {n: np.zeros(params[n].shape) for n in names}
    kernel(*batch).scatter(dense)
    x0 = flatten(params, names)

    def loss_of(vec):
        write_back(params, names, vec)
        return float(kernel(*batch, want_grads=False).losses.sum())

    fd = oracles.finite_diff_grad(loss_of, x0, h)
    write_back(params, names, x0)
    return rel_err(flatten(dense, names), fd)
