"""The flat, chunked Adam against a textbook dense Adam, bit for bit: one
optimizer on its own, and whole training runs of every model kind."""

import numpy as np
import pytest

from bayesgram import bsg, oracles, optim
from bayesgram.baselines import train_baseline
from bayesgram.corpus import build_vocabulary, iter_documents
from bayesgram.optim import CHUNK, Adam


class DenseAdam:
    """Textbook Adam, one whole-table update per parameter, with the
    trainer's interface: gradient sums in grads, divided by the window count
    in place at each step and zeroed after it."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}
        self.grads = {k: np.zeros(p.shape) for k, p in params.items()}

    def step(self, count):
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for k, p in self.params.items():
            g, m, v = self.grads[k], self.m[k], self.v[k]
            np.divide(g, count, out=g)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p -= update.astype(p.dtype)
            g.fill(0.0)


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.itemsize}"))


def assert_same_bits(a: dict, b: dict):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].dtype == b[k].dtype and a[k].shape == b[k].shape, k
        assert np.array_equal(bits(a[k]), bits(b[k])), k


# (shape, dtype) per parameter; sizes straddle chunk boundaries in every way
LAYOUTS = {
    "mixed": [((CHUNK - 1,), "float32"), ((CHUNK,), "float64"),
              ((CHUNK + 1,), "float32"), ((41, 800), "float64"),
              ((7,), "float32"), ((5, 3), "float64"), ((), "float32")],
    "one_chunk": [((CHUNK,), "float32")],
    "chunk_minus_one": [((CHUNK - 1,), "float64")],
    "chunk_plus_one": [((CHUNK + 1,), "float32")],
    "over_two_chunks": [((2 * CHUNK + 3,), "float32"), ((3,), "float64")],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_chunked_step_matches_dense_bit_for_bit(layout):
    rng = np.random.default_rng(3)
    init = {f"p{i}": rng.normal(scale=0.3, size=shape).astype(dtype)
            for i, (shape, dtype) in enumerate(LAYOUTS[layout])}
    params = {k: a.copy() for k, a in init.items()}
    ref_params = {k: a.copy() for k, a in init.items()}
    kw = dict(lr=0.01, beta1=0.85, beta2=0.995, eps=1e-7)
    opt, ref = Adam(params, **kw), DenseAdam(ref_params, **kw)
    for step in range(5):
        count = int(rng.integers(1, 50))
        for k, p in params.items():
            g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=p.shape)
            g[rng.random(p.shape) < 0.3] = 0.0      # rows a batch never touched
            opt.grads[k][...] = g
            ref.grads[k][...] = g
        opt.step(count)
        ref.step(count)
        assert_same_bits(params, ref_params)
        assert_same_bits(opt.m, ref.m)
        assert_same_bits(opt.v, ref.v)
        for g in opt.grads.values():
            assert not g.any()
    assert opt.t == 5


def test_state_is_views_of_flat_arrays():
    params = {"a": np.zeros((3, 4), np.float32), "b": np.zeros(5)}
    opt = Adam(params)
    for state in (opt.m, opt.v, opt.grads):
        assert [s.shape for s in state.values()] == [(3, 4), (5,)]
        assert all(s.dtype == np.float64 for s in state.values())
        a, b = state.values()
        assert a.base is b.base is not None
    assert opt.params is params


def test_empty_parameter_dict():
    opt = Adam({})
    opt.step(3)
    assert opt.t == 1 and opt.m == {} and opt.v == {} and opt.grads == {}


def test_rejects_non_contiguous_parameter():
    with pytest.raises(ValueError, match="not C-contiguous"):
        Adam({"w": np.zeros((4, 6))[:, ::2]})


@pytest.fixture(scope="module")
def poly(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    oracles.write_synth_corpus(
        oracles.polysemy_spec(tokens_per_doc=1000, n_docs=6, seed=4), path)
    return path, build_vocabulary(iter_documents(path), 100, 1, t=1e-2)


def _train(kind, path, vocab):
    cfg = bsg.TrainConfig(dim=10, window=2, epochs=2, seed=0, batch_size=512,
                          subsample_t=1e-2, learning_rate=0.05,
                          cov_kind="diagonal" if kind == "bsg_d" else "spherical")
    if kind.startswith("bsg"):
        return bsg.train(path, vocab, cfg).param_arrays()
    lr = {"sg": 0.005, "w2g_s": 0.01, "w2g_d": 0.01}[kind]
    return train_baseline(kind, path, vocab, cfg, learning_rate=lr).param_arrays()


@pytest.mark.parametrize("chunk", [CHUNK, 97])
@pytest.mark.parametrize("kind", ["bsg", "bsg_d", "sg", "w2g_s", "w2g_d"])
def test_training_matches_dense_adam_bit_for_bit(poly, kind, chunk, monkeypatch):
    path, vocab = poly
    monkeypatch.setattr(optim, "CHUNK", chunk)
    shipped = _train(kind, path, vocab)
    with monkeypatch.context() as mp:
        mp.setattr(bsg, "Adam", DenseAdam)
        dense = _train(kind, path, vocab)
    assert_same_bits(shipped, dense)
