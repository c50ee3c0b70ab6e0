"""The flat, chunked Adam against a textbook dense Adam, bit for bit: one
optimizer on its own, its row-sparse step over the rows training has
reached with their state in slot order, and whole training runs of every
model kind."""

import numpy as np
import pytest

from bayesgram import bsg, oracles, optim
from bayesgram.baselines import train_baseline
from bayesgram.bsg import BatchGrads
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

    def accumulate(self, batch_grads):
        batch_grads.scatter(self.grads)

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


def stepped_rows(opt, name):
    """Sorted row ids of a table the last step updated, or None for every row."""
    rows = opt._rows.get(name)
    return None if rows is None else np.sort(rows)


def in_row_order(opt, state):
    """A state dict (m, v or grads) with each slot-ordered table put back in
    row order; rows never reached read +0.0, as in the dense update."""
    out = dict(state)
    for k, rows in opt._rows.items():
        out[k] = np.zeros_like(state[k])
        out[k][rows] = state[k][:len(rows)]
    return out


def _row_batch(rng, params, table, rows):
    """A BatchGrads with gradients on the given (repeating) rows of one table
    and on every element of the other parameters."""
    p = params[table]
    g = rng.normal(size=(len(rows),) + p.shape[1:])
    dense = {k: rng.normal(size=q.shape) for k, q in params.items() if k != table}
    return BatchGrads(np.zeros(1), {table: (np.asarray(rows), g)}, dense)


def _sparse_pair(layout):
    rng = np.random.default_rng(8)
    init = {k: rng.normal(scale=0.3, size=shape).astype(dtype)
            for k, (shape, dtype) in layout.items()}
    params = {k: a.copy() for k, a in init.items()}
    ref_params = {k: a.copy() for k, a in init.items()}
    kw = dict(lr=0.01, beta1=0.85, beta2=0.995, eps=1e-7)
    return rng, params, ref_params, Adam(params, **kw), DenseAdam(ref_params, **kw)


def _step_both(opt, ref, batch, count, params, ref_params):
    opt.accumulate(batch)
    ref.accumulate(batch)
    opt.step(count)
    ref.step(count)
    assert_same_bits(params, ref_params)
    assert_same_bits(in_row_order(opt, opt.m), ref.m)
    assert_same_bits(in_row_order(opt, opt.v), ref.v)
    assert not any(g.any() for g in opt.grads.values())


def test_gathered_table_straddling_chunks_matches_dense():
    # the table starts and ends inside contiguous chunks of its neighbours,
    # its width divides no chunk, its reached rows fill several chunks of
    # slots, the last one partly, and the state is over 4 MiB per array
    n_rows, width = 60_000, 13
    rng, params, ref_params, opt, ref = _sparse_pair({
        "head": ((CHUNK - 3,), "float32"), "t": ((n_rows, width), "float32"),
        "tail": ((5,), "float64")})
    seen = set()
    for count, n_new in [(3, 40), (7, 1200), (2, 0), (5, 1900)]:
        rows = rng.integers(0, n_rows, size=n_new + 30)
        batch = _row_batch(rng, params, "t", np.concatenate([rows, rows[:30]]))
        seen.update(rows.tolist())
        _step_both(opt, ref, batch, count, params, ref_params)
        stepped = stepped_rows(opt, "t")
        assert stepped is not None and stepped.tolist() == sorted(seen)
    assert 2 * CHUNK < len(seen) * width and len(seen) < n_rows
    assert 8 * sum(p.size for p in params.values()) > 1 << 22
    assert stepped_rows(opt, "head") is None and stepped_rows(opt, "tail") is None


def test_table_reached_up_to_every_row_matches_dense():
    n_rows = CHUNK + 100
    rng, params, ref_params, opt, ref = _sparse_pair({
        "t": ((n_rows, 3), "float64"), "lv": ((n_rows,), "float32")})
    fractions = [0.02, 0.15, 0.29, 0.35, 0.9, 1.0]
    order = rng.permutation(n_rows)
    for i, frac in enumerate(fractions):
        rows = order[:int(frac * n_rows)]
        batch = BatchGrads(np.zeros(1), {
            k: (rows, rng.normal(size=(len(rows),) + p.shape[1:])) for k, p in params.items()})
        _step_both(opt, ref, batch, i + 1, params, ref_params)
        for k in params:
            stepped = stepped_rows(opt, k)
            assert stepped is not None and stepped.tolist() == sorted(rows), (k, frac)


def test_state_of_reached_rows_is_contiguous():
    # the sums, m and v of a table hold the n rows reached so far in their
    # first n * width elements, however the rows lie in the table
    n_rows, width = 60_000, 7
    rng, params, ref_params, opt, ref = _sparse_pair({
        "t": ((n_rows, width), "float32"), "b": ((3,), "float64")})
    reached = set()
    for count, n_new in [(2, 50), (3, 900), (4, 0), (5, 2500)]:
        rows = rng.integers(0, n_rows, size=n_new + 10)
        batch = _row_batch(rng, params, "t", np.concatenate([rows, rows[:10]]))
        reached.update(rows.tolist())
        opt.accumulate(batch)
        ref.accumulate(batch)
        n = len(reached) * width
        sums = opt.grads["t"].reshape(-1)
        assert np.count_nonzero(sums[:n]) == len(set(rows.tolist())) * width
        assert not sums[n:].any()
        opt.step(count)
        ref.step(count)
        assert_same_bits(params, ref_params)
        for state in (opt.m, opt.v):
            flat = state["t"].reshape(-1)
            assert flat[:n].all() and not flat[n:].any()
    assert max(reached) > 50_000      # rows spread over the whole table


def test_small_and_unmarked_tables_stay_whole():
    rng, params, ref_params, opt, ref = _sparse_pair({
        "small": ((CHUNK // 4, 4), "float32"), "big": ((CHUNK, 4), "float32")})
    batch = _row_batch(rng, params, "small", [0, 3, 3])
    _step_both(opt, ref, batch, 2, params, ref_params)
    assert stepped_rows(opt, "small") is None      # marked, but one chunk at most
    assert stepped_rows(opt, "big") is None        # dense gradients only: never marked


def test_rows_arriving_after_the_first_step_keep_row_order():
    # a table stepped whole once has nonzero moments in row order everywhere
    rng, params, ref_params, opt, ref = _sparse_pair({"t": ((CHUNK, 3), "float32")})
    g = rng.normal(size=(CHUNK, 3))
    opt.grads["t"][...] = g
    ref.grads["t"][...] = g
    opt.step(2)
    ref.step(2)
    _step_both(opt, ref, _row_batch(rng, params, "t", [5, 9, 5]), 3, params, ref_params)
    assert stepped_rows(opt, "t") is None


def test_dense_gradient_for_a_row_sparse_table_raises():
    rng, params, _, opt, _ = _sparse_pair({"t": ((CHUNK, 3), "float32")})
    opt.accumulate(_row_batch(rng, params, "t", [1, 2]))
    sums = opt.grads["t"].copy()
    with pytest.raises(ValueError, match="row-sparse"):
        opt.accumulate(BatchGrads(np.zeros(1), {}, {"t": np.ones((CHUNK, 3))}))
    assert np.array_equal(opt.grads["t"], sums)


@pytest.fixture(scope="module")
def poly(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    oracles.write_synth_corpus(
        oracles.polysemy_spec(tokens_per_doc=1000, n_docs=6, seed=4), path)
    return path, build_vocabulary(iter_documents(path), 100, 1, t=1e-2)


@pytest.fixture(scope="module")
def zipf(tmp_path_factory):
    """Zipf text over 3,000 types. The vocabulary is counted over the whole
    corpus and training reads a 4-document shard in small batches, so some
    rows are never touched and others first appear in later steps."""
    d = tmp_path_factory.mktemp("zipf")
    rng = np.random.default_rng(21)
    p = 1.0 / np.arange(1, 3001)
    docs = [" ".join(f"w{i}" for i in rng.choice(3000, 200, p=p / p.sum()))
            for _ in range(60)]
    full, shard = d / "full.txt", d / "shard.txt"
    full.write_text("\n".join(docs) + "\n")
    shard.write_text("\n".join(docs[:4]) + "\n")
    return shard, build_vocabulary(iter_documents(full), 10_000, 1, t=1e-2)


def _train(kind, path, vocab, batch_size=512, **w2g_kwargs):
    cfg = bsg.TrainConfig(dim=10, window=2, epochs=2, seed=0, batch_size=batch_size,
                          subsample_t=1e-2, learning_rate=0.05,
                          cov_kind="diagonal" if kind == "bsg_d" else "spherical")
    if kind.startswith("bsg"):
        return bsg.train(path, vocab, cfg).param_arrays()
    lr = {"sg": 0.005, "w2g_s": 0.01, "w2g_d": 0.01}[kind]
    return train_baseline(kind, path, vocab, cfg, learning_rate=lr,
                          **w2g_kwargs).param_arrays()


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


# the largest V-row table of each kind, and W2G below and above its init norm
# (about 0.09 at d = 10), so that the projection after each step rescales
# rows, the stepped ones and the unseen ones alike
SPARSE_CASES = [
    pytest.param("bsg", "ctx_mean", {}, id="bsg"),
    pytest.param("bsg_d", "ctx_log_var", {}, id="bsg_d"),
    pytest.param("sg", "out_vec", {}, id="sg"),
    pytest.param("w2g_s", "mean", {}, id="w2g_s"),
    pytest.param("w2g_d", "log_var", {}, id="w2g_d"),
    pytest.param("w2g_s", "mean", {"max_mean_norm": 0.05}, id="w2g_s-norm0.05"),
    pytest.param("w2g_d", "mean", {"max_mean_norm": 0.05}, id="w2g_d-norm0.05")]


@pytest.mark.parametrize("chunk", [CHUNK, 97])
@pytest.mark.parametrize("kind, table, w2g_kwargs", SPARSE_CASES)
def test_row_sparse_training_matches_dense_bit_for_bit(zipf, kind, table, w2g_kwargs,
                                                       chunk, monkeypatch):
    """Against DenseAdam, which steps every element."""
    path, vocab = zipf
    monkeypatch.setattr(optim, "CHUNK", chunk)
    stepped = []

    class Recording(Adam):
        def step(self, count):
            super().step(count)
            stepped.append(stepped_rows(self, table))

    monkeypatch.setattr(bsg, "Adam", Recording)
    shipped = _train(kind, path, vocab, batch_size=128, **w2g_kwargs)
    monkeypatch.setattr(bsg, "Adam", DenseAdam)
    dense = _train(kind, path, vocab, batch_size=128, **w2g_kwargs)
    assert_same_bits(shipped, dense)
    # the run did what the fixture is for: the table was stepped row-sparse,
    # and rows reached it after the first step
    sizes = [len(rows) for rows in stepped if rows is not None]
    assert len(sizes) > 2 and sizes[0] < sizes[-1] < len(vocab)
