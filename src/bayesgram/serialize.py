"""Model bundle serialization plus model inspection (embedding view, nearest, infer).

A model file is one ordered list of named sections: header, config, vocab,
`array:<name>` in name order, then end. Two on-disk formats frame them:

* text: line-oriented with `#SECTION <name>` headers and floats printed at
  17 significant digits, diffable and portable;
* binary: magic `BSG1`, little-endian, length-prefixed sections, exact.
  An array is copied once each way: read from the file into an array sized
  by its section length, written from the array's own bytes.

Each reader frames and decodes its sections, naming the line or byte of a
fault; `_assemble` holds the section rules both formats share. A bundle
carries the vocabulary, all parameter arrays of one model kind (bsg, sg,
or w2g), and a snapshot of the training configuration.
"""

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baselines import W2G_SETTINGS, SgModel, W2gModel
from .bsg import PARAM_DTYPES, BsgModel
from .corpus import Vocabulary, atomic_open, context_tokens, format_vocab, parse_vocab
from .encoder import EncoderParams
from .gauss import (BLOCK_FLOATS, Gaussian, cosine_bounds, cosine_finish, kl_bounds, kl_rows,
                    norms, row_sums)

__all__ = ["ModelBundle", "SerializationError", "bundle_from_model",
           "model_from_bundle", "model_writer", "save_model", "load_model",
           "EmbeddingView", "embedding_view", "nearest", "infer"]

FORMAT_VERSION = 1
MAGIC = b"BSG1"

REQUIRED_ARRAYS = {
    "bsg": ["prior_mean", "prior_log_var", "ctx_mean", "ctx_log_var",
            "enc_R", "enc_M", "enc_U", "enc_b1", "enc_W", "enc_b2"],
    "sg": ["in_vec", "out_vec"],
    "w2g": ["mean", "log_var"],
}


# (config key, default, what it must be, test) of the settings a vocabulary reads
CONFIG_NUMBERS = [("subsample_t", 1e-4, "a number > 0", lambda t: t > 0),
                  ("neg_exponent", 1.0, "a finite number", math.isfinite)]


class SerializationError(Exception):
    pass


@dataclass
class ModelBundle:
    model_kind: str
    cov_kind: str
    dim: int
    vocab: Vocabulary
    arrays: dict
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model_kind not in REQUIRED_ARRAYS:
            raise SerializationError(f"unknown model_kind {self.model_kind!r}")
        missing = [n for n in REQUIRED_ARRAYS[self.model_kind]
                   if n not in self.arrays]
        if missing:
            raise SerializationError(
                f"missing parameter sections for {self.model_kind}: {missing}")

    view = cached_property(lambda self: embedding_view(model_from_bundle(self)))   # on first use


def bundle_from_model(model, config=None) -> ModelBundle:
    """Wrap a live model (BsgModel, SgModel, or W2gModel) for serialization."""
    kind = {BsgModel: "bsg", SgModel: "sg", W2gModel: "w2g"}.get(type(model))
    if kind is None:
        raise SerializationError(f"unsupported model type {type(model).__name__}")
    cfg = dict(config) if config else {}
    if kind == "w2g":
        for name in W2G_SETTINGS:
            cfg.setdefault(name, getattr(model, name))
    return ModelBundle(model_kind=kind, cov_kind=getattr(model, "cov_kind", "none"),
                       dim=model.dim, vocab=model.vocab,
                       arrays=dict(model.param_arrays()), config=cfg)


def model_from_bundle(bundle: ModelBundle):
    """Reconstruct the live model object from a bundle."""
    a = bundle.arrays
    if bundle.model_kind == "bsg":
        enc = EncoderParams(R=a["enc_R"], M=a["enc_M"], U=a["enc_U"],
                            b1=a["enc_b1"], W=a["enc_W"], b2=a["enc_b2"])
        return BsgModel(vocab=bundle.vocab, cov_kind=bundle.cov_kind,
                        dim=bundle.dim,
                        prior_mean=a["prior_mean"], prior_log_var=a["prior_log_var"],
                        ctx_mean=a["ctx_mean"], ctx_log_var=a["ctx_log_var"],
                        enc=enc)
    if bundle.model_kind == "sg":
        return SgModel(vocab=bundle.vocab, dim=bundle.dim,
                       in_vec=a["in_vec"], out_vec=a["out_vec"])
    settings = {k: bundle.config[k] for k in W2G_SETTINGS if k in bundle.config}
    return W2gModel(vocab=bundle.vocab, cov_kind=bundle.cov_kind, dim=bundle.dim,
                    mean=a["mean"], log_var=a["log_var"], **settings)


def _header_dict(bundle):
    return {"format_version": FORMAT_VERSION,
            "model_kind": bundle.model_kind,
            "cov_kind": bundle.cov_kind,
            "dim": bundle.dim}


# ---------------------------------------------------------------- text format

def _save_text(bundle, vocab_text, f):
    f.write("#SECTION header\n")
    for k, v in _header_dict(bundle).items():
        f.write(f"{k}\t{v}\n")
    f.write("#SECTION config\n")
    f.write(json.dumps(bundle.config, sort_keys=True) + "\n")
    f.write("#SECTION vocab\n")
    f.write(vocab_text)
    for name in sorted(bundle.arrays):
        arr = bundle.arrays[name]
        dims = " ".join(str(s) for s in arr.shape)
        f.write(f"#SECTION array {name} {arr.dtype.name} {arr.ndim} {dims}\n")
        if arr.size:                     # a 0-d or 1-D array on one line
            np.savetxt(f, arr.reshape(-1, arr.shape[-1] if arr.ndim else 1), fmt="%.17g")
    f.write("#SECTION end\n")


def _text_sections(text):
    """(name, where, value) of each section of a text model file: the file is
    split at its `#SECTION` lines, then each section is decoded."""
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    if lines[0] != "#SECTION header":
        raise SerializationError("line 1: expected '#SECTION header'")
    # a vocab word may start "#SECTION ", but its line holds a tab
    heads = [i for i, line in enumerate(lines)
             if line.startswith("#SECTION ") and "\t" not in line]
    for i, j in zip(heads, heads[1:] + [len(lines)]):
        name, value = _text_section(lines[i], lines[i + 1:j], i + 1)
        yield name, f"line {i + 1}", value


def _text_section(head, body, lineno):
    """(name, value) of the section whose `#SECTION` line, head, is line
    lineno, and whose lines are body."""
    def fail(msg, at=lineno):
        raise SerializationError(f"line {at}: {msg}")

    parts = head.split()
    section = parts[1] if len(parts) > 1 else ""
    if section == "header":
        return section, dict(line.partition("\t")[::2] for line in body)
    if section == "config":
        try:
            return section, json.loads("\n".join(body))
        except json.JSONDecodeError as e:
            fail(f"corrupt config JSON: {e.msg} at column {e.colno}", lineno + e.lineno)
    if section == "vocab":
        return section, parse_vocab(body, lineno + 1, SerializationError)
    if section == "end":
        for at, line in enumerate(body, lineno + 1):
            if line:
                fail("trailing data after end section", at)
        return section, None
    if section != "array":
        fail(f"unknown section {section!r}")
    if len(parts) < 5:
        fail("malformed array section header")
    name = parts[2]
    try:
        dtype = np.dtype(parts[3])
        ndim = int(parts[4])
        shape = tuple(int(x) for x in parts[5:5 + ndim])
    except (TypeError, ValueError):
        fail(f"malformed array section header {head!r}")
    if len(shape) != ndim or min(shape, default=0) < 0:
        fail(f"array section {name!r}: bad shape")
    if dtype not in PARAM_DTYPES:
        fail(f"array section {name!r}: dtype {parts[3]!r} is not float32 or float64")

    rows = []
    with np.errstate(over="raise"):      # a value past float32's range raises
        for at, line in enumerate(body, lineno + 1):
            try:
                rows.append(np.array(line.split(), dtype=np.float64).astype(dtype, copy=False))
            except ValueError as e:
                fail(f"array section {name!r}: {e}", at)
            except FloatingPointError as e:
                fail(f"array section {name!r}: a value does not fit {dtype}: {e}", at)
    got, need = sum(map(len, rows)), math.prod(shape)
    if got != need:
        fail(f"truncated array section {name!r}: got {got} of {need} values",
             lineno + 1 + len(body))
    return "array:" + name, np.concatenate([np.empty(0, dtype), *rows]).reshape(shape)


# -------------------------------------------------------------- binary format

def _save_binary(bundle, vocab_text, f):
    f.write(MAGIC)
    f.write(struct.pack("<I", FORMAT_VERSION))

    def section(name, *parts):        # each part bytes or a uint8 array, written as is
        nb = name.encode("utf-8")
        f.write(struct.pack(f"<I{len(nb)}sQ", len(nb), nb, sum(map(len, parts))))
        for part in parts:
            f.write(part)

    section("header", json.dumps(_header_dict(bundle), sort_keys=True).encode())
    section("config", json.dumps(bundle.config, sort_keys=True).encode())
    section("vocab", vocab_text.encode("utf-8"))
    for name in sorted(bundle.arrays):
        arr = np.asarray(bundle.arrays[name], order="C")    # a 0-d array stays 0-d
        meta = json.dumps({"dtype": arr.dtype.name, "shape": list(arr.shape)},
                          sort_keys=True).encode()
        data = arr.astype(arr.dtype.newbyteorder("<"), copy=False).reshape(-1)
        section("array:" + name, struct.pack("<I", len(meta)), meta, data.view(np.uint8))
    section("end", b"")


def _binary_sections(f, size):
    """(name, where, value) of each length-prefixed section of the binary model
    file f, size bytes long, read after its magic. A section's length is
    checked against the file size before it is read."""
    raw = f.read(4)
    if len(raw) < 4:
        raise SerializationError("byte 4: truncated format version")
    (version,) = struct.unpack("<I", raw)
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unknown format version {version} (supported: {FORMAT_VERSION})")
    off = 8
    while off < size:
        at = off
        if off + 4 > size:
            raise SerializationError(f"byte {off}: truncated section name length")
        (nlen,) = struct.unpack("<I", f.read(4))
        start = at + 12 + nlen
        if start > size:
            raise SerializationError(f"byte {at + 4}: truncated section name or length")
        raw = f.read(nlen + 8)
        name = _utf8(raw[:nlen], at + 4, "section name")
        (plen,) = struct.unpack_from("<Q", raw, nlen)
        off = start + plen
        if off > size:
            raise SerializationError(f"byte {start}: truncated section {name!r}")
        yield name, f"byte {at}", _binary_section(name, f, plen, start)


def _binary_section(name, f, plen, start):
    """The value of section `name`, read from f: plen bytes starting at byte
    start. An array is read straight into its own buffer, sized by plen."""
    payload = None if name.startswith("array:") else f.read(plen)
    if name == "header":
        return {k: str(v) for k, v in _json_object(payload, start, "header").items()}
    if name == "config":
        return _json(payload, start, "config")
    if name == "vocab":
        return parse_vocab(_utf8(payload, start, "vocab").split("\n"),
                           error=lambda msg: SerializationError(f"byte {start}: {msg}"))
    if name == "end":
        return None
    if not name.startswith("array:"):
        raise SerializationError(f"byte {start}: unknown section {name!r}")
    if plen < 4:
        raise SerializationError(f"byte {start}: truncated array meta length")
    (mlen,) = struct.unpack("<I", f.read(4))
    if mlen > plen - 4:
        raise SerializationError(f"byte {start + 4}: truncated {name} meta")
    meta = _json_object(f.read(mlen), start + 4, f"{name} meta")
    nbytes = plen - 4 - mlen
    try:
        dtype = np.dtype(meta["dtype"])
        if dtype not in PARAM_DTYPES:
            raise ValueError(f"dtype {meta['dtype']!r} is not float32 or float64")
        if nbytes % dtype.itemsize:
            raise ValueError(f"{nbytes} bytes do not hold {dtype} numbers")
        arr = np.empty(nbytes // dtype.itemsize, dtype.newbyteorder("<")).reshape(meta["shape"])
    except (KeyError, TypeError, ValueError) as e:
        raise SerializationError(
            f"byte {start}: corrupt array section {name[6:]!r}: {e}") from None
    f.readinto(arr)
    return arr.astype(dtype, copy=False)


def _utf8(raw, start, what):
    """raw decoded as UTF-8; a failure names its byte, raw starting at start."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SerializationError(f"byte {start + e.start}: {what} is not UTF-8") from None


def _json(raw, start, what):
    """The JSON value of a binary section; a failure names its byte."""
    text = _utf8(raw, start, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        at = start + len(text[:e.pos].encode("utf-8"))
        raise SerializationError(f"byte {at}: corrupt {what} JSON: {e.msg}") from None


def _json_object(raw, start, what):
    """A JSON object from a binary section; a failure names its byte."""
    obj = _json(raw, start, what)
    if not isinstance(obj, dict):
        raise SerializationError(f"byte {start}: {what} JSON is not an object")
    return obj


# --------------------------------------------------------------- both formats

def _assemble(sections):
    """The bundle of a model file's sections, given as (name, where, value) in
    file order, `where` naming the line or byte a section starts at. The rules
    of both formats: a section appears at most once, none follows end, end,
    header and vocab are present, the header's fields are well formed, each
    word table has |V| rows of dim values (one for a spherical log-variance),
    and the encoder's arrays agree with dim, cov_kind and enc_M's d_h rows."""
    found, at = {}, {}
    for name, where, value in sections:
        if "end" in found:
            raise SerializationError(f"{where}: section {name!r} after end section")
        if name in found:
            raise SerializationError(f"{where}: repeated section {name!r}")
        found[name], at[name] = value, where
    if "end" not in found:
        raise SerializationError("truncated file: missing end section")
    if "header" not in found:
        raise SerializationError("truncated file: missing header section")
    header, where = found["header"], at["header"]
    try:
        version, dim = int(header["format_version"]), int(header["dim"])
        kind, cov_kind = header["model_kind"], header["cov_kind"]
    except (KeyError, ValueError) as e:     # a KeyError's text is the missing key
        raise SerializationError(f"{where}: missing or malformed header field: {e}") from None
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unknown format version {version} (supported: {FORMAT_VERSION})")
    if dim < 1:
        raise SerializationError(f"{where}: header dim {dim} is not >= 1")
    words, counts = found.get("vocab", ([], []))
    if not words:
        raise SerializationError("truncated file: missing vocab section")
    cfg = found.get("config")
    if cfg is None:                      # absent or null reads as {}
        cfg = {}
    elif not isinstance(cfg, dict):
        raise SerializationError(f"{at['config']}: config JSON is not an object")
    settings = {}
    for key, default, need, ok in CONFIG_NUMBERS:
        value = cfg.get(key, default)
        try:                             # a bool is not a number
            good = type(value) in (int, float) and ok(float(value))
        except OverflowError:            # an int beyond the float range
            good = False
        if not good:
            raise SerializationError(f"{at['config']}: config {key} must be {need}, "
                                     f"got {value!r}")
        settings[key] = value
    try:
        vocab = Vocabulary(words, counts, subsample_t=settings["subsample_t"],
                           neg_table_exponent=settings["neg_exponent"])
    except ValueError as e:    # only a config exponent whose probabilities under- or overflow
        raise SerializationError(f"{at['config']}: config {e}") from None
    arrays = {name[6:]: v for name, v in found.items() if name.startswith("array:")}
    bundle = ModelBundle(model_kind=kind, cov_kind=cov_kind, dim=dim,
                         vocab=vocab, arrays=arrays, config=cfg)
    spherical = cov_kind == "spherical"
    k = 1 if spherical else dim                        # log-variances per density
    d_h = (np.shape(arrays.get("enc_M")) or (0,))[0]   # a 0-d enc_M fails its own check
    encoder = {"enc_M": (d_h, 2 * dim), "enc_U": (dim, d_h), "enc_b1": (dim,),
               "enc_W": (k, d_h), "enc_b2": (k,)}
    for name in REQUIRED_ARRAYS[kind]:
        need = encoder.get(name, (len(vocab),) if spherical and name.endswith("log_var")
                           else (len(vocab), dim))
        if arrays[name].shape != need:
            raise SerializationError(f"{at['array:' + name]}: array {name!r} has shape "
                                     f"{arrays[name].shape}, expected {need}")
    return bundle


@contextmanager
def model_writer(path, mode: str = "binary"):
    """save(bundle), writing a bundle to path in mode through corpus.atomic_open,
    entered here: an unwritable path fails before any work, a bundle holding an
    array not of PARAM_DTYPES fails before a byte is written, and path is
    replaced only when the block ends without error."""
    if mode not in ("text", "binary"):
        raise ValueError(f"unknown mode {mode!r}")
    text = mode == "text"
    how = {"mode": "w", "encoding": "utf-8", "newline": "\n"} if text else {"mode": "wb"}
    with atomic_open(path, **how) as f:
        def save(bundle):
            for name, arr in sorted(bundle.arrays.items()):
                if arr.dtype not in PARAM_DTYPES:
                    raise SerializationError(
                        f"array {name!r}: dtype {arr.dtype} is not float32 or float64")
            (_save_text if text else _save_binary)(
                bundle, format_vocab(bundle.vocab.words, bundle.vocab.counts), f)
        yield save


def save_model(bundle: ModelBundle, path, mode: str = "binary"):
    """Write the bundle through model_writer: a save that fails partway leaves
    path as it was, and no temporary."""
    with model_writer(path, mode) as save:
        save(bundle)


def load_model(path) -> ModelBundle:
    with open(path, "rb") as f:
        if f.read(4) == MAGIC:
            return _assemble(_binary_sections(f, os.fstat(f.fileno()).st_size))
        f.seek(0)
        data = f.read()
    return _assemble(_text_sections(_utf8(data, 0, "text model file")))


# ----------------------------------------------------------------- inspection

@dataclass(frozen=True)
class EmbeddingView:
    """The word tables that nearest and every evaluation read, shared with the model: means
    V x d; log_vars V x 1 (spherical), V x d, or None for point vectors; posterior(center,
    contexts), the encoder's density, or None. It and its cosine_tables, kl_sums and kl_tables
    hold while those arrays are unchanged: code writing to them builds a new bundle. The first
    negated-KL query keeps two |V|-long sums; the second builds kl_tables, (e^-lv, e^-lv means)
    as stored: 2|V|d values (diagonal) or |V|(d + 1) (spherical)."""
    vocab: Vocabulary
    means: np.ndarray
    log_vars: np.ndarray = None
    posterior: object = None
    kl_sums = cached_property(lambda self: {})      # kl_bounds's row sums, filled by its first pass

    @cached_property
    def kl_tables(self):
        """(e^-lv, e^-lv means) as stored, kl_bounds's tables."""
        e = np.negative(self.log_vars)
        np.exp(e, out=e)            # in place: one fresh |V| x w array, not two
        return e, e * self.means

    def __post_init__(self):    # a spherical V-vector becomes a V x 1 column
        if self.log_vars is not None:
            lv = np.reshape(self.log_vars, (len(self.means), -1))
            object.__setattr__(self, "log_vars", lv)

    @cached_property
    def cosine_tables(self):
        """(means as float32 or float64, v.v by float64 blocks cast unchecked, norms, min, max)."""
        vv, t = np.empty(len(self.means)), self.means
        for s, m in self.blocks(lambda s: np.asarray(t[s], np.float64)):
            row_sums(m, m, out=vv[s])
        nv = np.sqrt(vv)
        return t if t.dtype in PARAM_DTYPES else t.astype(float), vv, nv, nv.min(), nv.max()

    def mean_rows(self, ids):
        """Means of `ids` (an index array or a slice) in float64."""
        return _finite(self.means[ids])

    def density_rows(self, ids):
        """(means, log-variances) of `ids` in float64."""
        if self.log_vars is None:
            raise SerializationError("model has no density embeddings")
        return _finite(self.means[ids]), _finite(self.log_vars[ids])

    def blocks(self, rows, ids=None):
        """(i, rows(i)) over consecutive slices i of BLOCK_FLOATS // d words, or of `ids`."""
        n, V = max(1, BLOCK_FLOATS // self.means.shape[1]), len(self.means if ids is None else ids)
        cuts = map(slice, range(0, V, n), range(n, V + n, n))
        return ((i, rows(i)) for i in (cuts if ids is None else (ids[s] for s in cuts)))


def _finite(rows):
    cast = np.asarray(rows, dtype=np.float64)  # checked as stored unless the cast may overflow
    if not np.isfinite(cast if rows.dtype.itemsize > 8 else rows).all():
        raise ValueError("embedding parameters must be finite")
    return cast


def embedding_view(source) -> EmbeddingView:
    """The view of a bundle or a live model: BSG's prior tables, W2G's tables,
    SG's input vectors. Any other object passes its own vocab, means,
    log_vars and posterior; a view is its own, and a bundle's is built once (ModelBundle.view)."""
    if isinstance(source, (EmbeddingView, ModelBundle)):
        return source if isinstance(source, EmbeddingView) else source.view
    if isinstance(source, BsgModel):
        return EmbeddingView(source.vocab, source.prior_mean, source.prior_log_var,
                             source.posterior)
    if isinstance(source, W2gModel):
        return EmbeddingView(source.vocab, source.mean, source.log_var)
    if isinstance(source, SgModel):
        return EmbeddingView(source.vocab, source.in_vec)
    return EmbeddingView(source.vocab, np.asarray(source.means), source.log_vars,
                         getattr(source, "posterior", None))


def nearest(bundle: ModelBundle, word: str, k: int, measure: str = "cosine_mean"):
    """Top-k neighbors of `word` by cosine of means or negated KL, ties by word id, the query
    excluded. Filter, in the stored dtype: cosine_bounds of one product over the view's norms
    or, past one block, kl_bounds over its kl_sums and, from the view's second negated-KL query
    on, its kl_tables (valid while the bundle's arrays are unchanged). Refine: cosine_finish of
    row_sums, or kl_rows, in float64 for the rows that may reach the top k + 1, which alone are
    ranked. A stored non-finite value raises."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if measure not in ("cosine_mean", "neg_kl"):
        raise ValueError(f"unknown measure {measure!r}")
    view = embedding_view(bundle)
    qid = view.vocab.lookup(word)
    if qid is None:
        raise KeyError(f"word {word!r} out of vocabulary")
    scores, n, ids = np.zeros(len(view.means)), min(k + 1, len(view.means)), None  # k + query
    if measure == "cosine_mean":
        table, vv, nv, least, most = view.cosine_tables
        nq, q = norms(vv[qid]), np.asarray(view.means[qid], np.float64)  # a zero query first,
        if 2.0 ** -40 <= least and most <= 2.0 ** 60:   # sure bounds (nq among the norms)
            key, b = cosine_bounds(table @ table[qid], nq, nv, table.shape[1])
            ids = (key <= np.partition(key, n - 1)[n - 1] + 2 * b).nonzero()[0]  # may reach top n
        else:                   # then a stored non-finite value raises, then a zero row
            view.mean_rows(~np.isfinite(vv)), norms(vv)
        for i, m in view.blocks(lambda s: np.asarray(view.means[s], np.float64), ids):
            scores[i] = cosine_finish(row_sums(q, m), nq, nv[i])
    else:
        q_mu, q_lv = view.density_rows(slice(qid, qid + 1))    # raises first for a bad query
        with np.errstate(over="ignore", invalid="ignore"):
            if view.means.size > BLOCK_FLOATS:      # past one block: filter, then refine
                pairs = view.blocks(lambda s: (view.means[s], view.log_vars[s]))  # as stored
                lo, hi = kl_bounds(q_mu, q_lv, pairs, len(scores), view.kl_sums,
                                   view.kl_tables if view.kl_sums else None)
                t = np.partition(hi, n - 1)[n - 1]      # n rows have a KL of at most t
                ids = None if t == np.inf else (lo <= t).nonzero()[0]
            for i, (mu, lv) in view.blocks(lambda s: [np.asarray(t[s], np.float64) for t in (
                    view.means, view.log_vars)], ids):
                scores[i] = -kl_rows(q_mu, q_lv, mu, lv)
        if not np.isfinite(scores).all():   # then the rows whose KL is not finite (0 unscored)
            view.density_rows(~np.isfinite(scores))
    top = np.arange(len(scores)) if ids is None else ids    # a row left out ranks after n
    keys = -scores[top]             # ascending, NaN last, as a stable argsort orders them
    kth = np.partition(keys, n - 1)[n - 1]
    # every word at or above the k-th best; all of them if it is NaN (too few numbers)
    top = top if math.isnan(kth) else top[keys <= kth]
    order = top[np.argsort(-scores[top], kind="stable")]     # best first, ties by word id
    return [(view.vocab.word(i), float(scores[i])) for i in order[order != qid][:k]]


def infer(bundle: ModelBundle, sentence, target_index: int, window: int) -> Gaussian:
    """Posterior density of the target token in its sentence window."""
    if bundle.model_kind != "bsg":
        raise SerializationError("no encoder: model kind is not bsg")
    view = embedding_view(bundle)
    if not (0 <= target_index < len(sentence)):
        raise ValueError("target_index out of range")
    tid = view.vocab.lookup(sentence[target_index])
    if tid is None:
        raise KeyError(f"target {sentence[target_index]!r} out of vocabulary")
    ctx_ids = view.vocab.ids(context_tokens(sentence, target_index, window))
    if not ctx_ids:
        raise ValueError("no usable context")
    return view.posterior(tid, ctx_ids)
