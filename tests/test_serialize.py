import dataclasses
import errno
import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bayesgram import corpus
from bayesgram.baselines import W2G_SETTINGS, init_sg_model, init_w2g_model
from bayesgram.bsg import TrainConfig, init_bsg_model
from bayesgram.cli import main
from bayesgram.corpus import CorpusError, Vocabulary
from bayesgram.gauss import kl_divergence
from bayesgram.serialize import (ModelBundle, SerializationError,
                                 bundle_from_model, infer, load_model,
                                 model_from_bundle, nearest, save_model)

from helpers import LINE_BREAKING_WORDS, tiny_vocab


def make_model(kind, V=8, d=3, seed=0, cov_kind="spherical"):
    vocab = tiny_vocab(V)
    cfg = TrainConfig(dim=d, hidden_dim=4, cov_kind=cov_kind)
    rng = np.random.default_rng(seed)
    if kind == "bsg":
        return init_bsg_model(vocab, cfg, rng)
    if kind == "sg":
        m = init_sg_model(vocab, cfg, rng)
        m.out_vec += rng.normal(scale=0.1, size=m.out_vec.shape).astype(
            m.out_vec.dtype)
        return m
    return init_w2g_model(vocab, cfg, rng, cov_kind)


ALL_KINDS = ["bsg", "sg", "w2g"]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_exact_param_roundtrip(self, tmp_path, kind, mode):
        model = make_model(kind)
        bundle = bundle_from_model(model, config={"seed": 0, "dim": 3})
        path = tmp_path / f"model.{mode}"
        save_model(bundle, path, mode)
        loaded = load_model(path)
        assert loaded.model_kind == bundle.model_kind
        assert loaded.cov_kind == bundle.cov_kind
        assert loaded.dim == bundle.dim
        assert loaded.vocab.words == bundle.vocab.words
        assert list(loaded.vocab.counts) == list(bundle.vocab.counts)
        assert loaded.config == bundle.config
        for name, arr in bundle.arrays.items():
            got = loaded.arrays[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            assert np.array_equal(got, arr)

    @pytest.mark.parametrize("cov_kind", ["spherical", "diagonal"])
    @pytest.mark.parametrize("kind", ["bsg", "w2g"])
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_one_dimensional_round_trip(self, tmp_path, kind, mode, cov_kind):
        """At d = 1 a diagonal table (V, 1) and a spherical one (V,) differ by shape only."""
        bundle = bundle_from_model(make_model(kind, d=1, cov_kind=cov_kind))
        path = tmp_path / f"model.{mode}"
        save_model(bundle, path, mode)
        loaded = load_model(path)
        for name, arr in bundle.arrays.items():
            assert loaded.arrays[name].shape == arr.shape
            assert np.array_equal(loaded.arrays[name], arr)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cross_mode_agreement(self, tmp_path, kind):
        bundle = bundle_from_model(make_model(kind))
        save_model(bundle, tmp_path / "m.txt", "text")
        save_model(bundle, tmp_path / "m.bin", "binary")
        a = load_model(tmp_path / "m.txt")
        b = load_model(tmp_path / "m.bin")
        for name in bundle.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_null_config_reads_as_empty(self, tmp_path, mode):
        bundle = dataclasses.replace(bundle_from_model(make_model("bsg")), config=None)
        save_model(bundle, tmp_path / "m", mode)
        assert load_model(tmp_path / "m").config == {}

    def test_binary_byte_identical(self, tmp_path):
        bundle = bundle_from_model(make_model("bsg"), config={"seed": 5})
        save_model(bundle, tmp_path / "a.bin", "binary")
        save_model(bundle, tmp_path / "b.bin", "binary")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_live_model_reconstruction(self, tmp_path):
        model = make_model("bsg")
        bundle = bundle_from_model(model)
        save_model(bundle, tmp_path / "m.bin")
        back = model_from_bundle(load_model(tmp_path / "m.bin"))
        g0 = model.posterior(0, [1, 2])
        g1 = back.posterior(0, [1, 2])
        assert np.allclose(g0.mean, g1.mean)
        assert np.allclose(g0.log_var_vector(), g1.log_var_vector())

    def test_w2g_config_fields_survive(self, tmp_path):
        m = make_model("w2g")
        m.energy_kind = "negated_kl"
        m.max_mean_norm = 7.0
        save_model(bundle_from_model(m), tmp_path / "m.bin")
        back = model_from_bundle(load_model(tmp_path / "m.bin"))
        assert back.energy_kind == "negated_kl"
        assert back.max_mean_norm == 7.0

    def test_w2g_settings_absent_from_config_take_model_defaults(self):
        model = make_model("w2g")
        back = model_from_bundle(dataclasses.replace(bundle_from_model(model), config={}))
        assert ([getattr(back, k) for k in W2G_SETTINGS]
                == [getattr(model, k) for k in W2G_SETTINGS])

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError, match="unknown mode"):
            save_model(bundle_from_model(make_model("sg")), tmp_path / "m", "xml")


class TestBundleValidation:
    def test_unknown_kind(self):
        with pytest.raises(SerializationError, match="unknown model_kind"):
            ModelBundle("glove", "none", 3, tiny_vocab(4), {})

    def test_missing_arrays(self):
        with pytest.raises(SerializationError, match="missing parameter"):
            ModelBundle("sg", "none", 3, tiny_vocab(4),
                        {"in_vec": np.zeros((4, 3))})

    def test_unsupported_model_type(self):
        with pytest.raises(SerializationError, match="unsupported model type"):
            bundle_from_model(object())


class TestCorruptFiles:
    def test_text_truncated_array(self, tmp_path):
        bundle = bundle_from_model(make_model("sg"))
        path = tmp_path / "m.txt"
        save_model(bundle, path, "text")
        lines = path.read_text().splitlines(keepends=True)
        # drop one data row from the middle of an array section
        drop = next(i for i, l in enumerate(lines)
                    if lines[i - 1].startswith("#SECTION array"))
        del lines[drop]
        path.write_text("".join(lines))
        with pytest.raises(SerializationError, match="truncated array"):
            load_model(path)

    def test_text_missing_end(self, tmp_path):
        bundle = bundle_from_model(make_model("sg"))
        path = tmp_path / "m.txt"
        save_model(bundle, path, "text")
        text = path.read_text()
        path.write_text(text.replace("#SECTION end\n", ""))
        with pytest.raises(SerializationError, match="truncated file"):
            load_model(path)

    def test_text_not_a_model(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(SerializationError, match="line 1"):
            load_model(path)

    def test_text_bad_version(self, tmp_path):
        bundle = bundle_from_model(make_model("sg"))
        path = tmp_path / "m.txt"
        save_model(bundle, path, "text")
        path.write_text(path.read_text().replace(
            "format_version\t1", "format_version\t99"))
        with pytest.raises(SerializationError, match="format version 99"):
            load_model(path)

    def test_binary_truncation_reports_offset(self, tmp_path):
        bundle = bundle_from_model(make_model("sg"))
        path = tmp_path / "m.bin"
        save_model(bundle, path, "binary")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(SerializationError, match="byte"):
            load_model(path)

    def test_binary_bad_version(self, tmp_path):
        bundle = bundle_from_model(make_model("sg"))
        path = tmp_path / "m.bin"
        save_model(bundle, path, "binary")
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(SerializationError, match="format version 99"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["sg", "bsg"])
    def test_binary_every_strict_prefix_is_rejected(self, tmp_path, kind):
        path = tmp_path / "m.bin"
        save_model(bundle_from_model(make_model(kind, V=4, d=2)), path, "binary")
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(SerializationError):
                load_model(path)

    def test_binary_short_array_meta_names_byte(self, tmp_path):
        name = b"array:x"
        path = tmp_path / "m.bin"
        path.write_bytes(b"BSG1" + struct.pack("<I", 1) + struct.pack("<I", len(name))
                         + name + struct.pack("<Q", 2) + b"{}")
        with pytest.raises(SerializationError, match="byte 27: truncated array meta"):
            load_model(path)


# (format, bytes of a saved sg model, same-length replacement, where it fails)
CORRUPTIONS = {
    "binary-vocab-line-without-tab":
        ("binary", b"w3\t4\n", b"w3 4\n", r"byte \d+: malformed vocab line 4"),
    "binary-header-json":
        ("binary", b'"dim": 3', b'"dim"; 3', r"byte \d+: corrupt header JSON"),
    "binary-config-json":
        ("binary", b'{"seed": 0}', b'{"seed"; 0}', r"byte \d+: corrupt config JSON"),
    "binary-array-meta-json":
        ("binary", b'{"dtype": "float32"', b'{"dtype"; "float32"',
         r"byte \d+: corrupt array:in_vec meta JSON"),
    "binary-vocab-not-utf8":
        ("binary", b"w5\t6", b"\xff5\t6", r"byte \d+: vocab is not UTF-8"),
    "text-not-utf8":
        ("text", b"w5\t6", b"\xff5\t6", r"byte \d+: text model file is not UTF-8"),
    "text-config-json":
        ("text", b'{"seed": 0}', b'{"seed"; 0}', r"line 7: corrupt config JSON"),
    "text-array-not-a-number":
        ("text", b"\n0.0", b"\nx.0", r"line 18: array section 'in_vec'"),
    "binary-vocab-count-zero":
        ("binary", b"w3\t4\n", b"w3\t0\n", r"byte \d+: count 0 on vocab line 4 is not positive"),
    "text-vocab-count-zero":
        ("text", b"w3\t4\n", b"w3\t0\n", r"^count 0 on vocab line 12 is not positive"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
class TestCorruptionNamesByteOrLine:
    def corrupted(self, tmp_path, case):
        mode, old, new, _ = CORRUPTIONS[case]
        path = tmp_path / f"m.{mode}"
        save_model(bundle_from_model(make_model("sg"), config={"seed": 0}), path, mode)
        data = path.read_bytes()
        assert data.count(old) >= 1 and len(old) == len(new)
        path.write_bytes(data.replace(old, new, 1))
        return path

    def test_load_raises_serialization_error(self, tmp_path, case):
        with pytest.raises(SerializationError, match=CORRUPTIONS[case][3]):
            load_model(self.corrupted(tmp_path, case))

    def test_cli_prints_one_error_line(self, tmp_path, case, capsys):
        assert main(["nearest", str(self.corrupted(tmp_path, case)), "w0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "byte " in err or "line " in err


def split_sections(data, mode):
    """A saved file as (lead bytes, [(section name, its bytes)]) in file order."""
    if mode == "text":
        chunks = re.split(rb"(?m)^(?=#SECTION )", data)[1:]
        return b"", [(c.split(b"\n")[0].split()[1].decode(), c) for c in chunks]
    off, out = 8, []
    while off < len(data):
        (nlen,) = struct.unpack_from("<I", data, off)
        (plen,) = struct.unpack_from("<Q", data, off + 4 + nlen)
        end = off + 12 + nlen + plen
        out.append((data[off + 4:off + 4 + nlen].decode(), data[off:end]))
        off = end
    return data[:8], out


# (section copied, where the copy goes: after the original or at the end of the file)
SECTION_REPEATS = {"config-after-end": ("config", "end"),
                   "repeated-config": ("config", "after"),
                   "repeated-vocab": ("vocab", "after"),
                   "repeated-array": ("array", "after")}


@pytest.mark.parametrize("case", sorted(SECTION_REPEATS))
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_repeated_or_trailing_section_names_line_or_byte(tmp_path, mode, case):
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model("sg"), config={"seed": 0}), path, mode)
    lead, sections = split_sections(path.read_bytes(), mode)
    which, where = SECTION_REPEATS[case]
    i = next(i for i, (name, _) in enumerate(sections) if name.startswith(which))
    at = len(sections) if where == "end" else i + 1
    sections.insert(at, sections[i])
    before = lead + b"".join(raw for _, raw in sections[:at])
    path.write_bytes(before + b"".join(raw for _, raw in sections[at:]))
    name = "array:in_vec" if which == "array" else which
    rule = (f"section {name!r} after end section" if where == "end"
            else f"repeated section {name!r}")
    place = (f"line {len(before.splitlines()) + 1}" if mode == "text"
             else f"byte {len(before)}")
    with pytest.raises(SerializationError, match=re.escape(f"{place}: {rule}")):
        load_model(path)


# header field -> (its new value, or None to drop it; the error after the place)
HEADER_FAULTS = {"no-model_kind": ("model_kind", None, "header field: 'model_kind'"),
                 "no-cov_kind": ("cov_kind", None, "header field: 'cov_kind'"),
                 "no-dim": ("dim", None, "header field: 'dim'"),
                 "dim-not-a-number": ("dim", "x", "header field: invalid literal"),
                 "dim-fraction": ("dim", "2.5", "header field: invalid literal"),
                 "dim-zero": ("dim", "0", "header dim 0 is not >= 1")}


def header_section(header, mode):
    """The bytes of a header section holding the str -> str dict header."""
    if mode == "text":
        return ("#SECTION header\n" + "".join(f"{k}\t{v}\n" for k, v in header.items())).encode()
    payload = json.dumps(header).encode()
    return struct.pack("<I", 6) + b"header" + struct.pack("<Q", len(payload)) + payload


@pytest.mark.parametrize("case", sorted(HEADER_FAULTS))
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_bad_header_field_names_line_or_byte(tmp_path, mode, case, capsys):
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model("sg")), path, mode)
    lead, sections = split_sections(path.read_bytes(), mode)
    assert sections[0][0] == "header"

    def write(header):
        path.write_bytes(lead + header_section(header, mode)
                         + b"".join(raw for _, raw in sections[1:]))

    header = {"format_version": "1", "model_kind": "sg", "cov_kind": "none", "dim": "3"}
    write(header)
    assert load_model(path).dim == 3       # the rebuilt header alone loads
    key, value, message = HEADER_FAULTS[case]
    if value is None:
        del header[key]
    else:
        header[key] = value
    write(header)
    place = "line 1" if mode == "text" else "byte 8"
    with pytest.raises(SerializationError, match=re.escape(f"{place}: ") + ".*"
                       + re.escape(message)):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {place}: ") and err.count("\n") == 1


# config section JSON -> the error after the place
CONFIG_FAULTS = {"list": ([1, 2], "config JSON is not an object"),
                 "string": ("str", "config JSON is not an object"),
                 "empty-list": ([], "config JSON is not an object"),
                 **{f"{key}-{name}": ({key: value}, f"config {key} must be a")
                    for key in ("subsample_t", "neg_exponent")
                    for name, value in (("string", "x"), ("null", None), ("list", [1]),
                                        ("bool", True), ("huge-int", 10 ** 400))},
                 "subsample_t-negative": ({"subsample_t": -1}, "config subsample_t must be a"
                                          " number > 0, got -1"),
                 "subsample_t-zero": ({"subsample_t": 0}, "config subsample_t must be a"),
                 "subsample_t-nan": ({"subsample_t": float("nan")}, "config subsample_t must be a"
                                     " number > 0, got nan"),
                 "neg_exponent-inf": ({"neg_exponent": float("inf")},
                                      "config neg_exponent must be a finite number, got inf"),
                 "neg_exponent-underflows": ({"neg_exponent": 2000},
                                             "config negative-sampling exponent 2000 under- "
                                             "or overflows the sampling probabilities")}


def config_section(config, mode):
    """The bytes of a config section holding the JSON value config."""
    if mode == "text":
        return f"#SECTION config\n{json.dumps(config)}\n".encode()
    payload = json.dumps(config).encode()
    return struct.pack("<I", 6) + b"config" + struct.pack("<Q", len(payload)) + payload


def write_config(path, mode, config):
    """Rewrite the saved model at path with config as its config section;
    returns the place its error names."""
    lead, sections = split_sections(path.read_bytes(), mode)
    i = [name for name, _ in sections].index("config")
    before = lead + b"".join(raw for _, raw in sections[:i])
    path.write_bytes(before + config_section(config, mode)
                     + b"".join(raw for _, raw in sections[i + 1:]))
    return (f"line {len(before.splitlines()) + 1}" if mode == "text"
            else f"byte {len(before)}")


@pytest.mark.parametrize("case", sorted(CONFIG_FAULTS))
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_bad_config_names_line_or_byte(tmp_path, mode, case, capsys):
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model("sg")), path, mode)
    config, message = CONFIG_FAULTS[case]
    place = write_config(path, mode, config)
    with pytest.raises(SerializationError, match=re.escape(f"{place}: {message}")):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {place}: {message}") and err.count("\n") == 1


# (model kind, cov kind, array, its bad value from the saved one, shape the error expects)
SHAPE_FAULTS = {"bsg-enc_R-short": ("bsg", "spherical", "enc_R", lambda a: a[:-1], (8, 3)),
                "bsg-prior_mean-narrow": ("bsg", "diagonal", "prior_mean", lambda a: a[:, :-1],
                                          (8, 3)),
                "bsg-ctx_log_var-diagonal": ("bsg", "spherical", "ctx_log_var",
                                             lambda a: np.stack([a] * 3, axis=1), (8,)),
                "sg-out_vec-long": ("sg", "spherical", "out_vec",
                                    lambda a: np.concatenate([a, a[:1]]), (8, 3)),
                "w2g-log_var-spherical": ("w2g", "diagonal", "log_var", lambda a: a[:, 0],
                                          (8, 3)),
                # the encoder's arrays, at d = 3 and enc_M's d_h = 4 rows
                "bsg-enc_M-odd": ("bsg", "spherical", "enc_M", lambda a: a[:, :-1], (4, 6)),
                "bsg-enc_M-narrow": ("bsg", "spherical", "enc_M", lambda a: a[:, :-2],
                                     (4, 6)),
                "bsg-enc_U-wide": ("bsg", "spherical", "enc_U",
                                   lambda a: np.concatenate([a, a[:, :1]], axis=1), (3, 4)),
                "bsg-enc_b1-long": ("bsg", "diagonal", "enc_b1",
                                    lambda a: np.concatenate([a, a[:1]]), (3,)),
                "bsg-enc_W-two-rows": ("bsg", "diagonal", "enc_W", lambda a: a[:2], (3, 4)),
                "bsg-enc_W-diagonal": ("bsg", "spherical", "enc_W",
                                       lambda a: np.concatenate([a] * 3), (1, 4)),
                "bsg-enc_b2-two": ("bsg", "spherical", "enc_b2",
                                   lambda a: np.concatenate([a, a]), (1,))}


def array_place(data, name, mode):
    """The line or byte at which the saved file data's array section name starts."""
    if mode == "text":
        head = data.index(b"#SECTION array " + name.encode() + b" ")
        return "line %d" % (data.count(b"\n", 0, head) + 1)
    return f"byte {data.index(b'array:' + name.encode()) - 4}"


@pytest.mark.parametrize("case", sorted(SHAPE_FAULTS))
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_wrong_array_shape_names_line_or_byte(tmp_path, mode, case, capsys):
    kind, cov_kind, name, bad, need = SHAPE_FAULTS[case]
    bundle = bundle_from_model(make_model(kind, cov_kind=cov_kind))
    bundle.arrays[name] = arr = bad(bundle.arrays[name])
    path = tmp_path / f"m.{mode}"
    save_model(bundle, path, mode)
    place = array_place(path.read_bytes(), name, mode)
    message = f"{place}: array {name!r} has shape {arr.shape}, expected {need}"
    with pytest.raises(SerializationError, match=re.escape(message)):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["text", "binary"])
def test_zero_d_enc_m_names_line_or_byte(tmp_path, mode, capsys):
    bundle = bundle_from_model(make_model("bsg"))
    bundle.arrays["enc_M"] = np.ones((), np.float32)
    path = tmp_path / f"m.{mode}"
    save_model(bundle, path, mode)
    data = path.read_bytes()
    if mode == "binary":            # the writer stores a 0-d array as shape [1]
        at = data.index(b'"shape": [1]', data.index(b"array:enc_M"))
        data = data[:at] + b'"shape": [ ]' + data[at + 12:]
        path.write_bytes(data)
    message = f"{array_place(data, 'enc_M', mode)}: array 'enc_M' has shape (), expected (0, 6)"
    with pytest.raises(SerializationError, match=re.escape(message)):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("config", [{}, {"subsample_t": 0.5, "neg_exponent": -1},
                                    {"subsample_t": 2, "neg_exponent": 0},
                                    {"subsample_t": 1e308}])     # t / p overflows: keep all
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_good_config_loads(tmp_path, mode, config):
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model("sg")), path, mode)
    write_config(path, mode, config)
    bundle = load_model(path)
    assert bundle.config == config
    expected = {"subsample_t": 1e-4, "neg_exponent": 1.0, **config}
    assert (bundle.vocab.subsample_t, bundle.vocab.neg_table_exponent) == (
        expected["subsample_t"], expected["neg_exponent"])


class TestVocabLines:
    @pytest.mark.parametrize("word", LINE_BREAKING_WORDS)
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_line_breaking_word_roundtrip(self, tmp_path, mode, word):
        vocab = Vocabulary(["a", word, "b"], np.array([3, 2, 1]))
        model = init_sg_model(vocab, TrainConfig(dim=2), np.random.default_rng(0))
        bundle = bundle_from_model(model)
        path = tmp_path / f"m.{mode}"
        save_model(bundle, path, mode)
        loaded = load_model(path)
        assert loaded.vocab.words == ["a", word, "b"]
        assert list(loaded.vocab.counts) == [3, 2, 1]
        for name, arr in bundle.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr)

    def test_crlf_text_model_loads(self, tmp_path):
        bundle = bundle_from_model(make_model("w2g"), config={"seed": 0})
        path = tmp_path / "m.txt"
        save_model(bundle, path, "text")
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_model(path)
        assert loaded.vocab.words == bundle.vocab.words
        for name, arr in bundle.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr)

    @pytest.mark.parametrize("mode,where", [("text", r"vocab line 11"),
                                            ("binary", r"byte \d+: repeated word 'w1' "
                                                       r"on vocab line 3")])
    def test_repeated_word_names_its_line(self, tmp_path, mode, where):
        path = tmp_path / f"m.{mode}"
        save_model(bundle_from_model(make_model("sg"), config={"seed": 0}), path, mode)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"w2\t3\n", b"w1\t3\n", 1))
        with pytest.raises(SerializationError, match=where):
            load_model(path)

    # w3's count -> (the vocab line whose running total passes int64, text file line)
    @pytest.mark.parametrize("count, line, at", [(2 ** 63, 4, 12), (2 ** 63 - 20, 7, 15)])
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_total_past_int64_names_its_line(self, tmp_path, mode, count, line, at, capsys):
        path = tmp_path / f"m.{mode}"
        save_model(bundle_from_model(make_model("sg")), path, mode)
        lead, sections = split_sections(path.read_bytes(), mode)
        i = [name for name, _ in sections].index("vocab")
        counts = [1, 2, 3, count, 5, 6, 7, 8]
        payload = "".join(f"w{j}\t{c}\n" for j, c in enumerate(counts)).encode()
        vocab = (b"#SECTION vocab\n" + payload if mode == "text" else
                 struct.pack("<I", 5) + b"vocab" + struct.pack("<Q", len(payload)) + payload)
        path.write_bytes(lead + b"".join(raw for _, raw in sections[:i]) + vocab
                         + b"".join(raw for _, raw in sections[i + 1:]))
        where = f"vocab line {at}" if mode == "text" else rf"byte \d+: .* vocab line {line}"
        with pytest.raises(SerializationError, match=f"{where} takes the total past"):
            load_model(path)
        assert main(["nearest", str(path), "w0"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_writer_refuses_a_tab_in_a_word(self, tmp_path, mode):
        vocab = Vocabulary(["a", "b\tc"], np.array([2, 1]))
        model = init_sg_model(vocab, TrainConfig(dim=2), np.random.default_rng(0))
        with pytest.raises(CorpusError, match=r"'b\\tc'"):
            save_model(bundle_from_model(model), tmp_path / f"m.{mode}", mode)
        assert not (tmp_path / f"m.{mode}").exists()


class TestSectionLikeWords:
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_roundtrip(self, tmp_path, mode):
        vocab = Vocabulary(["#SECTION", "#SECTIONx", "a"], np.array([3, 2, 1]))
        cfg = TrainConfig(dim=2)
        model = init_sg_model(vocab, cfg, np.random.default_rng(0))
        bundle = bundle_from_model(model, config={"seed": 0})
        path = tmp_path / f"m.{mode}"
        save_model(bundle, path, mode)
        loaded = load_model(path)
        assert loaded.vocab.words == ["#SECTION", "#SECTIONx", "a"]
        assert list(loaded.vocab.counts) == [3, 2, 1]
        assert loaded.config == json.loads(json.dumps(bundle.config))
        for name, arr in bundle.arrays.items():
            assert np.array_equal(loaded.arrays[name], arr)

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_section_header_with_a_space(self, tmp_path, mode):
        vocab = Vocabulary(["#SECTION end", "#SECTION vocab", "a"], np.array([3, 2, 1]))
        model = init_sg_model(vocab, TrainConfig(dim=2), np.random.default_rng(0))
        path = tmp_path / f"m.{mode}"
        save_model(bundle_from_model(model), path, mode)
        assert load_model(path).vocab.words == vocab.words

    def test_header_without_name_is_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        save_model(bundle_from_model(make_model("sg")), path, "text")
        path.write_text(path.read_text().replace("#SECTION end", "#SECTION "))
        with pytest.raises(SerializationError, match="unknown section ''"):
            load_model(path)


class TestTextValues:
    def test_value_overflowing_its_dtype_names_its_line(self, tmp_path, capsys):
        bundle = bundle_from_model(make_model("sg"))
        bundle.arrays["in_vec"][2, 1] = 0.5
        path = tmp_path / "m.txt"
        save_model(bundle, path, "text")
        data = path.read_bytes()
        assert data.count(b" 0.5 ") == 1
        path.write_bytes(data.replace(b" 0.5 ", b" 1e39 "))
        line = data.count(b"\n", 0, data.index(b" 0.5 ")) + 1
        message = (f"line {line}: array section 'in_vec': a value does not fit float32: "
                   "overflow encountered in cast")
        with pytest.raises(SerializationError, match=re.escape(message)):
            load_model(path)
        assert main(["nearest", str(path), "w0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dtype", ["V4", "object", "U3", "S3", "bool", "complex64"])
    def test_dtype_not_a_number_type_names_its_line(self, tmp_path, capsys, dtype):
        path = tmp_path / "m.txt"
        save_model(bundle_from_model(make_model("sg")), path, "text")
        text, head = path.read_text(), "#SECTION array in_vec float32 "
        path.write_text(text.replace(head, f"#SECTION array in_vec {dtype} "))
        line = text.count("\n", 0, text.index(head)) + 1
        message = (f"line {line}: array section 'in_vec': dtype {dtype!r} "
                   "is not float32 or float64")
        with pytest.raises(SerializationError, match=re.escape(message)):
            load_model(path)
        assert main(["nearest", str(path), "w0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_dimension_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        save_model(bundle_from_model(make_model("sg")), path, "text")
        text, head = path.read_text(), "#SECTION array in_vec float32 2 8 3\n"
        path.write_text(text.replace(head, "#SECTION array in_vec float32 2 -4 -6\n"))
        line = text.count("\n", 0, text.index(head)) + 1
        message = f"line {line}: array section 'in_vec': bad shape"
        with pytest.raises(SerializationError, match=re.escape(message)):
            load_model(path)
        assert main(["nearest", str(path), "w0"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dtype, value", [("int64", 2 ** 53 + 1), ("int64", 2 ** 63 - 1),
                                              ("uint64", 2 ** 64 - 1)])
    def test_writer_refuses_an_integer_float64_cannot_hold(self, tmp_path, dtype, value):
        """As it refuses every integer array: a model file holds float32 or float64."""
        bundle = bundle_from_model(make_model("sg"))
        bundle.arrays["big"] = np.array([[0, value]], dtype=dtype)
        message = f"array 'big': dtype {dtype} is not float32 or float64"
        for mode in ("text", "binary"):
            with pytest.raises(SerializationError, match=re.escape(message)):
                save_model(bundle, tmp_path / "m", mode)
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_literal_nan_and_inf_round_trip(self, tmp_path, mode):
        bundle = bundle_from_model(make_model("sg"))
        bundle.arrays["in_vec"][0] = [np.nan, np.inf, -np.inf]
        path = tmp_path / f"m.{mode}"
        save_model(bundle, path, mode)
        np.testing.assert_array_equal(load_model(path).arrays["in_vec"],
                                      bundle.arrays["in_vec"])


class FailOnSecondArray:
    """A writable file whose write raises `exc` where the second array starts."""

    def __init__(self, f, exc):
        self.f, self.exc, self.arrays = f, exc, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.f.close()

    def write(self, data):
        if (isinstance(data, np.ndarray)                            # binary
                or isinstance(data, str) and data.startswith("#SECTION array")):    # text
            self.arrays += 1
            if self.arrays == 2:
                raise self.exc
        return self.f.write(data)


class TestSaveReplacesWhole:
    @pytest.mark.parametrize("exc", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("mode", ["text", "binary"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, mode, exc):
        path = tmp_path / f"m.{mode}"
        save_model(bundle_from_model(make_model("sg", seed=1)), path, mode)
        old = path.read_bytes()
        monkeypatch.setattr(corpus, "open",
                            lambda *a, **kw: FailOnSecondArray(open(*a, **kw), exc),
                            raising=False)
        with pytest.raises(type(exc)):
            save_model(bundle_from_model(make_model("sg", seed=2)), path, mode)
        assert path.read_bytes() == old and list(tmp_path.iterdir()) == [path]

    def test_error_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "m.bin"
        with pytest.raises(FileNotFoundError, match=re.escape(f": '{path}'")):
            save_model(bundle_from_model(make_model("sg")), path)
        assert list(tmp_path.iterdir()) == []


def array_section(name, meta, data, plen=None, mlen=None):
    """The bytes of binary section array:name with meta JSON bytes and data
    bytes; plen and mlen override the payload and meta lengths it declares."""
    nb = f"array:{name}".encode()
    payload = struct.pack("<I", len(meta) if mlen is None else mlen) + meta + data
    return (struct.pack("<I", len(nb)) + nb
            + struct.pack("<Q", len(payload) if plen is None else plen) + payload)


# in_vec section -> (its bytes from (meta, data), the error after its place)
ARRAY_SECTION_FAULTS = {
    "shape-of-a-terabyte": (lambda meta, data: array_section(
        "in_vec", b'{"dtype": "float32", "shape": [1000000000000, 100]}', data),
        "corrupt array section 'in_vec': cannot reshape array of size 24"),
    "length-past-the-end": (lambda meta, data: array_section("in_vec", meta, data, 2 ** 62),
                            "truncated section 'array:in_vec'"),
    "meta-past-the-section": (lambda meta, data: array_section("in_vec", meta, data,
                                                               mlen=2 ** 31),
                              "truncated array:in_vec meta"),
    "object-dtype": (lambda meta, data: array_section(
        "in_vec", meta.replace(b'"float32"', b'"object"'), data),
        "corrupt array section 'in_vec': dtype 'object' is not float32 or float64"),
    "ragged-bytes": (lambda meta, data: array_section("in_vec", meta, data[:-1]),
                     "corrupt array section 'in_vec': 95 bytes do not hold float32 numbers"),
}


@pytest.mark.parametrize("case", sorted(ARRAY_SECTION_FAULTS))
def test_array_meta_cannot_size_an_allocation(tmp_path, case, capsys):
    path = tmp_path / "m.bin"
    bundle = bundle_from_model(make_model("sg"))
    save_model(bundle, path)
    lead, sections = split_sections(path.read_bytes(), "binary")
    i = [name for name, _ in sections].index("array:in_vec")
    meta = json.dumps({"dtype": "float32", "shape": [8, 3]}, sort_keys=True).encode()
    data = bundle.arrays["in_vec"].tobytes()
    assert sections[i][1] == array_section("in_vec", meta, data)
    make, message = ARRAY_SECTION_FAULTS[case]
    before = lead + b"".join(raw for _, raw in sections[:i])
    path.write_bytes(before + make(meta, data) + b"".join(raw for _, raw in sections[i + 1:]))
    with pytest.raises(SerializationError, match=r"^byte \d+: " + re.escape(message)):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: byte ") and err.count("\n") == 1


LONGDOUBLE = pytest.param(np.dtype(np.longdouble).name, id="longdouble", marks=pytest.mark.skipif(
    np.dtype(np.longdouble) == np.float64, reason="longdouble is float64 here"))


@pytest.mark.parametrize("dtype", ["int8", "int64", "uint8", "float16", LONGDOUBLE])
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_section_not_float32_or_float64_names_line_or_byte(tmp_path, mode, dtype, capsys):
    """A section of any other dtype is refused, however well formed its
    values: the text reader names its header line, the binary one its byte."""
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model("sg")), path, mode)
    if mode == "text":
        text, head = path.read_text(), "#SECTION array in_vec float32 "
        path.write_text(text.replace(head, f"#SECTION array in_vec {dtype} "))
        place = f"line {text.count(chr(10), 0, text.index(head)) + 1}: array section"
    else:
        lead, sections = split_sections(path.read_bytes(), mode)
        i = [name for name, _ in sections].index("array:in_vec")
        before = lead + b"".join(raw for _, raw in sections[:i])
        meta = json.dumps({"dtype": dtype, "shape": [8, 3]}, sort_keys=True).encode()
        path.write_bytes(before + array_section("in_vec", meta, np.zeros(24, dtype).tobytes())
                         + b"".join(raw for _, raw in sections[i + 1:]))
        place = f"byte {len(before) + 12 + len('array:in_vec')}: corrupt array section"
    message = f"{place} 'in_vec': dtype {dtype!r} is not float32 or float64"
    with pytest.raises(SerializationError, match=re.escape(message)):
        load_model(path)
    assert main(["nearest", str(path), "w0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("dtype", ["float16", LONGDOUBLE])
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_writer_refuses_a_float_not_float32_or_float64(tmp_path, mode, dtype):
    bundle = bundle_from_model(make_model("bsg"))
    bundle.arrays["prior_mean"] = bundle.arrays["prior_mean"].astype(dtype)
    message = f"array 'prior_mean': dtype {dtype} is not float32 or float64"
    with pytest.raises(SerializationError, match=re.escape(message)):
        save_model(bundle, tmp_path / "m", mode)
    assert list(tmp_path.iterdir()) == []


def golden_bundle():
    vocab = Vocabulary(["a", "bé", "c"], [5, 3, 1])
    means = (np.arange(6, dtype=np.float32).reshape(3, 2) - 2.5) / 3
    log_var = np.array([-1.0, 0.5, 1e-8], dtype=np.float32)
    return ModelBundle("w2g", "spherical", 2, vocab, {"mean": means, "log_var": log_var},
                       {"seed": 0, "neg_exponent": 0.75})


# SHA-256 of golden_bundle() as saved when the format was last changed
GOLDEN_SHA256 = {"binary": "d4f7591b1983ffc0bd07db15b667a10764a9ea066b26e6c7e53e5fb0452e11e1",
                 "text": "c33fd7d6255eb625f2f1c85b97a4fa053cf32c8cdd7ad843fe27c4ab33e6f951"}


@pytest.mark.parametrize("mode", ["text", "binary"])
def test_saved_bytes_are_pinned(tmp_path, mode):
    path = tmp_path / f"m.{mode}"
    save_model(golden_bundle(), path, mode)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[mode]


def text_shapes_bundle():
    """Arrays of 0-3 dimensions, empty ones and special floats."""
    vocab = Vocabulary(["a", "bé", "c"], [5, 3, 1])
    arrays = {"in_vec": (np.arange(6, dtype=np.float32).reshape(3, 2) - 2.5) / 3,
              "out_vec": np.array([[np.nan, np.inf], [-np.inf, -0.0],
                                   [5e-324, 1.7976931348623157e308]]),
              "scalar": np.float64(np.pi).reshape(()),
              "cube": np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7,
              "empty": np.zeros((0, 3)), "empty_cols": np.zeros((2, 0), dtype=np.float32)}
    return ModelBundle("sg", "none", 2, vocab, arrays, {"seed": 0})


def test_text_arrays_of_every_shape_are_pinned(tmp_path):
    """The text writer's bytes for arrays no trained model holds: 0-d, 1-D,
    3-D, empty and special-float ones."""
    path = tmp_path / "m.txt"
    save_model(text_shapes_bundle(), path, "text")
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "d70700b92b57e9ea4446c5a452c35eb874e05a45f53f126bbfb8e97359da9999")


def round_trip_array(dtype):
    """Arrays of 0-3 dimensions, each of 0-3 entries."""
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))


@st.composite
def round_trip_bundles(draw):
    words = draw(st.lists(st.text(st.characters(exclude_characters="\t\n"), max_size=6),
                          min_size=1, max_size=5, unique=True))
    counts = draw(st.lists(st.integers(1, 2 ** 40), min_size=len(words),
                           max_size=len(words)))
    dim = draw(st.integers(1, 3))
    arrays = {"in_vec": draw(hnp.arrays(np.float32, (len(words), dim))),
              "out_vec": draw(hnp.arrays(np.float64, (len(words), dim)))}
    for i, dtype in enumerate(draw(st.lists(st.sampled_from(
            ["float32", "float64"]), max_size=4))):
        arrays[f"x{i}"] = draw(round_trip_array(dtype))
    json_values = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) \
        | st.text()
    config = draw(st.dictionaries(st.text().map("k_".__add__), json_values, max_size=3))
    return ModelBundle("sg", "none", dim, Vocabulary(words, counts), arrays, config)


@pytest.mark.parametrize("mode", ["text", "binary"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(bundle=round_trip_bundles())
def test_any_bundle_round_trips(tmp_path_factory, mode, bundle):
    """Equal arrays (NaN equal to NaN, though text keeps no NaN's sign; the
    sign of a zero kept), dtypes, words, counts and config, in both formats."""
    path = tmp_path_factory.mktemp("round_trip") / f"m.{mode}"
    save_model(bundle, path, mode)
    got = load_model(path)
    assert got.vocab.words == bundle.vocab.words and got.config == bundle.config
    np.testing.assert_array_equal(got.vocab.counts, bundle.vocab.counts)
    assert sorted(got.arrays) == sorted(bundle.arrays)
    for name, want in bundle.arrays.items():
        have = got.arrays[name]
        assert have.dtype == want.dtype and have.shape == want.shape, name
        np.testing.assert_array_equal(have, want)
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(have[number]), np.signbit(want[number])), name


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mode", ["text", "binary"])
def test_loaded_arrays_are_native_and_writable(tmp_path, kind, mode):
    """So that infer's matmuls take the BLAS path, with no copy first."""
    path = tmp_path / f"m.{mode}"
    save_model(bundle_from_model(make_model(kind, cov_kind="diagonal")), path, mode)
    for name, arr in load_model(path).arrays.items():
        flags = arr.flags
        assert flags.writeable and flags.aligned and flags.c_contiguous, name
        assert arr.dtype.isnative and arr.dtype == np.float32, name


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """A path to write to, and the bytes of small sg and bsg models saved in both
    formats, their configs holding both numbers the vocabulary reads."""
    path = tmp_path_factory.mktemp("fuzz") / "m"
    files = {}
    for kind in ("sg", "bsg"):
        bundle = bundle_from_model(make_model(kind, V=4, d=2), {
            "seed": 0, "subsample_t": 1e-05, "neg_exponent": 0.75})
        for mode in ("text", "binary"):
            save_model(bundle, path, mode)
            files[kind, mode] = path.read_bytes()
    return path, files


@pytest.mark.parametrize("kind", ["sg", "bsg"])
@pytest.mark.parametrize("mode", ["text", "binary"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_truncated_or_flipped_file_raises_only_serialization_error(
        small_files, kind, mode, data):
    """Cut the file short, or flip 1-3 of its bytes: load_model returns or
    raises SerializationError, and a RuntimeWarning fails the test."""
    path, files = small_files
    raw = bytearray(files[kind, mode])
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            at = data.draw(st.integers(0, len(raw) - 1), label="byte")
            raw[at] ^= data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(bytes(raw))
    try:
        load_model(path)
    except SerializationError:
        pass


class TestNearest:
    def planted_bundle(self):
        model = make_model("w2g", V=5, d=2)
        model.mean[:] = np.array([[1.0, 0.0],
                                  [0.9, 0.1],
                                  [0.0, 1.0],
                                  [-1.0, 0.0],
                                  [0.8, 0.0]])
        model.log_var[:] = 0.0
        return bundle_from_model(model)

    def test_cosine_order_and_exclusion(self):
        out = nearest(self.planted_bundle(), "w0", 3)
        names = [w for w, _ in out]
        assert "w0" not in names
        # w4 is exactly parallel to the query, then w1
        assert names[0] == "w4"
        assert names[1] == "w1"
        assert out[0][1] == pytest.approx(1.0)

    def test_neg_kl_measure(self):
        b = self.planted_bundle()
        out = nearest(b, "w0", 4, measure="neg_kl")
        # scores are negated KL between density embeddings, best first
        vals = [s for _, s in out]
        assert vals == sorted(vals, reverse=True)
        # unit variances make this squared mean distance: w1 is closest
        assert out[0][0] == "w1"
        assert out[0][1] == pytest.approx(-0.01, abs=1e-6)

    def test_sg_has_no_densities(self):
        b = bundle_from_model(make_model("sg"))
        with pytest.raises(SerializationError, match="no density"):
            nearest(b, "w0", 2, measure="neg_kl")

    def test_errors(self):
        b = self.planted_bundle()
        with pytest.raises(KeyError):
            nearest(b, "zzz", 2)
        with pytest.raises(ValueError, match="k must be"):
            nearest(b, "w0", 0)
        with pytest.raises(ValueError, match="unknown measure"):
            nearest(b, "w0", 2, measure="dot")


class TestInfer:
    def test_matches_model_posterior(self):
        model = make_model("bsg", V=6)
        bundle = bundle_from_model(model)
        sent = ["w1", "w2", "w0", "w3", "w4"]
        g = infer(bundle, sent, 2, window=2)
        ref = model.posterior(0, [model.vocab.lookup(w)
                                  for w in ("w1", "w2", "w3", "w4")])
        assert np.allclose(g.mean, ref.mean)
        assert np.allclose(g.log_var_vector(), ref.log_var_vector())

    def test_window_clips_context(self):
        model = make_model("bsg", V=6)
        bundle = bundle_from_model(model)
        sent = ["w1", "w2", "w0", "w3", "w4"]
        g = infer(bundle, sent, 2, window=1)
        ref = model.posterior(0, [2, 3])
        assert np.allclose(g.mean, ref.mean)

    def test_oov_context_dropped(self):
        model = make_model("bsg", V=6)
        bundle = bundle_from_model(model)
        g = infer(bundle, ["qqq", "w0", "w3"], 1, window=1)
        ref = model.posterior(0, [3])
        assert np.allclose(g.mean, ref.mean)

    def test_errors(self):
        bundle = bundle_from_model(make_model("bsg", V=6))
        with pytest.raises(SerializationError, match="no encoder"):
            infer(bundle_from_model(make_model("sg")), ["w0", "w1"], 0, 1)
        with pytest.raises(ValueError, match="target_index"):
            infer(bundle, ["w0"], 5, 1)
        with pytest.raises(KeyError):
            infer(bundle, ["zzz", "w1"], 0, 1)
        with pytest.raises(ValueError, match="no usable context"):
            infer(bundle, ["w0", "qqq"], 0, 1)
