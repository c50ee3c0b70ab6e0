import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from bayesgram import bsg, cli, corpus, serialize
from bayesgram.cli import main

from helpers import PartWrite


# SHA-256 of the --log CSV of a 2-epoch run on the workdir corpus (38 lines each)
LOG_SHA256 = {"bsg": "b8248094a7b482eadc05ea54935691bab5ba0a538be1039bb0c5c4ee711d76d4",
              "w2g_s": "251263f2c122ccd7c1f3e574b5457e514c1c82e636052c04437bd29801cd4022"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small trained model plus corpus and eval datasets on disk."""
    d = tmp_path_factory.mktemp("cli")
    corpus = d / "corpus.txt"
    assert main(["synth-corpus", "--kind", "polysemy", "--out", str(corpus),
                 "--tags", str(d / "corpus.tags"),
                 "--tokens-per-doc", "300", "--docs", "10", "--seed", "4"]) == 0
    model = d / "model.bin"
    assert main(["train", str(corpus), "--out", str(model), "--model", "bsg",
                 "--dim", "4", "--window", "2", "--epochs", "1",
                 "--batch-size", "256", "--subsample-t", "0.01",
                 "--seed", "1"]) == 0

    (d / "sim.tsv").write_text(
        "g0_ind0\tg0_ind1\t9.0\ng0_ind0\tg1_ind0\t2.0\nmono0\tg0_ind2\t5.0\n")
    (d / "entail.tsv").write_text(
        "mono0\tpoly0\t1\nmono1\tpoly0\t1\nmono0\tmono1\t0\ng0_ind0\tg1_ind0\t0\n")
    inst = {"target": "poly0", "target_index": 1,
            "context_tokens": ["g0_ind0", "poly0", "g0_ind1"],
            "candidates": ["mono0", "mono1"], "gold_weights": {"mono0": 2.0}}
    (d / "lexsub.jsonl").write_text(json.dumps(inst) + "\n")
    return d


class TestBuildVocab:
    def test_writes_tsv(self, workdir, tmp_path, capsys):
        out = tmp_path / "vocab.tsv"
        assert main(["build-vocab", str(workdir / "corpus.txt"),
                     "--out", str(out)]) == 0
        assert "vocabulary:" in capsys.readouterr().out
        first = out.read_text().splitlines()[0].split("\t")
        assert len(first) == 2 and int(first[1]) > 0

    def test_missing_corpus(self, tmp_path, capsys):
        assert main(["build-vocab", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "v.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err == f"error: No such file or directory: {tmp_path / 'nope.txt'}\n"

    def test_corpus_is_a_directory(self, tmp_path, capsys):
        assert main(["build-vocab", str(tmp_path), "--out", str(tmp_path / "v.tsv")]) == 2
        assert capsys.readouterr().err == f"error: Is a directory: {tmp_path}\n"
        assert list(tmp_path.iterdir()) == []


class TestTrain:
    @pytest.mark.parametrize("kind", ["sg", "w2g_s", "w2g_d"])
    def test_baseline_kinds(self, workdir, tmp_path, kind, capsys):
        out = tmp_path / f"{kind}.bin"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(out),
                     "--model", kind, "--dim", "4", "--window", "2",
                     "--epochs", "1", "--batch-size", "256",
                     "--subsample-t", "0.01"]) == 0
        assert "epoch mean losses" in capsys.readouterr().out
        assert out.exists()

    def test_text_format_and_vocab_reuse(self, workdir, tmp_path, capsys):
        vocab = tmp_path / "v.tsv"
        assert main(["build-vocab", str(workdir / "corpus.txt"),
                     "--out", str(vocab)]) == 0
        out = tmp_path / "m.txt"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(out),
                     "--vocab", str(vocab), "--model", "bsg", "--dim", "3",
                     "--window", "2", "--epochs", "0", "--format", "text"]) == 0
        assert out.read_text().startswith("#SECTION header")

    def test_non_utf8_vocabulary(self, workdir, tmp_path, capsys):
        vocab = tmp_path / "v.tsv"
        vocab.write_bytes(b"a\t3\nb\xff\t2\n")
        assert main(["train", str(workdir / "corpus.txt"), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.bin")]) == 2
        err = capsys.readouterr().err
        assert err == "error: non-UTF-8 vocabulary line 2 at byte offset 5\n"

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_non_positive_subsample_t(self, workdir, tmp_path, capsys, t):
        vocab = tmp_path / "v.tsv"
        vocab.write_text("g0_ind0\t3\n")
        assert main(["train", str(workdir / "corpus.txt"), "--vocab", str(vocab),
                     "--out", str(tmp_path / "m.bin"), f"--subsample-t={t}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: subsampling t must be > 0, got {float(t)}\n"
        assert captured.out == "" and not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning rate must be finite and > 0, got nan"),
        ("--lr", "inf", "learning rate must be finite and > 0, got inf"),
        ("--lr", "-1", "learning rate must be finite and > 0, got -1.0"),
        ("--lr", "0", "learning rate must be finite and > 0, got 0.0"),
        ("--batch-size", "0", "batch_size must be >= 1 and hidden_dim >= 0"),
        ("--batch-size", "-5", "batch_size must be >= 1 and hidden_dim >= 0"),
        ("--hidden-dim", "-3", "batch_size must be >= 1 and hidden_dim >= 0"),
        ("--margin", "nan", "margin must be finite and >= 0, got nan"),
        ("--margin", "inf", "margin must be finite and >= 0, got inf"),
        ("--neg-exponent", "nan", "negative-sampling exponent must be finite, got nan"),
        ("--neg-exponent", "inf", "negative-sampling exponent must be finite, got inf"),
        ("--neg-exponent", "2000",
         "negative-sampling exponent 2000.0 under- or overflows the sampling probabilities"),
        ("--negatives", "0", "negatives_per_positive must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1")])
    @pytest.mark.parametrize("kind", ["bsg", "sg", "w2g_s"])
    def test_out_of_range_setting(self, workdir, tmp_path, capsys, kind, flag, value,
                                  message):
        # one batch holds the whole corpus, so a bad rate would take one step and save
        out = tmp_path / "m.bin"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(out),
                     "--model", kind, "--dim", "3", "--window", "2",
                     "--batch-size", "100000", "--subsample-t", "0.01",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--negatives", "0"), ("--seed", "-1"), ("--window", "0"), ("--dim", "0"),
        ("--batch-size", "0"), ("--lr", "nan"), ("--subsample-t", "0"),
        ("--neg-exponent", "nan"), ("--out", "{tmp}"), ("--out", "{tmp}/missing/m.bin"),
        ("--log", "{tmp}/missing/x.csv")])
    def test_bad_setting_fails_before_the_corpus_is_read(self, workdir, tmp_path, capsys,
                                                         monkeypatch, flag, value):
        reads, read = [], corpus.iter_documents

        def counted(*args, **kwargs):         # each document read
            for doc in read(*args, **kwargs):
                reads.append(doc)
                yield doc

        monkeypatch.setattr(corpus, "iter_documents", counted)
        monkeypatch.setattr(cli, "iter_documents", counted)
        argv = ["train", str(workdir / "corpus.txt"), "--out", str(tmp_path / "m.bin"),
                "--dim", "3", "--window", "2", "--epochs", "0"]
        assert main(argv + [flag, value.format(tmp=tmp_path)]) == 2
        captured = capsys.readouterr()
        assert reads == [] and captured.out == "" and captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []
        assert main(argv) == 0 and reads        # the counter sees a good run's reads

    def test_defaults_match_train_config(self):
        """Each default train shares with TrainConfig is written twice; they agree."""
        args = cli._build_parser().parse_args(["train", "c", "--out", "o"])
        fields = {"dim": "dim", "window": "window", "subsample_t": "subsample_t",
                  "negatives": "negatives_per_positive", "margin": "margin",
                  "batch_size": "batch_size", "epochs": "epochs", "seed": "seed",
                  "objective": "objective", "cov": "cov_kind", "hidden_dim": "hidden_dim",
                  "neg_exponent": "neg_exponent", "lowercase": "lowercase"}
        defaults = {f.name: f.default for f in dataclasses.fields(bsg.TrainConfig)}
        assert ({option: getattr(args, option) for option in fields}
                == {option: defaults[name] for option, name in fields.items()})

    def test_telemetry_log(self, workdir, tmp_path):
        log = tmp_path / "log.csv"
        assert main(["train", str(workdir / "corpus.txt"),
                     "--out", str(tmp_path / "m.bin"), "--dim", "3",
                     "--window", "2", "--epochs", "1", "--batch-size", "256",
                     "--subsample-t", "0.01", "--log", str(log)]) == 0
        assert log.read_text().splitlines()[0] == "batch_index,loss,examples_seen"

    @pytest.mark.parametrize("kind", sorted(LOG_SHA256))
    def test_telemetry_log_bytes_are_pinned(self, workdir, tmp_path, kind):
        log = tmp_path / "log.csv"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(tmp_path / "m.bin"),
                     "--model", kind, "--dim", "3", "--window", "2", "--epochs", "2",
                     "--batch-size", "256", "--subsample-t", "0.01", "--log", str(log)]) == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == LOG_SHA256[kind]

    def test_deterministic_reruns_byte_identical(self, workdir, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        argv = ["train", str(workdir / "corpus.txt"), "--model", "bsg",
                "--dim", "3", "--window", "2", "--epochs", "1",
                "--batch-size", "256", "--subsample-t", "0.01",
                "--seed", "7"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# case name -> (command line after `bayesgram`, the reason and the path an OS
# error names); {out} is an empty directory, {missing} a path in no directory
OS_ERRORS = {
    "train-out-in-missing-dir": (["train", "{corpus}", "--out", "{missing}/m.bin"],
                                 "No such file or directory: {missing}/m.bin"),
    "train-out-is-a-directory": (["train", "{corpus}", "--out", "{out}"],
                                 "Is a directory: {out}"),
    "train-out-empty": (["train", "{corpus}", "--out", ""], "[Errno 21] Is a directory: ''"),
    "eval-sim-missing-dataset": (["eval-sim", "{model}", "{missing}.tsv"],
                                 "No such file or directory: {missing}.tsv"),
    "report-logdet-out-in-missing-dir": (
        ["report-logdet", "{model}", "--out", "{missing}/r.csv"],
        "No such file or directory: {missing}/r.csv"),
    "nearest-model-is-a-directory": (["nearest", "{out}", "mono0"], "Is a directory: {out}"),
}


# command -> a command line whose output {target} is entered before {input}, which
# does not exist, is read
EARLY_OUTPUTS = {
    "build-vocab": ["build-vocab", "{input}", "--out", "{target}"],
    "report-logdet": ["report-logdet", "{input}", "--out", "{target}"],
    "eval-entail-hist-out": ["eval-entail", "{input}", "{input}", "--hist-out", "{target}"],
    "eval-entail-hist-out-dataset": ["eval-entail", "{model}", "{input}",
                                     "--hist-out", "{target}"],
}

# writer -> a command line writing {target}
WRITERS = {
    "build-vocab": ["build-vocab", "{corpus}", "--out", "{target}"],
    "report-logdet": ["report-logdet", "{model}", "--out", "{target}"],
    "eval-entail-hist-out": ["eval-entail", "{model}", "{entail}", "--hist-out", "{target}"],
    "synth-corpus": ["synth-corpus", "--out", "{target}", "--docs", "2"],
    "synth-corpus-tags": ["synth-corpus", "--out", "{other}", "--tags", "{target}",
                          "--docs", "2"],
}


class TestOsErrors:
    @pytest.mark.parametrize("name", sorted(OS_ERRORS))
    def test_names_reason_and_path(self, workdir, tmp_path, capsys, name):
        out = tmp_path / "out"
        out.mkdir()
        paths = {"corpus": str(workdir / "corpus.txt"), "model": str(workdir / "model.bin"),
                 "out": str(out), "missing": str(tmp_path / "missing")}
        argv, reason = OS_ERRORS[name]
        if argv[0] == "train":
            argv = argv + ["--dim", "3", "--window", "2", "--batch-size", "100000",
                           "--subsample-t", "0.01"]
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {reason.format(**paths)}\n"
        assert sorted(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("name", [n for n in sorted(OS_ERRORS) if n.startswith("train")])
    def test_train_out_fails_before_the_corpus_is_read(self, workdir, tmp_path, capsys,
                                                       monkeypatch, name):
        def untouchable(*_args, **_kw):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "iter_documents", untouchable)
        monkeypatch.setattr(bsg, "iter_training_batches", untouchable)
        out = tmp_path / "out"
        out.mkdir()
        paths = {"corpus": str(workdir / "corpus.txt"), "out": str(out),
                 "missing": str(tmp_path / "missing")}
        argv, reason = OS_ERRORS[name]
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {reason.format(**paths)}\n"
        assert sorted(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(EARLY_OUTPUTS))
    @pytest.mark.parametrize("target", ["{missing}/o.csv", "{out}"])
    def test_out_fails_before_the_input_is_read(self, workdir, tmp_path, capsys, name,
                                                target):
        out = tmp_path / "out"
        out.mkdir()
        paths = {"missing": str(tmp_path / "missing"), "out": str(out)}
        paths["target"] = target.format(**paths)
        reason = "Is a directory" if target == "{out}" else "No such file or directory"
        argv = [a.format(input=str(tmp_path / "no-input"), model=workdir / "model.bin",
                         **paths) for a in EARLY_OUTPUTS[name]]
        assert main(argv) == 2                  # the input is missing too, but not reached
        assert capsys.readouterr().err == f"error: {reason}: {paths['target']}\n"
        assert sorted(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_write_failing_partway_keeps_the_old_file(self, workdir, tmp_path, capsys,
                                                      monkeypatch, name):
        target = tmp_path / "t" / "target"
        target.parent.mkdir()
        target.write_bytes(b"old")

        def part_writing_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            return PartWrite(f) if os.path.basename(file).startswith(".target.") else f

        monkeypatch.setattr(corpus, "open", part_writing_open, raising=False)
        argv = [a.format(corpus=workdir / "corpus.txt", model=workdir / "model.bin",
                         entail=workdir / "entail.tsv", other=tmp_path / "other",
                         target=target) for a in WRITERS[name]]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: No space left on device: {target}\n"
        assert target.read_bytes() == b"old" and list(target.parent.iterdir()) == [target]

    def test_train_replaces_out_and_leaves_no_temporary(self, workdir, tmp_path):
        out = tmp_path / "m.bin"
        out.write_bytes(b"old")
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(out), "--dim", "3",
                     "--window", "2", "--batch-size", "100000", "--subsample-t", "0.01"]) == 0
        assert out.read_bytes()[:4] != b"old" and sorted(tmp_path.iterdir()) == [out]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, workdir, capsys):
        assert main(["train", str(workdir / "corpus.txt"), "--out", "x",
                     "--bogus"]) == 1

    def test_bad_choice(self, workdir, capsys):
        assert main(["train", str(workdir / "corpus.txt"), "--out", "x",
                     "--model", "glove"]) == 1


class TestEvalCommands:
    def test_eval_sim(self, workdir, capsys):
        assert main(["eval-sim", str(workdir / "model.bin"),
                     str(workdir / "sim.tsv")]) == 0
        out = capsys.readouterr().out
        assert "spearman_rho\t" in out and "pairs_oov\t0" in out

    def test_eval_entail_with_histogram(self, workdir, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        assert main(["eval-entail", str(workdir / "model.bin"),
                     str(workdir / "entail.tsv"), "--hist-out", str(hist),
                     "--bins", "5"]) == 0
        out = capsys.readouterr().out
        assert "f1\t" in out and "threshold\t" in out
        lines = hist.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,entailing,not_entailing"
        assert len(lines) == 6

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_eval_entail_bins_below_one_refused_before_any_work(
            self, workdir, tmp_path, capsys, monkeypatch, bins):
        def untouchable(*_args, **_kw):
            raise AssertionError("the model was read")

        monkeypatch.setattr(serialize, "load_model", untouchable)
        assert main(["eval-entail", str(workdir / "model.bin"), str(workdir / "entail.tsv"),
                     "--hist-out", str(tmp_path / "hist.csv"), "--bins", bins]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --bins must be >= 1, got {bins}\n"
        assert list(tmp_path.iterdir()) == []

    def test_eval_direction(self, workdir, capsys):
        assert main(["eval-direction", str(workdir / "model.bin"),
                     str(workdir / "entail.tsv")]) == 0
        out = capsys.readouterr().out
        assert "accuracy\t" in out and "frequency_baseline\t" in out

    @pytest.mark.parametrize("ranker", ["posterior", "add", "mult"])
    def test_eval_lexsub(self, workdir, ranker, capsys):
        assert main(["eval-lexsub", str(workdir / "model.bin"),
                     str(workdir / "lexsub.jsonl"), "--window", "2",
                     "--ranker", ranker]) == 0
        out = capsys.readouterr().out
        assert "gap\t" in out and "instances_used\t1" in out

    @pytest.mark.parametrize("window", ["0", "-3"])
    @pytest.mark.parametrize("ranker", ["posterior", "add", "mult"])
    def test_eval_lexsub_window_below_one_refused_before_the_model_is_read(
            self, workdir, capsys, monkeypatch, ranker, window):
        """A window below 1 would leave the target word alone; every ranker refuses it."""
        def untouchable(*_args, **_kw):
            raise AssertionError("the model was read")

        monkeypatch.setattr(serialize, "load_model", untouchable)
        assert main(["eval-lexsub", str(workdir / "model.bin"), str(workdir / "lexsub.jsonl"),
                     "--window", window, "--ranker", ranker]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --window must be >= 1, got {window}\n"

    def test_malformed_dataset(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only-one-column\n")
        assert main(["eval-sim", str(workdir / "model.bin"), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, line, error", [
        ("eval-sim", "sim.tsv", b"a\tb\xff\t1.0\n", "non-UTF-8 similarity line 2 at byte offset"),
        ("eval-entail", "entail.tsv", b"a\tb\t\xff\n",
         "non-UTF-8 entailment line 2 at byte offset"),
        ("eval-lexsub", "lexsub.jsonl", b'{"target": "\xff"}\n',
         "non-UTF-8 lexsub line 2 at byte offset"),
        ("eval-sim", "sim.tsv", b"a\tb\tabc\n", r"malformed similarity line 2: 'a\tb\tabc'"),
        ("eval-sim", "sim.tsv", b"a\tb\tnan\n", r"malformed similarity line 2: 'a\tb\tnan'"),
        ("eval-sim", "sim.tsv", b"a\tb\t1e999\n", r"malformed similarity line 2: 'a\tb\t1e999'"),
        ("eval-sim", "sim.tsv", b"a\tb\t-inf\n", r"malformed similarity line 2: 'a\tb\t-inf'")],
        ids=["sim-not-utf8", "entail-not-utf8", "lexsub-not-utf8", "sim-abc", "sim-nan",
             "sim-1e999", "sim-minus-inf"])
    def test_dataset_fault_names_its_line(self, workdir, tmp_path, capsys, command, name,
                                          line, error):
        first = (workdir / name).read_bytes().split(b"\n")[0] + b"\n"
        path = tmp_path / name
        path.write_bytes(first + line)
        if b"\xff" in line:
            error += " " + str(len(first) + line.index(b"\xff"))
        assert main([command, str(workdir / "model.bin"), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("field, value", [
        ("candidates", 5), ("target_index", None), ("target_index", True),
        ("gold_weights", ["mono0"]), ("gold_weights", {"mono0": None}),
        ("gold_weights", {"mono0": float("nan")}), ("gold_weights", {"mono0": 10 ** 400}),
        ("context_tokens", ["g0_ind0", "poly0", ["g0_ind1"]]),
        ("candidates", [["mono0"], "mono1"]), ("target", 7), (None, None)],
        ids=["candidates-number", "target_index-null", "target_index-bool", "gold-list",
             "gold-weight-null", "gold-weight-nan", "gold-weight-huge", "context-token-list",
             "candidate-list", "target-number", "json-array"])
    @pytest.mark.parametrize("ranker", ["posterior", "add"])
    def test_mistyped_lexsub_instance_names_its_line(self, workdir, tmp_path, capsys, field,
                                                     value, ranker):
        inst = json.loads((workdir / "lexsub.jsonl").read_text())
        line = json.dumps(list(inst.values()) if field is None else {**inst, field: value})
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(inst) + "\n" + line + "\n")
        assert main(["eval-lexsub", str(workdir / "model.bin"), str(path), "--window", "2",
                     "--ranker", ranker]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed instance at line 2: ") and err.count("\n") == 1


class TestInspectionCommands:
    def test_nearest(self, workdir, capsys):
        assert main(["nearest", str(workdir / "model.bin"), "mono0",
                     "-k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        word, score = lines[0].split("\t")
        assert word != "mono0"
        float(score)

    def test_nearest_oov_word(self, workdir, capsys):
        assert main(["nearest", str(workdir / "model.bin"), "zzz"]) == 2
        assert "out of vocabulary" in capsys.readouterr().err

    def test_nearest_on_short_binary_file(self, tmp_path, capsys):
        (tmp_path / "short.bin").write_bytes(b"BSG1")
        assert main(["nearest", str(tmp_path / "short.bin"), "a"]) == 2
        err = capsys.readouterr().err
        assert err == "error: byte 4: truncated format version\n"

    def test_infer(self, workdir, capsys):
        assert main(["infer", str(workdir / "model.bin"),
                     "g0_ind0 poly0 g0_ind1", "1", "--window", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mean\t")
        assert "variance\t" in out

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_infer_window_below_one_refused_before_the_model_is_read(
            self, workdir, capsys, monkeypatch, window):
        def untouchable(*_args, **_kw):
            raise AssertionError("the model was read")

        monkeypatch.setattr(serialize, "load_model", untouchable)
        assert main(["infer", str(workdir / "model.bin"), "g0_ind0 poly0 g0_ind1", "1",
                     "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: --window must be >= 1, got {window}\n"

    def test_infer_on_sg_model(self, workdir, tmp_path, capsys):
        sg = tmp_path / "sg.bin"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(sg),
                     "--model", "sg", "--dim", "3", "--window", "2",
                     "--epochs", "0"]) == 0
        assert main(["infer", str(sg), "g0_ind0 poly0", "1"]) == 2
        assert "no encoder" in capsys.readouterr().err

    def test_report_logdet(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["report-logdet", str(workdir / "model.bin"),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "word,log_count,log_det_cov"
        assert lines[-1].startswith("# pearson_r,")


class TestSynthCorpus:
    def test_hypernymy(self, tmp_path, capsys):
        out = tmp_path / "hyper.txt"
        assert main(["synth-corpus", "--kind", "hypernymy", "--out", str(out),
                     "--tokens-per-doc", "200", "--docs", "3"]) == 0
        assert "synthetic corpus:" in capsys.readouterr().out
        assert out.exists()


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest OK" in out
        assert out.count("PASS") == 3


@pytest.fixture(scope="module")
def kind_models(workdir):
    """The workdir's bsg model plus an sg, w2g_s and w2g_d model of the same corpus."""
    models = {"bsg": workdir / "model.bin"}
    for kind in ("sg", "w2g_s", "w2g_d"):
        models[kind] = workdir / f"{kind}.bin"
        assert main(["train", str(workdir / "corpus.txt"), "--out", str(models[kind]),
                     "--model", kind, "--dim", "4", "--window", "2", "--epochs", "1",
                     "--batch-size", "256", "--subsample-t", "0.01", "--seed", "1"]) == 0
    return models


# case name -> command line after `bayesgram`, with the model path as {model}
READ_COMMANDS = {
    "eval-sim": ["eval-sim", "{model}", "{sim}"],
    "eval-entail": ["eval-entail", "{model}", "{entail}"],
    "eval-entail-cosine": ["eval-entail", "{model}", "{entail}", "--measure", "cosine"],
    "eval-direction": ["eval-direction", "{model}", "{entail}"],
    "eval-lexsub": ["eval-lexsub", "{model}", "{lexsub}", "--window", "2"],
    "eval-lexsub-add": ["eval-lexsub", "{model}", "{lexsub}", "--window", "2",
                        "--ranker", "add"],
    "eval-lexsub-mult": ["eval-lexsub", "{model}", "{lexsub}", "--window", "2",
                         "--ranker", "mult"],
    "report-logdet": ["report-logdet", "{model}"],
    "nearest": ["nearest", "{model}", "mono0", "-k", "3"],
    "nearest-neg_kl": ["nearest", "{model}", "mono0", "-k", "3", "--measure", "neg_kl"],
}
# the commands that need densities or an encoder, and the error they give
REFUSED = {("sg", "eval-entail"), ("sg", "eval-direction"), ("sg", "report-logdet"),
           ("sg", "nearest-neg_kl"), ("sg", "eval-lexsub"), ("w2g_s", "eval-lexsub"),
           ("w2g_d", "eval-lexsub")}


class TestEveryKind:
    @pytest.mark.parametrize("kind", ["bsg", "sg", "w2g_s", "w2g_d"])
    @pytest.mark.parametrize("name", sorted(READ_COMMANDS))
    def test_command(self, workdir, kind_models, kind, name, capsys):
        paths = {"model": str(kind_models[kind]), "sim": str(workdir / "sim.tsv"),
                 "entail": str(workdir / "entail.tsv"),
                 "lexsub": str(workdir / "lexsub.jsonl")}
        code = main([a.format(**paths) for a in READ_COMMANDS[name]])
        out, err = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
        if (kind, name) in REFUSED:
            assert code == 2
            assert err in ("error: model has no density embeddings\n",
                           "error: no encoder: model kind is not bsg\n")
        else:
            assert code == 0 and out and not err
