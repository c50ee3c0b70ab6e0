"""Tests of the benchmark itself: generators, output checks, tracing, metric map.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from bayesgram import bsg, corpus, serialize  # noqa: E402


def small_vocab(n=40):
    words = [f"v{i}" for i in range(n)]
    return corpus.Vocabulary(words, np.arange(n, 0, -1))


def generate(d, seed):
    vocab = small_vocab()
    gen.write_zipf_corpus(d / "full.txt", d / "shard.txt", seed, 5000, 2)
    gen.write_poly_corpus(d / "poly.txt", d / "poly-shard.txt", seed, 2)
    gen.write_eval_datasets(vocab, seed, 2, d / "sim.tsv", d / "ent.tsv",
                            d / "lex.jsonl", 30, 20, 10)
    serialize.save_model(gen.query_model(vocab, 4, seed), d / "query.bin")
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_generators_same_seed_same_bytes(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    first, second = generate(a, 3), generate(b, 3)
    assert first == second
    other = generate(c, 4)
    assert all(other[name] != first[name] for name in first)


def test_generated_inputs_load():
    vocab = small_vocab()
    assert gen.query_words(vocab, 1, 5) == gen.query_words(vocab, 1, 5)
    sents = gen.sentences(vocab, 1, 3, window=2)
    assert all(len(s) == 5 and all(w in vocab for w in s) for s in sents)


@pytest.fixture
def query_bundle():
    return gen.query_model(small_vocab(), 4, 0)


def test_correct_nearest_passes(query_bundle):
    ops = checks.Ops("test")
    word = query_bundle.vocab.words[3]
    for measure in ("cosine_mean", "neg_kl"):
        ops.run("nearest", lambda: serialize.nearest(query_bundle, word, 5, measure),
                check=lambda r: checks.nearest_ok(query_bundle, word, 5, measure, r))
    assert (ops.attempted, ops.failed) == (2, 0)


def test_wrong_result_counts_as_failed(query_bundle):
    ops = checks.Ops("test")
    word = query_bundle.vocab.words[3]
    right = serialize.nearest(query_bundle, word, 5, "neg_kl")
    swapped = [right[1], right[0]] + right[2:]
    off_by_one = right[1:] + [(word, right[-1][1])]
    repeated = right[:4] + [right[3]]
    for wrong in (swapped, off_by_one, right[:4], repeated):
        ops.run("nearest", lambda: wrong,
                check=lambda r: checks.nearest_ok(query_bundle, word, 5, "neg_kl", r))
    assert (ops.attempted, ops.failed) == (4, 4)


def test_wrong_infer_and_eval_count_as_failed(query_bundle):
    ops = checks.Ops("test")
    sent = gen.sentences(query_bundle.vocab, 0, 1, window=2)[0]
    q = serialize.infer(query_bundle, sent, 2, 2)
    shifted = type(q)(q.mean + 1e-2, q.log_var)
    ops.run("infer", lambda: shifted,
            check=lambda r: checks.infer_ok(query_bundle, sent, 2, 2, r))
    ops.run("infer", lambda: q, check=lambda r: checks.infer_ok(query_bundle, sent, 2, 2, r))
    scores, labels = [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]
    best = checks.exhaustive_best_f1(scores, labels)
    assert best == pytest.approx(0.8)
    ops.check("best f1", lambda: abs(0.5 - best) <= 1e-12)
    assert (ops.attempted, ops.failed) == (3, 2)


def test_raising_operation_counts_as_failed():
    ops = checks.Ops("test")
    result, seconds = ops.run("boom", lambda: 1 / 0)
    assert (result, seconds) == (None, None)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_wrappers_pass_through_and_restore(tmp_path):
    base = small_vocab(12)
    vocab = corpus.Vocabulary(base.words, base.counts, subsample_t=1.0)
    path = tmp_path / "c.txt"
    rng = np.random.default_rng(0)
    path.write_text("\n".join(" ".join(rng.choice(vocab.words, 30)) for _ in range(3)))
    cfg = bsg.TrainConfig(dim=3, window=2, batch_size=16, subsample_t=1.0, seed=1)
    plain = bsg.train(path, vocab, cfg)
    tracer = tracing.Tracer()
    originals = (bsg.iter_training_windows, bsg.Adam, bsg.infer_posterior)
    with tracer.installed():
        tracer.label = "bsg"
        traced = bsg.train(path, vocab, cfg)
    assert (bsg.iter_training_windows, bsg.Adam, bsg.infer_posterior) == originals
    for name, arr in plain.param_arrays().items():
        assert np.array_equal(arr, traced.param_arrays()[name])
    _, windows = tracer.counter("corpus.stream", "bsg")
    _, forward = tracer.counter("encoder.forward", "bsg")
    assert windows > 0 and forward == windows
    assert tracer.counter("optim.step", "bsg")[1] == len(tracer.step_seconds) > 0


def test_removed_name_counts_zero(monkeypatch):
    monkeypatch.delattr(bsg, "encoder_backward")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert not hasattr(bsg, "encoder_backward")
    assert tracer.counter("encoder.backward") == (0.0, 0)


def test_metric_map_matches_benchmark():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    mapped = json.loads((HERE / "metric_map.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert declared == {k: v["unit"] for k, v in mapped["metrics"].items()}
    assert [m["name"] for m in spec["end_to_end"]] == [
        k for k, v in mapped["metrics"].items() if v["scope"] == "end_to_end"]
    assert set(mapped["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(run.WORKLOAD_NAMES) == set(mapped["workloads"]) == set(bench.WORKLOADS)
    assert run.KINDS == bench.KINDS
