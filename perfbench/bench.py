"""One benchmark session: a user's path through the public API, timed and checked.

A session counts the vocabulary, trains the four model kinds on the shared
window/negative stream and saves each, then runs a closed-loop client that
loads a query model, issues `nearest` and `infer` queries and runs every
evaluation. Every output is checked outside the timed region.

On a shared machine, speed drifts by a quarter or more for seconds to
minutes at a time, so a median over a few seconds moves with it.
Training, loading, eval and median query timings are therefore the best of
several repetitions spread over the run: the fastest of interleaved epochs
of each model kind, of each evaluation's passes and of the loads, and the
lowest median of short query blocks. A query's tail is a percentile of
every one of its samples in the run, and `setup_s` is the median of the
vocabulary builds. Each vocabulary build, training call and read block runs pinned to
the core that is fastest just before it (see `Session._pin_fastest_core`).
"""

import json
import math
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
from bayesgram import baselines, bsg, corpus, evaluate, serialize

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"

KINDS = ("bsg", "sg", "w2g_s", "w2g_d")
NEAREST_K = 10
QUERY_POOL = 4096
BLOCK_ROUNDS = 20        # nearest rounds (one call per measure) per read block
BLOCK_INFERS = 100       # back-to-back infer calls per read block
# the reported tail of each query; a fixed percentile, so that it means the
# same in every run. A run makes at least tail_samples(TAIL_PCT) queries
TAIL_PCT = 90.0
TAIL_BEYOND = 20         # samples a run has beyond the tail percentile
LOADS_PER_BLOCK = 3      # the first load of a block runs on cold caches
EVAL_PASSES = 5          # eval passes and vocabulary builds spread over a run


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int          # expected |V|; a build that differs fails
    train: dict              # TrainConfig fields besides the seed
    train_reps: int          # interleaved epochs per kind; the fastest counts
    trace_train_reps: int    # epochs per kind in a traced run
    query_vocab: int         # the query model covers this many top words
    learning_rates: dict = field(default_factory=dict)


WORKLOADS = {
    # the criterion-8 configuration at |V| = 16
    "poly": Workload("poly", vocab_size=16,
                     train=dict(dim=10, window=2, epochs=1, batch_size=512,
                                subsample_t=1e-2, learning_rate=0.05),
                     train_reps=16, trace_train_reps=3,
                     query_vocab=16,
                     learning_rates={"sg": 0.005, "w2g_s": 0.01, "w2g_d": 0.01}),
    # the paper defaults at |V| = 50k
    "zipf": Workload("zipf", vocab_size=50_000,
                     train=dict(dim=100, window=5, epochs=1, batch_size=22000,
                                subsample_t=1e-4, negatives_per_positive=1),
                     train_reps=8, trace_train_reps=1,
                     # nearest over all 50k words takes about a second a call,
                     # too long for several read blocks in one run
                     query_vocab=1_000),
}
# the vocabulary is counted over the full corpus, training reads its first
# documents; one zipf document gives about 5k tasks, a quarter of a batch
POLY_SHARD_DOCS = 2
ZIPF_TOKENS = 3_000_000
ZIPF_SHARD_DOCS = 1


def tail_samples(pct):
    """Fewest samples that leave at least TAIL_BEYOND beyond the pct-th percentile."""
    return math.ceil(TAIL_BEYOND / (1.0 - pct / 100.0))


def spin_seconds():
    """Wall time of a fixed pure-Python loop: the current speed of a core."""
    t0 = time.perf_counter()
    x = 0
    for i in range(100_000):
        x += i
    return time.perf_counter() - t0


def keep_best(best, name, value):
    best[name] = min(best.get(name, value), value)


class Session:
    def __init__(self, workload, seed, seconds, tracer=None):
        w = self.w = WORKLOADS[workload]
        self.seed, self.seconds, self.tracer = seed, seconds, tracer
        self.cfg = bsg.TrainConfig(seed=seed, **w.train)
        self.ops = checks.Ops("ops")
        self.defects = checks.Ops("known-defect")
        self.dir = WORK / f"{w.name}-{seed}-{int(tracer is not None)}"
        self.metrics = {}
        self.notes = []
        self.losses = {}
        self.train_seconds = {k: [] for k in KINDS}
        self.file_bytes = {}
        self.keep = {}
        self.rounds = 0
        self.infers = 0
        self.setup_seconds = []
        self.vocab = None
        self.cpus = sorted(os.sched_getaffinity(0))

    def _pin_fastest_core(self):
        """Pin the process to the allowed core that runs a short loop fastest now.

        The cores of a shared machine slow down independently, by up to
        ~80% for a second to minutes, as neighbours load them; the program
        under test is the same on every core.
        """
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(spin_seconds(), spin_seconds())
        os.sched_setaffinity(0, {min(speed, key=speed.get)})

    # ------------------------------------------------------------ tracing
    def _label(self, label):
        if self.tracer:
            self.tracer.label = label

    def _traced(self, name, fn):
        """fn, inside a span of the given name when tracing."""
        def call():
            with self.tracer.span(name) if self.tracer else nullcontext():
                return fn()
        return call

    # ------------------------------------------------------------- inputs
    def make_inputs(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.full = self.dir / "corpus.txt"
        self.shard = self.dir / "shard.txt"
        if self.w.name == "poly":
            gen.write_poly_corpus(self.full, self.shard, self.seed, POLY_SHARD_DOCS)
        else:
            gen.write_zipf_corpus(self.full, self.shard, self.seed,
                                  ZIPF_TOKENS, ZIPF_SHARD_DOCS)

    # -------------------------------------------------------------- setup
    def build_vocabulary(self):
        """One set-up sample: count the vocabulary of the full corpus."""
        w = self.w
        self._label("setup")
        self._pin_fastest_core()
        vocab, dt = self.ops.run(
            "build_vocabulary",
            self._traced("corpus.vocab", lambda: corpus.build_vocabulary(
                corpus.iter_documents(self.full), w.vocab_size, 1,
                t=self.cfg.subsample_t)),
            check=lambda v: len(v) == w.vocab_size)
        if vocab is None:
            raise SystemExit("error: vocabulary build failed")
        self.setup_seconds.append(dt)
        if self.vocab is None:
            self.vocab = vocab

    def count_stream(self):
        """Windows and tasks of one epoch, drained from the shared stream."""
        windows = tasks = 0
        t0 = time.perf_counter()
        for _, _, negs in corpus.iter_training_windows(
                self.shard, self.vocab, self.cfg.window,
                self.cfg.negatives_per_positive, bsg.data_rng(self.cfg),
                lowercase=self.cfg.lowercase):
            windows += 1
            tasks += len(negs)
        self.stream_seconds = time.perf_counter() - t0
        self.windows, self.tasks = windows, tasks

    # ----------------------------------------------------------- training
    def train_kind(self, kind, check=True):
        log = self.dir / f"telemetry-{kind}.csv"
        losses = []
        if kind == "bsg":
            fn = lambda: bsg.train(self.shard, self.vocab, self.cfg,
                                   log_path=log, epoch_losses=losses)
        else:
            fn = lambda: baselines.train_baseline(
                kind, self.shard, self.vocab, self.cfg, log_path=log,
                epoch_losses=losses, learning_rate=self.w.learning_rates.get(kind))

        def ok(model):
            # the telemetry's final examples_seen is the shared-stream task count
            return (checks.finite_params(model)
                    and len(losses) == self.cfg.epochs
                    and bool(np.all(np.isfinite(losses)))
                    and checks.last_examples_seen(log) == self.tasks)

        self._label(kind)
        self._pin_fastest_core()
        model, dt = self.ops.run(f"train {kind}", self._traced("train", fn),
                                 check=ok if check else None)
        return model, dt, losses

    def train_reps(self):
        return self.w.trace_train_reps if self.tracer else self.w.train_reps

    def train_rep(self, last):
        """One epoch of each kind in turn; the last repetition saves each model."""
        for kind in KINDS:
            model, dt, losses = self.train_kind(kind)
            if model is None:
                continue
            self.train_seconds[kind].append(dt)
            self.losses[kind] = losses[-1]
            if last:
                self.save(kind, model)
            del model

    def save(self, kind, model):
        bundle = serialize.bundle_from_model(model, {"seed": self.seed})
        path = self.dir / f"{kind}.bin"
        self.ops.run(f"save {kind}",
                     self._traced(f"serialize.save.{kind}",
                                  lambda: serialize.save_model(bundle, path)),
                     check=lambda _: checks.round_trip_ok(bundle, serialize.load_model(path)))
        self.file_bytes[kind] = path.stat().st_size
        if kind in ("sg", "w2g_d"):
            self.keep[kind] = model

    def check_reference_losses(self):
        """At the default seed, each kind's epoch loss matches the stored one."""
        refs = json.loads((HERE / "reference_losses.json").read_text()).get(self.w.name)
        if self.seed != 0 or not refs:
            return
        for kind, loss in self.losses.items():
            self.ops.check(f"epoch loss {kind} vs reference",
                           lambda: abs(loss - refs[kind]) <= 1e-6 * max(1.0, abs(refs[kind])))

    # ----------------------------------------------------------- read path
    def read_inputs(self):
        """The query model file, query words and windows, eval datasets."""
        vocab = self.vocab
        if self.w.query_vocab < len(vocab):
            vocab = corpus.Vocabulary(vocab.words[:self.w.query_vocab],
                                      vocab.counts[:self.w.query_vocab],
                                      subsample_t=vocab.subsample_t)
        self.query_path = self.dir / "query.bin"
        serialize.save_model(gen.query_model(vocab, self.cfg.dim, self.seed),
                             self.query_path)
        self.query_words = vocab.words
        win = self.cfg.window
        self.words = gen.query_words(vocab, self.seed, QUERY_POOL)
        self.sents = gen.sentences(vocab, self.seed, QUERY_POOL, win)
        paths = [self.dir / n for n in ("sim.tsv", "entail.tsv", "lexsub.jsonl")]
        gen.write_eval_datasets(vocab, self.seed, win, *paths, *gen.EVAL_SIZES)
        self.sim = evaluate.load_similarity_pairs(paths[0])
        self.ent = evaluate.load_entailment_pairs(paths[1])
        self.pos = [p for p in self.ent if p.label]
        self.lex = evaluate.load_lexsub_instances(paths[2])

    def load(self):
        """load_model + model_from_bundle of the query model, as every CLI query pays."""
        def load():
            b = serialize.load_model(self.query_path)
            return b, serialize.model_from_bundle(b)

        loaded, dt = self.ops.run(
            "load query model", self._traced("serialize.load", load),
            check=lambda r: r[0].model_kind == "bsg" and r[0].vocab.words == self.query_words)
        if loaded is None:
            raise SystemExit("error: query model load failed")
        return loaded, dt

    def read_block(self, best, samples):
        """Load the query model LOADS_PER_BLOCK times, issue BLOCK_ROUNDS nearest
        rounds, then BLOCK_INFERS infer calls.

        `best` keeps the fastest load and, per query metric, the lowest
        block median; `samples` gathers every query latency of the run.
        Returns the loaded bundle and model.
        """
        self._label("read")
        self._pin_fastest_core()
        for _ in range(LOADS_PER_BLOCK):
            (b, model), dt = self.load()
            keep_best(best, "load_ms", dt * 1e3)
        block = {name: [] for name in samples}
        self.query_block(b, block)
        for name, xs in block.items():
            samples[name] += xs
            if xs:
                keep_best(best, f"{name}.p50", float(np.median(xs)))
        return b, model

    def query_block(self, b, samples):
        win = self.cfg.window
        for _ in range(BLOCK_ROUNDS):
            word = self.words[self.rounds % QUERY_POOL]
            for metric, measure in (("nearest_cos_ms", "cosine_mean"),
                                    ("nearest_kl_ms", "neg_kl")):
                _, dt = self.ops.run(
                    f"nearest {measure}",
                    self._traced("serialize.nearest", lambda: serialize.nearest(
                        b, word, NEAREST_K, measure)),
                    check=lambda res: checks.nearest_ok(b, word, NEAREST_K, measure, res))
                if dt is not None:
                    samples[metric].append(dt * 1e3)
            self.rounds += 1
        for _ in range(BLOCK_INFERS):
            sent = self.sents[self.infers % QUERY_POOL]
            _, dt = self.ops.run(
                "infer", self._traced("serialize.infer",
                                      lambda: serialize.infer(b, sent, win, win)),
                check=lambda res: checks.infer_ok(b, sent, win, win, res))
            if dt is not None:
                samples["infer_ms"].append(dt * 1e3)
            self.infers += 1

    def eval_pass(self, b, m):
        """Seconds of one pass over every evaluation, per evaluation."""
        win = self.cfg.window
        seconds = {}

        def timed(name, fn, check):
            result, dt = self.ops.run(name, self._traced(f"evaluate.{name}", fn), check)
            seconds[name] = seconds.get(name, 0.0) + (dt or 0.0)
            return result

        timed("sim", lambda: evaluate.eval_similarity(m, self.sim),
              lambda r: checks.similarity_ok(b, self.sim, r))
        timed("entail", lambda: evaluate.eval_entailment(m, self.ent),
              lambda r: checks.entailment_ok(b, self.ent, r))
        timed("direction", lambda: evaluate.eval_directionality(m, self.pos),
              lambda r: checks.directionality_ok(b, self.pos, r))
        for inst in self.lex:
            ranking = timed("lexsub", lambda: evaluate.lexsub_rank(m, inst, win),
                            lambda r: checks.lexsub_ok(b, inst, win, r))
            if ranking is not None:
                timed("gap", lambda: evaluate.gap(
                    [inst.gold_weights.get(c, 0.0) for c, _ in ranking],
                    list(inst.gold_weights.values())), checks.gap_ok)
        timed("logdet", lambda: evaluate.logdet_frequency_report(m, m.vocab),
              lambda r: checks.logdet_ok(b, r))
        return seconds

    # ------------------------------------------------------ known defects
    def probe_baselines(self):
        """Untimed: nearest and every eval on the sg and w2g_d models.

        The evals fail on these kinds, a known defect of the library. The
        failures are counted here, apart from the workload's operations.
        """
        word = self.vocab.words[1]
        self._label("probe")
        for kind, model in self.keep.items():
            b = serialize.bundle_from_model(model)
            for measure in ("cosine_mean",) if kind == "sg" else ("cosine_mean", "neg_kl"):
                self.defects.run(
                    f"{kind} nearest {measure}",
                    lambda: serialize.nearest(b, word, NEAREST_K, measure),
                    check=lambda r: checks.nearest_ok(b, word, NEAREST_K, measure, r))
            for name, fn in (
                    ("eval_similarity", lambda: evaluate.eval_similarity(model, self.sim)),
                    ("eval_entailment", lambda: evaluate.eval_entailment(model, self.ent)),
                    ("eval_directionality",
                     lambda: evaluate.eval_directionality(model, self.pos)),
                    ("logdet_frequency_report",
                     lambda: evaluate.logdet_frequency_report(model, self.vocab))):
                self.defects.run(f"{kind} {name}", fn)
        self.keep.clear()

    # ----------------------------------------------------------------- run
    def run(self):
        try:
            self.make_inputs()
            self.build_vocabulary()
            self.count_stream()
            self.read_inputs()
            if self.tracer:
                self.untraced_train_s = self.untraced_training_seconds()
                with self.tracer.installed():
                    self._measure()
            else:
                self._measure()
            self.probe_baselines()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _measure(self):
        """Repetitions of: train every kind, read blocks for a share of
        --seconds; in EVAL_PASSES of them evenly spread (all, if fewer), also
        one eval pass and one vocabulary build. Each metric's samples are so
        spread over the run. The last read phase goes on until the queries
        are enough for TAIL_PCT. eval_s adds up each evaluation's fastest pass.
        """
        reps = self.train_reps()
        eval_reps = {i * reps // EVAL_PASSES for i in range(EVAL_PASSES)}
        best = {}
        best_eval = {}
        samples = {"nearest_cos_ms": [], "nearest_kl_ms": [], "infer_ms": []}
        read_s = 0.0
        blocks = 0
        for rep in range(reps):
            self.train_rep(last=rep == reps - 1)
            target = self.seconds * (rep + 1) / reps
            t0 = time.perf_counter()
            b, model = self.read_block(best, samples)
            if rep in eval_reps:
                self._label("eval")
                for name, secs in self.eval_pass(b, model).items():
                    keep_best(best_eval, name, secs)
            read_s += time.perf_counter() - t0
            blocks += 1
            while read_s < target or (rep == reps - 1 and self.rounds < tail_samples(TAIL_PCT)):
                t0 = time.perf_counter()
                self.read_block(best, samples)
                read_s += time.perf_counter() - t0
                blocks += 1
            if rep in eval_reps:
                self.build_vocabulary()
        os.sched_setaffinity(0, self.cpus)
        self.metrics.update(best)
        self.metrics["eval_s"] = sum(best_eval.values())
        tails = []
        for name, xs in samples.items():
            if xs:   # empty only when every query failed, which is reported
                self.metrics[f"{name}.tail"] = float(np.percentile(xs, TAIL_PCT))
                tails.append(f"{name}.tail = p{TAIL_PCT:g} of n={len(xs)}")
        self.metrics["setup_s"] = statistics.median(self.setup_seconds)
        for kind, secs in self.train_seconds.items():
            if secs:
                self.metrics[f"train_wps.{kind}"] = self.windows / min(secs)
        self.check_reference_losses()
        self.notes.append(
            f"{reps} training repetitions, {blocks} read blocks, "
            f"{len(self.setup_seconds)} vocabulary builds; " + ", ".join(tails))

    def untraced_training_seconds(self):
        """The same training without wrappers, the base of trace.overhead_frac."""
        reps = self.train_reps()
        tracer, self.tracer = self.tracer, None
        total = 0.0
        try:
            for _ in range(reps):
                for kind in KINDS:
                    model, dt, _ = self.train_kind(kind, check=False)
                    total += dt or 0.0
                    del model
        finally:
            self.tracer = tracer
            os.sched_setaffinity(0, self.cpus)
        return total
