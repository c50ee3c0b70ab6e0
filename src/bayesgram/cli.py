"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Errors print a single `error: ...` line to stderr. The BSG_LOG environment
variable sets the default training-telemetry CSV path.
"""

import argparse
import sys
from contextlib import nullcontext
from functools import partial

import numpy as np

from . import baselines, bsg, evaluate, oracles, serialize
from .corpus import (CorpusError, Vocabulary, atomic_open, build_vocabulary, format_vocab,
                     iter_documents, single_window, tokenize_line)
from .evaluate import EvalError
from .serialize import SerializationError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"error: {message}\n")


def _build_parser():
    p = _Parser(prog="bayesgram",
                description="Train and evaluate Gaussian-density word embeddings.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common_corpus(sp):
        sp.add_argument("--lowercase", action=argparse.BooleanOptionalAction,
                        default=True)

    sp = sub.add_parser("build-vocab", help="count a corpus into a vocabulary TSV")
    sp.add_argument("corpus")
    sp.add_argument("--out", required=True)
    sp.add_argument("--max-size", type=int, default=280000)
    sp.add_argument("--min-count", type=int, default=1)
    add_common_corpus(sp)

    sp = sub.add_parser("train", help="train a model on a corpus")
    sp.add_argument("corpus")
    sp.add_argument("--vocab", help="vocabulary TSV (default: build from corpus)")
    sp.add_argument("--out", required=True)
    sp.add_argument("--model", choices=["bsg", "sg", "w2g_s", "w2g_d"],
                    default="bsg")
    sp.add_argument("--dim", type=int, default=100)
    sp.add_argument("--window", type=int, default=5)
    sp.add_argument("--subsample-t", type=float, default=1e-4)
    sp.add_argument("--negatives", type=int, default=1,
                    help="negatives per positive")
    sp.add_argument("--margin", type=float, default=1.0)
    sp.add_argument("--batch-size", type=int, default=22000)
    rates = {"bsg": bsg.TrainConfig.learning_rate, **baselines.BASELINE_LEARNING_RATES}
    sp.add_argument("--lr", type=float, default=None, help="default: " + ", ".join(
        f"{lr} {kind}" for kind, lr in rates.items()))
    sp.add_argument("--epochs", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--objective", choices=["hinge", "soft"], default="hinge")
    sp.add_argument("--cov", choices=["spherical", "diagonal"],
                    default="spherical")
    sp.add_argument("--hidden-dim", type=int, default=0)
    sp.add_argument("--max-size", type=int, default=280000)
    sp.add_argument("--min-count", type=int, default=1)
    sp.add_argument("--neg-exponent", type=float, default=1.0)
    sp.add_argument("--energy", choices=["expected_likelihood", "negated_kl"],
                    default=baselines.W2gModel.energy_kind)
    sp.add_argument("--format", choices=["text", "binary"], default="binary")
    sp.add_argument("--log", help="telemetry CSV path (default: $BSG_LOG)")
    add_common_corpus(sp)

    sp = sub.add_parser("eval-sim", help="word similarity (Spearman rho)")
    sp.add_argument("model")
    sp.add_argument("dataset")

    sp = sub.add_parser("eval-entail", help="entailment F1 at best threshold")
    sp.add_argument("model")
    sp.add_argument("dataset")
    sp.add_argument("--measure", choices=["neg_kl", "cosine"], default="neg_kl")
    sp.add_argument("--hist-out", help="binned score histogram CSV path")
    sp.add_argument("--bins", type=int, default=30)

    sp = sub.add_parser("eval-direction", help="entailment directionality accuracy")
    sp.add_argument("model")
    sp.add_argument("dataset", help="TSV of entailing pairs (hyponym, hypernym, 1)")

    sp = sub.add_parser("eval-lexsub", help="lexical substitution GAP")
    sp.add_argument("model")
    sp.add_argument("dataset", help="JSON-lines instances")
    sp.add_argument("--window", type=int, default=5)
    sp.add_argument("--ranker", choices=["posterior", "add", "mult"],
                    default="posterior")

    sp = sub.add_parser("nearest", help="nearest neighbors of a word")
    sp.add_argument("model")
    sp.add_argument("word")
    sp.add_argument("-k", type=int, default=10)
    sp.add_argument("--measure", choices=["cosine_mean", "neg_kl"],
                    default="cosine_mean")

    sp = sub.add_parser("infer", help="posterior density of a word in context")
    sp.add_argument("model")
    sp.add_argument("sentence", help="space-separated tokens")
    sp.add_argument("target_index", type=int)
    sp.add_argument("--window", type=int, default=5)
    add_common_corpus(sp)

    sp = sub.add_parser("report-logdet",
                        help="per-word log det covariance vs log frequency CSV")
    sp.add_argument("model")
    sp.add_argument("--out", help="CSV path (default: stdout)")

    sp = sub.add_parser("synth-corpus", help="generate a tagged synthetic corpus")
    sp.add_argument("--kind", choices=["polysemy", "hypernymy"],
                    default="polysemy")
    sp.add_argument("--out", required=True)
    sp.add_argument("--tags", help="sidecar TSV of (position, word, group)")
    sp.add_argument("--tokens-per-doc", type=int, default=1000)
    sp.add_argument("--docs", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--groups", type=int, default=2, help="polysemy: sense groups")
    sp.add_argument("--poly-words", type=int, default=2)
    sp.add_argument("--hypernyms", type=int, default=5)
    sp.add_argument("--hyponyms-per", type=int, default=4)

    sub.add_parser("selftest", help="run quick oracle cross-checks")
    return p


def _build_vocab(args, **subsampling):
    return build_vocabulary(iter_documents(args.corpus, lowercase=args.lowercase),
                            max_size=args.max_size, min_count=args.min_count,
                            **subsampling)


def _cmd_build_vocab(args):
    with atomic_open(args.out, encoding="utf-8", newline="\n") as f:   # before the corpus
        vocab = _build_vocab(args)
        f.write(format_vocab(vocab.words, vocab.counts))
    print(f"vocabulary: {len(vocab)} words, {int(vocab.counts.sum())} tokens "
          f"-> {args.out}")


def _cmd_train(args):
    # a bad setting and an unwritable --out or --log fail before any reading;
    # --out is replaced only once the model is written whole
    cfg = bsg.TrainConfig(
        dim=args.dim, window=args.window, subsample_t=args.subsample_t,
        negatives_per_positive=args.negatives, margin=args.margin,
        batch_size=args.batch_size,
        learning_rate=args.lr if args.lr is not None else bsg.TrainConfig.learning_rate,
        epochs=args.epochs, seed=args.seed, objective=args.objective,
        cov_kind=args.cov, hidden_dim=args.hidden_dim,
        neg_exponent=args.neg_exponent, lowercase=args.lowercase)
    with (serialize.model_writer(args.out, args.format) as save,
          bsg.open_log(args.log) as log):
        vocab = (Vocabulary.load(args.vocab, subsample_t=args.subsample_t,
                                 neg_table_exponent=args.neg_exponent)
                 if args.vocab else _build_vocab(args, t=args.subsample_t,
                                                 neg_exponent=args.neg_exponent))
        epoch_losses = []
        if args.model == "bsg":
            model = bsg.train(args.corpus, vocab, cfg, log_path=log,
                              epoch_losses=epoch_losses)
        else:
            model = baselines.train_baseline(
                args.model, args.corpus, vocab, cfg, log_path=log,
                epoch_losses=epoch_losses, learning_rate=args.lr,
                **({"energy_kind": args.energy} if args.model != "sg" else {}))
        snapshot = {"model": args.model, "dim": cfg.dim, "window": cfg.window,
                    "subsample_t": cfg.subsample_t, "margin": cfg.margin,
                    "objective": cfg.objective, "epochs": cfg.epochs,
                    "seed": cfg.seed, "neg_exponent": cfg.neg_exponent,
                    "batch_size": cfg.batch_size}
        save(serialize.bundle_from_model(model, snapshot))
    losses = ", ".join(f"{x:.4f}" for x in epoch_losses)
    print(f"trained {args.model} on {args.corpus}; epoch mean losses: [{losses}]; "
          f"model -> {args.out}")


def _eval_model(path):
    return serialize.embedding_view(serialize.load_model(path))


def _cmd_eval_sim(args):
    model = _eval_model(args.model)
    pairs = evaluate.load_similarity_pairs(args.dataset)
    rho, n_used, n_oov = evaluate.eval_similarity(model, pairs)
    print(f"spearman_rho\t{rho:.6f}")
    print(f"pairs_used\t{n_used}")
    print(f"pairs_oov\t{n_oov}")


def _cmd_eval_entail(args):
    if args.bins < 1:                   # before the model is read
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    with atomic_open(args.hist_out) if args.hist_out else nullcontext() as hist:
        model = _eval_model(args.model)
        pairs = evaluate.load_entailment_pairs(args.dataset)
        f1, threshold, scores, labels, n_oov = evaluate.eval_entailment(
            model, pairs, measure=args.measure)
        print(f"f1\t{f1:.6f}")
        print(f"threshold\t{threshold:.6g}")
        print(f"pairs_used\t{len(scores)}")
        print(f"pairs_oov\t{n_oov}")
        if hist:
            _write_histogram(hist, scores, labels, args.bins)


def _write_histogram(f, scores, labels, n_bins):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    edges = np.histogram_bin_edges(scores, bins=n_bins)
    pos, _ = np.histogram(scores[labels], bins=edges)
    neg, _ = np.histogram(scores[~labels], bins=edges)
    f.write("bin_lo,bin_hi,entailing,not_entailing\n")
    for i in range(len(pos)):
        f.write(f"{edges[i]:.6g},{edges[i + 1]:.6g},{pos[i]},{neg[i]}\n")


def _cmd_eval_direction(args):
    model = _eval_model(args.model)
    pairs = [p for p in evaluate.load_entailment_pairs(args.dataset) if p.label]
    acc = evaluate.eval_directionality(model, pairs)
    base, n_used, n_skipped = evaluate.frequency_direction_baseline(
        model.vocab, pairs)
    print(f"accuracy\t{acc:.6f}")
    print(f"frequency_baseline\t{base:.6f}")
    print(f"pairs_used\t{n_used}")
    print(f"pairs_skipped\t{n_skipped}")


def _cmd_eval_lexsub(args):
    if args.window < 1:                 # before the model is read
        raise ValueError(f"--window must be >= 1, got {args.window}")
    model = _eval_model(args.model)
    insts = evaluate.load_lexsub_instances(args.dataset)
    rank = (evaluate.lexsub_rank if args.ranker == "posterior"
            else partial(evaluate.add_mult_baseline, mode=args.ranker))
    gaps, skipped = [], 0
    for inst in insts:
        try:
            ranked = rank(model, inst, args.window)
        except EvalError:
            skipped += 1
            continue
        ranked_weights = [inst.gold_weights.get(c, 0.0) for c, _ in ranked]
        gaps.append(evaluate.gap(ranked_weights, list(inst.gold_weights.values())))
    if not gaps:
        raise EvalError("no usable instances")
    print(f"gap\t{float(np.mean(gaps)):.6f}")
    print(f"instances_used\t{len(gaps)}")
    print(f"instances_skipped\t{skipped}")


def _cmd_nearest(args):
    bundle = serialize.load_model(args.model)
    for word, score in serialize.nearest(bundle, args.word, args.k,
                                         measure=args.measure):
        print(f"{word}\t{score:.6f}")


def _cmd_infer(args):
    if args.window < 1:                 # before the model is read
        raise ValueError(f"--window must be >= 1, got {args.window}")
    bundle = serialize.load_model(args.model)
    tokens = tokenize_line(args.sentence, lowercase=args.lowercase)
    g = serialize.infer(bundle, tokens, args.target_index, args.window)
    print("mean\t" + " ".join(f"{x:.6g}" for x in g.mean))
    print("variance\t" + " ".join(f"{x:.6g}" for x in np.exp(g.log_var_vector())))


def _cmd_report_logdet(args):
    with atomic_open(args.out) if args.out else nullcontext(sys.stdout) as out:
        model = _eval_model(args.model)
        evaluate.logdet_frequency_report(model, model.vocab, out=out)
    if args.out:
        print(f"report -> {args.out}")


def _cmd_synth_corpus(args):
    if args.kind == "polysemy":
        spec = oracles.polysemy_spec(n_poly=args.poly_words, n_groups=args.groups,
                                     tokens_per_doc=args.tokens_per_doc,
                                     n_docs=args.docs, seed=args.seed)
    else:
        spec = oracles.hypernymy_spec(n_hypernyms=args.hypernyms,
                                      hyponyms_per=args.hyponyms_per,
                                      tokens_per_doc=args.tokens_per_doc,
                                      n_docs=args.docs, seed=args.seed)
    docs, tags = oracles.write_synth_corpus(spec, args.out, args.tags)
    n_tokens = sum(len(d) for d in docs)
    print(f"synthetic corpus: {len(docs)} docs, {n_tokens} tokens -> {args.out}")
    if args.tags:
        print(f"tags: {len(tags)} tagged occurrences -> {args.tags}")


def _cmd_selftest(_args):
    from .gauss import Gaussian, kl_divergence
    rng = np.random.default_rng(0)
    worst_kl = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 3))
        p = Gaussian(rng.normal(size=d), rng.normal(scale=0.5, size=d))
        q = Gaussian(rng.normal(size=d), rng.normal(scale=0.5, size=d))
        worst_kl = max(worst_kl, abs(kl_divergence(p, q)
                                     - oracles.kl_quadrature_oracle(p, q, 64)))
    worst_bsg, worst_w2g = (_selftest_gradcheck(rng, kind) for kind in ("bsg", "w2g"))
    checks = [
        (f"kl closed form vs quadrature: max |diff| = {worst_kl:.3g}", worst_kl <= 1e-6),
        (f"window-loss gradient vs finite differences: max rel err = {worst_bsg:.3g}",
         worst_bsg <= 1e-4),
        (f"w2g window-loss gradient (4 variants) vs finite differences: max rel err = "
         f"{worst_w2g:.3g}", worst_w2g <= 1e-4)]
    for line, passed in checks:
        print(("PASS " if passed else "FAIL ") + line)
    if not all(passed for _, passed in checks):
        raise bsg.NumericalError("selftest failed")
    print("selftest OK")


def _selftest_gradcheck(rng, kind):
    """Worst finite-difference error of ten kind models' B = 1 gradients, as trained."""
    vocab = Vocabulary([f"w{i}" for i in range(12)], np.arange(1, 13, dtype=np.int64))
    cfg = bsg.TrainConfig(dim=3, hidden_dim=4, margin=0.5, param_dtype="float64")
    worst = 0.0
    for i in range(10):
        if kind == "bsg":
            model = bsg.init_bsg_model(vocab, cfg, rng)
            kernel = partial(bsg.batch_gradients, model, cfg=cfg)
        else:        # "w2g": the four (cov_kind, energy_kind) variants in turn
            model = baselines.init_w2g_model(
                vocab, cfg, rng, ("spherical", "diagonal")[i % 2],
                energy_kind=("expected_likelihood", "negated_kl")[i // 2 % 2])
            kernel = partial(baselines.w2g_batch_gradients, model, margin=cfg.margin)
        params = model.param_arrays()
        for arr in params.values():
            arr += rng.normal(scale=0.1, size=arr.shape)
        batch = single_window(int(rng.integers(12)), list(rng.integers(0, 12, size=3)),
                              list(rng.integers(0, 12, size=3)))
        worst = max(worst, oracles.kernel_gradcheck(kernel, params, batch, 1e-6))
    return worst


_COMMANDS = {
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "eval-sim": _cmd_eval_sim,
    "eval-entail": _cmd_eval_entail,
    "eval-direction": _cmd_eval_direction,
    "eval-lexsub": _cmd_eval_lexsub,
    "nearest": _cmd_nearest,
    "infer": _cmd_infer,
    "report-logdet": _cmd_report_logdet,
    "synth-corpus": _cmd_synth_corpus,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _COMMANDS[args.command](args)
    except bsg.NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:                # e.args[0] is the errno, so name reason and path
        print(f"error: {e.strerror}: {e.filename}" if e.filename else f"error: {e}",
              file=sys.stderr)
        return 2
    except (CorpusError, EvalError, SerializationError, KeyError, ValueError) as e:
        msg = e.args[0] if e.args else str(e)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
