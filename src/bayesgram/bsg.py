"""Bayesian skip-gram model: parameters, objective, gradients, trainer.

Each word carries two Gaussians: a prior (its context-agnostic density) and
a context-output density used when the word appears as a context word. The
encoder maps a (center, context window) occurrence to a posterior Gaussian.
Training minimizes a margin loss over closed-form KL divergences between
the posterior and positive/negative context densities, plus a KL pull
toward the center word's prior. Every term is analytic, so the training
loss and its gradients never draw latent samples; randomness enters only
through subsampling and negative sampling upstream.
"""

import csv
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import Vocabulary, iter_training_batches
from .corpus import iter_training_windows  # noqa: F401  (perfbench wraps it here)
from .encoder import (EncoderParams, backward_batch, encode_batch, infer_posterior,
                      init_encoder, uniform_table)
from .encoder import encoder_backward  # noqa: F401  (perfbench probes it here)
from .gauss import BLOCK_FLOATS, Gaussian, kl_divergence, kl_parts, log_density_rows
from .optim import Adam

__all__ = ["PARAM_DTYPES", "TrainConfig", "BsgModel", "NumericalError", "BatchGrads",
           "init_bsg_model", "reparameterize", "gather_rows", "blockwise", "margin_pairs",
           "batch_gradients", "elbo_estimate", "open_log", "train"]

PARAM_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))   # of every model table

class NumericalError(Exception):
    """Training produced a non-finite loss."""


@dataclass
class TrainConfig:
    dim: int = 100
    window: int = 5
    subsample_t: float = 1e-4
    negatives_per_positive: int = 1
    margin: float = 1.0
    batch_size: int = 22000          # prediction tasks (positive/negative pairs)
    learning_rate: float = 0.00055
    epochs: int = 1
    seed: int = 0
    objective: str = "hinge"         # "hinge" or "soft"
    cov_kind: str = "spherical"      # "spherical" or "diagonal"
    hidden_dim: int = 0              # 0 -> same as dim
    neg_exponent: float = 1.0
    lowercase: bool = True
    param_dtype: str = "float32"     # storage, encoder forward; loss and grads in 64-bit

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.epochs < 0:
            raise ValueError("dim/window must be >= 1 and epochs >= 0")
        if not (self.margin >= 0 and np.isfinite(self.margin)):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        if self.batch_size < 1 or self.hidden_dim < 0:
            raise ValueError("batch_size must be >= 1 and hidden_dim >= 0")
        if self.negatives_per_positive < 1:
            raise ValueError(f"negatives_per_positive must be >= 1, got "
                             f"{self.negatives_per_positive}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.objective not in ("hinge", "soft"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.cov_kind not in ("spherical", "diagonal"):
            raise ValueError(f"unknown cov_kind {self.cov_kind!r}")
        if np.dtype(self.param_dtype) not in PARAM_DTYPES:
            raise ValueError(f"param_dtype must be float32 or float64, got {self.param_dtype!r}")

    @property
    def d_h(self) -> int:
        return self.hidden_dim if self.hidden_dim > 0 else self.dim


@dataclass
class BsgModel:
    vocab: Vocabulary
    cov_kind: str
    dim: int
    prior_mean: np.ndarray      # V x d
    prior_log_var: np.ndarray   # V (spherical) or V x d (diagonal)
    ctx_mean: np.ndarray
    ctx_log_var: np.ndarray
    enc: EncoderParams

    def prior_gaussian(self, w: int) -> Gaussian:
        return Gaussian(self.prior_mean[w], self.prior_log_var[w])

    def posterior(self, center: int, contexts) -> Gaussian:
        return infer_posterior(center, contexts, self.enc)

    def param_arrays(self) -> dict:
        """All trainable tensors, keyed by stable names."""
        return {
            "prior_mean": self.prior_mean, "prior_log_var": self.prior_log_var,
            "ctx_mean": self.ctx_mean, "ctx_log_var": self.ctx_log_var,
            "enc_R": self.enc.R, "enc_M": self.enc.M, "enc_U": self.enc.U,
            "enc_b1": self.enc.b1, "enc_W": self.enc.W, "enc_b2": self.enc.b2,
        }


def init_bsg_model(vocab: Vocabulary, cfg: TrainConfig,
                   rng: np.random.Generator) -> BsgModel:
    V, d = len(vocab), cfg.dim
    dtype = np.dtype(cfg.param_dtype)
    prior_mean = uniform_table(rng, 0.5 / d, (V, d), dtype)
    ctx_mean = uniform_table(rng, 0.5 / d, (V, d), dtype)
    lv_shape = (V,) if cfg.cov_kind == "spherical" else (V, d)
    enc = init_encoder(V, d, cfg.d_h, cfg.cov_kind, rng, dtype)
    return BsgModel(vocab=vocab, cov_kind=cfg.cov_kind, dim=d,
                    prior_mean=prior_mean,
                    prior_log_var=np.zeros(lv_shape, dtype=dtype),
                    ctx_mean=ctx_mean,
                    ctx_log_var=np.zeros(lv_shape, dtype=dtype),
                    enc=enc)


def reparameterize(g: Gaussian, eps: np.ndarray) -> np.ndarray:
    """z = mean + std * eps (the usual location-scale rewrite)."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape[-1] != g.dim:
        raise ValueError("dimension mismatch")
    return g.mean + g.std_vector() * eps


def gather_rows(table, ids):
    """Rows of a V-row table in float64; log-variances come back (..., 1 or d)."""
    return np.asarray(table.reshape(len(table), -1)[ids], dtype=np.float64)


@dataclass
class BatchGrads:
    """Window losses (B,) and the gradient of their sum: rows maps a V-row
    parameter to (row ids (N,), row gradients (N, ...)), dense the others."""

    losses: np.ndarray
    rows: dict = field(default_factory=dict)
    dense: dict = field(default_factory=dict)

    def scatter(self, buffers: dict):
        """Add into C-contiguous dense buffers keyed like the parameters;
        repeated rows add up, each element in the order of the ids.

        Each row is spread to one flat element index per value, so np.add.at
        runs its fast 1-D loop over a flat view of the buffer.
        """
        for name, (ids, g) in self.rows.items():
            buf = buffers[name]
            if not buf.flags.c_contiguous:
                raise ValueError(f"gradient buffer {name!r} is not C-contiguous")
            width = buf.size // len(buf)
            flat = (np.asarray(ids, dtype=np.intp)[:, None] * width
                    + np.arange(width)).reshape(-1)
            np.add.at(buf.reshape(-1), flat, np.reshape(g, -1))
        for name, g in self.dense.items():
            buffers[name] += g


def blockwise(kernel, floats_per_window, *batch):
    """kernel(*batch), a tuple of arrays and lists of row pieces, run on blocks of max(1,
    BLOCK_FLOATS // floats_per_window) windows; arrays join end to end, lists piece by
    piece, every block's first piece ahead of any second one (the ids' scatter order)."""
    n = max(1, BLOCK_FLOATS // floats_per_window)
    if len(batch[0]) <= n:
        return kernel(*batch)
    blocks = [kernel(*(a[lo:lo + n] for a in batch)) for lo in range(0, len(batch[0]), n)]
    return tuple(np.concatenate(parts) if isinstance(parts[0], np.ndarray)
                 else [p[i] for i in range(len(parts[0])) for p in parts]
                 for parts in zip(*blocks))


def margin_pairs(mu_q, lv_q, table_mean, table_log_var, pos, neg, mask, margin, parts,
                 objective, want_grads=True):
    """Per window of a padded batch, the sum over pairs (positive j, negative
    r*n + j) of max(0, x) (hinge) or log(1 + e^x) (soft), x = (D(q, pos) -
    D(q, neg)) + margin, for float64 queries mu_q (B, d), lv_q (B, 1 or d) and
    parts(mu_a, lv_a, mu_b, lv_b) -> D with its partials as gauss.kl_parts.
    Returns (losses,), or with want_grads (losses, d/d mu_q, d/d lv_q, row ids,
    mean rows, log-variance rows), the last three as lists of pieces; blockwise."""
    def block(mu_q, lv_q, pos, neg, mask):
        d_p, gq_p, glq_p, glt_p = parts(mu_q[:, None], lv_q[:, None],
                                        gather_rows(table_mean, pos),
                                        gather_rows(table_log_var, pos))
        d_n, gq_n, glq_n, glt_n = parts(mu_q[:, None, None], lv_q[:, None, None],
                                        gather_rows(table_mean, neg),
                                        gather_rows(table_log_var, neg))
        arg = (d_p[:, None, :] - d_n) + margin             # B x k x P
        neg_mask = np.broadcast_to(mask[:, None, :], arg.shape)
        if objective == "hinge":
            kept, term = (arg > 0.0) & neg_mask, arg       # the active pairs
        else:
            kept, term = neg_mask, np.logaddexp(0.0, arg)
        losses = np.sum(np.where(kept, term, 0.0), axis=(1, 2))
        if not want_grads:
            return (losses,)
        slope = 1.0 if objective == "hinge" else np.exp(arg - term)   # sigmoid(arg), stably
        a = np.where(kept, slope, 0.0)[..., None]          # B x k x P x 1
        a_p = a.sum(axis=1)                                # B x P x 1, per positive
        m_p, m_n = a_p * gq_p, a * gq_n                    # the mean rows reuse them
        d_mu = m_p.sum(axis=1) - m_n.sum(axis=(1, 2))
        d_lv = (a_p * glq_p).sum(axis=1) - (a * glq_n).sum(axis=(1, 2))
        return (losses, d_mu, d_lv, [pos[mask], neg[neg_mask]], [-m_p[mask], m_n[neg_mask]],
                [(a_p * glt_p)[mask], -(a * glt_n)[neg_mask]])

    return blockwise(block, neg[0].size * mu_q.shape[1], mu_q, lv_q, pos, neg, mask)


def batch_gradients(model: BsgModel, centers, pos, neg, mask, cfg: TrainConfig,
                    want_grads: bool = True) -> BatchGrads:
    """Losses of a padded batch of windows and, if wanted, their gradients.

    Batch layout as in corpus.iter_training_batches; corpus.single_window
    makes one window a batch of one. A window's loss is KL(q || prior[center])
    plus the margin_pairs ranking of its KLs to the context densities.
    """
    acts, mu_q, lv_q = encode_batch(centers, pos, mask, model.enc)
    kl_0, gq_0, glq_0, glt_0 = kl_parts(mu_q, lv_q, gather_rows(model.prior_mean, centers),
                                        gather_rows(model.prior_log_var, centers))
    rank, *grads = margin_pairs(mu_q, lv_q, model.ctx_mean, model.ctx_log_var, pos, neg, mask,
                                cfg.margin, kl_parts, cfg.objective, want_grads)
    losses = kl_0 + rank
    if not want_grads:
        return BatchGrads(losses)
    d_mu, d_lv, ids, ctx_mu, ctx_lv = grads
    enc_dense, enc_rows = backward_batch(model.enc, acts, d_mu + gq_0, d_lv + glq_0)
    ids = np.concatenate(ids)
    rows = {"prior_mean": (centers, -gq_0), "prior_log_var": (centers, glt_0),
            "ctx_mean": (ids, np.concatenate(ctx_mu)),
            "ctx_log_var": (ids, np.concatenate(ctx_lv)), "enc_R": enc_rows}
    return BatchGrads(losses, rows, {f"enc_{k}": g for k, g in enc_dense.items()})


def elbo_estimate(model: BsgModel, center, contexts, n_samples: int,
                  rng: np.random.Generator) -> float:
    """Monte-Carlo variational lower bound for one window.

    Reconstruction uses the exact softmax over the full vocabulary (scores
    are context-density log pdfs shifted by log unigram probability), so
    this is an enumeration-scale diagnostic, not a training path.
    """
    V = len(model.vocab)
    if V > 10000:
        raise ValueError("vocabulary too large to enumerate; use the training loss")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    q = model.posterior(center, contexts)
    eps = rng.standard_normal(size=(n_samples, model.dim))
    z = reparameterize(q, eps)                            # n x d
    scores = log_density_rows(gather_rows(model.ctx_mean, slice(None)),
                              gather_rows(model.ctx_log_var, slice(None)), z[:, None, :])
    scores = scores + np.log(model.vocab.unigram_prob)[None, :]
    m = scores.max(axis=1, keepdims=True)
    log_norm = (m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True)))[:, 0]
    recon = np.zeros(n_samples)
    for c in contexts:
        recon += scores[:, c] - log_norm
    return float(recon.mean()) - kl_divergence(q, model.prior_gaussian(center))


def data_rng(cfg: TrainConfig) -> np.random.Generator:
    """The generator feeding subsampling and negative sampling.

    Seeded independently of model initialization so every model kind sees
    the identical window/negative stream for a given cfg.seed.
    """
    return np.random.default_rng([cfg.seed, 1])


def init_rng(cfg: TrainConfig) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 2])


def open_log(log_path=None):
    """The telemetry CSV as a context: log_path itself if it is an open file
    (left open), else the path log_path or $BSG_LOG opened for writing, else None."""
    if hasattr(log_path, "write"):
        return nullcontext(log_path)
    log_path = log_path or os.environ.get("BSG_LOG")
    return open(log_path, "w", newline="") if log_path else nullcontext()


def run_training_loop(corpus_path, vocab: Vocabulary, cfg: TrainConfig,
                      params: dict, grad_of_batch, lr: float,
                      post_batch=None, log_path=None, epoch_losses=None):
    """Shared mini-batch Adam engine over corpus.iter_training_batches.

    grad_of_batch(centers, pos, neg, mask) returns the BatchGrads of a padded
    batch. A non-finite window loss raises NumericalError before the batch
    touches any parameter; otherwise Adam accumulates the gradients into its
    64-bit gradient sums and steps on their mean over the batch's windows,
    zeroing the sums as it goes. post_batch(), when given, runs after every
    step (the W2G projection). Deterministic given cfg.seed: the pipeline is
    a single sequential pass. One telemetry CSV row per batch goes to
    open_log(log_path). Returns the number of steps taken. The stream
    subsamples and draws negatives by the vocabulary's settings, so a
    cfg.subsample_t or cfg.neg_exponent that differs from them raises
    ValueError, as does an lr that is not finite and > 0.
    """
    if not (lr > 0 and np.isfinite(lr)):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if (cfg.subsample_t, cfg.neg_exponent) != (vocab.subsample_t, vocab.neg_table_exponent):
        raise ValueError(f"config subsample_t={cfg.subsample_t}, neg_exponent="
                         f"{cfg.neg_exponent} disagree with the vocabulary's subsample_t="
                         f"{vocab.subsample_t}, neg_table_exponent={vocab.neg_table_exponent}")
    opt = Adam(params, lr=lr)
    rng = data_rng(cfg)
    batch_idx = examples_seen = 0
    with open_log(log_path) as log:
        if log:
            log_csv = csv.writer(log)
            log_csv.writerow(["batch_index", "loss", "examples_seen"])
        for _ in range(cfg.epochs):
            epoch_loss, epoch_windows = 0.0, 0
            for centers, pos, neg, mask in iter_training_batches(
                    corpus_path, vocab, cfg.window, cfg.negatives_per_positive,
                    cfg.batch_size, rng, lowercase=cfg.lowercase):
                grads = grad_of_batch(centers, pos, neg, mask)
                if not np.all(np.isfinite(grads.losses)):
                    norms = (f"{k}={np.linalg.norm(np.asarray(v, np.float64)):.3g}"
                             for k, v in params.items())
                    raise NumericalError(f"non-finite loss; batch {batch_idx}; "
                                         f"parameter norms: {', '.join(norms)}")
                opt.accumulate(grads)
                n_windows = len(grads.losses)
                opt.step(n_windows)
                if post_batch is not None:
                    post_batch()
                batch_loss = float(grads.losses.sum())
                examples_seen += int(mask.sum()) * neg.shape[1]   # k tasks per positive
                if log:
                    log_csv.writerow([batch_idx, f"{batch_loss / n_windows:.6f}",
                                      examples_seen])
                    log.flush()
                batch_idx += 1
                epoch_loss += batch_loss
                epoch_windows += n_windows
            if epoch_losses is not None and epoch_windows:
                epoch_losses.append(epoch_loss / epoch_windows)
    return batch_idx


def train(corpus_path, vocab: Vocabulary, cfg: TrainConfig,
          log_path=None, epoch_losses=None) -> BsgModel:
    """Train a BsgModel by mini-batch Adam on the window margin loss.

    epoch_losses, if a list, receives the mean window loss of each epoch.
    """
    model = init_bsg_model(vocab, cfg, init_rng(cfg))
    run_training_loop(corpus_path, vocab, cfg, model.param_arrays(),
                      partial(batch_gradients, model, cfg=cfg), lr=cfg.learning_rate,
                      log_path=log_path, epoch_losses=epoch_losses)
    return model
