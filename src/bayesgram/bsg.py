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
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import Vocabulary, iter_training_batches
from .corpus import iter_training_windows  # noqa: F401  (perfbench wraps it here)
from .encoder import (EncoderParams, backward_batch, encode_batch, infer_posterior,
                      init_encoder, uniform_table)
from .encoder import encoder_backward  # noqa: F401  (perfbench probes it here)
from .gauss import _LOG_2PI, Gaussian, kl_divergence
from .optim import Adam

__all__ = ["TrainConfig", "BsgModel", "NumericalError", "BatchGrads",
           "init_bsg_model", "reparameterize", "batch_gradients", "elbo_estimate",
           "train"]

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
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
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
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.objective not in ("hinge", "soft"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.cov_kind not in ("spherical", "diagonal"):
            raise ValueError(f"unknown cov_kind {self.cov_kind!r}")

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

    def ctx_gaussian(self, w: int) -> Gaussian:
        return Gaussian(self.ctx_mean[w], self.ctx_log_var[w])

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


def _kl_parts(mu1, lv1, mu2, lv2):
    """KL(N(mu1, e^lv1) || N(mu2, e^lv2)) over the last axis, plus partials.

    Arguments broadcast; a log-variance with a last axis of 1 is spherical.
    Returns (kl, d/d mu1, d/d lv1, d/d lv2); d/d mu2 is -d/d mu1.
    """
    dmu = mu1 - mu2
    inv2 = np.exp(-lv2)
    ratio = np.exp(lv1 - lv2)
    val = 0.5 * np.sum(ratio + dmu * dmu * inv2 - 1.0 + lv2 - lv1, axis=-1)
    return (val, dmu * inv2, _fold(0.5 * (ratio - 1.0), lv1, dmu.shape[-1]),
            _fold(0.5 * (1.0 - ratio - dmu * dmu * inv2), lv2, dmu.shape[-1]))


def _fold(g, lv, d):
    """A log-variance partial, summed over the d coordinates if lv is spherical."""
    if lv.shape[-1] > 1:
        return g
    return g.sum(axis=-1, keepdims=True) if g.shape[-1] > 1 else g * d


def _gather(table, ids):
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


def batch_gradients(model: BsgModel, centers, pos, neg, mask, cfg: TrainConfig,
                    want_grads: bool = True) -> BatchGrads:
    """Losses of a padded batch of windows and, if wanted, their gradients.

    Batch layout as in corpus.iter_training_batches; corpus.single_window
    makes one window a batch of one. A window's loss is
    KL(q || prior[center]) plus, per pair (positive j, negative r*n + j),
    max(0, x) of x = KL(q || pos) - KL(q || neg) + margin, or its smooth,
    non-negative bound log(1 + e^x) for the soft objective.
    """
    acts, mu_q, lv_q = encode_batch(centers, pos, mask, model.enc)
    ctx, ctx_lv = model.ctx_mean, model.ctx_log_var
    kl_p, gq_p, glq_p, glt_p = _kl_parts(mu_q[:, None], lv_q[:, None],
                                         _gather(ctx, pos), _gather(ctx_lv, pos))
    kl_n, gq_n, glq_n, glt_n = _kl_parts(mu_q[:, None, None], lv_q[:, None, None],
                                         _gather(ctx, neg), _gather(ctx_lv, neg))
    kl_0, gq_0, glq_0, glt_0 = _kl_parts(mu_q, lv_q, _gather(model.prior_mean, centers),
                                         _gather(model.prior_log_var, centers))
    arg = kl_p[:, None, :] - kl_n                      # B x k x P
    arg += cfg.margin
    neg_mask = np.broadcast_to(mask[:, None, :], arg.shape)
    if cfg.objective == "hinge":
        active = (arg > 0.0) & neg_mask
        losses = kl_0 + np.sum(np.where(active, arg, 0.0), axis=(1, 2))
    else:
        soft = np.logaddexp(0.0, arg)
        losses = kl_0 + np.sum(np.where(neg_mask, soft, 0.0), axis=(1, 2))
    if not want_grads:
        return BatchGrads(losses)

    if cfg.objective == "hinge":
        a = active.astype(np.float64)[..., None]       # B x k x P x 1
    else:                                              # sigmoid(arg), stably
        a = np.where(neg_mask, np.exp(arg - soft), 0.0)[..., None]
    a_p = a.sum(axis=1)                                # B x P x 1, per positive
    d_mu = (a_p * gq_p).sum(axis=1) - (a * gq_n).sum(axis=(1, 2)) + gq_0
    d_lv = (a_p * glq_p).sum(axis=1) - (a * glq_n).sum(axis=(1, 2)) + glq_0
    enc_dense, enc_rows = backward_batch(model.enc, acts, d_mu, d_lv)
    ctx_ids = np.concatenate([pos[mask], neg[neg_mask]])
    ctx_mu = np.concatenate([-(a_p * gq_p)[mask], (a * gq_n)[neg_mask]])
    ctx_lv = np.concatenate([(a_p * glt_p)[mask], -(a * glt_n)[neg_mask]])
    rows = {"prior_mean": (centers, -gq_0), "prior_log_var": (centers, glt_0),
            "ctx_mean": (ctx_ids, ctx_mu), "ctx_log_var": (ctx_ids, ctx_lv),
            "enc_R": enc_rows}
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
    ctx_mu = model.ctx_mean.astype(np.float64)
    if model.cov_kind == "spherical":
        ctx_lv = np.repeat(model.ctx_log_var.astype(np.float64)[:, None],
                           model.dim, axis=1)
    else:
        ctx_lv = model.ctx_log_var.astype(np.float64)
    dz = z[:, None, :] - ctx_mu[None, :, :]
    scores = -0.5 * np.sum(_LOG_2PI + ctx_lv[None] + dz * dz / np.exp(ctx_lv)[None],
                           axis=2)
    scores = scores + np.log(model.vocab.unigram_prob)[None, :]
    m = scores.max(axis=1, keepdims=True)
    log_norm = (m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True)))[:, 0]
    recon = np.zeros(n_samples)
    for c in contexts:
        recon += scores[:, c] - log_norm
    return float(recon.mean()) - kl_divergence(q, model.prior_gaussian(center))


class _Telemetry:
    def __init__(self, path):
        self.file = None
        if path:
            self.file = open(path, "w", newline="")
            self.writer = csv.writer(self.file)
            self.writer.writerow(["batch_index", "loss", "examples_seen"])

    def row(self, batch_index, loss, examples_seen):
        if self.file:
            self.writer.writerow([batch_index, f"{loss:.6f}", examples_seen])
            self.file.flush()

    def close(self):
        if self.file:
            self.file.close()


def _param_diagnostics(params: dict, batch_index):
    norms = {k: float(np.linalg.norm(np.asarray(v, dtype=np.float64)))
             for k, v in params.items()}
    pretty = ", ".join(f"{k}={v:.3g}" for k, v in norms.items())
    return f"batch {batch_index}; parameter norms: {pretty}"


def data_rng(cfg: TrainConfig) -> np.random.Generator:
    """The generator feeding subsampling and negative sampling.

    Seeded independently of model initialization so every model kind sees
    the identical window/negative stream for a given cfg.seed.
    """
    return np.random.default_rng([cfg.seed, 1])


def init_rng(cfg: TrainConfig) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, 2])


def run_training_loop(corpus_path, vocab: Vocabulary, cfg: TrainConfig,
                      params: dict, grad_of_batch, lr: float,
                      post_batch=None, log_path=None, epoch_losses=None):
    """Shared mini-batch Adam engine over corpus.iter_training_batches.

    grad_of_batch(centers, pos, neg, mask) returns the BatchGrads of a padded
    batch. A non-finite window loss raises NumericalError before the batch
    touches any parameter; otherwise Adam accumulates the gradients into its
    64-bit gradient sums and steps on their mean over the batch's windows,
    zeroing the sums as it goes. post_batch(params), when given, runs after
    every step (used for projection/clipping). Deterministic given cfg.seed:
    the pipeline is a single sequential pass. Telemetry CSV goes to log_path
    or $BSG_LOG. Returns the number of steps taken.
    """
    opt = Adam(params, lr=lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)
    telemetry = _Telemetry(log_path or os.environ.get("BSG_LOG"))
    rng = data_rng(cfg)
    batch_idx = examples_seen = 0
    try:
        for _ in range(cfg.epochs):
            epoch_loss, epoch_windows = 0.0, 0
            for centers, pos, neg, mask in iter_training_batches(
                    corpus_path, vocab, cfg.window, cfg.negatives_per_positive,
                    cfg.batch_size, rng, lowercase=cfg.lowercase):
                grads = grad_of_batch(centers, pos, neg, mask)
                if not np.all(np.isfinite(grads.losses)):
                    raise NumericalError(
                        "non-finite loss; " + _param_diagnostics(params, batch_idx))
                opt.accumulate(grads)
                n_windows = len(grads.losses)
                opt.step(n_windows)
                if post_batch is not None:
                    post_batch(params)
                batch_loss = float(grads.losses.sum())
                examples_seen += int(mask.sum()) * neg.shape[1]   # k tasks per positive
                telemetry.row(batch_idx, batch_loss / n_windows, examples_seen)
                batch_idx += 1
                epoch_loss += batch_loss
                epoch_windows += n_windows
            if epoch_losses is not None and epoch_windows:
                epoch_losses.append(epoch_loss / epoch_windows)
    finally:
        telemetry.close()
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
