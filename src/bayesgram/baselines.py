"""Baseline embedding models trained on the shared corpus stream.

Two families: skip-gram with negative sampling (SG), and Gaussian
embeddings (W2G) where each word is a single Gaussian trained with a
max-margin ranking loss over an energy between densities. Both consume
exactly the same window/negative stream as the Bayesian model for a given
seed, so comparisons isolate the model.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bsg import (BatchGrads, TrainConfig, _fold, _gather, _kl_parts, init_rng,
                  run_training_loop)
from .corpus import Vocabulary
from .encoder import uniform_table
from .optim import CHUNK

__all__ = ["SgModel", "W2gModel", "sg_batch_gradients", "w2g_batch_gradients",
           "clip_params", "train_baseline"]

BASELINE_LEARNING_RATES = {"sg": 0.0015, "w2g_s": 0.0065, "w2g_d": 0.0015}


@dataclass
class SgModel:
    vocab: Vocabulary
    dim: int
    in_vec: np.ndarray    # V x d, center-word vectors
    out_vec: np.ndarray   # V x d, context-word vectors

    def param_arrays(self):
        return {"in_vec": self.in_vec, "out_vec": self.out_vec}


@dataclass
class W2gModel:
    vocab: Vocabulary
    cov_kind: str
    dim: int
    mean: np.ndarray       # V x d
    log_var: np.ndarray    # V (spherical) or V x d (diagonal)
    energy_kind: str = "expected_likelihood"
    max_mean_norm: float = 20.0
    var_lo: float = 1e-3
    var_hi: float = 10.0

    def param_arrays(self):
        return {"mean": self.mean, "log_var": self.log_var}


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def sg_batch_gradients(model: SgModel, centers, pos, neg, mask,
                       want_grads: bool = True) -> BatchGrads:
    """Negative-sampling skip-gram losses of a padded batch, plus gradients."""
    v = _gather(model.in_vec, centers)                 # B x d
    u_p = _gather(model.out_vec, pos)                  # B x P x d
    u_n = _gather(model.out_vec, neg)                  # B x k x P x d
    s_p = np.einsum("bd,bpd->bp", v, u_p)
    s_n = np.einsum("bd,bkpd->bkp", v, u_n)
    neg_mask = np.broadcast_to(mask[:, None, :], s_n.shape)
    losses = (-np.sum(np.where(mask, _log_sigmoid(s_p), 0.0), axis=1)
              - np.sum(np.where(neg_mask, _log_sigmoid(-s_n), 0.0), axis=(1, 2)))
    if not want_grads:
        return BatchGrads(losses)
    c_p = (mask * -(1.0 - _sigmoid(s_p)))[..., None]     # d loss / d score
    c_n = (neg_mask * _sigmoid(s_n))[..., None]
    dv = (c_p * u_p).sum(axis=1) + (c_n * u_n).sum(axis=(1, 2))
    out_ids = np.concatenate([pos[mask], neg[neg_mask]])
    d_out = np.concatenate([(c_p * v[:, None])[mask], (c_n * v[:, None, None])[neg_mask]])
    return BatchGrads(losses, {"in_vec": (centers, dv), "out_vec": (out_ids, d_out)})


def _energy_parts(mu_a, lv_a, mu_b, lv_b, kind):
    """W2G energy over the last axis (higher = more similar) plus partials
    w.r.t. (mu_a, lv_a, mu_b, lv_b), broadcasting with spherical (..., 1)
    log-variances as bsg._kl_parts does."""
    if kind == "expected_likelihood":
        va = np.exp(lv_a)
        vb = np.exp(lv_b)
        s = va + vb
        dmu = mu_a - mu_b
        val = -0.5 * np.sum(np.log(2.0 * np.pi * s) + dmu * dmu / s, axis=-1)
        g_mu_a = -dmu / s
        g_s = -0.5 * (1.0 / s - dmu * dmu / (s * s))
        return val, (g_mu_a, _fold(g_s * va, lv_a, dmu.shape[-1]), -g_mu_a,
                     _fold(g_s * vb, lv_b, dmu.shape[-1]))
    if kind == "negated_kl":
        # -KL(b || a): the context density read from the word density
        val, g_mu1, g_lv1, g_lv2 = _kl_parts(mu_b, lv_b, mu_a, lv_a)
        return -val, (g_mu1, -g_lv2, -g_mu1, -g_lv1)
    raise ValueError(f"unknown energy kind {kind!r}")


def w2g_batch_gradients(model: W2gModel, centers, pos, neg, mask, margin: float,
                        want_grads: bool = True) -> BatchGrads:
    """Losses max(0, margin - E(center, pos) + E(center, neg)) summed over the
    pairs of each window of a padded batch, plus gradients."""
    mu_w = _gather(model.mean, centers)[:, None]          # B x 1 x d
    lv_w = _gather(model.log_var, centers)[:, None]
    e_p, (ga_p, gla_p, gb_p, glb_p) = _energy_parts(
        mu_w, lv_w, _gather(model.mean, pos), _gather(model.log_var, pos),
        model.energy_kind)
    e_n, (ga_n, gla_n, gb_n, glb_n) = _energy_parts(
        mu_w[:, None], lv_w[:, None], _gather(model.mean, neg),
        _gather(model.log_var, neg), model.energy_kind)
    arg = margin - e_p[:, None, :] + e_n                  # B x k x P
    neg_mask = np.broadcast_to(mask[:, None, :], arg.shape)
    active = (arg > 0.0) & neg_mask
    losses = np.sum(np.where(active, arg, 0.0), axis=(1, 2))
    if not want_grads:
        return BatchGrads(losses)
    a = active.astype(np.float64)[..., None]              # B x k x P x 1
    a_p = a.sum(axis=1)                                   # B x P x 1
    ids = np.concatenate([centers, pos[mask], neg[neg_mask]])

    def rows(g_a_p, g_b_p, g_a_n, g_b_n):
        center = (a * g_a_n).sum(axis=(1, 2)) - (a_p * g_a_p).sum(axis=1)
        return ids, np.concatenate([center, -(a_p * g_b_p)[mask], (a * g_b_n)[neg_mask]])

    return BatchGrads(losses, {"mean": rows(ga_p, gb_p, ga_n, gb_n),
                               "log_var": rows(gla_p, glb_p, gla_n, glb_n)})


def _row_norms(x):
    return np.linalg.norm(np.asarray(x, dtype=np.float64), axis=1)


def clip_params(model: W2gModel) -> W2gModel:
    """Project means into the norm ball and variances into bounds. Idempotent:
    every projected row's float64 norm is at most max_mean_norm.

    Row norms are taken in float64 one block of rows at a time, and only the
    rows over the bound are rescaled: a row within it would be multiplied by
    1.0, which leaves it as it is. A row that rounding leaves just over the
    bound has its scale stepped down one ulp at a time until it is not.
    """
    mean, bound = model.mean, model.max_mean_norm
    step = max(1, CHUNK // mean.shape[1])
    for lo in range(0, len(mean), step):
        block = mean[lo:lo + step]
        norms = _row_norms(block)
        over = np.flatnonzero(norms > bound)
        if len(over):
            rows = block[over]
            scale = (bound / norms[over]).astype(mean.dtype)
            while True:
                scaled = rows * scale[:, None]
                # a scale of 0 cannot step further (only a negative bound gets there)
                high = (_row_norms(scaled) > bound) & (scale != 0)
                if not high.any():
                    break
                scale[high] = np.nextafter(scale[high], mean.dtype.type(0))
            block[over] = scaled
    # bounds in the storage dtype, so a float32 clamp takes no float64 pass;
    # the values are the same, as no float32 lies between a bound and its rounding
    lv = model.log_var
    np.clip(lv, lv.dtype.type(np.log(model.var_lo)), lv.dtype.type(np.log(model.var_hi)),
            out=lv)
    return model


def init_sg_model(vocab, cfg: TrainConfig, rng) -> SgModel:
    V, d = len(vocab), cfg.dim
    dtype = np.dtype(cfg.param_dtype)
    return SgModel(vocab=vocab, dim=d,
                   in_vec=uniform_table(rng, 0.5 / d, (V, d), dtype),
                   out_vec=np.zeros((V, d), dtype=dtype))


def init_w2g_model(vocab, cfg: TrainConfig, rng, cov_kind,
                   energy_kind="expected_likelihood", max_mean_norm=20.0,
                   var_lo=1e-3, var_hi=10.0) -> W2gModel:
    V, d = len(vocab), cfg.dim
    dtype = np.dtype(cfg.param_dtype)
    lv_shape = (V,) if cov_kind == "spherical" else (V, d)
    return W2gModel(vocab=vocab, cov_kind=cov_kind, dim=d,
                    mean=uniform_table(rng, 0.5 / d, (V, d), dtype),
                    log_var=np.zeros(lv_shape, dtype=dtype),
                    energy_kind=energy_kind, max_mean_norm=max_mean_norm,
                    var_lo=var_lo, var_hi=var_hi)


def train_baseline(kind: str, corpus_path, vocab: Vocabulary, cfg: TrainConfig,
                   log_path=None, epoch_losses=None, learning_rate=None,
                   **w2g_kwargs):
    """Train one baseline: kind in {"sg", "w2g_s", "w2g_d"}.

    Learning-rate defaults follow BASELINE_LEARNING_RATES; the corpus stream
    is identical to the Bayesian trainer's for equal seeds.
    """
    if kind not in BASELINE_LEARNING_RATES:
        raise ValueError(f"unknown baseline kind {kind!r}")
    lr = learning_rate if learning_rate is not None else BASELINE_LEARNING_RATES[kind]
    rng = init_rng(cfg)
    if kind == "sg":
        model = init_sg_model(vocab, cfg, rng)
        grad_of_batch, post_batch = partial(sg_batch_gradients, model), None
    else:
        cov_kind = "spherical" if kind == "w2g_s" else "diagonal"
        model = init_w2g_model(vocab, cfg, rng, cov_kind, **w2g_kwargs)
        grad_of_batch = partial(w2g_batch_gradients, model, margin=cfg.margin)

        def post_batch(_params):
            clip_params(model)

    steps = run_training_loop(corpus_path, vocab, cfg, model.param_arrays(),
                              grad_of_batch, lr=lr, post_batch=post_batch,
                              log_path=log_path, epoch_losses=epoch_losses)
    if kind != "sg" and not steps:     # every step already ended in a projection
        clip_params(model)
    return model
