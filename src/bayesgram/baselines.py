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

from .bsg import (BatchGrads, TrainConfig, blockwise, gather_rows, init_rng, margin_pairs,
                  run_training_loop)
from .corpus import Vocabulary
from .encoder import uniform_table
from .gauss import fold, kl_parts
from .optim import CHUNK

__all__ = ["SgModel", "W2gModel", "W2G_SETTINGS", "sg_batch_gradients",
           "w2g_batch_gradients", "clip_params", "train_baseline"]

BASELINE_LEARNING_RATES = {"sg": 0.0015, "w2g_s": 0.0065, "w2g_d": 0.0015}
# the W2gModel fields beyond its tables, which a model file keeps in its config
W2G_SETTINGS = ("energy_kind", "max_mean_norm", "var_lo", "var_hi")


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
    """1 / (1 + exp(-x)), and its limit 0 where exp(-x) would overflow x's dtype."""
    # a float32 x compares in float64 here, so the boundary is exact for it too
    over = x < -np.log(np.float64(np.finfo(x.dtype).max))
    return np.where(over, 0.0, 1.0 / (1.0 + np.exp(-np.where(over, 0.0, x))))


def sg_batch_gradients(model: SgModel, centers, pos, neg, mask,
                       want_grads: bool = True) -> BatchGrads:
    """Negative-sampling skip-gram losses of a padded batch, plus gradients; blockwise."""
    def block(v, pos, neg, mask):
        u_p = gather_rows(model.out_vec, pos)              # B x P x d
        u_n = gather_rows(model.out_vec, neg)              # B x k x P x d
        s_p = np.einsum("bd,bpd->bp", v, u_p)
        s_n = np.einsum("bd,bkpd->bkp", v, u_n)
        neg_mask = np.broadcast_to(mask[:, None, :], s_n.shape)
        losses = (-np.sum(np.where(mask, _log_sigmoid(s_p), 0.0), axis=1)
                  - np.sum(np.where(neg_mask, _log_sigmoid(-s_n), 0.0), axis=(1, 2)))
        if not want_grads:
            return (losses,)
        c_p = (mask * -(1.0 - _sigmoid(s_p)))[..., None]     # d loss / d score
        c_n = (neg_mask * _sigmoid(s_n))[..., None]
        dv = (c_p * u_p).sum(axis=1) + (c_n * u_n).sum(axis=(1, 2))
        return (losses, dv, [pos[mask], neg[neg_mask]],
                [(c_p * v[:, None])[mask], (c_n * v[:, None, None])[neg_mask]])

    v = gather_rows(model.in_vec, centers)                 # B x d
    losses, *grads = blockwise(block, neg[0].size * v.shape[1], v, pos, neg, mask)
    if not want_grads:
        return BatchGrads(losses)
    dv, out_ids, d_out = grads
    return BatchGrads(losses, {"in_vec": (centers, dv),
                               "out_vec": (np.concatenate(out_ids), np.concatenate(d_out))})


def _energy_parts(mu_a, lv_a, mu_b, lv_b, kind):
    """Minus the W2G energy over the last axis (a distance: lower = more similar)
    and its partials, as gauss.kl_parts returns them: (D, d/d mu_a, d/d lv_a,
    d/d lv_b), d/d mu_b being -d/d mu_a, spherical (..., 1) partials folded.
    A spherical pair's expected likelihood is -0.5 (d log(2 pi s) + q / s) with
    q = sum dmu^2, whose lv partials come out folded: the same quantity with
    one pass per coordinate fewer, summed in another order (a few ulps)."""
    if kind == "expected_likelihood":
        va, vb = np.exp(lv_a), np.exp(lv_b)
        s = va + vb
        dmu = mu_a - mu_b
        sq = dmu * dmu
        g_mu_a = dmu / s
        d = dmu.shape[-1]
        if s.shape[-1] == 1:       # one variance for all d coordinates
            q = sq.sum(axis=-1, keepdims=True)
            g_s = 0.5 * (d / s - q / (s * s))
            return (0.5 * (d * np.log(2.0 * np.pi * s) + q / s)[..., 0], g_mu_a,
                    g_s * va, g_s * vb)
        g_s = 0.5 * (1.0 / s - sq / (s * s))
        return (0.5 * np.sum(np.log(2.0 * np.pi * s) + sq / s, axis=-1), g_mu_a,
                fold(g_s * va, lv_a, d), fold(g_s * vb, lv_b, d))
    if kind == "negated_kl":
        # KL(b || a): the context density read from the word density
        val, g_mu1, g_lv1, g_lv2 = kl_parts(mu_b, lv_b, mu_a, lv_a)
        return val, -g_mu1, g_lv2, g_lv1
    raise ValueError(f"unknown energy kind {kind!r}")


def w2g_batch_gradients(model: W2gModel, centers, pos, neg, mask, margin: float,
                        want_grads: bool = True) -> BatchGrads:
    """Losses of a padded batch, bsg.margin_pairs's hinge with the center word's
    own density as the query and minus the energy as D, plus gradients."""
    mu_w, lv_w = gather_rows(model.mean, centers), gather_rows(model.log_var, centers)
    losses, *grads = margin_pairs(mu_w, lv_w, model.mean, model.log_var, pos, neg, mask,
                                  margin, partial(_energy_parts, kind=model.energy_kind),
                                  "hinge", want_grads)
    if not want_grads:
        return BatchGrads(losses)
    d_mu, d_lv, ids, mean, lv = grads
    ids = np.concatenate([centers, *ids])
    return BatchGrads(losses, {"mean": (ids, np.concatenate([d_mu, *mean])),
                               "log_var": (ids, np.concatenate([d_lv, *lv]))})


def _row_norms(x):
    return np.linalg.norm(np.asarray(x, dtype=np.float64), axis=1)


def clip_params(model: W2gModel) -> W2gModel:
    """Project means into the norm ball and variances into bounds. Idempotent:
    every projected row's float64 norm is at most max_mean_norm.

    Row norms are taken in float64 one block of rows at a time, and only the
    rows over the bound are rescaled: a row within it would be multiplied by
    1.0, which leaves it as it is. A block whose max |x| sqrt(d) (1 + 1e-6) is
    within the bound, as no row norm there can exceed it, takes no norms (a NaN
    fails the test). A row that rounding leaves just over the bound has its
    scale stepped down one ulp at a time until it is not.
    """
    mean, bound = model.mean, model.max_mean_norm
    step = max(1, CHUNK // mean.shape[1])
    limit = bound / (np.sqrt(mean.shape[1]) * (1.0 + 1e-6))
    for lo in range(0, len(mean), step):
        block = mean[lo:lo + step]
        if -limit <= float(block.min()) and float(block.max()) <= limit:
            continue
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


def init_w2g_model(vocab, cfg: TrainConfig, rng, cov_kind, **settings) -> W2gModel:
    """A W2G model with fresh tables; settings are W2G_SETTINGS fields."""
    V, d = len(vocab), cfg.dim
    dtype = np.dtype(cfg.param_dtype)
    lv_shape = (V,) if cov_kind == "spherical" else (V, d)
    return W2gModel(vocab=vocab, cov_kind=cov_kind, dim=d,
                    mean=uniform_table(rng, 0.5 / d, (V, d), dtype),
                    log_var=np.zeros(lv_shape, dtype=dtype), **settings)


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
        post_batch = partial(clip_params, model)
    steps = run_training_loop(corpus_path, vocab, cfg, model.param_arrays(),
                              grad_of_batch, lr=lr, post_batch=post_batch,
                              log_path=log_path, epoch_losses=epoch_losses)
    if kind != "sg" and not steps:     # every step already ended in a projection
        clip_params(model)
    return model
