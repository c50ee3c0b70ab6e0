"""Inference network: (center word, context words) -> posterior Gaussian.

Architecture: each context word's input embedding is concatenated with the
center word's, pushed through one ReLU layer, and the results are summed
(sum, not mean, so duplicated context words count twice). Two linear heads
on top of the sum produce the posterior mean and log-variance. The
log-variance head has a single output row for spherical posteriors and d
rows for diagonal ones.

encode_batch is the one forward pass, over a padded batch whose mask marks
the real contexts (mask None: all of them are real); infer_posterior and
encoder_backward run it on a batch of one window.
"""

from dataclasses import dataclass

import numpy as np

from .gauss import Gaussian
from .optim import CHUNK

__all__ = ["EncoderParams", "init_encoder", "uniform_table", "infer_posterior",
           "encode_batch", "backward_batch", "encoder_backward"]


@dataclass
class EncoderParams:
    R: np.ndarray   # |V| x d input embeddings
    M: np.ndarray   # d_h x 2d hidden layer
    U: np.ndarray   # d x d_h mean head
    b1: np.ndarray  # d
    W: np.ndarray   # (1 or d) x d_h log-variance head
    b2: np.ndarray  # (1,) or (d,)

    def __post_init__(self):
        d_h, two_d = self.M.shape
        d = two_d // 2
        if two_d != 2 * d or self.R.shape[1] != d:
            raise ValueError("M must be d_h x 2d with d matching R")
        if self.U.shape != (d, d_h) or self.b1.shape != (d,):
            raise ValueError("mean head shape mismatch")
        if self.W.shape[0] not in (1, d) or self.W.shape[1] != d_h:
            raise ValueError("log-variance head must have 1 or d rows")
        if self.b2.shape != (self.W.shape[0],):
            raise ValueError("b2 shape must match W rows")

    @property
    def dim(self) -> int:
        return self.R.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.M.shape[0]

    @property
    def cov_kind(self) -> str:
        return "spherical" if self.W.shape[0] == 1 else "diagonal"


def uniform_table(rng: np.random.Generator, bound: float, shape, dtype) -> np.ndarray:
    """rng.uniform(-bound, bound, size=shape).astype(dtype), bit for bit: one
    float64 scratch takes CHUNK of rng.random's draws at a time, which are the
    ones rng.uniform scales, scaled in place by its own low + (high - low) * u."""
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    scratch = np.empty(min(CHUNK, flat.size))
    for lo in range(0, flat.size, CHUNK):
        u = rng.random(out=scratch[:min(CHUNK, flat.size - lo)])
        u *= bound - -bound                  # high - low
        u += -bound
        flat[lo:lo + len(u)] = u
    return out


def init_encoder(vocab_size: int, d: int, d_h: int, cov_kind: str,
                 rng: np.random.Generator, dtype=np.float64) -> EncoderParams:
    """Glorot-uniform weights, zero biases, small uniform input embeddings,
    all stored in dtype."""

    def glorot(rows, cols):
        bound = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-bound, bound, size=(rows, cols)).astype(dtype)

    k = 1 if cov_kind == "spherical" else d
    return EncoderParams(
        R=uniform_table(rng, 0.5 / d, (vocab_size, d), dtype),
        M=glorot(d_h, 2 * d),
        U=glorot(d, d_h),
        b1=np.zeros(d, dtype=dtype),
        W=glorot(k, d_h),
        b2=np.zeros(k, dtype=dtype),
    )


def infer_posterior(center, contexts, params: EncoderParams) -> Gaussian:
    """Posterior Gaussian for one occurrence of `center` amid `contexts`:
    encode_batch on a batch of that one window."""
    if len(contexts) == 0:
        raise ValueError("posterior undefined without context")
    _, mu, lv = encode_batch(np.array([center]), np.array([contexts], dtype=np.intp),
                             None, params)
    return Gaussian(mu[0], lv[0, 0] if lv.shape[1] == 1 else lv[0])


def encode_batch(centers, contexts, mask, params: EncoderParams):
    """Posteriors of a padded batch: centers (B,), contexts and mask (B, P).

    mask None means every context is real; backward_batch reads the mask, so
    a batch to be differentiated passes one. Runs in the parameters' storage
    dtype. Returns the activations backward_batch needs, mu (B, d) and
    log-variance (B, 1 or d), the last two in float64.
    """
    R, d = params.R, params.dim
    X = np.empty(contexts.shape + (2 * d,), dtype=R.dtype)   # B x P x 2d
    X[..., :d] = R[contexts]
    X[..., d:] = R[centers][:, None, :]
    A = (X.reshape(-1, 2 * d) @ params.M.T).reshape(
        contexts.shape + (params.hidden_dim,))          # pre-activation
    relu = np.maximum(A, 0.0)
    if mask is not None:
        relu *= mask[..., None]
    h = relu.sum(axis=1)                                 # B x d_h
    # one matrix-vector product per window
    mu = np.matmul(params.U, h[:, :, None])[..., 0] + params.b1
    lv = np.matmul(params.W, h[:, :, None])[..., 0] + params.b2
    acts = (centers, contexts, mask, X, A, h)
    return acts, mu.astype(np.float64), lv.astype(np.float64)


def backward_batch(params: EncoderParams, acts, d_mu: np.ndarray, d_lv: np.ndarray):
    """Exact gradients of a summed loss through each window's (mu_q, log var_q).

    d_mu (B, d) and d_lv (B, 1 or d) are the upstream gradients. Returns
    ({"M", "U", "b1", "W", "b2"} -> gradient, (R row ids, R row gradients));
    the ids, which may repeat, are the center and real context rows.
    """
    centers, contexts, mask, X, A, h = acts
    dh = d_mu @ params.U + d_lv @ params.W           # B x d_h
    dA = (A > 0.0) * mask[..., None] * dh[:, None, :]   # dead units pass nothing
    d = params.dim
    dA2, X2 = dA.reshape(-1, dA.shape[2]), X.reshape(-1, 2 * d)
    dX = (dA2 @ params.M).reshape(X.shape)
    dense = {"M": dA2.T @ X2, "U": d_mu.T @ h, "b1": d_mu.sum(axis=0),
             "W": d_lv.T @ h, "b2": d_lv.sum(axis=0)}
    rows = (np.concatenate([contexts[mask], centers]),
            np.concatenate([dX[..., :d][mask], dX[..., d:].sum(axis=1)]))
    return dense, rows


def encoder_backward(center, contexts, params: EncoderParams,
                     d_mu: np.ndarray, d_log_var):
    """Exact gradients of a scalar loss through (mu_q, log var_q) of one window.

    d_log_var is a scalar for spherical encoders, a (d,) vector for diagonal.
    Returns backward_batch's (dense gradients, (R row ids, R row gradients))
    pair; only the center and context rows of R appear, repeated as they occur.
    """
    if len(contexts) == 0:
        raise ValueError("posterior undefined without context")
    d_mu = np.asarray(d_mu, dtype=np.float64)
    d_lv = np.atleast_1d(np.asarray(d_log_var, dtype=np.float64))
    if d_mu.shape != (params.dim,):
        raise ValueError("d_mu shape mismatch")
    if d_lv.shape != (params.W.shape[0],):
        raise ValueError("d_log_var shape mismatch")
    ctx = np.array([contexts], dtype=np.intp)
    acts, _, _ = encode_batch(np.array([center]), ctx, np.ones(ctx.shape, bool), params)
    return backward_batch(params, acts, d_mu[None], d_lv[None])
