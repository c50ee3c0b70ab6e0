"""Gaussian density values and their closed-form math.

A Gaussian here is a mean vector plus a stored log-variance, either a
single scalar shared across dimensions ("spherical") or one value per
dimension ("diagonal"). Log-variance is the canonical parameterization
throughout the package: it keeps every representable covariance positive
definite.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["BLOCK_FLOATS", "Gaussian", "kl_divergence", "kl_rows", "kl_parts", "kl_bounds",
           "cosine_bounds", "fold", "log_density", "log_density_rows", "cosine", "cosine_rows",
           "row_sums", "norms", "cosine_finish", "log_det_cov"]

_LOG_2PI = float(np.log(2.0 * np.pi))

# float64 values per temporary of a blockwise pass: 96 KB, under glibc's 128 KB mmap threshold
BLOCK_FLOATS = 12_288


@dataclass(frozen=True)
class Gaussian:
    """Diagonal-or-spherical Gaussian. log_var has shape () or (d,)."""

    mean: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "log_var", np.asarray(self.log_var, dtype=np.float64))
        if self.mean.ndim != 1:
            raise ValueError("mean must be a 1-D vector")
        if self.log_var.ndim not in (0, 1):
            raise ValueError("log_var must be a scalar or a 1-D vector")
        if self.log_var.ndim == 1 and self.log_var.shape[0] != self.mean.shape[0]:
            raise ValueError("diagonal log_var length must match mean dimension")
        if not (np.isfinite(self.mean).all() and np.isfinite(self.log_var).all()):
            raise ValueError("Gaussian parameters must be finite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def cov_kind(self) -> str:
        return "spherical" if self.log_var.ndim == 0 else "diagonal"

    def log_var_vector(self) -> np.ndarray:
        """Log-variance broadcast to a full (d,) vector."""
        if self.log_var.ndim == 0:
            return np.full(self.dim, float(self.log_var))
        return self.log_var

    def std_vector(self) -> np.ndarray:
        return np.exp(0.5 * self.log_var_vector())


def kl_divergence(p: Gaussian, q: Gaussian) -> float:
    """D_KL[p || q] for diagonal Gaussians, in closed form (see kl_rows)."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return float(kl_rows(p.mean, p.log_var_vector(), q.mean, q.log_var_vector()))


def _kl_terms(mu1, lv1, mu2, lv2):
    """kl_rows's value and the terms kl_parts reuses: the formula's operations in
    its order, the exps and the sum in place (six arrays, not eleven; same bits)."""
    dmu = mu1 - mu2
    inv2 = -lv2
    np.exp(inv2, out=inv2)
    ratio = lv1 - lv2
    np.exp(ratio, out=ratio)
    mahal = dmu * dmu * inv2
    acc = ratio + mahal
    acc -= 1.0
    acc += lv2
    acc -= lv1
    return 0.5 * np.sum(acc, axis=-1), dmu, inv2, ratio, mahal


def kl_rows(mu1, lv1, mu2, lv2):
    """KL[N(mu1, e^lv1) || N(mu2, e^lv2)] along the last axis, broadcasting:
    0.5 * sum_d [ s1/s2 + (mu1-mu2)^2/s2 - 1 + log(s2/s1) ], s the variances.
    A log-variance with a last axis of 1 is spherical. The value is the one
    kl_parts returns, bit for bit, so training and reading share one KL."""
    return _kl_terms(mu1, lv1, mu2, lv2)[0]


def kl_parts(mu1, lv1, mu2, lv2):
    """kl_rows plus its partials (kl, d/d mu1, d/d lv1, d/d lv2); d/d mu2 is
    -d/d mu1, and a spherical log-variance's partial is folded (see fold)."""
    val, dmu, inv2, ratio, mahal = _kl_terms(mu1, lv1, mu2, lv2)
    d = dmu.shape[-1]
    return (val, dmu * inv2, fold(0.5 * (ratio - 1.0), lv1, d),
            fold(0.5 * (1.0 - ratio - mahal), lv2, d))


def kl_bounds(mu1, lv1, blocks, V, sums, tables=None):
    """(lo, hi) around kl_rows(mu1, lv1, mu2, lv2) for the V rows of the (slice, (mu2, lv2)) blocks
    as stored, s the dtype of e^-lv2; sums holds each row's c = sum E mu2^2 (inf if an lv2 > L =
    log(1/4t_s), or NaN) and w = c + sum lv2, or is empty for this pass to fill. Given filled sums,
    tables = (E, E mu2) of all V rows in s replaces the blocks: one product each. In s: E = e^-lv2,
    X, Y = E.a, E.m, Z = (E mu2).mu1 for a = e^lv1 + mu1^2, m = mu1^2 rounded up (summed for a
    spherical lv2); 2K~ = fl_s(X - 2Z) + w - sum(lv1 + 1). (-inf, inf) for all rows if an lv1 < -L
    or (d + 32)u_s > 2^-8, for a row if K~ is not finite or past 1e300; else K~ -+ gT, g =
    2(d + 32)u_s + 2(d + 720)u, T = X + Y + 2c + 2|K~| + 2d + 2 sum|lv1|, u (u_s, t_s) float64's
    (s's) unit roundoff (least normal). Why: exp in s errs by 8u_s, a cast by 2u_s, an n-term dot
    product by nu_s of its terms' sizes (Higham 3.1); as 2|E mu2 mu1| <= E (m + mu2^2) and |x| <=
    e^x - x at x = lv1 - lv2, X, 2Z, c, X - 2Z, sum lv2, float64 sums err by (d + 17)u_s X,
    (d + 11)u_s (Y + c), (d + 10)u_s c, u_s (X + Y + c), du_s (d + sum|lv1| + 2K) and 4uT in any
    summation order (so by blocks or whole tables alike): 2K~ by (d + 21)u_s T; 2 kl_rows by
    (d + 720)u (P + d + sum|lv1| + sum|lv2|) <= 2(d + 720)u T, P = sum E (e^lv1 + (mu1 - mu2)^2),
    its exp(x) by < 692u at K < 1e300. As E, a >= 4t_s, underflow costs < t_s (2t_s^(1/2) in
    E mu2 mu1, mu1^2 < a); overflow leaves K~ not finite. gT doubles it."""
    d, X, q, lq = mu1.shape[-1], None, mu1[0], np.broadcast_to(lv1, mu1.shape)[0]
    c, w = (sums["c"], sums["w"]) if sums else (np.empty(V), np.empty(V))
    for s, (mu2, lv2) in blocks if tables is None else [(slice(None), tables[::-1])]:
        e = lv2 if tables else np.exp(np.negative(lv2))     # tables: (E mu2, E) for (mu2, lv2)
        if X is None:       # the query's columns [a, m] and mean in s; out of range, g = inf
            f = np.finfo(e.dtype)
            L = float(np.log(0.25 / f.tiny)) if (d + 32) * f.eps <= 2.0 ** -7 else -np.inf
            g = (d + 32) * float(f.eps) + (d + 720) * 2.0 ** -52 if lq.min() >= -L else np.inf
            cols = fold(np.stack([np.exp(lq) + q * q, q * q]), lv2, d).T.astype(f.dtype, "C")
            cols[:, 1] = np.nextafter(cols[:, 1], np.inf)
            mq, X, Z = q.astype(f.dtype), np.empty((V, 2), f.dtype), np.empty(V, f.dtype)
        em = mu2 if tables else e * mu2
        np.matmul(e, cols, out=X[s])
        np.matmul(em, mq, out=Z[s])
        if not sums:
            c[s], w[s] = row_sums(em, mu2), np.einsum("ij->i", lv2) * (d // lv2.shape[1])
            if not lv2.max() <= L:
                c[s][~(lv2.max(axis=1) <= L)] = np.inf
    sums.update(c=c, w=w if sums else np.add(c, w, out=w))
    K = 0.5 * (np.add(X[:, 0] - 2 * Z, w) - (np.sum(lq) + d))
    sure = np.abs(K) <= 1e300
    b = g * (X[:, 0] + X[:, 1] + 2 * (c + np.abs(K) + d + np.sum(np.abs(lq))))
    return np.where(sure, K - b, -np.inf), np.where(sure, K + b, np.inf)


def cosine_bounds(y, nq, nv, d):
    """(keys, b), each key -cosine_finish(row_sums(q, v), nq, nv) within b of -y/N, from y = T @ q
    in T's dtype s, float64 norms nq, nv in [2^-40, 2^60] and d <= 2^23: N = nq nv, b = 4d(u_s +
    2u) + 16u + 2^83 d(t_s + t), u (u_s) float64's (s's) unit roundoff, t (t_s) least normal. Why,
    with A = sum|q_i v_i| <= |q||v| <= 2^120: y and the float64 sum are within 2d u_s A + 2d t_s
    and 2du A + 2d t of q.v in any order, with or without FMA (Higham 3.1; an underflow, gradual or
    to 0, errs by < t). Norms within (d/2 + 1)u give A/N <= 1 + (d + 3)u; a quotient by N rounds by
    u, the clip moves < (3d + 5)u, the n-th least key + 2b by < 2u, u per key: all sum below b."""
    f, k = np.finfo(y.dtype), nv * -nq
    b = d * (2 * float(f.eps) + 2 ** -50 + 2 ** 83 * (float(f.tiny) + 2 ** -1022)) + 2 ** -49
    return np.divide(y, k, out=k), b


def fold(g, lv, d):
    """A log-variance partial, summed over the d coordinates if lv is spherical."""
    if lv.shape[-1] > 1:
        return g
    return g.sum(axis=-1, keepdims=True) if g.shape[-1] > 1 else g * d


def log_density(g: Gaussian, z: np.ndarray) -> float:
    """Log pdf of the diagonal Gaussian g at point z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != g.mean.shape:
        raise ValueError(f"dimension mismatch: point {z.shape} vs mean {g.mean.shape}")
    return float(log_density_rows(g.mean, g.log_var_vector(), z))


def log_density_rows(mu, lv, z):
    """Log pdf of N(mu, e^lv) at z along the last axis, broadcasting; a
    log-variance with a last axis of 1 is spherical."""
    dz = z - mu
    return -0.5 * np.sum(_LOG_2PI + lv + dz * dz * np.exp(-lv), axis=-1)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two nonzero vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(cosine_rows(u, v))


def cosine_rows(u, v):
    """Cosine along the last axis, broadcasting: the row sums u.v, u.u and v.v
    (see row_sums), the norms, then cosine_finish."""
    return cosine_finish(row_sums(u, v), norms(row_sums(u, u)), norms(row_sums(v, v)))


def row_sums(a, b, out=None):
    """Sums of a * b along the last axis, broadcasting: one einsum with no
    broadcast product, so a row gets the same bits alone, in any block, or
    broadcast against a table."""
    return np.einsum("...i,...i->...", a, b, out=out)


def norms(uu):
    """The norms from row sums u.u; a zero row raises, as its cosine is undefined."""
    nu = np.sqrt(uu)
    if not nu.all():
        raise ValueError("undefined cosine: zero vector")
    return nu


def cosine_finish(uv, nu, nv):
    """The cosine from the row sums u.v and the norms of u and v."""
    return (uv / (nu * nv)).clip(-1.0, 1.0)


def log_det_cov(g: Gaussian) -> float:
    """log det of the covariance: sum of per-coordinate log-variances."""
    return float(np.sum(g.log_var_vector()))
