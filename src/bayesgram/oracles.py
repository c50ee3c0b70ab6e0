"""Brute-force oracles and synthetic-corpus generators.

Everything here exists to validate the fast analytic code paths, so the
oracles deliberately avoid calling them: densities are recomputed inline,
integrals go through Gauss-Hermite quadrature, gradients through central
finite differences. All math is 64-bit. Quadrature oracles are limited to
latent dimension <= 2, where tensor-product Gauss-Hermite is exact enough
and cheap.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import atomic_open
from .gauss import Gaussian

__all__ = ["kl_quadrature_oracle", "marginal_loglik_oracle", "finite_diff_grad",
           "gradcheck", "kernel_gradcheck", "SynthSpec", "synth_corpus",
           "write_synth_corpus", "polysemy_spec", "hypernymy_spec"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _hermite_points(g: Gaussian, nodes: int):
    """Sample points and log-weights for E_g[f] by Gauss-Hermite quadrature.

    Returns (points, log_weights): points has shape (n, d), and
    sum_i exp(log_w_i) f(points_i) approximates the expectation.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    logw = np.log(w) - 0.5 * np.log(np.pi)
    std = g.std_vector()
    if g.dim == 1:
        pts = (g.mean[0] + np.sqrt(2.0) * std[0] * x)[:, None]
        return pts, logw
    if g.dim == 2:
        gx, gy = np.meshgrid(x, x, indexing="ij")
        pts = np.stack([g.mean[0] + np.sqrt(2.0) * std[0] * gx.ravel(),
                        g.mean[1] + np.sqrt(2.0) * std[1] * gy.ravel()], axis=1)
        lw = (logw[:, None] + logw[None, :]).ravel()
        return pts, lw
    raise ValueError("quadrature oracle supports dimension <= 2 only")


def _logpdf(points, mean, log_var):
    """Row-wise diagonal-Gaussian log pdf, written out independently."""
    lv = np.broadcast_to(np.atleast_1d(log_var), mean.shape)
    dz = points - mean
    return -0.5 * np.sum(_LOG_2PI + lv + dz * dz / np.exp(lv), axis=1)


def kl_quadrature_oracle(p: Gaussian, q: Gaussian, nodes: int = 64) -> float:
    """Numerical D_KL[p || q] = E_p[log p - log q], dimension <= 2."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if nodes < 16:
        raise ValueError("use at least 16 quadrature nodes")
    pts, logw = _hermite_points(p, nodes)
    f = _logpdf(pts, p.mean, p.log_var_vector()) - _logpdf(pts, q.mean, q.log_var_vector())
    return float(np.sum(np.exp(logw) * f))


def marginal_loglik_oracle(model, center: int, contexts, nodes: int = 64) -> float:
    """Quadrature value of the exact window marginal log-likelihood.

    log E_{prior}[ prod_j p(c_j | z) ] with the full-vocabulary softmax
    decoder over scaled Gaussian scores. Tractable only for tiny models.
    """
    d = model.dim
    if d > 2:
        raise ValueError("oracle supports latent dimension <= 2 only")
    if len(model.vocab) > 200:
        raise ValueError("oracle supports |V| <= 200 only")
    prior = Gaussian(model.prior_mean[center].astype(np.float64),
                     np.float64(model.prior_log_var[center])
                     if model.cov_kind == "spherical"
                     else model.prior_log_var[center].astype(np.float64))
    pts, logw = _hermite_points(prior, nodes)
    n = pts.shape[0]
    V = len(model.vocab)
    ctx_mu = model.ctx_mean.astype(np.float64)       # V x d
    if model.cov_kind == "spherical":
        ctx_lv = np.repeat(model.ctx_log_var.astype(np.float64)[:, None], d, axis=1)
    else:
        ctx_lv = model.ctx_log_var.astype(np.float64)
    logp_c = np.log(model.vocab.unigram_prob)
    # scores[i, k] = log N(z_i; mu_k, Sigma_k) + log p(k)
    dz = pts[:, None, :] - ctx_mu[None, :, :]        # n x V x d
    scores = -0.5 * np.sum(_LOG_2PI + ctx_lv[None] + dz * dz / np.exp(ctx_lv)[None],
                           axis=2) + logp_c[None, :]
    norm = _logsumexp(scores, axis=1)                # n
    log_lik = np.zeros(n)
    for c in contexts:
        log_lik += scores[:, c] - norm
    return float(_logsumexp(logw + log_lik))


def _logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else float(out.reshape(()))


def finite_diff_grad(loss, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    if h <= 0:
        raise ValueError("h must be > 0")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (loss(up) - loss(dn)) / (2.0 * h)
    return grad


def gradcheck(loss, params: dict, grads: dict, h: float = 1e-6) -> float:
    """Worst relative error |g - fd| / max(|g|, |fd|, 1e-3) of the analytic
    gradients grads[name] against central differences of loss(), a scalar
    function of the arrays params[name], which are perturbed in place and restored.
    """
    names = sorted(params)
    splits = np.cumsum([params[n].size for n in names])[:-1]

    def flat(arrays):
        return np.concatenate([np.asarray(arrays[n], np.float64).ravel() for n in names])

    def loss_of(vec):
        for n, part in zip(names, np.split(vec, splits)):
            params[n][...] = part.reshape(params[n].shape)
        return float(loss())

    x0, g = flat(params), flat(grads)
    fd = finite_diff_grad(loss_of, x0, h)
    loss_of(x0)
    denom = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-3)
    return float(np.max(np.abs(g - fd) / denom))


def kernel_gradcheck(kernel, params: dict, batch, h: float = 1e-6) -> float:
    """gradcheck of the summed window losses of kernel(*batch, want_grads=...),
    a batch kernel bound to its model (and config) that reads the arrays params.
    Its gradients are scattered into dense arrays with BatchGrads.scatter, as
    training does."""
    grads = {n: np.zeros(a.shape) for n, a in params.items()}
    kernel(*batch).scatter(grads)
    return gradcheck(lambda: kernel(*batch, want_grads=False).losses.sum(),
                     params, grads, h)


@dataclass
class SynthSpec:
    """Layout of a synthetic sense-tagged corpus.

    groups maps a sense-group name to its indicator words. targets maps each
    emitted target word to its group mixing weights: one group for a
    monosemous word, two or more for a polysemous one, the union of hyponym
    groups for a hypernym.
    """

    groups: dict
    targets: dict
    tokens_per_doc: int = 1000
    n_docs: int = 10
    seed: int = 0
    context_per_side: int = 2
    gold_pairs: list = field(default_factory=list)  # (hyponym, hypernym)

    def __post_init__(self):
        for word, weights in self.targets.items():
            if abs(sum(weights.values()) - 1.0) > 1e-9:
                raise ValueError(f"mixing weights for {word!r} must sum to 1")
            for g in weights:
                if g not in self.groups:
                    raise ValueError(f"unknown group {g!r} for target {word!r}")


def synth_corpus(spec: SynthSpec):
    """Generate tagged documents: each target occurrence sits amid indicator
    words of its (sampled) true sense group.

    Returns (docs, tags) where docs is a list of token lists and tags is a
    list of (global_position, word, group) triples for target occurrences,
    positions counted over the concatenation of all documents.
    """
    rng = np.random.default_rng(spec.seed)
    target_words = sorted(spec.targets)
    docs, tags = [], []
    pos = 0
    for _ in range(spec.n_docs):
        doc = []
        while len(doc) < spec.tokens_per_doc:
            word = target_words[rng.integers(len(target_words))]
            weights = spec.targets[word]
            names = sorted(weights)
            group = names[_pick(rng, [weights[g] for g in names])]
            indicators = spec.groups[group]
            left = [indicators[rng.integers(len(indicators))]
                    for _ in range(spec.context_per_side)]
            right = [indicators[rng.integers(len(indicators))]
                     for _ in range(spec.context_per_side)]
            tags.append((pos + len(doc) + len(left), word, group))
            doc.extend(left + [word] + right)
        pos += len(doc)
        docs.append(doc)
    return docs, tags


def _pick(rng, weights):
    u = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def write_synth_corpus(spec: SynthSpec, text_path, tags_path=None):
    docs, tags = synth_corpus(spec)
    with atomic_open(text_path, encoding="utf-8") as f:
        for doc in docs:
            f.write(" ".join(doc) + "\n")
    if tags_path is not None:
        with atomic_open(tags_path, encoding="utf-8") as f:
            for position, word, group in tags:
                f.write(f"{position}\t{word}\t{group}\n")
    return docs, tags


def polysemy_spec(n_poly: int = 2, n_groups: int = 2, indicators_per_group: int = 6,
                  tokens_per_doc: int = 1000, n_docs: int = 100, seed: int = 0):
    """Corpus layout with polysemous words mixing evenly over sense groups."""
    groups = {f"g{i}": [f"g{i}_ind{j}" for j in range(indicators_per_group)]
              for i in range(n_groups)}
    targets = {}
    for p in range(n_poly):
        targets[f"poly{p}"] = {g: 1.0 / n_groups for g in groups}
    # monosemous anchors tie each group down
    for i in range(n_groups):
        targets[f"mono{i}"] = {f"g{i}": 1.0}
    return SynthSpec(groups=groups, targets=targets, tokens_per_doc=tokens_per_doc,
                     n_docs=n_docs, seed=seed)


def hypernymy_spec(n_hypernyms: int = 5, hyponyms_per: int = 4,
                   indicators_per_group: int = 3, tokens_per_doc: int = 1000,
                   n_docs: int = 100, seed: int = 0):
    """Corpus layout where each hypernym mixes over its hyponyms' groups."""
    groups, targets, gold = {}, {}, []
    for h in range(n_hypernyms):
        hyper = f"hyper{h}"
        member_groups = []
        for s in range(hyponyms_per):
            g = f"h{h}s{s}"
            groups[g] = [f"{g}_ind{j}" for j in range(indicators_per_group)]
            hypo = f"hypo{h}_{s}"
            targets[hypo] = {g: 1.0}
            gold.append((hypo, hyper))
            member_groups.append(g)
        targets[hyper] = {g: 1.0 / hyponyms_per for g in member_groups}
    return SynthSpec(groups=groups, targets=targets, tokens_per_doc=tokens_per_doc,
                     n_docs=n_docs, seed=seed, gold_pairs=gold)
