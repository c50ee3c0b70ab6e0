"""Gaussian-density word embeddings.

Words are represented as Gaussian densities: a context-agnostic prior per
word type, plus (for the Bayesian skip-gram model) a context-specific
posterior produced by an inference network for each occurrence. The
package also ships skip-gram and Gaussian-embedding baselines sharing the
same corpus machinery, evaluation harnesses for similarity, entailment,
entailment directionality, and lexical substitution, and brute-force
oracles validating the analytic code paths.
"""

from .bsg import BatchGrads, BsgModel, TrainConfig, batch_gradients, elbo_estimate, \
    reparameterize, train
from .corpus import Vocabulary, build_vocabulary, iter_documents, sample_negatives, \
    single_window, subsample_stream
from .encoder import EncoderParams, encoder_backward, infer_posterior, init_encoder
from .gauss import Gaussian, cosine, kl_divergence, log_density, log_det_cov

__version__ = "0.1.0"

__all__ = [
    "BsgModel", "TrainConfig", "train", "BatchGrads", "batch_gradients",
    "elbo_estimate", "reparameterize",
    "Vocabulary", "build_vocabulary", "iter_documents", "subsample_stream",
    "sample_negatives", "single_window",
    "EncoderParams", "init_encoder", "infer_posterior", "encoder_backward",
    "Gaussian", "kl_divergence", "log_density", "cosine", "log_det_cov",
]
