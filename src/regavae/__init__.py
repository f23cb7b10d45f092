"""Retrieval-augmented variational language model with a Gaussian-mixture
posterior over query and retrieved latents."""

from .autograd import Tape, Tensor, backward
from .metrics import MetricReport
from .mixture import (MixturePosterior, MixturePrior, kl_gaussian_diag,
                      kl_mixture_upper_bound, mixture_weights, regavae_loss)
from .model import ElboBreakdown, LatentGaussian, ModelConfig, VaeModel
from .retrieval import (RetrievalDatabase, RetrievalEntry, build_database,
                        maybe_refresh, similarity, top_k)
from .training import RunConfig, run_ablation, run_eval, run_pipeline, run_stage1, \
    run_stage2, run_stage3

__all__ = [
    "Tape", "Tensor", "backward",
    "MetricReport",
    "MixturePosterior", "MixturePrior", "kl_gaussian_diag",
    "kl_mixture_upper_bound", "mixture_weights", "regavae_loss",
    "ElboBreakdown", "LatentGaussian", "ModelConfig", "VaeModel",
    "RetrievalDatabase", "RetrievalEntry", "build_database", "maybe_refresh",
    "similarity", "top_k",
    "RunConfig", "run_ablation", "run_eval", "run_pipeline",
    "run_stage1", "run_stage2", "run_stage3",
]

__version__ = "0.1.0"
