"""Retrieval-augmented variational language model with a Gaussian-mixture
posterior over query and retrieved latents."""

__version__ = "0.1.0"
