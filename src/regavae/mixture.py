"""Gaussian-mixture aggregation of query and retrieved latents, and the one
training objective.

The posterior over latents is a convex combination of the query posterior
(component 0) and the retrieved documents' key posteriors, weighted by a
softmax over cosine similarities (the query enters its own softmax with the
perfect-similarity logit 1.0). The mixture-vs-mixture KL has no closed form;
training optimizes the matched-component upper bound
KL(w||w_hat) + sum_i w_i KL(g_i||g_hat_i). With keys and therefore weights
frozen between index refreshes, only the query component's KL to N(0, I)
carries gradient, which is exactly the term kept in the loss. With no
retrieved neighbours (k=0) the mixture is the query posterior alone and
`regavae_loss` is the plain-VAE objective, so every training stage uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, RetrievalError
from .model import ElboBreakdown, LatentGaussian, VaeModel, gaussian_kl_standard, reparameterize
from .retrieval import RetrievalDatabase, similarity, top_k

_WEIGHT_TOL = 1e-12
# Upper clamp bound used when flooring the KL term (free bits); effectively
# +inf for any reachable KL while keeping the op on finite values.
_KL_CEIL = 1e30


@dataclass
class MixturePosterior:
    """Weighted list of diagonal Gaussians; component 0 is the query posterior."""

    components: list[LatentGaussian]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.components) != self.weights.size:
            raise ContractError(
                f"{len(self.components)} components but {self.weights.size} weights"
            )
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ContractError("mixture weights must be nonnegative and sum to 1")
        dims = {g.dim for g in self.components}
        if len(dims) > 1:
            raise ContractError(f"mixture components disagree on dimension: {dims}")


@dataclass
class MixturePrior:
    """Mixture of standard normals N(0, I); only the weights vary."""

    dim: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ContractError("prior weights must be nonnegative and sum to 1")

    @staticmethod
    def matching(mp: MixturePosterior, policy: str = "tied") -> "MixturePrior":
        """Prior weights tied to the (frozen) posterior weights, or uniform."""
        n = len(mp.components)
        if policy == "tied":
            w = mp.weights.copy()
        elif policy == "uniform":
            w = np.full(n, 1.0 / n)
        else:
            raise ContractError(f"unknown prior weight policy {policy!r}")
        return MixturePrior(mp.components[0].dim, w)


def mixture_weights(query: np.ndarray, retrieved: list[LatentGaussian],
                    self_logit: float = 1.0) -> np.ndarray:
    """Softmax over [self_logit, cos(query, key_i)...]; index 0 is the query."""
    if not retrieved:
        return np.array([1.0])
    logits = np.array([self_logit] + [similarity(query, g) for g in retrieved])
    e = np.exp(logits - logits.max())
    return e / e.sum()


def sample_mixture(mp: MixturePosterior, rng: np.random.Generator) -> tuple[Tensor, int]:
    """Hard categorical draw over weights, then reparameterized sample from the
    selected component. A single-component mixture skips the categorical draw."""
    if len(mp.components) == 1:
        idx = 0
    else:
        idx = int(rng.choice(len(mp.components), p=mp.weights))
    return reparameterize(mp.components[idx], rng), idx


def kl_gaussian_diag(a: LatentGaussian, b: LatentGaussian) -> float:
    """Closed-form KL(a || b) for diagonal Gaussians, in nats."""
    if a.dim != b.dim:
        raise ContractError(f"dimension mismatch: {a.dim} vs {b.dim}")
    va = np.exp(a.log_var_array)
    vb = np.exp(b.log_var_array)
    d = a.mean_array - b.mean_array
    return float(0.5 * np.sum(b.log_var_array - a.log_var_array + (va + d * d) / vb - 1.0))


def _standard(dim: int) -> LatentGaussian:
    return LatentGaussian.from_arrays(np.zeros(dim), np.zeros(dim))


def kl_categorical(w: np.ndarray, w_hat: np.ndarray) -> float:
    w = np.asarray(w, dtype=np.float64)
    w_hat = np.asarray(w_hat, dtype=np.float64)
    mask = w > 0
    if np.any(mask & (w_hat == 0)):
        return float("inf")
    return float(np.sum(w[mask] * np.log(w[mask] / w_hat[mask])))


def kl_mixture_upper_bound(p: MixturePosterior, q: MixturePrior) -> float:
    """Matched-component upper bound on KL between two mixtures:
    KL(w||w_hat) + sum_i w_i KL(g_i||N(0,I)). Zero iff weights match and every
    positive-weight component equals the standard normal."""
    if len(p.components) != q.weights.size:
        raise ContractError(
            f"component count mismatch: {len(p.components)} vs {q.weights.size}"
        )
    if p.components and p.components[0].dim != q.dim:
        raise ContractError(f"dimension mismatch: {p.components[0].dim} vs {q.dim}")
    prior = _standard(q.dim)
    total = kl_categorical(p.weights, q.weights)
    for w_i, g in zip(p.weights, p.components):
        if w_i > 0:
            total += w_i * kl_gaussian_diag(g, prior)
    return total


def retrieve_mixture(posts: list[LatentGaussian], db: RetrievalDatabase, k: int,
                     exclude_id: int | None = None):
    """Top-k lookup plus softmax weights for the current query posteriors.

    Returns (weights, retrieved keys, hit entries); with k=0 the mixture
    collapses to the query alone. The keys are the snapshot's own
    LatentGaussians: constant tensors between refreshes, so no grad flows
    into them.
    """
    if k == 0:
        return np.array([1.0]), [], []
    if db is None or not db.entries:
        raise RetrievalError("retrieval requested but the database is empty")
    qvec = np.mean([g.mean_array for g in posts], axis=0)  # the layer-averaged query
    hits = top_k(qvec, db, k, exclude_id=exclude_id)
    keys = [e.key for e, _ in hits]
    return mixture_weights(qvec, keys), keys, [e for e, _ in hits]


def regavae_loss(model: VaeModel, x_tokens: list[int], y_tokens: list[int],
                 db: RetrievalDatabase | None, k: int, beta: float,
                 rng: np.random.Generator, exclude_id: int | None = None,
                 kl_floor: float = 0.0) -> tuple[ElboBreakdown, Tensor]:
    """Training objective: reconstruction NLL plus beta-weighted KL. Per
    decoder layer, the latent is sampled from the mixture of that layer's query
    posterior and the retrieved document keys; the KL term keeps only the
    query component's KL to N(0, I) (the retrieved components and the weights
    are constants between refreshes). With k=0 (db may be None) the mixture
    is the query posterior alone and this is the plain-VAE ELBO.

    kl_floor > 0 enables free bits: the KL term is floored at kl_floor nats,
    so gradients stop pushing the posterior toward the prior once its KL is
    below the floor. This reserves a latent information budget and is the
    standard mitigation when annealing alone cannot prevent posterior
    collapse. The reported breakdown always carries the true KL."""
    posts = model.encode(x_tokens)
    weights, keys, _ = retrieve_mixture(posts, db, k, exclude_id=exclude_id)
    z_layers = []
    for g in posts:
        mp = MixturePosterior([g] + keys, weights)
        z, _ = sample_mixture(mp, rng)
        z_layers.append(z)
    _, nll = model.decode(z_layers, y_tokens)
    kl = None
    for g in posts:
        term = gaussian_kl_standard(g)
        kl = term if kl is None else kl + term
    kl_term = ag.clamp(kl, kl_floor, _KL_CEIL) if kl_floor > 0.0 else kl
    total = nll + beta * kl_term
    return ElboBreakdown(nll.item(), kl.item(), beta), total


def mixture_mean_latents(model: VaeModel, x_tokens: list[int],
                         db: RetrievalDatabase | None, k: int,
                         posts: list[LatentGaussian] | None = None) -> list[Tensor]:
    """Deterministic per-layer latents for evaluation: the mixture expectation
    w_0 mu_l + sum_i w_i mu_key_i (posterior means, no sampling)."""
    if posts is None:
        posts = model.encode(x_tokens)
    weights, keys, _ = retrieve_mixture(posts, db, k)
    out = []
    for g in posts:
        z = weights[0] * g.mean_array
        for w_i, key in zip(weights[1:], keys):
            z = z + w_i * key.mean_array
        out.append(Tensor(z))
    return out
