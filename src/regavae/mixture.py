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
It takes one document or a pack of them (see `model`); a training step is one
call over its whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ContractError, RetrievalError
from .model import ElboBreakdown, LatentGaussian, VaeModel, gaussian_kl_standard, is_pack
from .retrieval import RetrievalDatabase, layer_average, similarity, top_k, top_k_batch

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


def _softmax_weights(scores) -> np.ndarray:
    """Softmax over [1, scores...]; index 0 is the query, whose logit is 1."""
    logits = np.array([1.0] + list(scores))
    e = np.exp(logits - logits.max())
    return e / e.sum()


def mixture_weights(query: np.ndarray, retrieved: list[LatentGaussian]) -> np.ndarray:
    """Softmax over [1, cos(query, key_i)...]; index 0 is the query."""
    return _softmax_weights([similarity(query, g) for g in retrieved])


def _component(weights: np.ndarray, rng: np.random.Generator) -> int:
    """A hard categorical draw of a mixture component; one component needs none."""
    return 0 if weights.size == 1 else int(rng.choice(weights.size, p=weights))


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


def _check_database(db: RetrievalDatabase | None) -> None:
    if db is None or len(db) == 0:
        raise RetrievalError("retrieval requested but the database is empty")


def retrieve_mixture(posts: list[LatentGaussian], db: RetrievalDatabase, k: int,
                     exclude_id: int | None = None):
    """Top-k lookup plus softmax weights for one document's query posteriors.

    Returns (weights, retrieved keys, hit entries); with k=0 the mixture
    collapses to the query alone. The hits are records of `db.entries`, and
    their keys constant tensors between refreshes, so no grad flows into
    them.
    """
    if k == 0:
        return np.array([1.0]), [], []
    _check_database(db)
    hits = top_k(layer_average(posts)[0][0], db, k, exclude_id=exclude_id)
    return _softmax_weights([s for _, s in hits]), [e.key for e, _ in hits], [e for e, _ in hits]


def retrieve_mixtures(posts: list[LatentGaussian], db: RetrievalDatabase | None, k: int,
                      exclude_ids=None) -> list[tuple]:
    """Per row of a pack's posteriors, the mixture weights and the database
    rows of its top-k hits, from one batched top-k; the weights reuse the
    hits' cosine scores. exclude_ids holds one database row (or None) per
    query row, which that query does not retrieve."""
    n = np.atleast_2d(posts[0].mean_array).shape[0]
    if k == 0:
        return [(np.array([1.0]), [])] * n
    _check_database(db)
    return [(_softmax_weights(scores), rows)
            for rows, scores in top_k_batch(layer_average(posts)[0], db, k, exclude_ids)]


def regavae_loss(model: VaeModel, x_tokens, y_tokens,
                 db: RetrievalDatabase | None, k: int, beta: float,
                 rng, exclude_id=None,
                 kl_floor: float = 0.0) -> tuple[ElboBreakdown, Tensor]:
    """Training objective: reconstruction NLL plus beta-weighted KL. Per
    decoder layer, the latent is sampled from the mixture of that layer's query
    posterior and the retrieved document keys; the KL term keeps only the
    query component's KL to N(0, I) (the retrieved components and the weights
    are constants between refreshes). With k=0 (db may be None) the mixture
    is the query posterior alone and this is the plain-VAE ELBO.

    x_tokens and y_tokens are one document's sources and targets, or packs
    of them; for a pack, rng and exclude_id hold one generator and one
    database row (or None) per document, and the loss is the mean of the
    documents' losses. Each document draws from its own generator in a fixed
    order: per layer, the mixture component (when there are several), then
    eps.

    kl_floor > 0 enables free bits: each document's KL term is floored at
    kl_floor nats, so gradients stop pushing its posterior toward the prior
    once its KL is below the floor. This reserves a latent information budget
    and is the standard mitigation when annealing alone cannot prevent
    posterior collapse. The reported breakdown always carries the true KL."""
    if not is_pack(x_tokens):
        x_tokens, y_tokens, rng, exclude_id = [x_tokens], [y_tokens], [rng], [exclude_id]
    if len(rng) != len(x_tokens):
        raise ContractError(f"{len(rng)} generators for {len(x_tokens)} documents")
    posts = model.encode(x_tokens)
    mixes = retrieve_mixtures(posts, db, k, exclude_id)
    # Draw per document, then assemble each layer's (B, d_z) latents: query
    # rows reparameterize the posterior, rows that drew a retrieved key are
    # constants.
    n_docs, n_layers, d_z = len(mixes), len(posts), posts[0].dim
    eps = np.empty((n_layers, n_docs, d_z))
    fixed = np.zeros((n_layers, n_docs, d_z))
    keep = np.ones((n_layers, n_docs, 1))
    for b, ((weights, rows), gen) in enumerate(zip(mixes, rng)):
        for l in range(n_layers):
            idx = _component(weights, gen)
            eps[l, b] = gen.standard_normal(d_z)
            if idx > 0:
                row = rows[idx - 1]
                fixed[l, b] = db.means[row] + np.exp(db.log_vars[row] * 0.5) * eps[l, b]
                keep[l, b] = 0.0
    z_layers = []
    for l, g in enumerate(posts):
        z = g.mean + ag.exp(g.log_var * 0.5) * Tensor(eps[l])
        if not keep[l].all():
            z = z * Tensor(keep[l]) + Tensor(fixed[l])
        z_layers.append(z)
    nll = model.decode(z_layers, y_tokens)
    kl = sum((gaussian_kl_standard(g) for g in posts[1:]), gaussian_kl_standard(posts[0]))
    kl_term = ag.clamp(kl, kl_floor, _KL_CEIL) if kl_floor > 0.0 else kl
    total = ag.tensor_mean(nll + kl_term * beta)
    return ElboBreakdown(float(nll.data.mean()), float(kl.data.mean()), beta,
                         doc_recon=nll.data, doc_kl=kl.data), total


def mixture_mean_latents(model: VaeModel, x_tokens,
                         db: RetrievalDatabase | None, k: int,
                         posts: list[LatentGaussian] | None = None) -> list[Tensor]:
    """Deterministic per-layer latents for evaluation: the mixture expectation
    w_0 mu_l + sum_i w_i mu_key_i (posterior means, no sampling). For a pack
    (x_tokens a list of documents, or posts with one row per document), each
    latent has one row per document."""
    if posts is None:
        posts = model.encode(x_tokens)
    mixes = retrieve_mixtures(posts, db, k)
    w0 = np.array([[w[0]] for w, _ in mixes])
    # The keys are shared by every layer, so their weighted sum is too.
    retrieved = np.array([sum((w_i * db.means[row] for w_i, row in zip(w[1:], rows)),
                              np.zeros(posts[0].dim)) for w, rows in mixes])
    return [Tensor((w0 * np.atleast_2d(g.mean_array) + retrieved).reshape(g.mean.shape))
            for g in posts]
