"""Tiny transformer VAE with per-layer latent injection.

The encoder is a bidirectional transformer whose mean-pooled output feeds one
posterior head per decoder layer, giving a diagonal Gaussian latent for each
layer. The decoder is causal; at every layer the hidden states h are fused
with that layer's latent z by a rank-r tensor-product fusion, the sum over j
of (W_v,j h) * (W_z,j z) elementwise (Liu et al. 2018; DELLA), which keeps
the decoder dependent on the latent and counteracts posterior collapse.

A document is a list of token ids; a pack is a list of documents. `encode`
and `decode` take either. A pack runs as one forward over the concatenated
rows of all its documents, with per-document offsets and no padding:
attention never crosses a document boundary, pooling is a per-document mean
and each row's latent gate is its own document's. A single document is a
pack of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import BOS, EOS, SPECIALS
from .errors import ConfigError, ContractError, InputError

LOG_VAR_MIN = -10.0
LOG_VAR_MAX = 10.0


@dataclass
class ModelConfig:
    vocab_size: int
    n_layers: int = 4
    d_h: int = 128
    n_heads: int = 4
    d_z: int = 32
    r_rank: int = 4
    max_seq_len: int = 128

    def __post_init__(self):
        # The vocabulary holds the specials; a sequence holds bos, a token and eos.
        for name, low in (("vocab_size", len(SPECIALS)), ("n_layers", 1), ("d_h", 1),
                          ("n_heads", 1), ("d_z", 1), ("r_rank", 1), ("max_seq_len", 3)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.d_h % self.n_heads != 0:
            raise ConfigError(f"d_h={self.d_h} not divisible by n_heads={self.n_heads}")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_h


def parameter_layout(config: ModelConfig):
    """Every parameter as (name, shape, init(rng, shape) -> starting value), in the
    order a new model draws them; lazy, so a caller sizing them can stop early."""
    c = config

    def normal(rng, shape, scale=0.02):
        return rng.standard_normal(shape) * scale

    def const(value):
        return lambda rng, shape: np.full(shape, value)

    def near_identity(rng, shape):
        return np.tile(np.eye(c.d_h) / c.r_rank, (c.r_rank, 1)) + normal(rng, shape)

    def unit_gate(rng, shape):
        return rng.standard_normal(shape) / np.sqrt(c.d_z)

    zeros, ones = const(0.0), const(1.0)

    yield "tok_emb", (c.vocab_size, c.d_h), normal
    yield "pos_emb", (c.max_seq_len + 1, c.d_h), normal
    for stack in ("enc", "dec"):
        for l in range(c.n_layers):
            p = f"{stack}.{l}"
            for w in ("wq", "wk", "wv", "wo"):
                yield f"{p}.attn.{w}", (c.d_h, c.d_h), normal
                if w != "wk":  # a key bias shifts a row's scores alike: softmax ignores it
                    yield f"{p}.attn.{w}_b", (c.d_h,), zeros
            yield f"{p}.ln1.g", (c.d_h,), ones
            yield f"{p}.ln1.b", (c.d_h,), zeros
            yield f"{p}.ff.w1", (c.d_ff, c.d_h), normal
            yield f"{p}.ff.b1", (c.d_ff,), zeros
            yield f"{p}.ff.w2", (c.d_h, c.d_ff), normal
            yield f"{p}.ff.b2", (c.d_h,), zeros
            yield f"{p}.ln2.g", (c.d_h,), ones
            yield f"{p}.ln2.b", (c.d_h,), zeros
        yield f"{stack}.lnf.g", (c.d_h,), ones
        yield f"{stack}.lnf.b", (c.d_h,), zeros
    for l in range(c.n_layers):
        # Posterior heads start with unit variance (log-variance exactly 0)
        # and input-dependent means at O(0.3) scale. A zero mean head leaves
        # the latent no input signal, and the decoder gate can absorb any
        # rescaling of the latent, so training largely keeps the scale that
        # initialization sets: O(0.3) keeps posterior means measurable.
        yield f"post.{l}.w_mu", (c.d_z, c.d_h), lambda rng, shape: normal(rng, shape, 0.3)
        yield f"post.{l}.b_mu", (c.d_z,), zeros
        yield f"post.{l}.w_lv", (c.d_z, c.d_h), zeros
        yield f"post.{l}.b_lv", (c.d_z,), zeros
        # Rank j's maps are rows j*d_h:(j+1)*d_h. W_v,j starts near I/r, so
        # the rank sum starts near identity; W_z is unit-variance, so each
        # rank's gate has O(1) scale and the decoder feels the latent from
        # step one (the annealing warmup lets posterior variances shrink
        # before the KL weight bites, so the gate does not stay noisy).
        yield f"inj.{l}.w_v", (c.r_rank * c.d_h, c.d_h), near_identity
        yield f"inj.{l}.w_z", (c.r_rank * c.d_h, c.d_z), unit_gate


@dataclass
class LatentGaussian:
    """Diagonal Gaussian over the latent space; with 2-D parameters, one
    Gaussian per row (per document of a pack)."""

    mean: Tensor
    log_var: Tensor

    def __post_init__(self):
        if self.mean.shape != self.log_var.shape or self.mean.ndim not in (1, 2):
            raise ContractError(
                f"mean/log_var must be equal-shape vectors or row stacks, got "
                f"{self.mean.shape} vs {self.log_var.shape}"
            )

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]

    @property
    def mean_array(self) -> np.ndarray:
        return self.mean.data

    @property
    def log_var_array(self) -> np.ndarray:
        return self.log_var.data

    @staticmethod
    def from_arrays(mean: np.ndarray, log_var: np.ndarray) -> "LatentGaussian":
        return LatentGaussian(Tensor(np.asarray(mean, dtype=np.float64)),
                              Tensor(np.asarray(log_var, dtype=np.float64)))


@dataclass
class ElboBreakdown:
    """Per-batch training signal: reconstruction NLL, KL, annealing weight.
    recon_nll and kl are means over the batch's documents; doc_recon and
    doc_kl hold each document's own values, in batch order."""

    recon_nll: float
    kl: float
    beta: float
    total: float = field(init=False)
    doc_recon: np.ndarray | None = field(default=None, repr=False, compare=False)
    doc_kl: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.total = self.recon_nll + self.beta * self.kl


def gaussian_kl_standard(g: LatentGaussian) -> Tensor:
    """Closed-form KL(g || N(0, I)) in nats, differentiable: a scalar, or
    one value per row for a row stack."""
    var = ag.exp(g.log_var)
    terms = var + g.mean * g.mean - 1.0 - g.log_var
    return ag.tensor_sum(terms, axis=-1) * 0.5


def kept_tokens(config: ModelConfig, n: int) -> int:
    """How many of a source's or target's n tokens `encode` and `decode`
    keep: at most max_seq_len - 2, which leaves room for bos and eos."""
    return min(n, config.max_seq_len - 2)


def is_pack(tokens) -> bool:
    """True for a list of documents, False for one document's token ids."""
    return len(tokens) > 0 and isinstance(tokens[0], (list, tuple, np.ndarray))


def _offsets(seqs) -> np.ndarray:
    """Row boundaries (B+1,) of the sequences laid end to end."""
    return np.concatenate([[0], np.cumsum([len(x) for x in seqs])])


@dataclass
class _LayerCache:
    """One decoder layer's state during incremental decoding: its latent gate and
    the attention keys/values of every position so far, as arrays (no tape runs)."""

    gate: Tensor
    keys: np.ndarray
    values: np.ndarray


class VaeModel:
    """Encoder/decoder VAE over token sequences. Each parameter is a C-ordered view of
    one float64 buffer, `flat`, in `parameter_layout` order: drawn from `seed` or passed in."""

    def __init__(self, config: ModelConfig, seed: int = 0, flat: np.ndarray | None = None):
        self.config = config
        layout = list(parameter_layout(config))
        ends = np.cumsum([math.prod(shape) for _, shape, _ in layout])
        self.flat = np.empty(ends[-1]) if flat is None else flat
        rng = np.random.default_rng(seed) if flat is None else None
        self.params: dict[str, Tensor] = {}
        for (name, shape, init), v in zip(layout, np.split(self.flat, ends[:-1])):
            self.params[name] = Tensor(v.reshape(shape), requires_grad=True)
            if rng is not None:  # each draw goes straight into its slice
                self.params[name].data[...] = init(rng, shape)

    # -- transformer pieces --------------------------------------------------

    def _embed(self, ids, offsets: np.ndarray, start: int = 0) -> Tensor:
        """Token plus position embeddings; the rows of each segment of
        `offsets` sit at positions start, start+1, ..."""
        pos = np.arange(len(ids)) - np.repeat(offsets[:-1], np.diff(offsets)) + start
        return ag.embedding_lookup(self.params["tok_emb"], ids) + ag.embedding_lookup(
            self.params["pos_emb"], pos
        )

    def _attention(self, h: Tensor, prefix: str, causal: bool, offsets: np.ndarray,
                   cache: _LayerCache | None = None, start: int = 0) -> Tensor:
        """Multi-head self-attention within each segment of the rows of `h`
        (`offsets`), whose rows sit at positions start, start+1, ... With a
        cache (one segment), the keys and values of the positions before
        `start` come from it, and this call's are appended."""
        p = self.params
        q = ag.linear(h, p[f"{prefix}.attn.wq"], p[f"{prefix}.attn.wq_b"])
        k = ag.linear(h, p[f"{prefix}.attn.wk"])
        v = ag.linear(h, p[f"{prefix}.attn.wv"], p[f"{prefix}.attn.wv_b"])
        if cache is not None:
            cache.keys = np.concatenate([cache.keys, k.data])
            cache.values = np.concatenate([cache.values, v.data])
            k, v = Tensor(cache.keys), Tensor(cache.values)
        o = ag.attention(q, k, v, offsets, causal, start, self.config.n_heads)
        return ag.linear(o, p[f"{prefix}.attn.wo"], p[f"{prefix}.attn.wo_b"])

    def _ff(self, h: Tensor, prefix: str) -> Tensor:
        p = self.params
        u = ag.gelu(ag.linear(h, p[f"{prefix}.ff.w1"], p[f"{prefix}.ff.b1"]))
        return ag.linear(u, p[f"{prefix}.ff.w2"], p[f"{prefix}.ff.b2"])

    def _block(self, h: Tensor, prefix: str, causal: bool, offsets: np.ndarray,
               cache: _LayerCache | None = None, start: int = 0) -> Tensor:
        p = self.params
        h = h + self._attention(
            ag.layer_norm(h, p[f"{prefix}.ln1.g"], p[f"{prefix}.ln1.b"]), prefix, causal,
            offsets, cache, start
        )
        h = h + self._ff(ag.layer_norm(h, p[f"{prefix}.ln2.g"], p[f"{prefix}.ln2.b"]), prefix)
        return h

    def _prepare_ids(self, tokens, name: str) -> list[int]:
        tokens = list(tokens)
        if len(tokens) == 0:
            raise InputError(f"empty token sequence for {name}")
        keep = kept_tokens(self.config, len(tokens))
        if keep < len(tokens):
            warnings.warn(f"{name} truncated from {len(tokens)} to {keep} tokens")
            tokens = tokens[:keep]
        return tokens

    # -- VAE operations ------------------------------------------------------

    def encode(self, tokens) -> list[LatentGaussian]:
        """Per-decoder-layer diagonal posteriors from the pooled encoder state:
        vectors for one document, one row per document for a pack."""
        c = self.config
        p = self.params
        pack = is_pack(tokens)
        seqs = [[BOS] + self._prepare_ids(t, "encoder input") + [EOS]
                for t in (tokens if pack else [tokens])]
        offsets = _offsets(seqs)
        h = self._embed([i for s in seqs for i in s], offsets)
        for l in range(c.n_layers):
            h = self._block(h, f"enc.{l}", False, offsets)
        h = ag.layer_norm(h, p["enc.lnf.g"], p["enc.lnf.b"])
        pooled = ag.segment_mean(h, offsets)
        posts = []
        for l in range(c.n_layers):
            mu = ag.linear(pooled, p[f"post.{l}.w_mu"], p[f"post.{l}.b_mu"])
            lv = ag.clamp(ag.linear(pooled, p[f"post.{l}.w_lv"], p[f"post.{l}.b_lv"]),
                          LOG_VAR_MIN, LOG_VAR_MAX)
            if not pack:
                mu, lv = ag.reshape(mu, (c.d_z,)), ag.reshape(lv, (c.d_z,))
            posts.append(LatentGaussian(mu, lv))
        return posts

    def inject_latent(self, v: Tensor, z: Tensor, layer: int,
                      offsets: np.ndarray | None = None) -> Tensor:
        """Rank-r fusion sum_j (W_v,j v_i) * (W_z,j z), rank j being rows
        j*d_h:(j+1)*d_h of `inj.{layer}.w_v`/`.w_z`. A (B, d_z) stack of latents
        gives row i of v the latent of the segment of `offsets` it lies in."""
        c = self.config
        if not 0 <= layer < c.n_layers:
            raise ContractError(f"layer {layer} out of range for {c.n_layers} layers")
        gate = ag.linear(z, self.params[f"inj.{layer}.w_z"])  # every W_z,j z, side by side
        if z.ndim == 2:
            seg = np.repeat(np.arange(z.shape[0]), np.diff(offsets))
            gate = ag.embedding_lookup(gate, seg)
        return self._fuse(v, gate, layer)

    def _fuse(self, v: Tensor, gate: Tensor, layer: int) -> Tensor:
        """The sum over ranks j of columns j*d_h:(j+1)*d_h of (W_v v) * gate."""
        prod = ag.linear(v, self.params[f"inj.{layer}.w_v"]) * gate
        return ag.tensor_sum(ag.reshape(prod, (v.shape[0], -1, self.config.d_h)), axis=1)

    def _check_latents(self, z_layers: list[Tensor], batch: int | None = None) -> None:
        c = self.config
        if len(z_layers) != c.n_layers:
            raise ContractError(f"expected {c.n_layers} latents, got {len(z_layers)}")
        want = (c.d_z,) if batch is None else (batch, c.d_z)
        for l, z in enumerate(z_layers):
            if z.shape != want:
                raise ContractError(f"latent {l} has shape {z.shape}, expected {want}")

    def _decoder_logits(self, z_layers: list[Tensor], inputs: list[int],
                        cache: list[_LayerCache] | None = None, start: int = 0,
                        offsets: np.ndarray | None = None) -> Tensor:
        """Causal decoder forward: embed, fuse each layer's latent, causal
        block, final layer norm, logits tied to the token embedding.

        `inputs` are the rows of the segments that `offsets` cuts them into
        (one segment when None), each at positions start, start+1, ...;
        a (B, d_z) latent per layer gives segment i its row i. Without a
        cache they start at 0. With one (one `_LayerCache` per layer, one
        segment), the earlier positions' keys and values and each layer's
        latent gate come from it, and only the new rows are computed."""
        c = self.config
        if offsets is None:
            offsets = np.array([0, len(inputs)])
        h = self._embed(inputs, offsets, start)
        for l in range(c.n_layers):
            layer_cache = None if cache is None else cache[l]
            # Residual fusion keeps the token signal intact when z is noisy.
            if layer_cache is None:
                h = h + self.inject_latent(h, z_layers[l], l, offsets)
            else:
                h = h + self._fuse(h, layer_cache.gate, l)
            h = self._block(h, f"dec.{l}", True, offsets, layer_cache, start)
        h = ag.layer_norm(h, self.params["dec.lnf.g"], self.params["dec.lnf.b"])
        return ag.linear(h, self.params["tok_emb"])

    def decode(self, z_layers: list[Tensor], target_tokens) -> tuple[Tensor, Tensor]:
        """Teacher-forced causal decode; returns (logits, mean NLL in nats).
        For a pack of B targets, each latent is (B, d_z) and the NLL is each
        target's own mean, shape (B,)."""
        c = self.config
        pack = is_pack(target_tokens)
        targets = [self._prepare_ids(t, "decoder target")
                   for t in (target_tokens if pack else [target_tokens])]
        self._check_latents(z_layers, len(targets) if pack else None)
        inputs = [[BOS] + t for t in targets]
        offsets = _offsets(inputs)
        logits = self._decoder_logits(z_layers, [i for s in inputs for i in s],
                                      offsets=offsets)
        nll = ag.cross_entropy_with_logits(logits, [i for t in targets for i in t + [EOS]],
                                           offsets if pack else None)
        return logits, nll

    def elbo_step(self, x_tokens: list[int], y_tokens: list[int], beta: float,
                  rng: np.random.Generator,
                  kl_floor: float = 0.0) -> tuple[ElboBreakdown, Tensor]:
        """Plain-VAE objective: `mixture.regavae_loss` with no retrieved
        neighbours (k=0), i.e. reconstruction NLL plus beta-weighted KL to
        N(0, I), with free bits when kl_floor > 0."""
        from .mixture import regavae_loss  # mixture imports this module

        return regavae_loss(self, x_tokens, y_tokens, None, 0, beta, rng, kl_floor=kl_floor)

    def generate(self, z_layers: list[Tensor], max_len: int, strategy: str = "greedy",
                 rng: np.random.Generator | None = None, top_k: int = 10) -> list[int]:
        """Autoregressive decoding until EOS or max_len tokens. Each step
        decodes only the newest token, attending over cached keys/values."""
        c = self.config
        if strategy not in ("greedy", "top_k"):
            raise ContractError(f"unknown decoding strategy {strategy!r}")
        if strategy == "top_k" and rng is None:
            raise ContractError("top_k sampling requires an rng")
        if strategy == "top_k" and top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {top_k}")
        self._check_latents(z_layers)
        # z is fixed for the whole call, so each layer's gate is computed once.
        cache = [_LayerCache(ag.linear(z, self.params[f"inj.{l}.w_z"]),
                             np.empty((0, c.d_h)), np.empty((0, c.d_h)))
                 for l, z in enumerate(z_layers)]
        out: list[int] = []
        for _ in range(max_len):
            pos = len(out)  # position of the newest input, bos at 0
            if pos >= c.max_seq_len:
                break
            last = out[-1] if out else BOS
            logits = self._decoder_logits(z_layers, [last], cache, pos).data[-1]
            if strategy == "greedy":
                nxt = int(np.argmax(logits))
            else:
                k = min(top_k, logits.size)
                cand = np.argsort(-logits, kind="stable")[:k]
                probs = np.exp(logits[cand] - logits[cand].max())
                probs /= probs.sum()
                nxt = int(rng.choice(cand, p=probs))
            if nxt == EOS:
                break
            out.append(nxt)
        return out

