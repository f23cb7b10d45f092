"""Evaluation metrics: ELBO-based perplexity, Self-BLEU, Dist-n, active units,
corpus BLEU and Rouge-L.

Perplexity is the exponentiated per-token bound (reconstruction NLL plus the
KL share), evaluated deterministically from posterior means, so it upper
bounds the true perplexity. BLEU uses add-one smoothing on orders >= 2 only:
a candidate with zero unigram overlap still scores 0, and identical sentences
score exactly 100.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InputError
from .mixture import mixture_mean_latents
from .model import VaeModel, gaussian_kl_standard, kept_tokens


# ---------------------------------------------------------------------------
# n-gram metrics
# ---------------------------------------------------------------------------

def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped(cand: Counter, best) -> tuple[int, int]:
    """Clipped matches and total of a candidate's n-gram counts `cand`, where
    best[gram] is the gram's largest count in any reference."""
    return sum(min(c, best[gram]) for gram, c in cand.items()), sum(cand.values())


def _closest_ref_len(cand_len: int, ref_lens) -> int:
    return min(ref_lens, key=lambda rl: (abs(rl - cand_len), rl))


_ORDERS = range(1, 5)  # BLEU-4: n-gram orders 1 to 4


def _bleu_from_stats(clipped, totals, cand_len: int, ref_len: int) -> float:
    log_p = 0.0
    for n, (c, t) in enumerate(zip(clipped, totals), start=1):
        if n == 1:
            if t == 0 or c == 0:
                return 0.0
            p = c / t
        else:
            p = (c + 1) / (t + 1)  # add-one smoothing on higher orders
        log_p += np.log(p)
    log_p /= len(clipped)
    bp = 1.0 if cand_len > ref_len else float(np.exp(1.0 - ref_len / max(cand_len, 1)))
    return 100.0 * bp * float(np.exp(log_p))


def self_bleu(generations) -> float:
    """Mean BLEU-4 of each generation against all the others, 0..100.

    Each generation's n-grams are counted once. Among the others, an
    n-gram's largest count is its largest count overall, except for the
    generation that holds that one, which gets the runner-up count."""
    generations = list(generations)
    if len(generations) < 2:
        raise InputError("self_bleu needs at least 2 generations")
    lengths = [len(g) for g in generations]
    counts = [[_ngrams(g, n) for g in generations] for n in _ORDERS]
    tops = []  # per order: n-gram -> (largest count, its generation, runner-up count)
    for per_gen in counts:
        top = {}
        for j, grams in enumerate(per_gen):
            for gram, c in grams.items():
                first, owner, second = top.get(gram, (0, -1, 0))
                top[gram] = (c, j, first) if c > first else (first, owner, max(second, c))
        tops.append(top)
    scores = []
    for i, cand_len in enumerate(lengths):
        stats = []
        for per_gen, top in zip(counts, tops):
            best = {gram: second if owner == i else first
                    for gram in per_gen[i] for first, owner, second in [top[gram]]}
            stats.append(_clipped(per_gen[i], best))
        clipped, totals = zip(*stats)
        scores.append(_bleu_from_stats(clipped, totals, cand_len, _closest_ref_len(
            cand_len, lengths[:i] + lengths[i + 1:])))
    return float(np.mean(scores))


def corpus_bleu(candidates, references) -> float:
    """Corpus-level smoothed BLEU-4 against one reference per candidate, 0..100."""
    candidates = list(candidates)
    references = list(references)
    if len(candidates) != len(references):
        raise InputError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise InputError("corpus_bleu needs a nonempty corpus")
    clipped = [0] * len(_ORDERS)
    totals = [0] * len(_ORDERS)
    for cand, ref in zip(candidates, references):
        for n in _ORDERS:
            c, t = _clipped(_ngrams(cand, n), _ngrams(ref, n))
            clipped[n - 1] += c
            totals[n - 1] += t
    return _bleu_from_stats(clipped, totals, sum(map(len, candidates)),
                            sum(map(len, references)))


def dist_n(generations, n: int = 2) -> float:
    """Unique-to-total n-gram ratio over the pooled generations, in [0, 1]."""
    generations = list(generations)
    if not generations:
        raise InputError("dist_n needs nonempty generations")
    unique = set()
    total = 0
    for g in generations:
        grams = _ngrams(g, n)
        unique.update(grams)
        total += sum(grams.values())
    if total == 0:
        raise InputError(f"no {n}-grams in the generations")
    return len(unique) / total


def rouge_l(candidate, reference) -> float:
    """Rouge-L F1 via longest common subsequence, 0..100."""
    candidate = list(candidate)
    reference = list(reference)
    if not candidate or not reference:
        raise InputError("rouge_l needs nonempty sequences")
    m, n = len(candidate), len(reference)
    dp = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if candidate[i - 1] == reference[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    lcs = int(dp[m, n])
    if lcs == 0:
        return 0.0
    prec = lcs / m
    rec = lcs / n
    return 100.0 * 2 * prec * rec / (prec + rec)


# ---------------------------------------------------------------------------
# Model-based metrics
# ---------------------------------------------------------------------------

def perplexity(model: VaeModel, dataset, posts, db=None, k: int = 0) -> float:
    """exp of the token-weighted per-token bound (NLL + KL share). Latents are
    the deterministic mixture means; k=0 uses the query posterior mean alone.
    `posts` are the posteriors of the dataset's sources from one `model.encode`
    of them as a pack; the targets are decoded as one pack."""
    dataset = list(dataset)
    if not dataset:
        raise InputError("perplexity over an empty dataset")
    sources = [p.source_tokens for p in dataset]
    targets = [p.target_tokens for p in dataset]
    z_layers = mixture_mean_latents(model, sources, db, k, posts=posts)
    nll = model.decode(z_layers, targets)
    kl = sum(gaussian_kl_standard(g).data for g in posts)
    # The tokens decode scored: each target as truncated, plus the end token.
    n_tok = np.array([kept_tokens(model.config, len(t)) + 1 for t in targets])
    return float(np.exp((nll.data * n_tok + kl).sum() / n_tok.sum()))


def heldout_kl(model: VaeModel, dataset) -> float:
    """Mean summed per-layer KL(q(z|x) || N(0,I)) over the dataset, in nats."""
    dataset = list(dataset)
    if not dataset:
        raise InputError("heldout_kl over an empty dataset")
    posts = model.encode([p.source_tokens for p in dataset])
    return float(np.mean(sum(gaussian_kl_standard(g).data for g in posts)))


def count_active_units(means: np.ndarray, threshold: float) -> int:
    """Dimensions of a (N, d) posterior-mean matrix with variance > threshold."""
    return int(np.sum(np.var(np.asarray(means, dtype=np.float64), axis=0) > threshold))


def active_units(model: VaeModel, dataset, threshold: float = 0.2, posts=None) -> int:
    """Latent dims whose posterior mean varies across the dataset, summed over
    layers. `posts` may hold the posteriors of the dataset's sources, encoded
    as one pack."""
    dataset = list(dataset)
    if len(dataset) < 2:
        raise InputError("active_units needs at least 2 examples")
    if posts is None:
        posts = model.encode([p.source_tokens for p in dataset])
    return sum(count_active_units(g.mean_array, threshold) for g in posts)


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    ppl: float
    self_bleu: float
    dist2: float
    au: int
    bleu: float
    rouge_l: float

    def __post_init__(self):
        if self.ppl < 1.0 - 1e-9:
            raise InputError(f"ppl below 1: {self.ppl}")
        for name, lo, hi in (("self_bleu", 0, 100), ("dist2", 0, 1),
                             ("bleu", 0, 100), ("rouge_l", 0, 100)):
            v = getattr(self, name)
            if not lo - 1e-9 <= v <= hi + 1e-9:
                raise InputError(f"{name}={v} outside [{lo}, {hi}]")
        if self.au < 0:
            raise InputError(f"negative au: {self.au}")

    def to_text(self) -> str:
        lines = []
        for key, val in asdict(self).items():
            lines.append(f"{key} {val:.6f}" if isinstance(val, float) else f"{key} {val}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "MetricReport":
        return MetricReport(**json.loads(text))
