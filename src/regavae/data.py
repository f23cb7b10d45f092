"""Corpus ingestion, whitespace tokenizer, and the bundled synthetic corpus.

Corpora are JSON-lines files with string fields "source" and "target". The
tokenizer is word-level with a frequency cutoff and <unk>; vocabulary order is
deterministic (by descending count, then alphabetically), so re-ingesting the
same file reproduces identical token ids.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InputError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
SPECIALS = ["<pad>", "<unk>", "<bos>", "<eos>"]


@dataclass
class CorpusPair:
    source_tokens: list[int]
    target_tokens: list[int]


class Tokenizer:
    """Whitespace word tokenizer over a fixed vocabulary."""

    def __init__(self, words: list[str]):
        self.words = SPECIALS + [w for w in words if w not in SPECIALS]
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def vocab_size(self) -> int:
        return len(self.words)

    @staticmethod
    def build(texts, min_count: int = 1) -> "Tokenizer":
        counts = Counter()
        for text in texts:
            counts.update(text.split())
        kept = sorted(
            (w for w, c in counts.items() if c >= min_count),
            key=lambda w: (-counts[w], w),
        )
        return Tokenizer(kept)

    def encode(self, text: str) -> list[int]:
        return [self.index.get(w, UNK) for w in text.split()]

    def decode(self, ids) -> str:
        return " ".join(self.words[i] for i in ids if i >= len(SPECIALS) or i == UNK)


def read_jsonl(path) -> list[tuple[int, dict]]:
    """The file's records, each with its line number (blank lines count)."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()  # at \n, \r\n or \r, as text mode splits
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InputError(f"{path}:{lineno}: not UTF-8 text ({e.reason})") from e
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as e:  # also an integer of more digits than int() takes
            raise InputError(f"{path}:{lineno}: invalid JSON ({getattr(e, 'msg', e)})") from e
        if not isinstance(rec, dict):
            raise InputError(f"{path}:{lineno}: not a JSON object")
        for field_name in ("source", "target"):
            if not isinstance(rec.get(field_name), str):
                raise InputError(f"{path}:{lineno}: missing string field {field_name!r}")
        records.append((lineno, rec))
    if not records:
        raise InputError(f"{path}: empty corpus")
    return records


def ingest(path, tokenizer: Tokenizer | None = None,
           min_count: int = 1) -> tuple[list[CorpusPair], Tokenizer]:
    """Load a JSONL corpus. When no tokenizer is given (training split), the
    vocabulary is built from this file with the frequency cutoff."""
    records = read_jsonl(path)
    if tokenizer is None:
        texts = [r["source"] for _, r in records] + [r["target"] for _, r in records]
        tokenizer = Tokenizer.build(texts, min_count=min_count)
        if tokenizer.vocab_size == len(SPECIALS):
            raise InputError(f"{path}: no word occurs at least min_count={min_count} times")
    pairs = []
    for lineno, rec in records:
        src = tokenizer.encode(rec["source"])
        tgt = tokenizer.encode(rec["target"])
        if not src or not tgt:
            raise InputError(f"{path}:{lineno}: empty source or target after tokenization")
        pairs.append(CorpusPair(src, tgt))
    return pairs, tokenizer


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, sort_keys=True) + "\n")


# The synthetic corpus's fixed shape: words per source signature, noise words
# per source, target length, shared target pool and each cluster's share of it.
_SIG_WORDS, _NOISE_WORDS, _TARGET_LEN, _TARGET_POOL, _TARGET_VOCAB = 3, 2, 6, 10, 4


def make_synthetic_corpus(seed: int = 0, n_clusters: int = 12,
                          train_per_cluster: int = 10,
                          eval_per_cluster: int = 3) -> tuple[list[dict], list[dict]]:
    """Clustered corpus: each cluster has a fixed source signature and a small
    target vocabulary drawn from a shared pool; sources add per-sample noise
    words, and each target is sampled token-by-token from the cluster
    vocabulary. Because the vocabularies overlap across clusters, a target
    prefix only partially identifies the cluster, so knowing the cluster (from
    the source, or from latent-space neighbors, which share it) reduces
    uncertainty at every target position."""
    rng = np.random.default_rng(seed)
    noise_pool = [f"n{i:02d}" for i in range(30)]
    word_pool = [f"t{i:02d}" for i in range(_TARGET_POOL)]
    clusters = []
    seen_vocabs = set()
    for c in range(n_clusters):
        signature = [f"s{c:02d}x{j}" for j in range(_SIG_WORDS)]
        while True:
            vocab = tuple(sorted(rng.choice(_TARGET_POOL, size=_TARGET_VOCAB,
                                            replace=False)))
            if vocab not in seen_vocabs:
                seen_vocabs.add(vocab)
                break
        clusters.append((signature, [word_pool[i] for i in vocab]))

    def sample(cluster_id: int) -> dict:
        signature, vocab = clusters[cluster_id]
        noise = list(rng.choice(noise_pool, size=_NOISE_WORDS, replace=False))
        words = list(signature) + noise
        rng.shuffle(words)
        target = list(rng.choice(vocab, size=_TARGET_LEN, replace=True))
        return {"source": " ".join(words), "target": " ".join(target)}

    train = [sample(c) for c in range(n_clusters) for _ in range(train_per_cluster)]
    evals = [sample(c) for c in range(n_clusters) for _ in range(eval_per_cluster)]
    return train, evals
