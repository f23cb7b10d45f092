"""Latent-space retrieval database.

Each corpus pair is encoded (source and target concatenated, so keys carry
continuation information) into one diagonal Gaussian per decoder layer; the
stored key is the layer-average of those posteriors. Queries score against key
means by cosine similarity with an exact full scan. A snapshot is immutable;
`maybe_refresh` re-encodes everything on a fixed training-step schedule and
returns a new snapshot.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInputError, InputError, RetrievalError
from .model import LatentGaussian, VaeModel

_DB_MAGIC = b"RGDB"
_DB_VERSION = 1


@dataclass
class RetrievalEntry:
    id: int
    key: LatentGaussian
    source_tokens: list[int]
    target_tokens: list[int]


@dataclass
class RetrievalDatabase:
    entries: list[RetrievalEntry]
    snapshot_step: int
    refresh_interval: int

    def __post_init__(self):
        if self.refresh_interval < 1:
            raise ConfigError(f"refresh_interval must be positive, got {self.refresh_interval}")

    def __len__(self) -> int:
        return len(self.entries)


def document_posterior(model: VaeModel, source_tokens: list[int],
                       target_tokens: list[int]) -> LatentGaussian:
    """Layer-averaged posterior of the concatenated source+target document."""
    posts = model.encode(list(source_tokens) + list(target_tokens))
    mean = np.mean([g.mean_array for g in posts], axis=0)
    log_var = np.mean([g.log_var_array for g in posts], axis=0)
    return LatentGaussian.from_arrays(mean, log_var)


def build_database(corpus, model: VaeModel, refresh_interval: int = 500,
                   snapshot_step: int = 0) -> RetrievalDatabase:
    """Encode every corpus pair into a RetrievalEntry. Deterministic: keys are
    posterior means/log-variances, no sampling involved."""
    corpus = list(corpus)
    if not corpus:
        raise ConfigError("cannot build a retrieval database from an empty corpus")
    entries = []
    for i, pair in enumerate(corpus):
        key = document_posterior(model, pair.source_tokens, pair.target_tokens)
        entries.append(RetrievalEntry(i, key, list(pair.source_tokens), list(pair.target_tokens)))
    return RetrievalDatabase(entries, snapshot_step, refresh_interval)


def similarity(query: np.ndarray, key: LatentGaussian) -> float:
    """Cosine similarity between the query vector and the key mean."""
    q = np.asarray(query, dtype=np.float64)
    m = key.mean_array
    qn = np.linalg.norm(q)
    mn = np.linalg.norm(m)
    if qn == 0.0 or mn == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm vectors")
    return float(np.dot(q, m) / (qn * mn))


def top_k(query: np.ndarray, db: RetrievalDatabase, k: int,
          exclude_id: int | None = None) -> list[tuple[RetrievalEntry, float]]:
    """Exact top-k by cosine similarity, descending; ties break toward lower id."""
    if not db.entries:
        raise RetrievalError("retrieval database is empty")
    scored = [
        (e, similarity(query, e.key))
        for e in db.entries
        if exclude_id is None or e.id != exclude_id
    ]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(scored):
        warnings.warn(f"k={k} exceeds database size {len(scored)}; clamping")
        k = len(scored)
    scored.sort(key=lambda es: (-es[1], es[0].id))
    return scored[:k]


def maybe_refresh(db: RetrievalDatabase, current_step: int, model: VaeModel) -> RetrievalDatabase:
    """Re-encode all keys if at least refresh_interval steps elapsed."""
    if current_step < db.snapshot_step:
        raise RetrievalError(
            f"current_step {current_step} precedes snapshot_step {db.snapshot_step}"
        )
    if current_step - db.snapshot_step < db.refresh_interval:
        return db
    entries = [
        RetrievalEntry(
            e.id,
            document_posterior(model, e.source_tokens, e.target_tokens),
            e.source_tokens,
            e.target_tokens,
        )
        for e in db.entries
    ]
    return RetrievalDatabase(entries, current_step, db.refresh_interval)


# ---------------------------------------------------------------------------
# Dump format: magic, version u32, then header {d_z, n_entries, snapshot_step,
# refresh_interval} as u32/u64, then per entry: id u64, d_z key means f64le,
# d_z key log-vars f64le, source length u32 + ids u32le, target ditto.
# ---------------------------------------------------------------------------

def save_database(db: RetrievalDatabase, path) -> None:
    if not db.entries:
        raise RetrievalError("refusing to dump an empty database")
    d_z = db.entries[0].key.dim
    with open(path, "wb") as f:
        f.write(_DB_MAGIC)
        f.write(struct.pack("<IIIQI", _DB_VERSION, d_z, len(db.entries),
                            db.snapshot_step, db.refresh_interval))
        for e in db.entries:
            f.write(struct.pack("<Q", e.id))
            f.write(e.key.mean_array.astype("<f8").tobytes())
            f.write(e.key.log_var_array.astype("<f8").tobytes())
            for toks in (e.source_tokens, e.target_tokens):
                f.write(struct.pack("<I", len(toks)))
                f.write(np.asarray(toks, dtype="<u4").tobytes())


def load_database(path) -> RetrievalDatabase:
    truncated = f"{path}: database dump is truncated"
    with open(path, "rb") as f:
        if f.read(4) != _DB_MAGIC:
            raise InputError(f"{path} is not a retrieval database dump")
        b = f.read(24)
        if len(b) != 24:
            raise InputError(truncated)
        version, d_z, n, snapshot_step, refresh_interval = struct.unpack("<IIIQI", b)
        if version != _DB_VERSION:
            raise InputError(f"unsupported database dump version {version}")
        # Per entry: id, key means and log-vars, source length in one read;
        # source ids plus target length in a second; target ids in a third.
        head = 8 + 16 * d_z + 4
        entries = []
        for _ in range(n):
            b = f.read(head)
            if len(b) != head:
                raise InputError(truncated)
            (eid,) = struct.unpack_from("<Q", b)
            key = np.frombuffer(b, dtype="<f8", count=2 * d_z, offset=8)
            (ln,) = struct.unpack_from("<I", b, head - 4)
            b = f.read(4 * ln + 4)
            if len(b) != 4 * ln + 4:
                raise InputError(truncated)
            source = np.frombuffer(b, dtype="<u4", count=ln).astype(int).tolist()
            (ln,) = struct.unpack_from("<I", b, 4 * ln)
            b = f.read(4 * ln)
            if len(b) != 4 * ln:
                raise InputError(truncated)
            target = np.frombuffer(b, dtype="<u4").astype(int).tolist()
            entries.append(RetrievalEntry(int(eid), LatentGaussian.from_arrays(
                key[:d_z].copy(), key[d_z:].copy()), source, target))
    return RetrievalDatabase(entries, int(snapshot_step), int(refresh_interval))
