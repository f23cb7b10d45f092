"""Latent-space retrieval database.

Each corpus pair is encoded in packs (source and target concatenated, so keys
carry continuation information) into one diagonal Gaussian per decoder layer;
a key, like a query, is their layer average. Queries score against key means
by cosine similarity with an exact full scan. A snapshot is immutable;
`maybe_refresh` re-encodes everything on a fixed training-step schedule and
returns a new snapshot.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import ByteReader, atomic_write
from .errors import (ConfigError, DegenerateInputError, DimensionError, InputError,
                     RetrievalError)
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
    """One immutable snapshot of the keys: its entries are not changed after
    the first `top_k`, which caches their ids, key means and mean norms."""

    entries: list[RetrievalEntry]
    snapshot_step: int
    refresh_interval: int
    _keys: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.refresh_interval < 1:
            raise ConfigError(f"refresh_interval must be positive, got {self.refresh_interval}")

    def __len__(self) -> int:
        return len(self.entries)

    def _key_matrix(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids (N,), key means (N, d_z), mean norms (N,)), built on first use
        rather than on construction, so loading a dump does not pay for it."""
        if self._keys is None:
            means = np.stack([e.key.mean_array for e in self.entries])
            self._keys = (np.array([e.id for e in self.entries]), means,
                          np.sqrt(np.einsum("ij,ij->i", means, means)))
        return self._keys


# Documents per `encode` call when keying a corpus. Bounded, because a pack's
# transient (rows, d_ff) and attention arrays grow with its documents; on the
# bundled config 16 is as fast as 64 with a third of the transient memory.
_PACK = 16


def layer_average(posts: list[LatentGaussian]) -> tuple[np.ndarray, np.ndarray]:
    """(B, d_z) means and log-vars of per-layer posteriors averaged over the
    layers: the keys of B documents, and by their means B queries."""
    avg = np.mean([(g.mean_array, g.log_var_array) for g in posts], axis=0)
    return tuple(avg.reshape(2, -1, avg.shape[-1]))


def _encode_entries(model: VaeModel, docs) -> list[RetrievalEntry]:
    """One entry per (id, source, target), keyed by the model's current posteriors."""
    entries = []
    for lo in range(0, len(docs), _PACK):
        pack = docs[lo:lo + _PACK]
        means, log_vars = layer_average(model.encode([[*s, *t] for _, s, t in pack]))
        entries += [RetrievalEntry(i, LatentGaussian.from_arrays(m, lv), s, t)
                    for (i, s, t), m, lv in zip(pack, means, log_vars)]
    return entries


def build_database(corpus, model: VaeModel, refresh_interval: int = 500,
                   snapshot_step: int = 0) -> RetrievalDatabase:
    """Encode every corpus pair into a RetrievalEntry whose id is its corpus
    index. Deterministic: keys are posterior means/log-variances, no sampling
    involved."""
    docs = [(i, list(p.source_tokens), list(p.target_tokens)) for i, p in enumerate(corpus)]
    if not docs:
        raise ConfigError("cannot build a retrieval database from an empty corpus")
    return RetrievalDatabase(_encode_entries(model, docs), snapshot_step, refresh_interval)


def similarity(query: np.ndarray, key: LatentGaussian) -> float:
    """Cosine similarity between the query vector and the key mean."""
    q = np.asarray(query, dtype=np.float64)
    m = key.mean_array
    qn = np.linalg.norm(q)
    mn = np.linalg.norm(m)
    if qn == 0.0 or mn == 0.0:
        raise DegenerateInputError("cosine similarity undefined for zero-norm vectors")
    return float(np.dot(q, m) / (qn * mn))


def top_k_batch(queries: np.ndarray, db: RetrievalDatabase, k: int,
                exclude_ids=None) -> list[list[tuple[RetrievalEntry, float]]]:
    """Exact top-k by cosine similarity for each row of `queries`, descending;
    ties break toward lower id. exclude_ids holds one entry id (or None) per
    row, which that row does not retrieve."""
    if not db.entries:
        raise RetrievalError("retrieval database is empty")
    ids, means, norms = db._key_matrix()
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1:] != means.shape[1:]:
        raise DimensionError(f"queries of shape {q.shape} against keys of dimension "
                             f"{means.shape[1]}")
    excl = [None] * len(q) if exclude_ids is None else list(exclude_ids)
    if len(excl) != len(q):
        raise DimensionError(f"{len(excl)} exclusions for {len(q)} queries")
    keep = np.array([ids != e if e is not None else np.ones(len(ids), dtype=bool)
                     for e in excl]).reshape(len(q), len(ids))
    avail = keep.sum(axis=1)
    qn = np.sqrt(np.einsum("bj,bj->b", q, q))
    zero = (qn == 0.0) | (keep & (norms == 0.0)).any(axis=1)
    if np.any(zero & (avail > 0)):
        raise DegenerateInputError("cosine similarity undefined for zero-norm vectors")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > avail.min():
        warnings.warn(f"k={k} exceeds database size {int(avail.min())}; clamping")
    # One einsum, not BLAS: a BLAS product may round equal rows differently
    # by their position, and equal keys must score equal for the id
    # tie-break. Excluded entries score -inf.
    scores = np.divide(np.einsum("bj,ij->bi", q, means), qn[:, None] * norms,
                       out=np.full(keep.shape, -np.inf), where=keep)
    out = []
    for row, n in zip(scores, avail):
        kk = min(k, int(n))
        if kk == 0:
            out.append([])
            continue
        kth = np.partition(row, len(row) - kk)[len(row) - kk]
        cand = np.flatnonzero(row >= kth)
        best = cand[np.lexsort((ids[cand], -row[cand]))[:kk]]
        out.append([(db.entries[i], float(row[i])) for i in best])
    return out


def top_k(query: np.ndarray, db: RetrievalDatabase, k: int,
          exclude_id: int | None = None) -> list[tuple[RetrievalEntry, float]]:
    """Exact top-k by cosine similarity, descending; ties break toward lower
    id. A batch of one for `top_k_batch`."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionError(f"query must be a vector, got shape {q.shape}")
    return top_k_batch(q[None], db, k, [exclude_id])[0]


def maybe_refresh(db: RetrievalDatabase, current_step: int, model: VaeModel) -> RetrievalDatabase:
    """Re-encode all keys if at least refresh_interval steps elapsed."""
    if current_step < db.snapshot_step:
        raise RetrievalError(
            f"current_step {current_step} precedes snapshot_step {db.snapshot_step}"
        )
    if current_step - db.snapshot_step < db.refresh_interval:
        return db
    docs = [(e.id, e.source_tokens, e.target_tokens) for e in db.entries]
    return RetrievalDatabase(_encode_entries(model, docs), current_step, db.refresh_interval)


# ---------------------------------------------------------------------------
# Dump format: magic, version u32, then header {d_z, n_entries, snapshot_step,
# refresh_interval} as u32/u64, then per entry: id u64, d_z key means f64le,
# d_z key log-vars f64le, source length u32 + ids u32le, target ditto; nothing
# after the last entry. Saves replace the file atomically.
# ---------------------------------------------------------------------------

def save_database(db: RetrievalDatabase, path) -> None:
    if not db.entries:
        raise RetrievalError("refusing to dump an empty database")
    d_z = db.entries[0].key.dim
    with atomic_write(path) as f:
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
    r = ByteReader(path, "database dump")
    if r.take(4) != _DB_MAGIC:
        raise InputError(f"{path} is not a retrieval database dump")
    version, d_z, n, snapshot_step, refresh_interval = struct.unpack("<IIIQI", r.take(24))
    if version != _DB_VERSION:
        raise InputError(f"unsupported database dump version {version}")
    # Per entry: id, key means and log-vars, source length in one take;
    # source ids plus target length in a second; target ids in a third.
    head = 8 + 16 * d_z + 4
    entries = []
    for _ in range(n):
        b = r.take(head)
        (eid,) = struct.unpack_from("<Q", b)
        key = np.frombuffer(b, dtype="<f8", count=2 * d_z, offset=8)
        (ln,) = struct.unpack_from("<I", b, head - 4)
        b = r.take(4 * ln + 4)
        source = np.frombuffer(b, dtype="<u4", count=ln).astype(int).tolist()
        (ln,) = struct.unpack_from("<I", b, 4 * ln)
        target = np.frombuffer(r.take(4 * ln), dtype="<u4").astype(int).tolist()
        entries.append(RetrievalEntry(int(eid), LatentGaussian.from_arrays(
            key[:d_z].copy(), key[d_z:].copy()), source, target))
    if not r.at_end():
        raise InputError(f"{path}: database dump has bytes after its last entry")
    return RetrievalDatabase(entries, int(snapshot_step), int(refresh_interval))
