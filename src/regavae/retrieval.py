"""Latent-space retrieval database.

Each corpus pair is encoded in packs (source and target concatenated, so keys
carry continuation information) into one diagonal Gaussian per decoder layer;
a key, like a query, is their layer average. Queries score against key means
by cosine similarity with an exact full scan. Entry i is corpus pair i: a row
index is an entry's only id. A snapshot is immutable and held as arrays;
`maybe_refresh` re-encodes every key on a fixed training-step schedule and
returns a new snapshot of the same rows and tokens.
"""

from __future__ import annotations

import hashlib
import itertools
import operator
import struct
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint import ByteReader, atomic_write
from .errors import (ConfigError, ContractError, DegenerateInputError, DimensionError,
                     InputError, RetrievalError)
from .model import LatentGaussian, VaeModel


@dataclass
class RetrievalEntry:
    """One key and its document: an input record of `RetrievalDatabase` and
    the type of `top_k`'s hits. `id` is the entry's row in the database."""

    id: int
    key: LatentGaussian
    source_tokens: list[int]
    target_tokens: list[int]


@dataclass(frozen=True)
class Ragged:
    """N token sequences as one flat array cut by (N+1) offsets."""

    offsets: np.ndarray
    flat: np.ndarray

    @staticmethod
    def pack(seqs) -> "Ragged":
        offsets = np.zeros(len(seqs) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, seqs), np.int64, len(seqs)), out=offsets[1:])
        return Ragged(offsets, np.fromiter(itertools.chain.from_iterable(seqs), np.uint32,
                                           int(offsets[-1])))

    def __getitem__(self, i: int) -> list[int]:
        return self.flat[self.offsets[i]:self.offsets[i + 1]].tolist()


class _Records(Sequence):
    """`RetrievalDatabase.entries`: record i is built from the arrays when it
    is first read and then kept, so reading a few records costs a few."""

    def __init__(self, db: "RetrievalDatabase"):
        self._arrays = (db.means, db.log_vars, db.sources, db.targets)
        self._made: list[RetrievalEntry | None] = [None] * len(db)

    def __len__(self) -> int:
        return len(self._made)

    def __getitem__(self, i: int) -> RetrievalEntry:
        record = self._made[operator.index(i)]  # a slice raises TypeError
        if record is None:
            i = range(len(self))[i]  # a negative i counts from the end
            means, log_vars, sources, targets = self._arrays
            record = self._made[i] = RetrievalEntry(i, LatentGaussian.from_arrays(
                means[i], log_vars[i]), sources[i], targets[i])
        return record


class RetrievalDatabase:
    """One immutable snapshot of N keys, held as read-only arrays indexed by
    row: key means and log-vars (N, d_z), the means' norms (N,), and the
    documents' source and target tokens (`Ragged`). Packs a list of
    `RetrievalEntry` records, whose ids must be their rows 0..N-1;
    `from_arrays` takes the arrays themselves and makes them read-only.
    `entries` gives the snapshot back as a read-only sequence of records
    (`_Records`), indexed by row."""

    def __init__(self, entries: list[RetrievalEntry], snapshot_step: int, refresh_interval: int):
        if [e.id for e in entries] != list(range(len(entries))):
            raise ContractError("entry ids must be their rows 0..N-1")
        shape = (len(entries), entries[0].key.dim if entries else 0)
        self._set(np.array([e.key.mean_array for e in entries], dtype=np.float64).reshape(shape),
                  np.array([e.key.log_var_array for e in entries],
                           dtype=np.float64).reshape(shape),
                  Ragged.pack([e.source_tokens for e in entries]),
                  Ragged.pack([e.target_tokens for e in entries]), snapshot_step, refresh_interval)

    @classmethod
    def from_arrays(cls, means, log_vars, sources: Ragged, targets: Ragged,
                    snapshot_step: int, refresh_interval: int) -> "RetrievalDatabase":
        db = cls.__new__(cls)
        db._set(means, log_vars, sources, targets, snapshot_step, refresh_interval)
        return db

    def _set(self, means, log_vars, sources, targets, snapshot_step, refresh_interval):
        if refresh_interval < 1:
            raise ConfigError(f"refresh_interval must be positive, got {refresh_interval}")
        self.means, self.log_vars = means, log_vars
        self.norms = np.sqrt(np.einsum("ij,ij->i", means, means))
        self.sources, self.targets = sources, targets
        for a in (means, log_vars, self.norms, sources.offsets, sources.flat,
                  targets.offsets, targets.flat):
            a.flags.writeable = False
        self.snapshot_step, self.refresh_interval = snapshot_step, refresh_interval
        self.entries = _Records(self)

    def __len__(self) -> int:
        return len(self.means)


# Documents per `encode` call when keying a corpus. Bounded, because a pack's
# transient (rows, d_ff) and attention arrays grow with its documents; on the
# bundled config 16 is as fast as 64 with a third of the transient memory.
_PACK = 16


def layer_average(posts: list[LatentGaussian]) -> tuple[np.ndarray, np.ndarray]:
    """(B, d_z) means and log-vars of per-layer posteriors averaged over the
    layers: the keys of B documents, and by their means B queries."""
    avg = np.mean([(g.mean_array, g.log_var_array) for g in posts], axis=0)
    return tuple(avg.reshape(2, -1, avg.shape[-1]))


def _encode_keys(model: VaeModel, sources: Ragged,
                 targets: Ragged) -> tuple[np.ndarray, np.ndarray]:
    """(N, d_z) key means and log-vars of N documents, each its source then
    its target, keyed by the model's current posteriors."""
    docs = [sources[i] + targets[i] for i in range(sources.offsets.size - 1)]
    means, log_vars = np.empty((2, len(docs), model.config.d_z))
    for lo in range(0, len(docs), _PACK):
        means[lo:lo + _PACK], log_vars[lo:lo + _PACK] = layer_average(
            model.encode(docs[lo:lo + _PACK]))
    return means, log_vars


def corpus_tokens(corpus) -> tuple[Ragged, Ragged]:
    """(sources, targets) of a database of `corpus`: pair i is row i."""
    return (Ragged.pack([p.source_tokens for p in corpus]),
            Ragged.pack([p.target_tokens for p in corpus]))


def token_digest(sources: Ragged, targets: Ragged) -> bytes:
    """SHA-256 of the rows' tokens, as a dump stores them: the fingerprint of
    the corpus a database was built from."""
    h = hashlib.sha256()
    for a, dtype in zip((sources.offsets, sources.flat, targets.offsets, targets.flat),
                        ("<i8", "<u4", "<i8", "<u4")):
        h.update(np.ascontiguousarray(a, dtype=dtype))
    return h.digest()


def build_database(corpus, model: VaeModel, refresh_interval: int = 500,
                   snapshot_step: int = 0) -> RetrievalDatabase:
    """Encode every corpus pair into a key whose row is its corpus index.
    Deterministic: keys are posterior means/log-variances, no sampling
    involved."""
    if not corpus:
        raise ConfigError("cannot build a retrieval database from an empty corpus")
    sources, targets = corpus_tokens(corpus)
    return RetrievalDatabase.from_arrays(*_encode_keys(model, sources, targets),
                                         sources, targets, snapshot_step, refresh_interval)


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
                exclude_ids=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact top-k by cosine similarity for each row of `queries`: per row,
    the hits' rows in the database and their scores, descending; ties break
    toward the lower row. exclude_ids holds one database row (or None) per
    query, which that query does not retrieve; a row outside 0..N-1 excludes
    nothing."""
    if len(db) == 0:
        raise RetrievalError("retrieval database is empty")
    means, norms = db.means, db.norms
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1:] != means.shape[1:]:
        raise DimensionError(f"queries of shape {q.shape} against keys of dimension "
                             f"{means.shape[1]}")
    excl = [None] * len(q) if exclude_ids is None else list(exclude_ids)
    if len(excl) != len(q):
        raise DimensionError(f"{len(excl)} exclusions for {len(q)} queries")
    keep = np.arange(len(db)) != np.array([-1 if e is None else e for e in excl])[:, None]
    avail = keep.sum(axis=1)
    qn = np.sqrt(np.einsum("bj,bj->b", q, q))
    zero = (qn == 0.0) | (keep & (norms == 0.0)).any(axis=1)
    if np.any(zero & (avail > 0)):
        raise DegenerateInputError("cosine similarity undefined for zero-norm vectors")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(q) == 0:
        return []
    if k > avail.min():
        warnings.warn(f"k={k} exceeds database size {int(avail.min())}; clamping")
    # One einsum, not BLAS: a BLAS product may round equal rows differently
    # by their position, and equal keys must score equal for the row
    # tie-break. Excluded entries score -inf.
    scores = np.divide(np.einsum("bj,ij->bi", q, means), qn[:, None] * norms,
                       out=np.full(keep.shape, -np.inf), where=keep)
    out = []
    for row, n in zip(scores, avail):
        kk = min(k, int(n))
        kth = np.partition(row, len(row) - kk)[len(row) - kk] if kk else np.inf
        cand = np.flatnonzero(row >= kth)
        best = cand[np.argsort(-row[cand], kind="stable")[:kk]]
        out.append((best, row[best]))
    return out


def top_k(query: np.ndarray, db: RetrievalDatabase, k: int,
          exclude_id: int | None = None) -> list[tuple[RetrievalEntry, float]]:
    """Exact top-k by cosine similarity, descending; ties break toward the
    lower row. A batch of one for `top_k_batch`, whose hits it returns as `entries`."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionError(f"query must be a vector, got shape {q.shape}")
    best, scores = top_k_batch(q[None], db, k, [exclude_id])[0]
    return [(db.entries[i], s) for i, s in zip(best, scores.tolist())]


def maybe_refresh(db: RetrievalDatabase, current_step: int, model: VaeModel) -> RetrievalDatabase:
    """Re-encode all keys if at least refresh_interval steps elapsed."""
    if current_step < db.snapshot_step:
        raise RetrievalError(
            f"current_step {current_step} precedes snapshot_step {db.snapshot_step}"
        )
    if current_step - db.snapshot_step < db.refresh_interval:
        return db
    return RetrievalDatabase.from_arrays(*_encode_keys(model, db.sources, db.targets),
                                         db.sources, db.targets, current_step,
                                         db.refresh_interval)


# ---------------------------------------------------------------------------
# Dump format, version 3, little-endian: an 80-byte header, then six blocks
# back to back and nothing after them. The header holds magic "RGDB", version
# u32, d_z u32, N u64, snapshot_step u64, refresh_interval u32, the source
# and target token counts u64, and `token_digest` (32 bytes). The blocks are
# key means f64 (N, d_z), key log-vars f64 (N, d_z), source offsets i64
# (N+1), source tokens u32, target offsets i64 (N+1), target tokens u32, each
# in row order; a row is an entry's id, so no id block is stored. A load
# checks the file's length against the header before it reads a block, then
# that each offset block starts at 0, never decreases and ends at its token
# count, then the digest. Saves replace the file atomically. Versions 1 and 2
# (which stored ids) are rejected with a message to rerun build-db.
# ---------------------------------------------------------------------------

_DB_MAGIC = b"RGDB"
_DB_VERSION = 3
_DB_HEADER = struct.Struct("<IQQIQQ32s")  # after magic and version
_DB_BLOCKS = tuple(map(np.dtype, ("<f8", "<f8", "<i8", "<u4", "<i8", "<u4")))


def save_database(db: RetrievalDatabase, path) -> None:
    if len(db) == 0:
        raise RetrievalError("refusing to dump an empty database")
    n, d_z = db.means.shape
    src, tgt = db.sources, db.targets
    with atomic_write(path) as f:
        f.write(_DB_MAGIC + struct.pack("<I", _DB_VERSION) + _DB_HEADER.pack(
            d_z, n, db.snapshot_step, db.refresh_interval, src.flat.size, tgt.flat.size,
            token_digest(src, tgt)))
        for a, dtype in zip((db.means, db.log_vars, src.offsets, src.flat, tgt.offsets,
                             tgt.flat), _DB_BLOCKS):
            f.write(np.ascontiguousarray(a, dtype=dtype))


def load_database(path, d_z: int | None = None) -> RetrievalDatabase:
    """The snapshot dumped at `path`. With d_z given, a dump of keys of
    another dimension raises InputError before its blocks are read."""
    r = ByteReader(path, "database dump", _DB_MAGIC, _DB_VERSION, "build-db")
    dim, n, snapshot_step, refresh_interval, n_src, n_tgt, digest = _DB_HEADER.unpack(
        r.take(_DB_HEADER.size))
    if d_z is not None and dim != d_z:
        raise InputError(f"{path}: database keys have dimension {dim}, but the "
                         f"checkpoint's latents have dimension {d_z}")
    counts = (n * dim, n * dim, n + 1, n_src, n + 1, n_tgt)
    means, log_vars, src_off, src_tok, tgt_off, tgt_tok = r.take_blocks(
        zip(counts, _DB_BLOCKS))
    for name, off, tok in (("source", src_off, src_tok), ("target", tgt_off, tgt_tok)):
        if off[0] != 0 or off[-1] != tok.size or np.any(off[1:] < off[:-1]):
            raise InputError(f"{path}: database dump {name} offsets do not run from 0 "
                             f"up to its {tok.size} tokens")
    sources, targets = Ragged(src_off, src_tok), Ragged(tgt_off, tgt_tok)
    if token_digest(sources, targets) != digest:
        raise InputError(f"{path}: database dump tokens do not match its digest")
    return RetrievalDatabase.from_arrays(means.reshape(n, dim), log_vars.reshape(n, dim),
                                         sources, targets, snapshot_step, refresh_interval)
