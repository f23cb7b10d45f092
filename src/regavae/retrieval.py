"""Latent-space retrieval database.

Each corpus pair is encoded in packs (source and target concatenated, so keys
carry continuation information) into one diagonal Gaussian per decoder layer;
a key, like a query, is their layer average. Top-k by cosine similarity is
exact: a float32 BLAS product with cached unit keys picks candidates within a
proven rounding margin of a lower bound of each query's k-th score, and only
those are rescored, with the same bits as a full scan, and selected. Entry i
is corpus pair i: a row index is an entry's only id. A snapshot is immutable
and held as arrays; `maybe_refresh` re-encodes every key on a fixed
training-step schedule and returns a new snapshot of the same rows and tokens.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
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

# `top_k_batch` is proven exact for query and key norms in this range: their
# squares and the products of two of them are normal, finite floats.
_MIN_NORM, _MAX_NORM = 2.0**-500, 2.0**500
_RANGE = "a component is not finite or the norm is outside [2**-500, 2**500]"


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
    (`_Records`), indexed by row. The unit keys of `top_k_batch`'s prefilter
    are built at the first query (`_unit_keys`), so a load pays nothing for
    them."""

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

    @functools.cached_property
    def _unit_keys(self) -> tuple[np.ndarray, frozenset]:
        """Read-only (d_z, N) float32 means / norms, transposed so that a
        query's product streams one row per component, with zero-norm keys
        0, and the set of zero-norm rows. A key with a non-finite component
        or a nonzero norm outside `top_k_batch`'s proven range raises
        DegenerateInputError."""
        zero = self.norms == 0.0
        bad = np.flatnonzero(~(zero | ((self.norms >= _MIN_NORM) & (self.norms <= _MAX_NORM))))
        if bad.size:
            raise DegenerateInputError(f"key {bad[0]} has norm {self.norms[bad[0]]}: {_RANGE}")
        units = self.means / np.where(zero, 1.0, self.norms)[:, None]
        units[zero] = 0.0
        units = np.ascontiguousarray(units.T, dtype=np.float32)
        units.flags.writeable = False
        return units, frozenset(np.flatnonzero(zero).tolist())


# Documents per `encode` call when keying a corpus. Bounded, because a pack's
# transient (rows, d_ff) and attention arrays grow with its documents; on the
# bundled config 16 is as fast as 64 with a third of the transient memory.
_PACK = 16


def layer_average(posts: list[LatentGaussian]) -> tuple[np.ndarray, np.ndarray]:
    """(B, d_z) means and log-vars of per-layer posteriors averaged over the
    layers: the keys of B documents, and by their means B queries."""
    # np.mean's own steps, without its wrapper: the same bits.
    avg = np.add.reduce(np.array([(g.mean_array, g.log_var_array) for g in posts]), axis=0)
    avg /= len(posts)
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
    nothing. A query or key with a non-finite component or a nonzero norm
    outside [2**-500, 2**500] raises DegenerateInputError.

    A score is s = E / (Q·N): E the `einsum` dot product of query q and key
    mean m, Q and N their norms as computed. One `einsum` gives each score
    the same bits at any row of any key subset (a test pins this), so equal
    keys score equal for the row tie-break; a BLAS product may round equal
    rows differently by their position. So a BLAS product only prefilters,
    in float32: A = fl32(q / Q)·U with the float32 unit keys
    U = fl32(m / N) (`_unit_keys`). The keys 0..G·S-1 form G groups of S
    keys, key i in group i mod G, with S = max(1, isqrt(N // k)) and
    G = N // S. A row's threshold t is the k-th largest of its group maxima
    of A, and the row keeps every key whose A is at least t − 2δ, with
    2δ = 32(d+2)u, d = d_z and u = 2**-24; only these candidates are scored
    and selected. For k ≤ N, S² ≤ N/k gives G ≥ kS ≥ k; for k > N, S = 1
    and t is the row's smallest A.

    Proof that no hit is lost. Let r = (q/Q)·(m/N) in exact arithmetic,
    v = 2**-53, and γ_d(w) = dw/(1 − dw) the error bound of a d-term dot
    product rounded at unit w in any order. For d < 2**20, dw ≤ 2**-4:
    - |s − r| ≤ (d+2)v(1 + O(dv)): N = fl(sqrt(fl(Σm²))) with the sum within
      γ_d(v), so ‖m‖ ≤ N(1 + (d/2+1)v), likewise ‖q‖ ≤ Q(1 + (d/2+1)v); E
      is within γ_d(v)‖q‖‖m‖ of q·m, and the product Q·N and the divide
      each round by at most v.
    - A component of fl32(q/Q) or of U is rounded twice, through float64,
      so it lies within (u+v)(1+u) of its exact value relatively, or within
      ω = 2**-126 absolutely where it underflows, gradually or flushed. So
      the two float32 vectors' exact dot product is within
      2(u+v)(1+u)(1 + 2u) + 3√d·ω of r, and each has a norm below 1 + 2u.
    - BLAS adds at most γ_d(u)(1 + 2u)² ≤ 1.07du(1 + 5u), and an
      underflowed product or partial sum at most 2dω more.
    So |A − s| ≤ e < 1.1(d+2)u + (d+2)v < 2(d+2)u, and |A| < 2. Let j be a
    true hit of row i and k ≤ N. The maxima of the k groups that give the
    k largest group maxima are k distinct keys with A ≥ t. Of those keys,
    j is one, or one key l ranks below j (at most k − 1 keys rank above
    it), so s_l ≤ s_j; then A_j ≥ s_j − e ≥ s_l − e ≥ A_l − 2e ≥ t − 2e.
    The threshold is the float32 t − 2δ (2δ is exact in float32) rounded
    to nearest and then stepped one float32 toward −∞, so it is at most
    t − 2δ < t − 2e ≤ A_j, and j is a candidate. The threshold is float32,
    so comparing it with A reads A as stored. The norm range keeps Q², N²
    and Q·N normal and finite (Q·N ≤ 2**1000), and an underflowed product
    in E moves it by at most 2**-1075, under 2**-75 of s's scale after the
    division by Q·N ≥ 2**-1000.
    An excluded key scores −inf in A and s alike; where k exceeds a row's
    key count, t is −inf (a finite t has k keys above it, none excluded)
    or the row's smallest A, so every key a row can return is a candidate.
    Candidates are in ascending row order, so one stable sort of −s selects
    as a full scan would. A larger δ only adds candidates."""
    n = len(db)
    if n == 0:
        raise RetrievalError("retrieval database is empty")
    means, norms = db.means, db.norms
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1:] != means.shape[1:]:
        raise DimensionError(f"queries of shape {q.shape} against keys of dimension "
                             f"{means.shape[1]}")
    excl = [None] * len(q) if exclude_ids is None else list(exclude_ids)
    if len(excl) != len(q):
        raise DimensionError(f"{len(excl)} exclusions for {len(q)} queries")
    cut = [e if e is not None and 0 <= e < n else -1 for e in excl]  # -1: none
    avail = [n - (c >= 0) for c in cut]
    qn = np.sqrt(np.einsum("bj,bj->b", q, q))
    units, zero_rows = db._unit_keys
    for c, a, norm in zip(cut, avail, qn.tolist()):
        if not (_MIN_NORM <= norm <= _MAX_NORM or norm == 0.0):
            raise DegenerateInputError(f"query norm {norm}: {_RANGE}")
        if a and (norm == 0.0 or zero_rows and not zero_rows <= {c}):
            raise DegenerateInputError("cosine similarity undefined for zero-norm vectors")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if len(q) == 0:
        return []
    clamp = k > min(avail)
    if clamp:
        warnings.warn(f"k={k} exceeds database size {min(avail)}; clamping")
        if 0.0 in qn:  # a zero query only where its one key is excluded
            qn = np.where(qn == 0.0, 1.0, qn)
    # Per-row Python over the exclusions: at most one a row, and a call
    # through fancy indexing costs more than a scalar store at these sizes.
    excluded = [(i, c) for i, c in enumerate(cut) if c >= 0]
    approx = (q / qn[:, None]).astype(np.float32) @ units
    for i, c in excluded:
        approx[i, c] = -np.inf
    size = max(1, math.isqrt(n // k))
    groups = n // size
    tops = np.maximum.reduce(approx[:, :groups * size].reshape(len(q), size, groups), axis=1)
    kk = min(k, groups)
    tops.partition(groups - kk, axis=1)
    kth = tops[:, groups - kk]
    floor = np.nextafter(kth - 32 * (q.shape[1] + 2) * 2.0**-24, -np.inf)  # float32
    cand = np.logical_or.reduce(approx >= floor[:, None])
    if zero_rows:
        cand[list(zero_rows)] = False  # excluded wherever they are candidates
    cols = cand.nonzero()[0]
    s = np.einsum("bj,ij->bi", q, means[cols]) / (qn[:, None] * norms[cols])
    for i, c in excluded:
        p = cols.searchsorted(c)
        if p < cols.size and cols[p] == c:
            s[i, p] = -np.inf
    order = (-s).argsort(axis=1, kind="stable")[:, :k]
    hits = zip(cols[order], s[np.arange(len(q))[:, None], order])
    return [(c[:a], v[:a]) for (c, v), a in zip(hits, avail)] if clamp else list(hits)


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
# The largest snapshot step (u64) and refresh interval (u32) the header holds.
MAX_SNAPSHOT_STEP, MAX_REFRESH_INTERVAL = 2**64 - 1, 2**32 - 1
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
    with open(path, "rb") as f:
        r = ByteReader(f, "database dump", _DB_MAGIC, _DB_VERSION, "build-db")
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
