"""Packed batches: one forward over a pack of documents against one pack per
document (NLL, KL and every parameter grad), batched top-k against
single-query top-k, the fused attention op's grads by finite differences,
and the tape length of a training step."""

import math
import warnings

import numpy as np
import pytest

import regavae.autograd as ag
from regavae.autograd import Tape, Tensor, backward, zero_grads
from regavae.data import CorpusPair
from regavae.errors import (ConfigError, ContractError, DegenerateInputError, DimensionError,
                            RegaVaeError, RetrievalError)
from regavae.mixture import regavae_loss
from regavae.model import LatentGaussian, ModelConfig, VaeModel
from regavae.retrieval import (Ragged, RetrievalDatabase, RetrievalEntry, build_database,
                               top_k, top_k_batch)

RTOL = 1e-12


def _config():
    # The bundled config's model sizes (configs/synthetic.json).
    return ModelConfig(vocab_size=40, n_layers=2, d_h=32, n_heads=2, d_z=8, r_rank=2,
                       max_seq_len=32)


def _documents():
    """8 documents of mixed lengths; two pairs share their lengths."""
    rng = np.random.default_rng(21)
    src_lens, tgt_lens = [1, 5, 3, 9, 5, 12, 2, 7], [4, 2, 8, 3, 6, 10, 4, 1]
    xs = [rng.integers(4, 40, n).tolist() for n in src_lens]
    ys = [rng.integers(4, 40, n).tolist() for n in tgt_lens]
    return xs, ys


def _loss_and_grads(model, xs, ys, db, k, ids, kl_floor):
    """Breakdown and parameter grads of one regavae_loss call; xs, ys and ids
    are a pack, or one document and its id."""
    pack = isinstance(ids, list)
    rngs = ([np.random.default_rng([0, 12, 3, i]) for i in ids] if pack
            else np.random.default_rng([0, 12, 3, ids]))
    zero_grads(model.params)
    with Tape() as tape:
        bd, total = regavae_loss(model, xs, ys, db, k, 0.7, rngs,
                                 exclude_id=ids if k else None, kl_floor=kl_floor)
        backward(total, tape)
    grads = {n: p.grad.copy() for n, p in model.params.items() if p.grad is not None}
    return bd, total.item(), grads


class TestPackMatchesPacksOfOne:
    @pytest.fixture(scope="class")
    def model(self):
        return VaeModel(_config(), seed=2)

    @pytest.mark.parametrize("k", [0, 2])
    def test_per_document_values_and_grads(self, model, k):
        xs, ys = _documents()
        ids = list(range(len(xs)))
        # The retrieval corpus holds the 8 documents, so each one must skip
        # its own entry, plus 4 more.
        extra = [CorpusPair([5 + i, 6], [7, 8 + i]) for i in range(4)]
        db = build_database([CorpusPair(x, y) for x, y in zip(xs, ys)] + extra, model)
        # A floor between the documents' KLs clamps some of them and not others.
        kl = _loss_and_grads(model, xs, ys, db, k, ids, 0.0)[0].doc_kl
        floor = float(np.median(kl))
        assert kl.min() < floor < kl.max()

        bd, total, grads = _loss_and_grads(model, xs, ys, db, k, ids, floor)
        singles = [_loss_and_grads(model, x, y, db, k, i, floor)
                   for i, (x, y) in enumerate(zip(xs, ys))]
        np.testing.assert_allclose(bd.doc_recon, [s[0].recon_nll for s in singles],
                                   rtol=RTOL, atol=0)
        np.testing.assert_allclose(bd.doc_kl, [s[0].kl for s in singles], rtol=RTOL, atol=0)
        np.testing.assert_allclose(total, np.mean([s[1] for s in singles]), rtol=RTOL, atol=0)
        assert set(grads) == set().union(*(s[2] for s in singles))
        wants = {name: sum(s[2][name] for s in singles if name in s[2]) / len(singles)
                 for name in grads}
        for name, g in grads.items():
            # Relative to the parameter's largest grad: single entries may
            # cancel to near zero, where an entrywise ratio means nothing.
            np.testing.assert_allclose(g, wants[name], rtol=0,
                                       atol=RTOL * np.abs(wants[name]).max(), err_msg=name)

    def test_step_tape_length_does_not_grow_with_the_pack(self, model):
        xs, ys = _documents()
        lengths = []
        for n in (1, 8):
            rngs = [np.random.default_rng(i) for i in range(n)]
            with Tape() as tape:
                regavae_loss(model, xs[:n], ys[:n], None, 0, 0.5, rngs, kl_floor=1.0)
            lengths.append(len(tape.nodes))
        assert lengths[0] == lengths[1]

    def test_one_generator_per_document(self, model):
        xs, ys = _documents()
        with pytest.raises(ContractError):
            regavae_loss(model, xs, ys, None, 0, 0.5, [np.random.default_rng(0)] * 7)


class TestBatchedTopK:
    def test_matches_single_queries_with_duplicates(self):
        rng = np.random.default_rng(8)
        means = rng.standard_normal((2000, 8))
        for i in range(50, 2000, 50):
            means[i] = means[int(rng.integers(0, i))]
        db = RetrievalDatabase([RetrievalEntry(i, LatentGaussian.from_arrays(m, np.zeros(8)),
                                               [4], [5]) for i, m in enumerate(means)], 0, 500)
        queries = np.concatenate([rng.standard_normal((6, 8)), means[[100, 150, 7]],
                                  means[[300]] + 0.01 * rng.standard_normal((1, 8))])
        excludes = [None, 3, None, 1999, 0, None, 100, None, 7, 300]
        for k in (1, 5, 50):
            rows = top_k_batch(queries, db, k, excludes)
            assert len(rows) == len(queries)
            for q, e, (hits, scores) in zip(queries, excludes, rows):
                want = top_k(q, db, k, exclude_id=e)
                assert hits.tolist() == [h.id for h, _ in want]
                np.testing.assert_allclose(scores, [s for _, s in want], rtol=0, atol=1e-12)

    def test_exclusions_must_match_queries(self):
        db = RetrievalDatabase([RetrievalEntry(0, LatentGaussian.from_arrays(
            np.ones(2), np.zeros(2)), [4], [5])], 0, 500)
        with pytest.raises(DimensionError):
            top_k_batch(np.ones((2, 2)), db, 1, [None])

    def test_zero_queries_return_no_rows_after_the_checks(self):
        db = RetrievalDatabase([RetrievalEntry(0, LatentGaussian.from_arrays(
            np.ones(2), np.zeros(2)), [4], [5])], 0, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no clamp warning either
            assert top_k_batch(np.empty((0, 2)), db, 1) == []
            assert top_k_batch(np.empty((0, 2)), db, 3, []) == []
        with pytest.raises(DimensionError):
            top_k_batch(np.empty((0, 3)), db, 1)
        with pytest.raises(DimensionError):
            top_k_batch(np.empty((0, 2)), db, 1, [None])
        with pytest.raises(ConfigError):
            top_k_batch(np.empty((0, 2)), db, 0)


def top_k_batch_reference(queries, db, k, exclude_ids=None):
    """`top_k_batch` as a full scan: every key scored into a (B, N) buffer,
    then a partition and a stable argsort per row."""
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


def _array_db(means):
    n = len(means)
    tokens = Ragged.pack([[4]] * n)
    means = np.array(means, dtype=np.float64)
    return RetrievalDatabase.from_arrays(means, np.zeros_like(means), tokens, tokens, 0, 500)


def _run(fn, *args):
    """fn's rows, or the type of the package error it raised, and the
    messages of the warnings it gave; a RuntimeWarning fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = fn(*args)
        except RegaVaeError as e:
            got = type(e)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return got, [str(w.message) for w in caught]


def _pair(queries, db, k, excludes=None):
    """(new, reference) results of one top-k call."""
    return (_run(top_k_batch, queries, db, k, excludes),
            _run(top_k_batch_reference, queries, db, k, excludes))


def _same_rows(got, want):
    """Two `_run` results agree: rows, dtypes, score bits and warnings."""
    (rows, messages), (want_rows, want_messages) = got, want
    assert messages == want_messages
    if not isinstance(want_rows, list):
        assert rows is want_rows
        return
    assert isinstance(rows, list) and len(rows) == len(want_rows)
    for (hits, scores), (want_hits, want_scores) in zip(rows, want_rows):
        assert hits.dtype == want_hits.dtype and hits.tolist() == want_hits.tolist()
        assert scores.dtype == want_scores.dtype
        assert scores.tobytes() == want_scores.tobytes()


class TestTopKMatchesFullScan:
    """The prefiltered top-k against the full scan it replaced: the same rows,
    the same score bits, the same errors and warnings."""

    @staticmethod
    def _database(seed, n, d, scale=1.0):
        rng = np.random.default_rng([seed, n, d])
        means = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0, (n, 1))
        for i in range(3, n, 7):  # exact duplicates, so ties decide hits
            means[i] = means[int(rng.integers(0, i))]
        return rng, means * scale

    @staticmethod
    def _queries(rng, means, b):
        n, d = means.shape
        picks = rng.integers(0, n, b)
        queries = means[picks] + 0.2 * rng.standard_normal((b, d)) * np.abs(means).max()
        queries[::3] = means[picks[::3]]  # exactly a key
        queries[1::4] = queries[:1]  # exact-duplicate queries
        return queries, picks

    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    @pytest.mark.parametrize("n", [1, 2, 7, 120, 2000])
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_rows_and_score_bits(self, n, d, scale):
        rng, means = self._database(0, n, d, scale)
        db = _array_db(means)
        for b in (0, 1, 8, 36):
            queries, picks = self._queries(rng, means, b)
            in_range = [int(p) if i % 2 else None for i, p in enumerate(picks)]
            outside = [[-1, -5, n, n + 3][i % 4] for i in range(b)]
            for excludes in (None, in_range, outside):
                for k in (1, 5, n - 1, n, n + 4):
                    if k < 1:
                        continue
                    _same_rows(*_pair(queries, db, k, excludes))

    @pytest.mark.parametrize("d", [2, 8, 32])
    def test_near_ties_of_scaled_copies(self, d):
        # Scaled copies of four keys have equal cosines in exact arithmetic
        # and differ by a few ulps as computed, in the prefilter and the exact
        # scores alike, so the order among them differs between the two.
        # Without the prefilter's margin this loses hits.
        rng = np.random.default_rng(d)
        base = rng.standard_normal((4, d))
        copies = base[np.arange(400) % 4] * rng.uniform(0.1, 10.0, (400, 1))
        db = _array_db(np.concatenate([copies, rng.standard_normal((100, d))]))
        queries = base[rng.integers(0, 4, 36)] + 1e-3 * rng.standard_normal((36, d))
        for k in (1, 3, 5, 50):
            _same_rows(*_pair(queries, db, k, [None, 7, 600, None] * 9))

    def test_excluded_zero_norm_keys(self):
        # A zero-norm key raises whatever the queries exclude, itself included;
        # so does a 1e-200 key, whose norm's square underflows to 0.
        rng, means = self._database(1, 50, 8)
        queries = rng.standard_normal((8, 8))
        for rows, value in (([0], 0.0), ([17], 0.0), ([33], 1e-200), ([0, 17], 0.0)):
            keys = means.copy()
            keys[rows] = value
            db = _array_db(keys)
            first, last = rows[0], rows[-1]
            for excludes in (None, [first] * 8, [first, None, 3, last, 60, first, -1, last]):
                for k in (1, 5, 48, 49, 60):
                    assert _run(top_k_batch, queries, db, k, excludes) == (
                        DegenerateInputError, [])

    def test_errors_in_order(self):
        db = _array_db([[1.0, 0.0], [0.0, 1.0]])
        empty = RetrievalDatabase([], 0, 500)
        for args in ((np.ones((1, 2)), empty, 1), (np.ones((1, 3)), db, 1),
                     (np.ones((2, 2)), db, 1, [None]), (np.zeros((1, 2)), db, 0),
                     (np.ones((1, 2)), db, 0), (np.empty((0, 2)), db, 1)):
            _same_rows(*_pair(*args))
        # A zero query raises, with no clamp warning, even where it excludes
        # its only key (the full scan returns an empty row there).
        assert _run(top_k_batch, np.zeros((1, 2)), _array_db([[1.0, 0.0]]), 1, [0]) == (
            DegenerateInputError, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-155, 1e200])
    def test_non_finite_or_out_of_range_raises(self, bad):
        rng, means = self._database(2, 100, 8)
        db = _array_db(means)
        query = rng.standard_normal((1, 8))
        query[0, 3] = bad
        if abs(bad) in (1e-155, 1e200):
            query[0] = bad  # the norm, not one component, is out of range
        with pytest.raises(DegenerateInputError):
            top_k_batch(query, db, 5)
        keys = means.copy()
        keys[40] = query[0]
        with pytest.raises(DegenerateInputError):
            top_k_batch(rng.standard_normal((1, 8)), _array_db(keys), 5)

    @pytest.mark.parametrize("d", [1, 2, 8, 32])
    def test_einsum_over_a_column_subset_keeps_the_bits(self, d):
        # The rescore relies on this: a key's score does not depend on which
        # other keys, or how many, are scored with it, nor on the alignment
        # of the key array (a loaded dump's blocks are read at any offset).
        rng = np.random.default_rng(d)
        means = rng.standard_normal((1500, d)) * rng.uniform(0.1, 10.0, (1500, 1))
        shifted = np.frombuffer(b"\0" * 8 + means.tobytes(), np.float64, offset=8)
        for keys in (means, shifted.reshape(means.shape)):
            for b in (1, 2, 8, 36):
                q = rng.standard_normal((b, d))
                full = np.einsum("bj,ij->bi", q, keys)
                for c in (1, 2, 3, 17, 700, 1500):
                    cols = np.sort(rng.choice(1500, c, replace=False))
                    sub = np.einsum("bj,ij->bi", q, keys[cols])
                    assert sub.tobytes() == full[:, cols].tobytes()

    # The float32 prefilter's hard cases. Each runs under the floating-point
    # settings `cli.main` runs commands with, so an overflow or an invalid
    # operation in the prefilter fails the test instead of warning.
    @staticmethod
    def _strict_same_rows(queries, db, ks, excludes):
        with np.errstate(over="raise", invalid="raise"):
            for k in ks:
                _same_rows(*_pair(queries, db, k, excludes))

    @pytest.mark.parametrize("d", [2, 8, 32, 64])
    def test_float32_near_ties_and_duplicates(self, d):
        # Copies of three keys perturbed at 1e-9 to 1e-6 relative differ in
        # cosine by far less than float32's resolution up to a few times it,
        # so the prefilter's order among them is mostly rounding; exact
        # duplicates tie outright, and the row decides. The queries sit well
        # off the copies, where a cosine moves with the perturbation to first
        # order. At d = 8, 32 and 64 a threshold without the margin loses hits.
        for seed in range(4):
            rng = np.random.default_rng([3, d, seed])
            base = rng.standard_normal((3, d))
            eps = np.array([1e-9, 1e-8, 1e-7, 1e-6])[np.arange(900) % 4, None]
            copies = base[np.arange(900) % 3] * (1 + eps * rng.standard_normal((900, d)))
            copies[::5] = base[np.arange(0, 900, 5) % 3]
            means = np.concatenate([rng.standard_normal((400, d)), copies])
            queries = base[rng.integers(0, 3, 24)] + rng.standard_normal((24, d))
            self._strict_same_rows(queries, _array_db(means), (1, 5, 40, 250),
                                   [None, 400, 403, 999, None, 401] * 4)

    @pytest.mark.parametrize("key_scale", [2.0**-500, 1.0, 2.0**500])
    @pytest.mark.parametrize("query_scale", [2.0**-500, 2.0**500])
    def test_components_below_float32_normal_range(self, key_scale, query_scale):
        # Components of 1e-42 of their vector's norm are float32 subnormals,
        # and of 1e-50 round to 0. Keys that share their leading components
        # and differ only in those tie in float32 and nearly tie in float64.
        # Norms lie just inside [2**-500, 2**500].
        rng = np.random.default_rng(4)
        tiny = [1.0, 1.0, 1.0, 1e-42, 1e-50, 1e-42, 1e-45, 1e-60]
        means = rng.standard_normal((400, 8)) * tiny
        means[200:] = means[:10].repeat(20, axis=0)
        means[200:, 3:] = rng.standard_normal((200, 5)) * tiny[3:]
        queries = np.concatenate([means[rng.integers(0, 400, 6)],
                                  rng.standard_normal((6, 8)) * tiny])
        for a, scale in ((means, key_scale), (queries, query_scale)):
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            a *= rng.uniform(1.01, 1.99, (len(a), 1)) * scale / (2.0 if scale > 1 else 1.0)
        self._strict_same_rows(queries, _array_db(means), (1, 5, 25, 60),
                               [None, 200, 215, None, 0, 399] * 2)

    @pytest.mark.parametrize("k", [1, 5, 20])
    @pytest.mark.parametrize("one_group", [False, True])
    def test_hits_clustered(self, k, one_group):
        # Key i is in group i mod G. Hits packed into one group leave every
        # other group's maximum, and so the threshold, far below the k-th
        # largest score; packed into consecutive rows, each is its own
        # group's maximum.
        n, d = 6000, 8
        groups = n // math.isqrt(n // k)
        rng = np.random.default_rng([5, k])
        means = rng.standard_normal((n, d))
        target = rng.standard_normal(d)
        rows = (7 + groups * np.arange(n // groups)) if one_group else np.arange(3000, 3040)
        means[rows] = target + 0.05 * rng.standard_normal((len(rows), d))
        means[rows[::6]] = target * rng.uniform(0.5, 2.0, (len(rows[::6]), 1))
        queries = target + 0.02 * rng.standard_normal((8, d))
        queries[0] = target
        excludes = [None, int(rows[0]), int(rows[1]), None, int(rows[6]), -1, None, 9999]
        self._strict_same_rows(queries, _array_db(means), (k,), excludes)

    def test_k_at_and_above_the_key_count(self):
        # At k > N the groups are single keys and the threshold is a row's
        # smallest score, or -inf where its excluded key is one of them.
        for n in (1, 2, 3, 9, 33):
            rng, means = self._database(6, n, 8)
            db = _array_db(means)
            queries, picks = self._queries(rng, means, 6)
            for excludes in (None, [int(p) for p in picks]):
                self._strict_same_rows(queries, db, range(max(1, n - 2), n + 3), excludes)


def _reference_attention(q, k, v, offsets, causal, start, heads):
    """Per-segment, per-head numpy attention."""
    out = np.empty_like(q)
    dk = q.shape[1] // heads
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        ka, kb = a + i * start, b + (i + 1) * start
        for h in range(heads):
            cols = slice(h * dk, (h + 1) * dk)
            s = q[a:b, cols] @ k[ka:kb, cols].T / np.sqrt(dk)
            if causal:
                s = s + np.triu(np.full(s.shape, -1e9), k=start + 1)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            out[a:b, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[ka:kb, cols]
    return out


class TestFusedAttention:
    OFFSETS = np.array([0, 3, 7, 10])  # lengths 3, 4, 3

    # Mixed lengths are gathered per length; equal lengths are reshaped.
    @pytest.mark.parametrize("offsets", [OFFSETS, np.array([0, 3, 6, 9])])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("start", [0, 2])
    def test_forward_and_finite_difference_grads(self, offsets, causal, start,
                                                  attention_groups):
        rng = np.random.default_rng(17 + start)
        rows, heads = offsets[-1], 2
        keys = rows + 3 * start
        q0, k0, v0 = (rng.standard_normal((n, 6)) for n in (rows, keys, keys))
        weight = rng.standard_normal((rows, 6))
        ref = _reference_attention(q0, k0, v0, offsets, causal, start, heads)
        np.testing.assert_allclose(attention_groups(q0, k0, v0, offsets, causal, start, heads),
                                   ref, rtol=0, atol=1e-12)
        if start:  # cached rows are the decode step's; only its kernel takes them
            return

        def loss(q, k, v):
            return ag.tensor_sum(ag.attention(q, k, v, offsets, causal, heads) * Tensor(weight))

        got = ag.attention(Tensor(q0), Tensor(k0), Tensor(v0), offsets, causal, heads).data
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        ts = [Tensor(a.copy(), requires_grad=True) for a in (q0, k0, v0)]
        with Tape() as tape:
            backward(loss(*ts), tape)
        assert len(tape.nodes) == 3  # attention, the weighting, the sum
        arrays = [q0, k0, v0]
        for which, t in enumerate(ts):
            fd = np.zeros_like(arrays[which])
            for idx in np.ndindex(fd.shape):
                vals = []
                for step in (1e-6, -1e-6):
                    moved = [a.copy() for a in arrays]
                    moved[which][idx] += step
                    vals.append(loss(*map(Tensor, moved)).item())
                fd[idx] = (vals[0] - vals[1]) / 2e-6
            np.testing.assert_allclose(t.grad, fd, rtol=1e-6, atol=1e-8)

    def test_rows_must_fit_the_segments(self):
        q = Tensor(np.zeros((10, 4)))
        with pytest.raises(DimensionError):
            ag.attention(q, q, q, [0, 3, 9], heads=2)  # offsets miss a row
        with pytest.raises(DimensionError):
            ag.attention(q, q, q, [0, 3, 3, 10], heads=2)  # an empty segment
        with pytest.raises(DimensionError):
            ag.attention(q, q, Tensor(np.zeros((13, 4))), self.OFFSETS, heads=2)  # k and v differ
        with pytest.raises(DimensionError):
            ag.attention(q, q, q, self.OFFSETS, heads=3)
