"""Retrieval database tests: cosine-similarity oracles and properties,
exact top-k against a brute-force rescoring, refresh scheduling, and the
binary dump round trip."""

import errno
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regavae.data import CorpusPair
from regavae.errors import (ConfigError, ContractError, DegenerateInputError,
                            DimensionError, InputError, RetrievalError)
from regavae import retrieval
from regavae.model import LatentGaussian, ModelConfig, VaeModel, is_pack
from regavae.retrieval import (RetrievalDatabase, RetrievalEntry,
                               build_database, load_database, maybe_refresh,
                               save_database, similarity, top_k)


def make_entry(eid, mean, log_var=None):
    mean = np.asarray(mean, dtype=np.float64)
    lv = np.zeros_like(mean) if log_var is None else np.asarray(log_var, float)
    return RetrievalEntry(eid, LatentGaussian.from_arrays(mean, lv),
                          [4, eid + 4], [5, eid + 5])


def make_db(means, refresh_interval=500, snapshot_step=0):
    entries = [make_entry(i, m) for i, m in enumerate(means)]
    return RetrievalDatabase(entries, snapshot_step, refresh_interval)


@pytest.fixture(scope="module")
def tiny_model():
    cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                      r_rank=2, max_seq_len=32)
    return VaeModel(cfg, seed=0)


class TestSimilarity:
    def test_parallel_is_one(self):
        assert abs(similarity([1.0, 2.0], make_entry(0, [2.0, 4.0]).key) - 1.0) < 1e-12

    def test_antiparallel_is_minus_one(self):
        assert abs(similarity([1.0, 0.0], make_entry(0, [-3.0, 0.0]).key) + 1.0) < 1e-12

    def test_orthogonal_is_zero(self):
        assert abs(similarity([1.0, 0.0], make_entry(0, [0.0, 5.0]).key)) < 1e-12

    def test_hand_value(self):
        # cos([1,1],[1,0]) = 1/sqrt(2)
        got = similarity([1.0, 1.0], make_entry(0, [1.0, 0.0]).key)
        assert abs(got - 1 / np.sqrt(2)) < 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateInputError):
            similarity([0.0, 0.0], make_entry(0, [1.0, 0.0]).key)
        with pytest.raises(DegenerateInputError):
            similarity([1.0, 0.0], make_entry(0, [0.0, 0.0]).key)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
           st.floats(0.01, 100), st.floats(0.01, 100))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, vals, s1, s2):
        v = np.array(vals)
        if np.linalg.norm(v) < 1e-6:
            return
        base = similarity(v, make_entry(0, v * 2 + 1e-3).key)
        scaled = similarity(v * s1, make_entry(0, (v * 2 + 1e-3) * s2).key)
        assert abs(base - scaled) < 1e-9

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
           st.lists(st.floats(-10, 10), min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(va) < 1e-6 or np.linalg.norm(vb) < 1e-6:
            return
        s1 = similarity(va, make_entry(0, vb).key)
        s2 = similarity(vb, make_entry(0, va).key)
        assert abs(s1 - s2) < 1e-9
        assert -1.0 - 1e-12 <= s1 <= 1.0 + 1e-12


class TestTopK:
    def brute_force(self, query, db, k, exclude_id=None):
        scored = [(e, similarity(query, e.key)) for e in db.entries
                  if e.id != exclude_id]
        scored.sort(key=lambda es: (-es[1], es[0].id))
        return scored[:k]

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(2, 8))
            db = make_db(rng.standard_normal((n, d)))
            query = rng.standard_normal(d)
            for k in (1, min(5, n), n):
                got = top_k(query, db, k)
                want = self.brute_force(query, db, k)
                assert [e.id for e, _ in got] == [e.id for e, _ in want]
                np.testing.assert_allclose([s for _, s in got],
                                           [s for _, s in want], atol=1e-12)

    def test_scores_descending(self):
        rng = np.random.default_rng(1)
        db = make_db(rng.standard_normal((20, 4)))
        scores = [s for _, s in top_k(rng.standard_normal(4), db, 20)]
        assert scores == sorted(scores, reverse=True)

    def test_tie_breaks_toward_lower_id(self):
        db = make_db([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])  # ids 0,1 parallel
        got = top_k([3.0, 0.0], db, 2)
        assert [e.id for e, _ in got] == [0, 1]

    def test_exclude_id(self):
        db = make_db([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        got = top_k([1.0, 0.0], db, 1, exclude_id=0)
        assert got[0][0].id == 1

    def test_k_clamped_with_warning(self):
        db = make_db([[1.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            got = top_k([1.0, 1.0], db, 10)
        assert len(got) == 2

    def test_zero_norm_query_raises(self):
        db = make_db([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateInputError):
            top_k([0.0, 0.0], db, 1)

    def test_zero_norm_key_raises_even_when_excluded(self):
        db = make_db([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        for exclude in (None, 0, 1):
            with pytest.raises(DegenerateInputError, match="key 1 has norm 0.0"):
                top_k([1.0, 1.0], db, 2, exclude_id=exclude)

    @pytest.mark.parametrize("exclude", [None, -1, 3])
    def test_exclude_outside_rows_excludes_nothing(self, exclude):
        rng = np.random.default_rng(6)
        means = rng.standard_normal((3, 4))
        means[2] = means[0]  # a tie, so the order among equal scores counts too
        db = make_db(means)
        for query in (rng.standard_normal(4), means[0].copy()):
            got = top_k(query, db, 3, exclude_id=exclude)
            want = self.brute_force(query, db, 3)
            assert len(got) == len(db)
            assert [e.id for e, _ in got] == [e.id for e, _ in want]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)

    def test_excluding_only_entry_warns_and_returns_empty(self):
        db = make_db([[1.0, 0.0]])
        with pytest.warns(UserWarning):
            assert top_k([1.0, 0.0], db, 1, exclude_id=0) == []

    def test_large_db_with_duplicates_matches_brute_force(self):
        rng = np.random.default_rng(5)
        means = rng.standard_normal((2000, 8))
        for i in range(50, 2000, 50):
            means[i] = means[int(rng.integers(0, i))]
        db = make_db(means)
        queries = [(rng.standard_normal(8), None), (means[100].copy(), None),
                   (means[100] + 0.1 * rng.standard_normal(8), 100)]
        for query, exclude in queries:
            for k in (1, 5, len(db) - (exclude is not None)):
                got = top_k(query, db, k, exclude_id=exclude)
                want = self.brute_force(query, db, k, exclude_id=exclude)
                assert [e.id for e, _ in got] == [e.id for e, _ in want]
                np.testing.assert_allclose([s for _, s in got],
                                           [s for _, s in want], atol=1e-12)

    def test_query_dimension_must_match_keys(self):
        db = make_db([[1.0, 0.0], [0.0, 1.0]])
        for query in ([1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]]):
            with pytest.raises(DimensionError):
                top_k(query, db, 1)

    def test_bad_k_and_empty_db(self):
        db = make_db([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            top_k([1.0, 0.0], db, 0)
        with pytest.raises(RetrievalError):
            top_k([1.0, 0.0], RetrievalDatabase([], 0, 500), 1)


def test_layer_average_is_bit_equal_to_mean_over_layers():
    rng = np.random.default_rng(0)
    for shape in ((4,), (3, 4)):  # one document, a pack of three
        posts = [LatentGaussian.from_arrays(rng.standard_normal(shape),
                                            rng.standard_normal(shape)) for _ in range(4)]
        means, log_vars = retrieval.layer_average(posts)
        for got, arrays in ((means, [g.mean_array for g in posts]),
                            (log_vars, [g.log_var_array for g in posts])):
            want = np.mean([np.atleast_2d(a) for a in arrays], axis=0)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBuildAndRefresh:
    def corpus(self):
        return [CorpusPair([4, 5], [6, 7]), CorpusPair([5, 6], [7, 8]),
                CorpusPair([6, 7], [8, 9])]

    def test_build_assigns_sequential_ids(self, tiny_model):
        db = build_database(self.corpus(), tiny_model)
        assert [e.id for e in db.entries] == [0, 1, 2]
        assert db.snapshot_step == 0

    @staticmethod
    def assert_keys_are_layer_averages(model, entries, docs):
        """Each key equals, bit for bit, the layer average of its row of one
        encode of all `docs` as a pack, and matches an encode of its document
        alone to round-off, so no row holds another document's key."""
        posts = model.encode([src + tgt for src, tgt in docs])
        np.testing.assert_array_equal([e.key.mean_array for e in entries],
                                      np.mean([g.mean_array for g in posts], axis=0))
        np.testing.assert_array_equal([e.key.log_var_array for e in entries],
                                      np.mean([g.log_var_array for g in posts], axis=0))
        for e, (src, tgt) in zip(entries, docs):
            lone = model.encode(src + tgt)
            np.testing.assert_allclose(e.key.mean_array,
                                       np.mean([g.mean_array for g in lone], axis=0),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(e.key.log_var_array,
                                       np.mean([g.log_var_array for g in lone], axis=0),
                                       rtol=0, atol=1e-12)

    def test_key_is_layer_average(self, tiny_model):
        corpus = self.corpus()
        db = build_database(corpus, tiny_model)
        self.assert_keys_are_layer_averages(
            tiny_model, db.entries, [(p.source_tokens, p.target_tokens) for p in corpus])

    def test_build_empty_raises(self, tiny_model):
        with pytest.raises(ConfigError):
            build_database([], tiny_model)

    def test_refresh_schedule(self, tiny_model):
        db = build_database(self.corpus(), tiny_model, refresh_interval=100)
        assert maybe_refresh(db, 50, tiny_model) is db  # too early: same object
        assert maybe_refresh(db, 99, tiny_model) is db
        db2 = maybe_refresh(db, 100, tiny_model)
        assert db2 is not db
        assert db2.snapshot_step == 100
        # entries rebuilt with identical ids/tokens
        assert [e.id for e in db2.entries] == [e.id for e in db.entries]

    def test_refreshed_snapshot_ranks_by_new_keys(self, tiny_model):
        db = build_database(self.corpus(), tiny_model, refresh_interval=10)
        query = db.entries[0].key.mean_array.copy()
        top_k(query, db, 3)  # the old snapshot builds its key matrix
        name = "post.0.w_mu"
        tiny_model.params[name].data += 0.05
        try:
            db2 = maybe_refresh(db, 10, tiny_model)
        finally:
            tiny_model.params[name].data -= 0.05
        got = top_k(query, db2, 3)
        np.testing.assert_allclose([s for _, s in got],
                                   [similarity(query, e.key) for e, _ in got], atol=1e-12)
        assert [s for _, s in got] != [s for _, s in top_k(query, db, 3)]

    def test_refresh_keeps_rows_and_tokens(self, tiny_model):
        docs = [(p.source_tokens, p.target_tokens) for p in self.corpus()][::-1]
        db = RetrievalDatabase(
            [RetrievalEntry(row, LatentGaussian.from_arrays(np.ones(4), np.zeros(4)), src, tgt)
             for row, (src, tgt) in enumerate(docs)], 0, 10)
        db2 = maybe_refresh(db, 10, tiny_model)
        assert [e.id for e in db2.entries] == [0, 1, 2]
        assert [(e.source_tokens, e.target_tokens) for e in db2.entries] == docs
        self.assert_keys_are_layer_averages(tiny_model, db2.entries, docs)

    def long_corpus(self):
        """More documents than two packs hold, of varied lengths."""
        n = 2 * retrieval._PACK + 3
        return [CorpusPair([4 + i % 7] * (1 + i % 3), [5 + i % 11, 6 + i % 5]) for i in range(n)]

    def test_database_encodes_in_packs(self, tiny_model, monkeypatch):
        calls, encode = [], VaeModel.encode

        def spy(model, tokens):
            calls.append(tokens)
            return encode(model, tokens)

        monkeypatch.setattr(VaeModel, "encode", spy)
        corpus = self.long_corpus()
        db = build_database(corpus, tiny_model, refresh_interval=10)
        maybe_refresh(db, 10, tiny_model)
        docs = [p.source_tokens + p.target_tokens for p in corpus]
        n_packs = math.ceil(len(docs) / retrieval._PACK)
        assert len(calls) == 2 * n_packs and all(is_pack(c) for c in calls)
        assert [d for c in calls[:n_packs] for d in c] == docs  # build
        assert [d for c in calls[n_packs:] for d in c] == docs  # refresh

    def test_refresh_of_unchanged_model_reproduces_keys(self, tiny_model):
        db = build_database(self.long_corpus(), tiny_model, refresh_interval=10)
        db2 = maybe_refresh(db, 10, tiny_model)
        assert db2 is not db
        for a, b in zip(db.entries, db2.entries, strict=True):
            assert a.id == b.id
            assert a.key.mean_array.tobytes() == b.key.mean_array.tobytes()
            assert a.key.log_var_array.tobytes() == b.key.log_var_array.tobytes()

    def test_empty_snapshot_refreshes_to_empty(self, tiny_model):
        db2 = maybe_refresh(RetrievalDatabase([], 0, 10), 10, tiny_model)
        assert len(db2) == 0 and db2.snapshot_step == 10

    def test_refresh_rejects_time_travel(self, tiny_model):
        db = build_database(self.corpus(), tiny_model, snapshot_step=100)
        with pytest.raises(RetrievalError):
            maybe_refresh(db, 50, tiny_model)

    def test_refresh_uses_current_model(self, tiny_model):
        db = build_database(self.corpus(), tiny_model, refresh_interval=10)
        # Perturb a posterior head: refreshed keys must change.
        name = "post.0.w_mu"
        tiny_model.params[name].data += 0.05
        try:
            db2 = maybe_refresh(db, 10, tiny_model)
            diffs = [np.max(np.abs(a.key.mean_array - b.key.mean_array))
                     for a, b in zip(db.entries, db2.entries)]
            assert max(diffs) > 0
        finally:
            tiny_model.params[name].data -= 0.05


def test_entries_are_built_one_by_one_and_kept(monkeypatch):
    db = make_db([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    made = []

    class CountingEntry(RetrievalEntry):
        def __init__(self, *args):
            made.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(retrieval, "RetrievalEntry", CountingEntry)
    last = db.entries[-1]
    assert made == [2] and db.entries[2] is last
    assert (last.id, last.source_tokens, last.target_tokens) == (2, [4, 6], [5, 7])
    np.testing.assert_array_equal(last.key.mean_array, [1.0, 1.0])
    assert [db.entries[i].id for i in (0, 1)] == [0, 1] and made == [2, 0, 1]
    with pytest.raises(TypeError):
        db.entries[0] = last
    with pytest.raises(TypeError):  # records are read by row only
        db.entries[:2]


@pytest.mark.parametrize("ids", [[0, 2, 1], [1, 2, 3], [0, 1, 1]],
                         ids=["out_of_order", "offset_by_one", "duplicated"])
def test_ids_that_are_not_rows_rejected(ids):
    entries = [make_entry(eid, [1.0, float(row)]) for row, eid in enumerate(ids)]
    with pytest.raises(ContractError, match="must be their rows"):
        RetrievalDatabase(entries, 0, 500)


def uneven_db():
    """Four entries with non-trivial log-vars and token lists of several lengths."""
    rng = np.random.default_rng(4)
    keys = rng.standard_normal((4, 2, 3))
    return RetrievalDatabase(
        [RetrievalEntry(i, LatentGaussian.from_arrays(*keys[i]), [4 + i] * (1 + i % 2),
                        [10, 11, 8][:1 + i % 3]) for i in range(4)], 42, 123)


class TestDumpFormat:
    def test_round_trip_exact(self, tmp_path):
        db = uneven_db()
        path = tmp_path / "db.bin"
        save_database(db, path)
        back = load_database(path)
        assert (back.snapshot_step, back.refresh_interval, len(back)) == (42, 123, 4)
        for name in ("means", "log_vars", "norms"):
            assert getattr(back, name).tobytes() == getattr(db, name).tobytes()
        for a, b in zip(db.entries, back.entries, strict=True):
            assert a.id == b.id
            np.testing.assert_array_equal(a.key.mean_array, b.key.mean_array)
            np.testing.assert_array_equal(a.key.log_var_array, b.key.log_var_array)
            assert a.source_tokens == b.source_tokens
            assert a.target_tokens == b.target_tokens
        with pytest.raises(ValueError):  # a snapshot is immutable
            back.entries[0].key.mean_array[0] = 1.0

    def test_rejects_non_database_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(InputError):
            load_database(p)

    def test_version_1_dump_rejected(self, tmp_path):
        # v1: header {version, d_z, n, snapshot_step, refresh_interval}, then
        # per entry its id, key means and log-vars, and length-prefixed tokens.
        v1 = (b"RGDB" + struct.pack("<IIIQIQ", 1, 2, 1, 0, 500, 0)
              + np.array([1.0, 0.0, 0.0, 0.0], "<f8").tobytes()
              + struct.pack("<IIII", 1, 4, 1, 5))
        # v2: today's header, then an id block before the six blocks.
        src, tgt = retrieval.Ragged.pack([[4]]), retrieval.Ragged.pack([[5]])
        v2 = (b"RGDB" + struct.pack("<I", 2)
              + retrieval._DB_HEADER.pack(2, 1, 0, 500, 1, 1, hashlib.sha256().digest())
              + np.array([0], "<i8").tobytes() + np.array([1.0, 0.0, 0.0, 0.0], "<f8").tobytes()
              + src.offsets.tobytes() + src.flat.tobytes()
              + tgt.offsets.tobytes() + tgt.flat.tobytes())
        for version, data in ((1, v1), (2, v2)):
            p = tmp_path / f"v{version}.db"
            p.write_bytes(data)
            with pytest.raises(InputError, match=f"version {version}.*rerun build-db"):
                load_database(p)

    def test_every_truncated_prefix_raises(self, tmp_path):
        path = tmp_path / "db.bin"
        save_database(uneven_db(), path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(InputError):
                load_database(cut)

    def test_file_cut_after_it_is_sized_raises(self, tmp_path, cut_after_sizing):
        path = tmp_path / "db.bin"
        save_database(uneven_db(), path)
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data)
            cut_after_sizing(path, n)
            with pytest.raises(InputError, match="truncated"):
                load_database(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "db.bin"
        save_database(make_db([[1.0, 0.0], [0.0, 1.0]]), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(InputError):
            load_database(path)

    # Header: magic, version u32, d_z u32 at byte 8, N u64 at 12, snapshot
    # step u64, refresh interval u32, source token count u64 at 32, target
    # token count u64 at 40, digest.
    @pytest.mark.parametrize("offset, fmt", [(8, "<I"), (12, "<Q"), (32, "<Q"), (40, "<Q")],
                             ids=["d_z", "n_entries", "source_length", "target_length"])
    def test_oversized_length_field_rejected(self, tmp_path, offset, fmt):
        path = tmp_path / "db.bin"
        save_database(make_db([[1.0, 0.0], [0.0, 1.0]]), path)
        data = bytearray(path.read_bytes())
        struct.pack_into(fmt, data, offset, 2**31)
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match="truncated"):
            load_database(path)

    def test_flipped_token_byte_rejected(self, tmp_path):
        db = make_db([[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "db.bin"
        save_database(db, path)
        data = bytearray(path.read_bytes())
        # The source tokens follow the 80-byte header, both key blocks and
        # the N+1 source offsets.
        n, d_z = db.means.shape
        data[80 + 16 * n * d_z + 8 * (n + 1)] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(InputError, match="digest"):
            load_database(path)

    @pytest.mark.parametrize("offsets", [[0, 2, 1, 4], [0, 1, 2, 3], [1, 2, 3, 4]],
                             ids=["decreasing", "short_of_count", "not_from_zero"])
    def test_bad_offsets_rejected(self, tmp_path, offsets):
        # A dump of these offsets, with a digest that matches them: only the
        # offset check can catch them.
        db = make_db([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bad = RetrievalDatabase.from_arrays(
            db.means, db.log_vars,
            retrieval.Ragged(np.array(offsets), np.array([4, 5, 6, 7], np.uint32)),
            db.targets, 0, 500)
        path = tmp_path / "db.bin"
        save_database(bad, path)
        with pytest.raises(InputError, match="source offsets"):
            load_database(path)

    def test_other_key_dimension_rejected(self, tmp_path):
        path = tmp_path / "db.bin"
        save_database(make_db([[1.0, 0.0], [0.0, 1.0]]), path)
        assert len(load_database(path, 2)) == 2
        with pytest.raises(InputError, match="dimension 2.*dimension 3"):
            load_database(path, 3)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        from regavae import checkpoint

        path = tmp_path / "db.bin"
        save_database(make_db([[1.0, 0.0], [0.0, 1.0]]), path)
        before = path.read_bytes()

        class DiskFull:
            """Takes the header, then fails at the first block as a full disk does."""

            def __init__(self, path):
                self.f, self.writes = open(path, "wb"), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.f.write(data)

        monkeypatch.setattr(checkpoint, "open", lambda p, mode: (
            DiskFull(p) if str(p).endswith(".tmp") else open(p, mode)), raising=False)
        with pytest.raises(OSError):
            save_database(make_db([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.bin"]

    def test_refuses_empty_dump(self, tmp_path):
        with pytest.raises(RetrievalError):
            save_database(RetrievalDatabase([], 0, 500), tmp_path / "e.bin")
