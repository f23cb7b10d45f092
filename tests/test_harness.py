"""Harness tests: JSONL ingestion error reporting, tokenizer determinism,
run configuration, checkpoint round trip, pipeline restart safety, and CLI
exit codes."""

import dataclasses
import errno
import importlib.util
import io
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from regavae import checkpoint
from regavae.checkpoint import load_checkpoint, save_checkpoint
from regavae.cli import main as cli_main
from regavae.data import (SPECIALS, Tokenizer, ingest, make_synthetic_corpus,
                          read_jsonl, write_jsonl)
from regavae.errors import ConfigError, ContractError, InputError
from regavae.metrics import rouge_l
from regavae.model import ModelConfig, VaeModel, parameter_layout
from regavae.retrieval import RetrievalDatabase, load_database, save_database
from regavae.training import (RunConfig, beta_at, beta_schedule, run_eval, run_stage1,
                              run_stage2, run_stage3, steps_per_epoch)


# ---------------------------------------------------------------------------
# Data / tokenizer
# ---------------------------------------------------------------------------

class TestTokenizer:
    def test_specials_fixed_ids(self):
        tok = Tokenizer(["b", "a"])
        assert tok.words[:4] == SPECIALS
        assert tok.encode("<unexpected>") == [1]  # unk

    def test_build_order_by_count_then_alpha(self):
        tok = Tokenizer.build(["b b a c c c", "a"])
        # counts: c=3, b=2, a=2 -> c, then a/b alphabetical
        assert tok.words[4:] == ["c", "a", "b"]

    def test_min_count_cutoff(self):
        tok = Tokenizer.build(["a a b"], min_count=2)
        assert "b" not in tok.words
        assert tok.encode("b") == [1]

    def test_encode_decode_round_trip(self):
        tok = Tokenizer.build(["hello world again"])
        text = "world hello"
        assert tok.decode(tok.encode(text)) == text

    def test_rebuild_is_deterministic(self):
        texts = ["z q r r", "q z z"]
        t1 = Tokenizer.build(texts)
        t2 = Tokenizer.build(texts)
        assert t1.words == t2.words


class TestIngest:
    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"source": "a", "target": "b"}\nnot json\n')
        with pytest.raises(InputError) as exc:
            read_jsonl(p)
        assert ":2:" in str(exc.value)

    def test_integer_of_too_many_digits_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"source": "a", "target": "b"}\n{"source": "a", "target": "b", "n": 1'
                     + "0" * 5000 + "}\n")
        with pytest.raises(InputError, match=re.escape(f"{p}:2: invalid JSON (Exceeds")):
            read_jsonl(p)

    def test_missing_field_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"source": "a", "target": "b"}\n{"source": "a"}\n')
        with pytest.raises(InputError) as exc:
            read_jsonl(p)
        assert ":2:" in str(exc.value) and "target" in str(exc.value)

    def test_non_string_field_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"source": 3, "target": "b"}\n')
        with pytest.raises(InputError):
            read_jsonl(p)

    @pytest.mark.parametrize("line", ['["source", "target"]', '"source"', "3", "null"])
    def test_non_object_line_rejected(self, tmp_path, line):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"source": "a", "target": "b"}\n' + line + "\n")
        with pytest.raises(InputError, match=re.escape(f"{p}:2: not a JSON object")):
            read_jsonl(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("\n\n")
        with pytest.raises(InputError):
            read_jsonl(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "ok.jsonl"
        p.write_text('{"source": "a", "target": "b"}\n\n{"source": "c", "target": "d"}\n')
        pairs, tok = ingest(p)
        assert len(pairs) == 2

    def test_empty_after_tokenization_reports_file_line(self, tmp_path):
        # Blank lines count: the second record sits on line 4, not 2.
        p = tmp_path / "bad.jsonl"
        p.write_text('\n{"source": "a", "target": "b"}\n\n{"source": "  ", "target": "b"}\n')
        with pytest.raises(InputError, match=re.escape(
                f"{p}:4: empty source or target after tokenization")):
            ingest(p)

    def test_shared_tokenizer_reused(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_jsonl([{"source": "a b", "target": "c"}], p)
        _, tok = ingest(p)
        pairs2, tok2 = ingest(p, tokenizer=tok)
        assert tok2 is tok

    def test_synthetic_corpus_structure(self):
        train, evals = make_synthetic_corpus(seed=0, n_clusters=3,
                                             train_per_cluster=4,
                                             eval_per_cluster=2)
        assert len(train) == 12 and len(evals) == 6
        # Targets within a cluster draw from the same small vocabulary; the
        # vocabularies differ across clusters.
        vocab = lambda rec: set(rec["target"].split())
        cluster0 = vocab(train[0]) | vocab(train[1]) | vocab(train[2]) | vocab(train[3])
        cluster1 = vocab(train[4]) | vocab(train[5]) | vocab(train[6]) | vocab(train[7])
        assert len(cluster0) <= 4 and len(cluster1) <= 4
        assert cluster0 != cluster1
        assert all(w.startswith("t") for w in cluster0 | cluster1)

    def test_synthetic_corpus_deterministic(self):
        assert make_synthetic_corpus(seed=5) == make_synthetic_corpus(seed=5)


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

class TestRunConfig:
    def test_defaults_valid(self):
        RunConfig()

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            RunConfig(k_neighbors=-1)
        with pytest.raises(ConfigError):
            RunConfig(kl_floor=-0.5)

    @pytest.mark.parametrize("bad", [
        {"L": 0}, {"d_h": 0}, {"heads": 0}, {"d_z": 0}, {"r_rank": 0},
        {"max_seq_len": 2}, {"batch_size": 0}, {"top_k_sample": 0},
        {"d_h": 10, "heads": 3},
        {"seed": -1}, {"stage1_epochs": -1}, {"stage3_epochs": -1}, {"max_gen_len": 0},
        {"refresh_interval": 0}, {"beta_warmup_frac": -0.5}, {"beta_cycles": -1},
        {"grad_clip": -1.0},
    ], ids=lambda bad: ",".join(f"{k}={v}" for k, v in bad.items()))
    def test_rejects_bad_sizes_when_read(self, bad):
        with pytest.raises(ConfigError):
            RunConfig(**bad)

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"learning_rate": 0.001, "bogus": 1}))
        with pytest.raises(InputError) as exc:
            RunConfig.from_file(p)
        assert "bogus" in str(exc.value)

    def test_from_file_rejects_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            RunConfig.from_file(p)

    @pytest.mark.parametrize("raw", [
        "5", "null", '{"L": "2"}', '{"learning_rate": "x"}', '{"k_neighbors": null}',
        '{"L": true}', '{"batch_size": 2.5}', '{"corpus": 3}',
        '{"beta_warmup_frac": NaN}', '{"kl_floor": Infinity}',
    ])
    def test_from_file_rejects_wrong_types(self, tmp_path, raw):
        p = tmp_path / "cfg.json"
        p.write_text(raw)
        with pytest.raises(InputError):
            RunConfig.from_file(p)

    def test_from_file_float_field_takes_int(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"learning_rate": 1, "kl_floor": 0}')
        assert RunConfig.from_file(p) == RunConfig(learning_rate=1.0, kl_floor=0.0)

    def test_echo_round_trips(self, tmp_path):
        cfg = RunConfig(learning_rate=0.002, seed=7)
        cfg.echo(tmp_path)
        back = RunConfig.from_file(tmp_path / "config.json")
        assert back == cfg


class TestBetaSchedule:
    def test_linear_ramp(self):
        assert beta_at(0, 10) == 0.0
        assert beta_at(5, 10) == 0.5
        assert beta_at(10, 10) == 1.0
        assert beta_at(50, 10) == 1.0

    def test_zero_warmup_is_always_one(self):
        assert beta_at(0, 0) == 1.0

    def test_cyclical_restarts(self):
        assert beta_at(0, 5, cycle_steps=10) == 0.0
        assert beta_at(7, 5, cycle_steps=10) == 1.0
        assert beta_at(10, 5, cycle_steps=10) == 0.0
        assert beta_at(12, 5, cycle_steps=10) == pytest.approx(0.4)

    def test_schedule_from_config(self):
        cfg = RunConfig(stage1_epochs=10, batch_size=8, beta_warmup_frac=0.3)
        warmup, cycle = beta_schedule(cfg, n_pairs=80)
        assert cycle == 0
        assert warmup == int(round(0.3 * 10 * steps_per_epoch(80, 8)))
        cfg2 = RunConfig(stage1_epochs=10, batch_size=8, beta_cycles=4)
        warmup2, cycle2 = beta_schedule(cfg2, n_pairs=80)
        assert cycle2 == 25 and warmup2 >= 1


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def _model(self):
        cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                          r_rank=2, max_seq_len=32)
        m = VaeModel(cfg, seed=0)
        rng = np.random.default_rng(1)
        for p in m.params.values():
            p.data += 0.01 * rng.standard_normal(p.data.shape)
        return m

    def test_round_trip_bit_exact(self, tmp_path):
        m = self._model()
        vocab = SPECIALS + [f"w{i}" for i in range(16)]
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, vocab, extra={"stage": 1, "global_step": 42})
        back, vocab2, extra = load_checkpoint(path)
        assert vocab2 == vocab
        assert extra["global_step"] == 42
        assert set(back.params) == set(m.params)
        for name in m.params:
            np.testing.assert_array_equal(back.params[name].data,
                                          m.params[name].data)

    def test_load_draws_no_initialisation(self, tmp_path, monkeypatch):
        m = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, SPECIALS + [f"w{i}" for i in range(16)])

        def no_draw(*args, **kwargs):
            raise AssertionError("a load drew a random initialisation")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        back, _, _ = load_checkpoint(path)
        assert list(back.params) == list(m.params)
        for name, t in m.params.items():
            assert back.params[name].shape == t.shape
            assert back.params[name].data.tobytes() == t.data.tobytes()

    def test_load_reads_the_block_once(self, tmp_path):
        # The parameter block is read straight into the model's buffer: a load
        # of a default-size checkpoint (16 MB) peaks near the file's size, not
        # at twice it, and the buffer is an aligned, writable array.
        cfg = ModelConfig(vocab_size=500)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, VaeModel(cfg, seed=0),
                        SPECIALS + [f"w{i}" for i in range(cfg.vocab_size - len(SPECIALS))])
        tracemalloc.start()
        try:
            back, _, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * path.stat().st_size
        assert back.flat.flags.writeable and back.flat.flags.aligned

    def test_save_load_save_identical_bytes(self, tmp_path):
        m = self._model()
        vocab = SPECIALS + [f"w{i}" for i in range(16)]
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, m, vocab, extra={"stage": 1})
        back, vocab2, extra = load_checkpoint(p1)
        save_checkpoint(p2, back, vocab2, extra=extra)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_is_header_then_parameter_block(self, tmp_path):
        # Version 3 stores no parameter names or shapes: the config's layout
        # orders the model's dict, its buffer and the file's one float64
        # block alike.
        m = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, SPECIALS + [f"w{i}" for i in range(16)])
        data = path.read_bytes()
        (hlen,) = struct.unpack_from("<I", data, 8)
        assert data[4:8] == struct.pack("<I", 3)
        assert list(m.params) == [name for name, _, _ in parameter_layout(m.config)]
        assert data[12 + hlen:] == m.flat.astype("<f8").tobytes()
        assert data[12 + hlen:] == b"".join(p.data.astype("<f8").tobytes()
                                            for p in m.params.values())

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(InputError):
            load_checkpoint(p)

    def _small(self, path, vocab=None):
        cfg = ModelConfig(vocab_size=5, n_layers=1, d_h=2, n_heads=1, d_z=1,
                          r_rank=1, max_seq_len=4)
        save_checkpoint(path, VaeModel(cfg, seed=0),
                        SPECIALS + ["w"] if vocab is None else vocab, extra={"stage": 1})
        return path.read_bytes()

    def test_every_truncated_prefix_raises(self, tmp_path):
        data = self._small(tmp_path / "m.ckpt")
        cut = tmp_path / "cut.ckpt"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(InputError):
                load_checkpoint(cut)

    def test_file_cut_after_it_is_sized_raises(self, tmp_path, cut_after_sizing):
        # Every read is counted, not only checked against the size at open:
        # no cut leaves part of the header or of the block unread.
        path = tmp_path / "m.ckpt"
        data = self._small(path)
        for n in range(len(data)):
            path.write_bytes(data)
            cut_after_sizing(path, n)
            with pytest.raises(InputError, match="truncated"):
                load_checkpoint(path)

    @staticmethod
    def _with_header(data, edit):
        """`data` with its JSON header replaced by edit(header bytes)."""
        (hlen,) = struct.unpack_from("<I", data, 8)
        blob = edit(data[12:12 + hlen])
        return data[:8] + struct.pack("<I", len(blob)) + blob + data[12 + hlen:]

    def test_corrupt_header_rejected(self, tmp_path):
        data = self._small(tmp_path / "m.ckpt")
        flipped = bytearray(data)
        flipped[20] ^= 0xFF

        def rewrite(fn):
            return lambda blob: json.dumps(fn(json.loads(blob))).encode("utf-8")

        def drop_config(h):
            del h["config"]
            return h

        def unknown_key(h):
            h["config"]["bogus"] = 1
            return h

        def string_layers(h):
            h["config"]["n_layers"] = "1"
            return h

        bad = [bytes(flipped),
               self._with_header(data, lambda blob: blob[:-1]),
               self._with_header(data, rewrite(drop_config)),
               self._with_header(data, rewrite(unknown_key)),
               self._with_header(data, rewrite(string_layers)),
               self._with_header(data, rewrite(lambda h: [h])),
               self._with_header(data, rewrite(lambda h: {**h, "extra": []}))]
        path = tmp_path / "bad.ckpt"
        for b in bad:
            path.write_bytes(b)
            with pytest.raises(InputError):
                load_checkpoint(path)

    def test_version_one_rejected(self, tmp_path, capsys):
        # Version 1 stored per-rank injection maps and attention key biases,
        # version 2 a name and shape record per parameter.
        data = self._small(tmp_path / "m.ckpt")
        path = tmp_path / "old.ckpt"
        for version in (1, 2):
            path.write_bytes(data[:4] + struct.pack("<I", version) + data[8:])
            with pytest.raises(InputError, match=f"version {version}, expected 3; rerun"):
                load_checkpoint(path)
        rc = cli_main(["--out", str(tmp_path / "o"), "generate",
                       "--checkpoint", str(path), "--source", "w"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "version 2" in err and "rerun training" in err

    @staticmethod
    def _set(section, **fields):
        """A header edit that sets `fields` in the header's `section` object."""
        def edit(blob):
            h = json.loads(blob)
            h[section].update(fields)
            return json.dumps(h).encode("utf-8")
        return edit

    def test_generate_header_naming_bos_id_exit_one(self, tmp_path, capsys):
        # The special ids are data.BOS and data.EOS, no longer config keys.
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._with_header(self._small(path), self._set("config", bos_id=2)))
        rc = cli_main(["--out", str(tmp_path / "o"), "generate",
                       "--checkpoint", str(path), "--source", "w"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown keys ['bos_id']" in err

    @pytest.mark.parametrize("field,value", [("d_h", 10**6), ("n_layers", 10**5)])
    def test_oversized_config_rejected(self, tmp_path, capsys, field, value):
        # The file's floats are counted against the config's before a model
        # of the claimed size is built, so the load allocates no more than
        # the file holds.
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._with_header(self._small(path),
                                           self._set("config", **{field: value})))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="truncated"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        rc = cli_main(["--out", str(tmp_path / "o"), "generate",
                       "--checkpoint", str(path), "--source", "w"])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_train_regavae_string_counter_exit_one(self, tmp_path, capsys):
        # A string or a negative training counter ends in exit 1 naming the
        # key, not in a traceback from the step or epoch random streams.
        path = tmp_path / "m.ckpt"
        for key, value in (("global_step", "7"), ("global_step", -3), ("global_epoch", -3)):
            path.write_bytes(self._with_header(self._small(path),
                                               self._set("extra", **{key: value})))
            rc = cli_main(["--out", str(tmp_path / "o"), "train-regavae",
                           "--checkpoint", str(path), "--database", str(tmp_path / "r.db")])
            assert rc == 1, (key, value)
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, (key, value)

    def test_bad_vocabulary_rejected(self, tmp_path):
        # Too short, a non-string word, and the specials out of place.
        for vocab in (SPECIALS, SPECIALS + [5], ["w"] + SPECIALS, SPECIALS[::-1] + ["w"]):
            self._small(tmp_path / "m.ckpt", vocab=vocab)
            with pytest.raises(InputError):
                load_checkpoint(tmp_path / "m.ckpt")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(self._small(path) + b"\x00" * 4)
        with pytest.raises(InputError):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        before = self._small(path)

        class DiskFullAfterHeader(io.FileIO):
            """A file that takes the header, then fails on the parameter block."""

            def write(self, b):
                if self.tell() > 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(b)

        monkeypatch.setattr(checkpoint, "open", DiskFullAfterHeader, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, self._model(), SPECIALS + [f"w{i}" for i in range(16)])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]

    def test_rebound_parameter_not_saved(self, tmp_path):
        # The buffer no longer holds a rebound parameter's values: the save
        # raises instead of writing stale ones, and leaves no file.
        m = self._model()
        m.params["dec.lnf.b"].data = m.params["dec.lnf.b"].data + 1.0
        path = tmp_path / "m.ckpt"
        with pytest.raises(ContractError, match="dec.lnf.b"):
            save_checkpoint(path, m, SPECIALS + [f"w{i}" for i in range(16)])
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Pipeline plumbing (tiny end-to-end smoke, restart safety)
# ---------------------------------------------------------------------------

def tiny_cfg(tmp_path, **kw):
    train, evals = make_synthetic_corpus(seed=0, n_clusters=3,
                                         train_per_cluster=4, eval_per_cluster=2)
    write_jsonl(train, tmp_path / "train.jsonl")
    write_jsonl(evals, tmp_path / "eval.jsonl")
    base = dict(L=2, d_h=16, heads=2, d_z=4, r_rank=2, max_seq_len=32,
                learning_rate=1e-3, batch_size=4, stage1_epochs=2,
                stage3_epochs=2, seed=0, k_neighbors=2,
                corpus=str(tmp_path / "train.jsonl"),
                eval_corpus=str(tmp_path / "eval.jsonl"))
    base.update(kw)
    return RunConfig(**base)


class TestPipelinePlumbing:
    def test_stage1_writes_checkpoint_and_config_echo(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "out"
        path, result = run_stage1(cfg, out)
        assert os.path.exists(path)
        assert os.path.exists(out / "config.json")
        assert result.global_step == result.global_epoch * 3  # 12 pairs / bs 4

    def test_stage2_db_restart_safe(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        out = tmp_path / "out"
        ckpt, _ = run_stage1(cfg, out)
        db1 = run_stage2(cfg, ckpt, out)
        bytes1 = Path(db1).read_bytes()
        db2 = run_stage2(cfg, ckpt, out)  # re-run from the same checkpoint
        assert Path(db2).read_bytes() == bytes1

    def test_stage1_rerun_bit_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        p1, _ = run_stage1(cfg, tmp_path / "o1")
        p2, _ = run_stage1(cfg, tmp_path / "o2")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_stage3_excludes_self_from_a_fresh_snapshot(self, tmp_path, monkeypatch):
        import regavae.training as training

        cfg = tiny_cfg(tmp_path, refresh_interval=1)  # k_neighbors=2
        out = tmp_path / "out"
        ckpt, stage1 = run_stage1(cfg, out)
        db_path = run_stage2(cfg, ckpt, out)
        pairs, _ = ingest(cfg.corpus, min_count=cfg.min_count)
        original = training.regavae_loss
        seen = []

        def spy(model, x, y, db, k, beta, rng, exclude_id=None, kl_floor=0.0):
            seen.append((db.snapshot_step, list(exclude_id), x, y))
            return original(model, x, y, db, k, beta, rng, exclude_id=exclude_id,
                            kl_floor=kl_floor)

        monkeypatch.setattr(training, "regavae_loss", spy)
        _, result = training.run_stage3(cfg, ckpt, db_path, out)
        # One call per step, over the step's whole batch: 12 pairs in batches of 4.
        steps_per_epoch = len(pairs) // cfg.batch_size
        assert len(seen) == steps_per_epoch * cfg.stage3_epochs
        for i, (snapshot, excl, xs, ys) in enumerate(seen):
            assert snapshot == stage1.global_step + i
            assert len(excl) == len(xs) == len(ys) == cfg.batch_size
            for e, x, y in zip(excl, xs, ys):
                assert (pairs[e].source_tokens, pairs[e].target_tokens) == (x, y)
        for ep in range(cfg.stage3_epochs):
            epoch = seen[ep * steps_per_epoch:(ep + 1) * steps_per_epoch]
            assert sorted(e for _, excl, _, _ in epoch for e in excl) == list(range(len(pairs)))
        assert result.database.snapshot_step == result.global_step - 1

    def test_eval_generations_are_the_lone_generations(self, tmp_path, monkeypatch):
        from regavae.mixture import mixture_mean_latents
        from regavae.autograd import Tensor
        from regavae.training import generation_rng

        cfg = tiny_cfg(tmp_path, k_neighbors=0)
        ckpt, _ = run_stage1(cfg, tmp_path / "out")
        packed, generate_pack = [], VaeModel.generate_pack

        def spy(self, *args, **kw):
            packed.append(generate_pack(self, *args, **kw))
            return packed[-1]

        monkeypatch.setattr(VaeModel, "generate_pack", spy)
        run_eval(cfg, ckpt, None, tmp_path / "out")
        monkeypatch.undo()
        model, vocab, _ = load_checkpoint(ckpt)
        pairs, _ = ingest(cfg.eval_corpus, tokenizer=Tokenizer(vocab))
        latents = mixture_mean_latents(model, [p.source_tokens for p in pairs], None, 0)
        lone = [model.generate([Tensor(z.data[i]) for z in latents], cfg.max_gen_len, "top_k",
                               generation_rng(cfg.seed, i), cfg.top_k_sample)
                for i in range(len(pairs))]
        assert packed == [lone]

    def test_failed_metrics_write_keeps_previous_file(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(tmp_path, k_neighbors=0, stage1_epochs=1)
        out = tmp_path / "out"
        ckpt, _ = run_stage1(cfg, out)
        (out / "metrics.json").write_text("previous\n")

        class DiskFull:
            """Takes the first half of a write, then fails as a full disk does."""

            def __init__(self, path):
                self.f = open(path, "wb")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(checkpoint, "open", lambda path, mode: (
            DiskFull(path) if str(path).endswith("metrics.json.tmp") else open(path, mode)),
            raising=False)
        with pytest.raises(OSError):
            run_eval(cfg, ckpt, None, out)
        assert (out / "metrics.json").read_text() == "previous\n"
        assert [p.name for p in out.iterdir() if p.name.endswith(".tmp")] == []

    def test_stage3_rejects_a_database_of_another_corpus(self, tmp_path):
        cfg = tiny_cfg(tmp_path)  # k_neighbors=2, 12 pairs
        out = tmp_path / "out"
        ckpt, _ = run_stage1(cfg, out)
        db = load_database(run_stage2(cfg, ckpt, out))
        other = make_synthetic_corpus(seed=1, n_clusters=5, train_per_cluster=4)[0]
        write_jsonl(other, tmp_path / "other.jsonl")
        other_cfg = dataclasses.replace(cfg, corpus=str(tmp_path / "other.jsonl"))
        bad = {"other.db": load_database(run_stage2(other_cfg, ckpt, tmp_path / "other")),
               "swapped.db": RetrievalDatabase(
                   [dataclasses.replace(db.entries[1], id=0),
                    dataclasses.replace(db.entries[0], id=1)]
                   + [db.entries[i] for i in range(2, len(db))],
                   db.snapshot_step, db.refresh_interval)}
        for name, bad_db in bad.items():
            save_database(bad_db, tmp_path / name)
            with pytest.raises(InputError, match="database"):
                run_stage3(cfg, ckpt, tmp_path / name, tmp_path / "o3")


    def test_stage3_continues_the_stage1_beta_cycles(self, tmp_path):
        # The checkpoint carries cycle_steps, so stage 3 ramps beta up from 0
        # again at each cycle boundary after stage 1's 30 steps (12 pairs,
        # batches of 4, 10 epochs; two cycles of 15, warmup round(4.5) = 4).
        cfg = tiny_cfg(tmp_path, L=1, stage1_epochs=10, stage3_epochs=10, beta_cycles=2,
                       k_neighbors=0)
        assert beta_schedule(cfg, 12) == (4, 15)
        ckpt, r1 = run_stage1(cfg, tmp_path / "out")
        _, r3 = run_stage3(cfg, ckpt, None, tmp_path / "out")
        cycle = [0.0, 0.25, 0.5, 0.75] + [1.0] * 11
        assert [bd.beta for bd in r1.step_losses] == cycle * 2
        assert r3.global_step == 60
        assert [bd.beta for bd in r3.step_losses] == cycle * 2  # 0.0 at steps 30 and 45

    def test_eval_encodes_its_sources_once_as_one_pack(self, tmp_path, monkeypatch):
        import regavae.training as training

        cfg = tiny_cfg(tmp_path)  # k_neighbors=2
        out = tmp_path / "out"
        ckpt, _ = run_stage1(cfg, out)
        db_path = run_stage2(cfg, ckpt, out)
        real = VaeModel.encode
        packs = []

        def spy(self, tokens):
            packs.append(tokens)
            return real(self, tokens)

        monkeypatch.setattr(VaeModel, "encode", spy)
        report = training.run_eval(cfg, ckpt, db_path, out)
        monkeypatch.undo()
        eval_pairs, _ = ingest(cfg.eval_corpus, tokenizer=Tokenizer(load_checkpoint(ckpt)[1]))
        assert packs == [[p.source_tokens for p in eval_pairs]]
        assert report == training.run_eval(cfg, ckpt, db_path, tmp_path / "again")

    def test_eval_builds_no_entry_records(self, tmp_path, monkeypatch):
        """Eval reads a dump's arrays; the per-entry records stay unbuilt."""
        from regavae import retrieval

        cfg = tiny_cfg(tmp_path)  # k_neighbors=2
        out = tmp_path / "out"
        ckpt, _ = run_stage1(cfg, out)
        db_path = run_stage2(cfg, ckpt, out)
        made = []

        class CountingEntry(retrieval.RetrievalEntry):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        monkeypatch.setattr(retrieval, "RetrievalEntry", CountingEntry)
        run_eval(cfg, ckpt, db_path, out)
        assert made == []
        assert len(list(load_database(db_path).entries)) == len(made) == 12  # the spy counts


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

_CONFIG_KEYS = get_type_hints(RunConfig)
# JSON literals of a wrong type for each field type.
_WRONG_TYPES = {int: ('"1"', "2.5", "null"), float: ('"x"', "true", "NaN"), str: ("3", "null")}
# Every bound of every key that has one, as JSON literals.
_OUT_OF_RANGE = [
    ("L", "0"), ("L", str(2**62)), ("d_h", "0"), ("d_h", "15"), ("heads", "0"), ("heads", "3"),
    ("d_z", "0"), ("r_rank", "0"), ("max_seq_len", "2"), ("max_seq_len", str(2**62)),
    ("learning_rate", "0"), ("learning_rate", "-0.001"), ("learning_rate", str(10**400)),
    ("batch_size", "0"), ("stage1_epochs", "-1"), ("stage1_epochs", str(10**400)),
    ("stage3_epochs", "-1"), ("stage3_epochs", str(2**64)),
    ("beta_warmup_frac", "-0.5"), ("beta_warmup_frac", "1.5"), ("beta_warmup_frac", "1e308"),
    ("beta_cycles", "-1"), ("kl_floor", "-0.5"), ("kl_floor", str(10**400)),
    ("grad_clip", "-1"), ("grad_clip", str(10**400)), ("seed", "-1"),
    ("seed", "1" + "0" * 5000),  # more digits than int() takes
    ("k_neighbors", "-1"), ("refresh_interval", "0"), ("refresh_interval", str(2**32)),
    ("top_k_sample", "0"), ("max_gen_len", "0"), ("min_count", "0"), ("min_count", "-1"),
]
_BAD_CONFIG_VALUES = ([(k, v) for k, t in _CONFIG_KEYS.items() for v in _WRONG_TYPES[t]]
                      + _OUT_OF_RANGE)


# Each flag of each subcommand with a bad value, as (argv, exit code, a part of
# the one error line). Flags before the subcommand are global. The test puts a
# valid --config and --out first and the subcommand's valid required flags
# right after it, so a row's own value of a flag wins. {ckpt} is a stage-1
# checkpoint, {db} its dump, {dir} a directory, {file} a file and {missing} a
# path that does not exist.
_SUBCOMMANDS = {
    "train-vae": [], "build-db": ["--checkpoint", "{ckpt}"],
    "train-regavae": ["--checkpoint", "{ckpt}", "--database", "{db}"],
    "generate": ["--checkpoint", "{ckpt}", "--source", "s00x0 s00x1"],
    "eval": ["--checkpoint", "{ckpt}"], "pipeline": [], "ablate": [],
}
_BAD_PATHS = (("{missing}", "No such file or directory"), ("{dir}", "Is a directory"))
_BAD_FLAGS = (
    [([*flag, cmd], rc, part) for cmd in _SUBCOMMANDS for flag, rc, part in (
        (["--seed", "-1"], 1, "seed must be >= 0"), (["--seed", "x"], 2, "invalid int value"),
        *((["--config", v], 1, part) for v, part in _BAD_PATHS),
        (["--config", "{ckpt}"], 1, "invalid JSON config"), (["--out", "{file}"], 1, "File exists"))]
    + [([cmd, flag, v], 1, part) for flag, other, kind, cmds in (
        ("--checkpoint", "{db}", "is not a checkpoint file",
         ("build-db", "train-regavae", "generate", "eval")),
        ("--database", "{ckpt}", "is not a database dump file",
         ("train-regavae", "generate", "eval")))
       for cmd in cmds for v, part in _BAD_PATHS + ((other, kind),)]
    + [(["generate", "--n-samples", n], rc, part) for n, rc, part in (
        ("0", 1, "--n-samples must be >= 1"), ("-3", 1, "--n-samples must be >= 1"),
        (str(2**62), 1, f"--n-samples {2**62} is too large"), ("x", 2, "invalid int value"))]
    + [(["generate", "--strategy", "bogus"], 2, "invalid choice: 'bogus'"),
       (["generate", "--source", ""], 1, "empty token sequence"),
       (["ablate", "--sweep", "1", "-1"], 1, "k_neighbors must be >= 0"),
       (["ablate", "--sweep", "x"], 2, "invalid int value")]
)


@pytest.fixture(scope="module")
def flag_files(tmp_path_factory):
    """The files the flag table names: a config, its stage-1 checkpoint and dump."""
    root = tmp_path_factory.mktemp("flags")
    cfg = tiny_cfg(root, L=1, stage1_epochs=1)
    (root / "cli.json").write_text(json.dumps(dataclasses.asdict(cfg)))
    (root / "file").write_text("")
    ckpt, _ = run_stage1(cfg, root / "run")
    return {"cfg": str(root / "cli.json"), "ckpt": ckpt, "db": run_stage2(cfg, ckpt, root / "run"),
            "dir": str(root), "file": str(root / "file")}


class TestCli:
    def _write_cfg(self, tmp_path, **kw):
        cfg = tiny_cfg(tmp_path, **kw)
        p = tmp_path / "cli.json"
        p.write_text(json.dumps(dataclasses.asdict(cfg)))
        return p

    def test_config_table_bounds_every_ranged_key(self):
        ranged = {k for k, t in _CONFIG_KEYS.items() if t is not str}
        assert {k for k, _ in _OUT_OF_RANGE} == ranged

    @pytest.mark.parametrize("key,literal", _BAD_CONFIG_VALUES,
                             ids=[f"{k}={v if len(v) < 24 else f'{len(v)}digits'}"
                                  for k, v in _BAD_CONFIG_VALUES])
    def test_bad_config_value_exit_one_before_any_write(self, tmp_path, capsys, key, literal):
        # The value is spliced in as JSON text, so NaN and integers too large
        # for a float reach the loader as written. Nothing may train or be written.
        raw = json.loads(self._write_cfg(tmp_path).read_text())
        del raw[key]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw)[:-1] + f', "{key}": {literal}}}')
        out = tmp_path / "o"
        rc = cli_main(["--config", str(p), "--out", str(out), "train-vae"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not (out / "config.json").exists() and not (out / "stage1.ckpt").exists()

    @pytest.mark.parametrize("row,rc,part", _BAD_FLAGS,
                             ids=[" ".join(a or '""' for a in row) for row, _, _ in _BAD_FLAGS])
    def test_bad_flag_one_error_line(self, tmp_path, capsys, flag_files, row, rc, part):
        # Nothing is printed and nothing but the config echo is written to --out:
        # ablate checks its whole sweep before any variant trains.
        names = dict(flag_files, out=str(tmp_path / "o"), missing=str(tmp_path / "missing"))
        cmd = next(i for i, arg in enumerate(row) if arg in _SUBCOMMANDS)
        argv = ["--config", "{cfg}", "--out", "{out}", *row[:cmd + 1], *_SUBCOMMANDS[row[cmd]],
                *row[cmd + 1:]]
        try:
            code = cli_main([arg.format(**names) for arg in argv])
        except SystemExit as e:  # argparse's usage errors
            code = e.code
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert code == rc and captured.out == "" and "Traceback" not in captured.err
        assert len(errors) == 1 and part in errors[0]
        assert set(os.listdir(tmp_path / "o") if (tmp_path / "o").is_dir() else ()) <= {
            "config.json"}

    def test_overflow_exit_two_error_line(self, tmp_path, capsys):
        # Training at this rate stays finite, but eval's perplexity overflows
        # exp. cli.main makes that one error line, and leaves numpy's error
        # handling as it found it.
        cfgp = self._write_cfg(tmp_path, L=1, stage1_epochs=1, stage3_epochs=1,
                               learning_rate=2.0**63)
        before = np.geterr()
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"), "pipeline"])
        err = capsys.readouterr().err
        assert rc == 2 and err == "error: overflow encountered in exp\n"
        assert not (tmp_path / "o" / "metrics.json").exists() and np.geterr() == before

    def test_stage3_rerun_on_its_own_database_rekeys_it(self, tmp_path):
        # Stage 3 overwrites retrieval.db with its last snapshot, keyed after
        # stage 1. A second train-regavae on that file keys the corpus from the
        # checkpoint again, as build-db did, and so writes the same bytes.
        cfgp, out = self._write_cfg(tmp_path, L=1, refresh_interval=2), tmp_path / "o"
        base = ["--config", str(cfgp), "--out", str(out)]
        ckpt, db = str(out / "stage1.ckpt"), str(out / "retrieval.db")
        stage3 = base + ["train-regavae", "--checkpoint", ckpt, "--database", db]
        for argv in (base + ["train-vae"], base + ["build-db", "--checkpoint", ckpt], stage3):
            assert cli_main(argv) == 0
        first = [(out / name).read_bytes() for name in ("stage3.ckpt", "retrieval.db")]
        assert load_database(db).snapshot_step > load_checkpoint(ckpt)[2]["global_step"]
        assert cli_main(stage3) == 0
        assert [(out / name).read_bytes() for name in ("stage3.ckpt", "retrieval.db")] == first

    def test_stage3_rekeys_a_database_of_another_refresh_interval(self, tmp_path):
        # The loop refreshes on the interval stored in the dump, so stage 3 keys
        # a dump of another refresh_interval afresh under the config's: the
        # bytes of build-db under that config followed by train-regavae.
        out = tmp_path / "o"
        ckpt, db = str(out / "stage1.ckpt"), str(out / "retrieval.db")
        cfgp = self._write_cfg(tmp_path, L=1, refresh_interval=2)
        for argv in (["train-vae"], ["build-db", "--checkpoint", ckpt]):
            assert cli_main(["--config", str(cfgp), "--out", str(out)] + argv) == 0
        cfgp = self._write_cfg(tmp_path, L=1, refresh_interval=1000)
        base = ["--config", str(cfgp), "--out"]
        ref, ref_db = tmp_path / "ref", str(tmp_path / "ref" / "retrieval.db")
        assert cli_main(base + [str(ref), "build-db", "--checkpoint", ckpt]) == 0
        for o, d in ((ref, ref_db), (tmp_path / "o3", db)):
            assert cli_main(base + [str(o), "train-regavae", "--checkpoint", ckpt,
                                    "--database", d]) == 0
        for name in ("stage3.ckpt", "retrieval.db"):
            assert (tmp_path / "o3" / name).read_bytes() == (ref / name).read_bytes()
        assert load_database(db).refresh_interval == 2

    def test_train_vae_exit_zero(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                       "train-vae"])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("stage1.ckpt") and os.path.exists(out)

    def test_missing_corpus_exit_one(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path, corpus=str(tmp_path / "nope.jsonl"))
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                       "train-vae"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"bogus": 1}')
        rc = cli_main(["--config", str(p), "--out", str(tmp_path / "o"),
                       "train-vae"])
        assert rc == 1

    def test_model_too_large_to_index_exit_one(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"max_seq_len": 2**62}))
        rc = cli_main(["--config", str(p), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "too large" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "o" / "stage1.ckpt")

    def test_zero_batch_size_exit_one(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        raw = json.loads(p.read_text())
        raw["batch_size"] = 0
        p.write_text(json.dumps(raw))
        rc = cli_main(["--config", str(p), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        assert "batch_size" in capsys.readouterr().err

    def test_wrong_config_type_exit_one(self, tmp_path, capsys):
        p = self._write_cfg(tmp_path)
        raw = json.loads(p.read_text())
        raw["L"] = "2"
        p.write_text(json.dumps(raw))
        rc = cli_main(["--config", str(p), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        assert "'L'" in capsys.readouterr().err

    def test_non_utf8_config_exit_one(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"corpus": "\xff"}')
        rc = cli_main(["--config", str(p), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: invalid JSON config ('utf-8' codec can't decode")

    def test_non_utf8_corpus_exit_one(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        corpus = tmp_path / "train.jsonl"
        corpus.write_bytes(b'{"source": "a", "target": "b"}\n{"source": "\xff", "target": "b"}\n')
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {corpus}:2: not UTF-8 text")

    def test_out_of_memory_exit_one(self, tmp_path, capsys, monkeypatch):
        import regavae.training as training_mod

        def no_memory(config, seed):
            raise MemoryError("Unable to allocate 8.00 TiB for an array")

        monkeypatch.setattr(training_mod, "VaeModel", no_memory)
        cfgp = self._write_cfg(tmp_path)
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (Unable to allocate") and "Traceback" not in err

    def test_model_too_large_to_allocate_exit_one(self, tmp_path, capsys, monkeypatch):
        # 7.4e10 parameters (551 GiB) can be indexed but not allocated. Any
        # np.empty of 2**30 floats or more raises, as it would without memory
        # overcommit, so the test allocates nothing real; the model must ask
        # for its buffer before it walks the layout.
        import regavae.model as model_mod

        real_empty, real_layout = np.empty, model_mod.parameter_layout
        requests, walked = [], []

        def empty(shape, *args, **kwargs):
            n = int(np.prod(shape, dtype=object))
            if n >= 2**30:
                requests.append(n)
                raise MemoryError(f"Unable to allocate {n * 8 / 2**30:.0f} GiB for an array")
            return real_empty(shape, *args, **kwargs)

        def layout(config):
            for entry in real_layout(config):
                walked.append(entry[0])
                yield entry

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr(model_mod, "parameter_layout", layout)
        cfgp = self._write_cfg(tmp_path, L=10**9, d_h=1, heads=1)
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"), "train-vae"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: out of memory (Unable to allocate 551 GiB")
        assert requests == [74000000079] and walked == []
        assert not os.path.exists(tmp_path / "o" / "stage1.ckpt")

    def test_divergence_exit_two(self, tmp_path, capsys, monkeypatch):
        import regavae.cli as cli_mod
        from regavae.errors import DivergenceError, NumericOverflowError

        cfgp = self._write_cfg(tmp_path)

        def boom(cfg, out):
            raise DivergenceError("non-finite loss at step 3")

        monkeypatch.setattr(cli_mod, "run_stage1", boom)
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                       "train-vae"])
        assert rc == 2

        def boom2(cfg, out):
            raise NumericOverflowError("non-finite values in exp")

        monkeypatch.setattr(cli_mod, "run_stage1", boom2)
        rc = cli_main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                       "train-vae"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_full_cli_pipeline_and_eval(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert cli_main(["--config", str(cfgp), "--out", out, "train-vae"]) == 0
        ckpt = os.path.join(out, "stage1.ckpt")
        assert cli_main(["--config", str(cfgp), "--out", out, "build-db",
                         "--checkpoint", ckpt]) == 0
        db = os.path.join(out, "retrieval.db")
        assert cli_main(["--config", str(cfgp), "--out", out, "train-regavae",
                         "--checkpoint", ckpt, "--database", db]) == 0
        ckpt3 = os.path.join(out, "stage3.ckpt")
        capsys.readouterr()
        assert cli_main(["--config", str(cfgp), "--out", out, "eval",
                         "--checkpoint", ckpt3, "--database", db]) == 0
        text = capsys.readouterr().out
        for key in ("ppl", "self_bleu", "dist2", "au"):
            assert key in text
        assert os.path.exists(os.path.join(out, "metrics.json"))

    def test_eval_truncated_checkpoint_exit_one(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert cli_main(["--config", str(cfgp), "--out", out, "train-vae"]) == 0
        ckpt = os.path.join(out, "stage1.ckpt")
        with open(ckpt, "rb") as f:
            data = f.read()
        with open(ckpt, "wb") as f:
            f.write(data[:len(data) // 2])
        capsys.readouterr()
        rc = cli_main(["--config", str(cfgp), "--out", out, "eval",
                       "--checkpoint", ckpt])
        assert rc == 1
        assert "truncated" in capsys.readouterr().err

    def test_eval_corrupt_header_exit_one(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        assert cli_main(["--config", str(cfgp), "--out", out, "train-vae"]) == 0
        ckpt = os.path.join(out, "stage1.ckpt")
        with open(ckpt, "rb") as f:
            data = bytearray(f.read())
        data[20] ^= 0xFF
        with open(ckpt, "wb") as f:
            f.write(data)
        capsys.readouterr()
        rc = cli_main(["--config", str(cfgp), "--out", out, "eval",
                       "--checkpoint", ckpt])
        assert rc == 1
        assert "header is corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["eval"], ["generate", "--source", "s00x0 s00x1"]],
                             ids=["eval", "generate"])
    def test_eval_database_of_other_d_z_exit_one(self, tmp_path, capsys, command):
        from regavae.model import LatentGaussian
        from regavae.retrieval import RetrievalDatabase, RetrievalEntry, save_database

        cfgp = self._write_cfg(tmp_path)  # d_z=4
        out = str(tmp_path / "o")
        assert cli_main(["--config", str(cfgp), "--out", out, "train-vae"]) == 0
        db = os.path.join(out, "other.db")
        save_database(RetrievalDatabase(
            [RetrievalEntry(i, LatentGaussian.from_arrays(np.ones(3) + i, np.zeros(3)),
                            [4], [5]) for i in range(3)], 0, 500), db)
        capsys.readouterr()
        rc = cli_main(["--config", str(cfgp), "--out", out, *command,
                       "--checkpoint", os.path.join(out, "stage1.ckpt"), "--database", db])
        assert rc == 1
        err = capsys.readouterr().err  # rejected at load, naming both dimensions
        assert "dimension 3" in err and "dimension 4" in err

    def test_pipeline_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path, stage1_epochs=1, stage3_epochs=1)
        out = str(tmp_path / "o")
        rc = cli_main(["--config", str(cfgp), "--out", out, "pipeline"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == os.path.join(out, "stage3.ckpt")
        assert "ppl" in "\n".join(lines[1:])
        for name in ("stage1.ckpt", "retrieval.db", "stage3.ckpt", "metrics.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_generate_prints_samples(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        cli_main(["--config", str(cfgp), "--out", out, "train-vae"])
        ckpt = os.path.join(out, "stage1.ckpt")
        capsys.readouterr()
        rc = cli_main(["--config", str(cfgp), "--out", out, "generate",
                       "--checkpoint", ckpt, "--source", "s00x0 s00x1 s00x2",
                       "--n-samples", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_generate_samples_are_lone_generations(self, tmp_path, capsys):
        from regavae.mixture import mixture_mean_latents
        from regavae.training import generation_rng

        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        cli_main(["--config", str(cfgp), "--out", out, "train-vae"])
        ckpt, source = os.path.join(out, "stage1.ckpt"), "s00x0 s00x1 s00x2"
        model, vocab, _ = load_checkpoint(ckpt)
        tok, cfg = Tokenizer(vocab), RunConfig.from_file(cfgp)
        z = mixture_mean_latents(model, tok.encode(source), None, 0)
        for n in (1, 4):
            capsys.readouterr()
            assert cli_main(["--config", str(cfgp), "--out", out, "generate", "--checkpoint",
                             ckpt, "--source", source, "--n-samples", str(n)]) == 0
            assert capsys.readouterr().out.splitlines() == [
                tok.decode(model.generate(z, cfg.max_gen_len, "top_k", generation_rng(cfg.seed, i),
                                          cfg.top_k_sample)) for i in range(n)]

    def test_generate_too_many_samples_exit_one_before_allocating(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfgp = self._write_cfg(tmp_path)
        out = str(tmp_path / "o")
        cli_main(["--config", str(cfgp), "--out", out, "train-vae"])
        capsys.readouterr()
        repeats = []
        monkeypatch.setattr(np, "repeat", lambda *a, **kw: repeats.append(a))
        rc = cli_main(["--config", str(cfgp), "--out", out, "generate",
                       "--checkpoint", os.path.join(out, "stage1.ckpt"),
                       "--source", "s00x0 s00x1 s00x2", "--n-samples", str(2**62)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and repeats == []
        err = captured.err
        assert err.startswith("error: --n-samples") and err.count("\n") == 1

    @pytest.mark.parametrize("ppl", [float("inf"), float("nan")])
    def test_non_finite_ppl_exit_two_before_metrics(self, tmp_path, capsys, monkeypatch, ppl):
        from regavae import training

        cfgp = self._write_cfg(tmp_path)
        out = tmp_path / "o"
        assert cli_main(["--config", str(cfgp), "--out", str(out), "train-vae"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(training, "perplexity", lambda *a, **kw: ppl)
        rc = cli_main(["--config", str(cfgp), "--out", str(out), "eval",
                       "--checkpoint", str(out / "stage1.ckpt")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: held-out perplexity") and err.count("\n") == 1
        assert not (out / "metrics.json").exists() and not (out / "metrics.txt").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e-155, 1e200])
    @pytest.mark.parametrize("command", [["eval"], ["generate", "--source", "s00x0 s00x1"]],
                             ids=["eval", "generate"])
    def test_degenerate_database_key_exit_one(self, tmp_path, capsys, command, bad):
        from regavae.retrieval import Ragged

        cfgp = self._write_cfg(tmp_path)  # d_z=4, k_neighbors=2
        out = tmp_path / "o"
        assert cli_main(["--config", str(cfgp), "--out", str(out), "train-vae"]) == 0
        means = np.random.default_rng(0).standard_normal((6, 4))
        means[3] = bad  # a non-finite key, or one whose norm is out of range
        tokens = Ragged.pack([[4]] * 6)
        db = out / "bad.db"
        save_database(RetrievalDatabase.from_arrays(means, np.zeros((6, 4)), tokens, tokens,
                                                    0, 500), db)
        capsys.readouterr()
        rc = cli_main(["--config", str(cfgp), "--out", str(out), *command,
                       "--checkpoint", str(out / "stage1.ckpt"), "--database", str(db)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: key 3 has norm") and err.count("\n") == 1
        assert not (out / "metrics.json").exists()

    def test_min_count_leaving_no_word_exit_one(self, tmp_path, capsys):
        cfgp = self._write_cfg(tmp_path, min_count=10**6)
        out = tmp_path / "o"
        rc = cli_main(["--config", str(cfgp), "--out", str(out), "train-vae"])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {tmp_path / 'train.jsonl'}: no word occurs at least")
        assert not (out / "stage1.ckpt").exists()

    def test_seed_override(self, tmp_path):
        cfgp = self._write_cfg(tmp_path)
        o1, o2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        cli_main(["--config", str(cfgp), "--seed", "1", "--out", o1, "train-vae"])
        cli_main(["--config", str(cfgp), "--seed", "2", "--out", o2, "train-vae"])
        b1 = Path(o1, "stage1.ckpt").read_bytes()
        b2 = Path(o2, "stage1.ckpt").read_bytes()
        assert b1 != b2


# ---------------------------------------------------------------------------
# Benchmark tracer
# ---------------------------------------------------------------------------

class TestTracerHooks:
    """perfbench's traced run swaps wrappers in at the names regavae's callers
    use; a refactor that drops or re-imports one of them must fail here."""

    def _spans_module(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_install_and_remove(self, tmp_path):
        import regavae.training as training

        original = training.regavae_loss
        tracer = self._spans_module().Tracer()
        tracer.install()
        try:
            assert training.regavae_loss is not original
            _, result = run_stage1(tiny_cfg(tmp_path), tmp_path / "out")
        finally:
            tracer.remove()
        assert training.regavae_loss is original
        calls = {name: s["calls"] for name, s in tracer.summary().items()}
        # One loss call and one backward per step; 12 documents in batches of 4.
        assert result.global_step == 3 * result.global_epoch
        assert calls["mixture.regavae_loss"] == result.global_step
        assert calls["autograd.backward"] == result.global_step
        # perfbench's adam_step_ms and clip_ms divide by these counts.
        assert calls["autograd.adam_step"] == result.global_step
        assert calls["autograd.clip_grad_norm"] == result.global_step

    def test_retrieval_reuses_top_k_scores_for_weights(self):
        from regavae import mixture
        from regavae.model import LatentGaussian
        from regavae.retrieval import RetrievalDatabase, RetrievalEntry

        rng = np.random.default_rng(0)
        db = RetrievalDatabase(
            [RetrievalEntry(i, LatentGaussian.from_arrays(rng.standard_normal(4), np.zeros(4)),
                            [4], [5]) for i in range(200)], 0, 500)
        queries = [[LatentGaussian.from_arrays(rng.standard_normal(4), np.zeros(4))]
                   for _ in range(5)]
        tracer = self._spans_module().Tracer()
        tracer.install()
        try:
            for i, posts in enumerate(queries):
                mixture.retrieve_mixture(posts, db, 3, exclude_id=i)
        finally:
            tracer.remove()
        # The mixture weights come from the top-k scores: no cosine is recomputed.
        assert tracer.counts["retrieval.similarity"] == 0


class TestBenchPairs:
    """scripts/bench_pairs.py's summary of alternating parent/change runs."""

    @staticmethod
    def _module():
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "bench_pairs", os.path.join(root, "scripts", "bench_pairs.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _summarize(self, parent, change):
        module = self._module()
        bench = {"end_to_end": [
            {"name": "build_db_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "stage1_docs_per_s", "unit": "docs/s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}

        def run(seed, values):
            values = dict(zip(["build_db_s", "stage1_docs_per_s", "peak_rss_mb"], values))
            return {"seed": seed, "correct": True, "attempted": 1, "failed": 0, "env": {},
                    "end_to_end": values, "raw": {k: 2 * v for k, v in values.items()}}

        return module.summarize(bench, [1, 2], {
            "parent": [run(1, parent), run(2, parent)],
            "change": [run(1, change), run(2, change)]})

    def test_within_bound_and_worst(self):
        summary = self._summarize([1.0, 100.0, 200.0], [0.5, 80.0, 218.0])
        m = summary["metrics"]
        assert m["build_db_s"]["worse_by"] == pytest.approx(-0.5)
        assert m["stage1_docs_per_s"]["worse_by"] == pytest.approx(0.2)
        assert m["peak_rss_mb"]["worse_by"] == pytest.approx(0.09)
        assert all(v["within_bound"] for v in m.values())
        assert summary["worst"] == "peak_rss_mb"  # 0.09 / 0.1 beats 0.2 / 0.25
        assert m["build_db_s"]["raw"]["change"]["median"] == 1.0  # unadjusted: 2 x 0.5
        assert m["build_db_s"]["raw_ratio"] == pytest.approx(0.5)

    def test_beyond_bound_flagged(self):
        m = self._summarize([1.0, 100.0, 200.0], [1.3, 100.0, 200.0])["metrics"]
        assert not m["build_db_s"]["within_bound"]
        assert m["stage1_docs_per_s"]["within_bound"]

    def test_src_digest_names_the_code(self, tmp_path):
        module = self._module()
        digest, lines = module.src_digest, module.src_lines
        trees = {}
        for side, tail in (("a", b"x = 1\n"), ("b", b"x = 2\n")):
            pkg = tmp_path / side / "src" / "pkg"
            pkg.mkdir(parents=True)
            (pkg / "__init__.py").write_bytes(b"")
            (pkg / "mod.py").write_bytes(b"import os\n" + tail)
            (pkg / "notes.txt").write_text(side)  # not a *.py file: not hashed
            trees[side] = tmp_path / side
        assert digest(trees["a"]) != digest(trees["b"])
        assert lines(trees["a"]) == lines(trees["b"]) == 2  # notes.txt is not counted
        (trees["b"] / "src" / "pkg" / "mod.py").write_bytes(b"import os\nx = 1\n")
        assert digest(trees["a"]) == digest(trees["b"])
        (trees["b"] / "src" / "pkg" / "extra.py").write_bytes(b"y = 1\nz = 2\n")
        assert lines(trees["b"]) == 4


class TestStageFaults:
    """scripts/stage_faults.py runs every stage on a perfbench workload's inputs."""

    ROOT = Path(__file__).resolve().parent.parent

    def _run(self, *args):
        return subprocess.run([sys.executable, str(self.ROOT / "scripts" / "stage_faults.py"),
                               *args], capture_output=True, text=True, timeout=600)

    def test_one_cycle_prints_every_stage(self):
        proc = self._run("--workload", "pipeline_small", "--cycles", "1")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "workload pipeline_small seed 1 cycles 1"
        rows = [line.split() for line in lines[2:]]
        assert [r[0] for r in rows] == ["run_stage1", "run_stage2", "run_stage3", "run_eval"]
        for _, ms, median, *per_cycle in rows:
            assert float(ms) > 0 and len(per_cycle) == 1 and float(median) == int(per_cycle[0])

    def test_unknown_workload_is_a_usage_error(self):
        proc = self._run("--workload", "nope", "--cycles", "1")
        assert proc.returncode == 2 and "unknown workload" in proc.stderr


class TestTopkScaling:
    """scripts/topk_scaling.py prints one row of µs/query per key count."""

    def test_prints_the_table(self):
        script = Path(__file__).resolve().parent.parent / "scripts" / "topk_scaling.py"
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        rows = [line.strip("|").split("|") for line in proc.stdout.splitlines()[2:]]
        assert [r[0].strip() for r in rows] == ["1e3", "1e4", "1e5"]
        assert all(float(cell) > 0 for r in rows for cell in r[1:])

    def test_a_changed_score_bit_exits_one(self, monkeypatch, capsys):
        script = Path(__file__).resolve().parent.parent / "scripts" / "topk_scaling.py"
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # restored after the script's import sets them
        spec = importlib.util.spec_from_file_location("topk_scaling", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        exact = module.top_k_batch

        def one_ulp_off(*args):
            hits = exact(*args)
            hits[0][1][0] = np.nextafter(hits[0][1][0], np.inf)
            return hits

        monkeypatch.setattr(module, "top_k_batch", one_ulp_off)
        with pytest.raises(SystemExit, match="^150 timed calls differ from the full scan$"):
            module.main()
        assert "1000 keys, 1 queries: top-k differs from the full scan" in capsys.readouterr().err


class TestSrcReach:
    """scripts/src_reach.py's line tracer."""

    def test_tracer_records_the_lines_run_and_only_those(self):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location("src_reach",
                                                      root / "scripts" / "src_reach.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        def lines(fn):  # (real file, line) of fn's statements, its def line left out
            code = fn.__code__
            return {(os.path.realpath(code.co_filename), line)
                    for _, _, line in code.co_lines() if line and line != code.co_firstlineno}

        with module.LineReach(str(root / "src" / "regavae")) as reach:
            Tokenizer.build(["a b b", "c a b"])
        assert lines(Tokenizer.build) <= reach.lines
        assert not lines(rouge_l) & reach.lines
        assert {f for f, _ in reach.lines} == {f for f, _ in lines(Tokenizer.build)}  # data.py
