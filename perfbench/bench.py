"""One benchmark run of one workload: set-up, then closed-loop cycles.

A cycle is what one client does, each call waiting for the previous one:
stage 1 -> stage 2 -> stage 3 (with refresh) -> eval, then generation
requests, retrieval queries and database dump round trips. Cycles repeat the
same seeded inputs until the time is up. Every output is checked; a failed
check counts against `attempted` in the result line.

Timings are kept as (start, end) intervals on the run's clock. The reported
values divide them by the machine's speed, sampled with a calibration loop
all through the run (pace.py); the raw values are printed beside them.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from regavae import checkpoint, data, mixture, retrieval, training
from regavae.errors import RegaVaeError
from regavae.metrics import MetricReport
from regavae.model import VaeModel

from pace import Pace
from spans import LAYERS, Tracer
from workloads import Workload, synthetic_database, synthetic_queries

SETUP_REPEATS = 9
# Measured cycles, after one warm-up cycle that only sets the reference
# outputs the others must repeat.
MIN_CYCLES = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Checks:
    """Counts checked operations and failures; prints the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Inputs:
    cfg: training.RunConfig
    train: list[dict]
    evals: list[dict]
    db_path: Path | None  # dump of the synthetic query database, if any
    queries: list | None
    times: dict[str, float]
    span: tuple[float, float]  # the whole set-up


def make_config(w: Workload, seed: int, work: Path, root: Path) -> training.RunConfig:
    base = (training.RunConfig.from_file(root / w.base_config) if w.base_config
            else training.RunConfig())
    return dataclasses.replace(base, **w.overrides, seed=seed,
                               corpus=str(work / "train.jsonl"),
                               eval_corpus=str(work / "eval.jsonl"))


def setup(w: Workload, seed: int, work: Path, root: Path, now=time.perf_counter) -> Inputs:
    """Corpus (and database) generation, ingest and model init, writing into
    the new directory `work`."""
    work.mkdir()
    times = {}
    start = t = now()
    train, evals = w.corpus(seed)
    data.write_jsonl(train, work / "train.jsonl")
    data.write_jsonl(evals, work / "eval.jsonl")
    times["corpus_gen_s"] = now() - t
    cfg = make_config(w, seed, work, root)
    t = now()
    _, tok = data.ingest(cfg.corpus, min_count=cfg.min_count)
    times["ingest_s"] = now() - t
    t = now()
    VaeModel(cfg.model_config(tok.vocab_size), seed=cfg.seed)
    times["model_init_s"] = now() - t
    db_path = queries = None
    if w.query_keys:
        t = now()
        db = synthetic_database(seed, w.query_keys, cfg.d_z)
        queries = synthetic_queries(seed, db, w.queries, cfg.L)
        db_path = work / "synthetic.db"
        retrieval.save_database(db, db_path)
        times["db_gen_s"] = now() - t
    return Inputs(cfg, train, evals, db_path, queries, times, (start, now()))


def _finite_losses(result: training.TrainResult) -> bool:
    return all(np.isfinite([b.recon_nll, b.kl, b.total]).all() for b in result.step_losses)


def _oracle_ok(posts, exclude_id, k, keys, ids, weights, hits, tie=1e-12) -> bool:
    """Hits and weights against a brute-force numpy cosine scan. Cosines within
    `tie` of each other are tied, since the scan and the program round
    differently; among tied keys the lower id must be taken first."""
    q = np.mean([g.mean_array for g in posts], axis=0)
    cos = keys @ q / (np.linalg.norm(keys, axis=1) * np.linalg.norm(q))
    cand = np.flatnonzero(ids != exclude_id) if exclude_id is not None else np.arange(len(ids))
    want = cand[np.lexsort((ids[cand], -cos[cand]))][:k]
    row = {int(i): r for r, i in enumerate(ids)}
    got = [row.get(e.id) for e in hits]
    if (len(got) != len(want) or len(set(got)) != len(got)
            or not set(cand.tolist()).issuperset(got)
            or np.max(np.abs(cos[got] - cos[want])) > tie):
        return False
    taken: set[int] = set()
    for r in got:
        tied = cand[np.abs(cos[cand] - cos[r]) <= tie]
        if ids[r] != min(ids[t] for t in tied if t not in taken):
            return False
        taken.add(r)
    logits = np.concatenate([[1.0], cos[want]])
    expect = np.exp(logits - logits.max())
    expect /= expect.sum()
    return weights.shape == expect.shape and bool(np.allclose(weights, expect, rtol=0, atol=tie))


def _same_db(a: retrieval.RetrievalDatabase, b: retrieval.RetrievalDatabase) -> bool:
    header = (a.snapshot_step, a.refresh_interval, len(a))
    if header != (b.snapshot_step, b.refresh_interval, len(b)):
        return False
    return all(
        x.id == y.id and x.source_tokens == y.source_tokens and x.target_tokens == y.target_tokens
        and x.key.mean_array.tobytes() == y.key.mean_array.tobytes()
        and x.key.log_var_array.tobytes() == y.key.log_var_array.tobytes()
        for x, y in zip(a.entries, b.entries))


def run_cycle(w: Workload, inp: Inputs, work: Path, checks: Checks, tracer: Tracer,
              pace: Pace, tag: str) -> dict:
    """One cycle; every timing in the record is a (start, end) interval.
    Every file the cycle writes is new: overwriting a file makes ext4 start
    writing it back at once, at a cost set by the disk rather than the
    program. The cycle's directory is removed at its end, untimed."""
    cfg = inp.cfg
    out = work / tag
    rec: dict = {}

    def stage(name, fn, *args):
        tracer.run_id = f"{tag}/{name}"
        t = pace.now()
        result = fn(*args)
        rec[name] = (t, pace.now())
        return result

    ckpt1, r1 = stage("stage1", training.run_stage1, cfg, out)
    checks.expect(_finite_losses(r1), f"{tag}: non-finite stage-1 loss")
    db_path = stage("stage2", training.run_stage2, cfg, ckpt1, out)
    # Stage 3 writes its (refreshed) database over the stage-2 dump at db_path.
    ckpt3, r3 = stage("stage3", training.run_stage3, cfg, ckpt1, db_path, out)
    checks.expect(_finite_losses(r3), f"{tag}: non-finite stage-3 loss")
    report = stage("eval", training.run_eval, cfg, ckpt3, db_path, out)
    metrics_file = out / (os.path.splitext(os.path.basename(cfg.metrics_path))[0] + ".json")
    try:
        ok = MetricReport.from_json(metrics_file.read_text(encoding="utf-8")) == report
    except RegaVaeError as e:
        ok = False
        print(f"{tag}: metric report rejected: {e}", file=sys.stderr)
    checks.expect(ok, f"{tag}: metric report does not round-trip")
    rec["stage1_docs"] = len(inp.train) * cfg.stage1_epochs
    rec["stage3_docs"] = len(inp.train) * cfg.stage3_epochs
    rec["eval_ppl"] = report.ppl

    # Generation requests, as `regavae generate --strategy greedy` serves them.
    # Greedy decoding keeps a request's length from hinging on a sampled EOS.
    tracer.run_id = f"{tag}/load"
    model, vocab, _ = checkpoint.load_checkpoint(ckpt3)
    tok = data.Tokenizer([v for v in vocab if v not in data.SPECIALS])
    db = retrieval.load_database(db_path)
    k = cfg.k_neighbors
    sources = [r["source"] for r in inp.evals + inp.train]
    rec["gen"], rec["gen_tokens"] = [], 0
    for i in range(w.gen_requests):
        tracer.run_id = f"{tag}/gen/{i}"
        with pace.held():
            t = pace.now()
            ids = tok.encode(sources[i % len(sources)])
            z = mixture.mixture_mean_latents(model, ids, db, k)
            gen = model.generate(z, w.gen_len, strategy="greedy")
            tok.decode(gen)
            rec["gen"].append((t, pace.now()))
        rec["gen_tokens"] += len(gen)
        checks.expect(len(gen) <= w.gen_len and all(0 <= g < tok.vocab_size for g in gen),
                      f"{tag}: generation {i} out of vocabulary or too long")

    # Retrieval queries: synthetic ones against the synthetic database, loaded
    # here so that it is not alive during the model phases, or corpus documents
    # against the stage-3 database (training documents exclude themselves).
    if inp.db_path is not None:
        tracer.run_id = f"{tag}/load"
        db, queries = retrieval.load_database(inp.db_path), inp.queries
    else:
        queries = [(model.encode(tok.encode(r["source"])), i) for i, r in enumerate(inp.train)]
        queries += [(model.encode(tok.encode(r["source"])), None) for r in inp.evals]
        queries *= w.query_rounds
    keys = np.stack([e.key.mean_array for e in db.entries])
    key_ids = np.array([e.id for e in db.entries])
    rec["query"] = []
    for i, (posts, exclude) in enumerate(queries):
        tracer.run_id = f"{tag}/query/{i}"
        with pace.held():
            t = pace.now()
            weights, _, hits = mixture.retrieve_mixture(posts, db, k, exclude_id=exclude)
            rec["query"].append((t, pace.now()))
        checks.expect(_oracle_ok(posts, exclude, k, keys, key_ids, weights, hits),
                      f"{tag}: query {i} disagrees with the cosine oracle")

    # Database dump round trips.
    rec["db_save"], rec["db_load"] = [], []
    for i in range(w.round_trips):
        tracer.run_id = f"{tag}/dump/{i}"
        path = out / f"roundtrip-{i}.db"
        with pace.held():
            t = pace.now()
            retrieval.save_database(db, path)
            rec["db_save"].append((t, pace.now()))
        with pace.held():
            t = pace.now()
            back = retrieval.load_database(path)
            rec["db_load"].append((t, pace.now()))
        checks.expect(_same_db(db, back), f"{tag}: database dump round trip {i} not bit-equal")
    shutil.rmtree(out)
    return rec


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it; the maximum
    when there are too few samples for any (the untraced cycles of a short
    traced run)."""
    return next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 100.0)


def end_to_end(w: Workload, setups: list[Inputs], cycles: list[dict], guaranteed: int,
               seconds, scan_seconds) -> tuple[dict, dict]:
    """Metric values over the measured cycles, plus the tail percentiles used.
    `seconds(interval)` turns a (start, end) interval into the seconds it
    reports; `scan_seconds` does so for queries and dumps, which loop over
    database entries in Python on every workload. Tails are chosen from the
    sample count of `guaranteed` cycles, so that the percentile does not
    change with how many cycles a run fits."""
    n = len(cycles)
    req = seconds

    def stage(name):
        return sum(seconds(c[name]) for c in cycles)

    gen = [1e3 * req(x) for c in cycles for x in c["gen"]]
    query = [1e3 * scan_seconds(x) for c in cycles for x in c["query"]]
    gen_p = tail_percentile(w.gen_requests * guaranteed)
    query_p = tail_percentile(len(cycles[0]["query"]) * guaranteed)
    values = {
        "setup_s": statistics.median(req(s.span) for s in setups),
        "pipeline_s": sum(stage(s) for s in ("stage1", "stage2", "stage3", "eval")) / n,
        "stage1_docs_per_s": sum(c["stage1_docs"] for c in cycles) / stage("stage1"),
        "stage3_docs_per_s": sum(c["stage3_docs"] for c in cycles) / stage("stage3"),
        "build_db_s": stage("stage2") / n,
        "eval_s": stage("eval") / n,
        "gen_tokens_per_s": sum(c["gen_tokens"] for c in cycles) / (sum(gen) / 1e3),
        "gen_ms_p50": float(np.percentile(gen, 50)),
        "gen_ms_tail": float(np.percentile(gen, gen_p)),
        "query_ms_p50": float(np.percentile(query, 50)),
        "query_ms_tail": float(np.percentile(query, query_p)),
        "db_save_s": statistics.fmean(scan_seconds(x) for c in cycles for x in c["db_save"]),
        "db_load_s": statistics.fmean(scan_seconds(x) for c in cycles for x in c["db_load"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tails = {"gen_ms_tail": f"p{gen_p:g} of {len(gen)}",
             "query_ms_tail": f"p{query_p:g} of {len(query)}"}
    return values, tails


def per_layer(tracer: Tracer, setups: list[Inputs], n: int, overhead: float) -> dict:
    """Per-layer metrics from the traced cycles, per cycle unless the name says
    per call (_ms, _us, _s of a single call) or per unit."""
    s = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def per_call(name, scale):
        return scale * total(name) / calls(name) if calls(name) else 0.0

    docs = calls("model.elbo_step") + calls("mixture.regavae_loss")
    steps = calls("autograd.backward")
    tokens = counts["model.generate.tokens"]
    loss_self = s.get("mixture.regavae_loss", {}).get("self_s", 0.0)
    loop_self = s.get("training.train_loop", {}).get("self_s", 0.0)
    m = {
        "autograd.backward_ms": per_call("autograd.backward", 1e3),
        "autograd.tape_nodes_per_doc": (counts["autograd.backward.tape_nodes"] / docs
                                        if docs else 0.0),
        "autograd.adam_step_ms": per_call("autograd.adam_step", 1e3),
        "autograd.clip_ms": per_call("autograd.clip_grad_norm", 1e3),
        "model.encode_ms": per_call("model.encode", 1e3),
        "model.encode_calls": calls("model.encode") / n,
        "model.decode_ms": per_call("model.decode", 1e3),
        "model.inject_latent_ms": per_call("model.inject_latent", 1e3),
        "model.generate_ms_per_token": 1e3 * total("model.generate") / tokens if tokens else 0.0,
        "model.generate_tokens": tokens / n,
        "mixture.regavae_loss_self_ms": (1e3 * loss_self / calls("mixture.regavae_loss")
                                         if calls("mixture.regavae_loss") else 0.0),
        "mixture.retrieve_mixture_ms": per_call("mixture.retrieve_mixture", 1e3),
        "mixture.mixture_weights_us": per_call("mixture.mixture_weights", 1e6),
        "mixture.mixture_mean_latents_ms": per_call("mixture.mixture_mean_latents", 1e3),
        "retrieval.top_k_us_per_query": per_call("retrieval.top_k", 1e6),
        "retrieval.similarity_calls": counts["retrieval.similarity"] / n,
        "retrieval.refresh_s": total("retrieval.maybe_refresh") / n,
        "retrieval.refreshes_done": counts["retrieval.maybe_refresh.refreshes"] / n,
        "retrieval.refresh_checks": calls("retrieval.maybe_refresh") / n,
        "retrieval.build_database_s": total("retrieval.build_database") / n,
        "retrieval.save_s": per_call("retrieval.save_database", 1.0),
        "retrieval.load_s": per_call("retrieval.load_database", 1.0),
        "retrieval.db_bytes": (counts["retrieval.save_database.bytes"]
                               / max(calls("retrieval.save_database"), 1)),
        "metrics.perplexity_s": total("metrics.perplexity") / n,
        "metrics.active_units_s": total("metrics.active_units") / n,
        "metrics.self_bleu_s": total("metrics.self_bleu") / n,
        "metrics.corpus_bleu_s": total("metrics.corpus_bleu") / n,
        "metrics.rouge_l_ms": 1e3 * total("metrics.rouge_l") / n,
        "metrics.dist_n_ms": 1e3 * total("metrics.dist_n") / n,
        "checkpoint.save_s": per_call("checkpoint.save_checkpoint", 1.0),
        "checkpoint.load_s": per_call("checkpoint.load_checkpoint", 1.0),
        "checkpoint.bytes": (counts["checkpoint.save_checkpoint.bytes"]
                             / max(calls("checkpoint.save_checkpoint"), 1)),
        "data.ingest_s": total("data.ingest") / n,
        "data.corpus_gen_s": statistics.median(x.times["corpus_gen_s"] for x in setups),
        "training.train_loop_self_ms_per_step": 1e3 * loop_self / steps if steps else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in s.items()
                                   if k.startswith(layer + ".")) / n
    m["trace.spans_per_cycle"] = sum(v["calls"] for v in s.values()) / n
    m["trace.overhead_frac"] = overhead
    return m


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads}


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path, root: Path) -> dict:
    """Set up SETUP_REPEATS times, then run a warm-up cycle and cycles until
    `seconds` have passed (at least MIN_CYCLES after the warm-up). A traced
    run alternates traced and untraced cycles after the warm-up.
    `end_to_end` holds the speed-adjusted values, `raw` the same unscaled."""
    checks = Checks()
    pace = Pace(w.interp_share)
    tracer = Tracer(pace.now)
    cycles: list[dict] = []
    with pace.sampling():
        setups = []
        for i in range(SETUP_REPEATS):
            with pace.held():
                setups.append(setup(w, seed, work / f"setup{i}", root, pace.now))
        inp = setups[-1]
        start = pace.now()  # the warm-up cycle counts against `seconds`
        while True:
            traced = trace and len(cycles) % 2 == 1
            if traced:
                tracer.install()
            t = pace.now()
            try:
                rec = run_cycle(w, inp, work, checks, tracer, pace, f"cycle{len(cycles)}")
            finally:
                tracer.remove()
            rec["span"] = (t, pace.now())
            rec["traced"] = traced
            cycles.append(rec)
            est = statistics.median(c["span"][1] - c["span"][0] for c in cycles)
            if len(cycles) > MIN_CYCLES and pace.now() - start + est > seconds:
                break
    for c in cycles[1:]:
        checks.expect(c["eval_ppl"] == cycles[0]["eval_ppl"]
                      and c["gen_tokens"] == cycles[0]["gen_tokens"],
                      f"{'traced ' if c['traced'] else ''}cycle differs from cycle 0 "
                      f"(eval_ppl {c['eval_ppl']!r} vs {cycles[0]['eval_ppl']!r})")
    measured = cycles[1:]
    plain = [c for c in measured if not c["traced"]]

    def adjusted(iv):
        return (iv[1] - iv[0]) / pace.speed(*iv)

    def scan_adjusted(iv):
        return (iv[1] - iv[0]) / pace.speed(*iv, share=1.0)

    def raw_seconds(iv):
        return iv[1] - iv[0]

    guaranteed = len(plain) if trace else MIN_CYCLES
    values, tails = end_to_end(w, setups, plain, guaranteed, adjusted, scan_adjusted)
    raw, _ = end_to_end(w, setups, plain, guaranteed, raw_seconds, raw_seconds)
    result = {"cycles": len(cycles), "tails": tails, "end_to_end": values, "raw": raw,
              "checks": checks, "eval_ppl": cycles[0]["eval_ppl"],
              "pace_ms": pace.medians_ms(), "probes": len(pace.times),
              "interp_share": w.interp_share}
    if trace:
        walls = {flag: [adjusted(c["span"]) for c in measured if c["traced"] == flag]
                 for flag in (False, True)}
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        layer = per_layer(tracer, setups, len(walls[True]), overhead)
        layer["metrics.eval_ppl"] = result["eval_ppl"]
        result.update(per_layer=layer, self_times=tracer.summary(), tracer=tracer,
                      traced_cycles=len(walls[True]))
    return result
