"""Three-stage training pipeline: plain-VAE pretraining, retrieval database
construction, retrieval-augmented training, plus evaluation and ablations.

Stages communicate only through files (checkpoint, database dump), so a run
can be killed and resumed at any stage boundary. All randomness is derived
from the run seed plus structural indices (step, item), which makes per-step
losses independent of batch grouping and runs bit-reproducible.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from .autograd import Adam, Tape, backward, clip_grad_norm
from .checkpoint import atomic_write, check_json_fields, load_checkpoint, save_checkpoint
from .data import SPECIALS, CorpusPair, Tokenizer, ingest
from .errors import ConfigError, DivergenceError, InputError
from .metrics import (MetricReport, active_units, corpus_bleu, dist_n,
                      perplexity, rouge_l, self_bleu)
from .mixture import mixture_mean_latents, regavae_loss
from .model import ElboBreakdown, ModelConfig, VaeModel
from .retrieval import (MAX_REFRESH_INTERVAL, MAX_SNAPSHOT_STEP, RetrievalDatabase,
                        build_database, corpus_tokens, load_database, maybe_refresh,
                        save_database, token_digest)


@dataclass
class RunConfig:
    # model sizes
    L: int = 4
    d_h: int = 128
    heads: int = 4
    d_z: int = 32
    r_rank: int = 4
    max_seq_len: int = 128
    # training
    learning_rate: float = 5e-5
    batch_size: int = 8
    stage1_epochs: int = 10
    stage3_epochs: int = 15
    beta_warmup_frac: float = 0.3
    beta_cycles: int = 0  # 0 = one ramp; >0 = cycles of 1/beta_cycles of stage 1, kept in stage 3
    kl_floor: float = 0.0  # free bits (nats/document); 0 disables
    grad_clip: float = 1.0
    seed: int = 0
    # retrieval
    k_neighbors: int = 5
    refresh_interval: int = 500
    # data / paths
    corpus: str = ""
    eval_corpus: str = ""
    database_path: str = "retrieval.db"
    metrics_path: str = "metrics.json"
    min_count: int = 1
    # generation protocol for diversity metrics
    top_k_sample: int = 10
    max_gen_len: int = 24

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for low, names in ((0, ("k_neighbors", "kl_floor", "seed", "stage1_epochs",
                                "stage3_epochs", "beta_cycles", "beta_warmup_frac",
                                "grad_clip")),
                           (1, ("batch_size", "top_k_sample", "max_gen_len",
                                "refresh_interval", "min_count"))):
            for name in names:
                if getattr(self, name) < low:
                    raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # beta_warmup_frac is a share of stage 1 or of a cycle. An epoch is at
        # least one step, and a dump records its step and interval in its header.
        for high, names in ((1, ("beta_warmup_frac",)),
                            (MAX_SNAPSHOT_STEP, ("stage1_epochs", "stage3_epochs")),
                            (MAX_REFRESH_INTERVAL, ("refresh_interval",))):
            for name in names:
                if getattr(self, name) > high:
                    raise ConfigError(f"{name} must be <= {high}, got {getattr(self, name)}")
        self.model_config(len(SPECIALS))  # model sizes fail here, not mid-run

    @staticmethod
    def from_file(path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as f:
            try:
                raw = json.load(f)
            except ValueError as e:  # also an integer of more digits than int() takes
                raise InputError(f"{path}: invalid JSON config ({e})") from e
        check_json_fields(raw, get_type_hints(RunConfig), f"{path}: config")
        return RunConfig(**raw)

    def echo(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "config.json"),
                    json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, n_layers=self.L, d_h=self.d_h,
                           n_heads=self.heads, d_z=self.d_z, r_rank=self.r_rank,
                           max_seq_len=self.max_seq_len)


def _write_text(path, text: str) -> None:
    """Replace the file at `path` with `text`, atomically."""
    with atomic_write(path) as f:
        f.write(text.encode("utf-8"))


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def generation_rng(seed: int, i: int) -> np.random.Generator:
    """The sampling stream of eval's i-th generation or `generate`'s i-th sample."""
    return _rng(seed, 13, i)


@dataclass
class TrainResult:
    step_losses: list[ElboBreakdown]
    global_step: int
    global_epoch: int
    database: RetrievalDatabase | None  # the last snapshot trained against


def beta_at(step: int, warmup_steps: int, cycle_steps: int = 0) -> float:
    """KL-annealing weight: linear ramp from 0 to 1 over warmup_steps, then
    held at 1. With cycle_steps > 0 the ramp restarts every cycle (cyclical
    annealing), which re-establishes latent usage each cycle and keeps the
    posterior from collapsing on small corpora."""
    if warmup_steps <= 0:
        return 1.0
    if cycle_steps > 0:
        step = step % cycle_steps
    return min(1.0, step / warmup_steps)


def steps_per_epoch(n_pairs: int, batch_size: int) -> int:
    return math.ceil(n_pairs / batch_size)


def train_loop(model: VaeModel, pairs: list[CorpusPair], cfg: RunConfig,
               db: RetrievalDatabase | None, k: int, epochs: int, warmup_steps: int,
               cycle_steps: int = 0, start_step: int = 0,
               start_epoch: int = 0) -> TrainResult:
    """Shared step loop over regavae_loss; each step is one packed forward
    and backward over its batch and optimizes the batch mean. With a
    database, the loop refreshes it on schedule before every batch, and a
    document never retrieves itself (database row == corpus index)."""
    optimizer = Adam(model.params, model.flat, lr=cfg.learning_rate)
    losses = []
    step = start_step
    for ep in range(epochs):
        order = _rng(cfg.seed, 11, start_epoch + ep).permutation(len(pairs))
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size].tolist()
            if db is not None:
                db = maybe_refresh(db, step, model)
            beta = beta_at(step, warmup_steps, cycle_steps)
            with Tape() as tape:
                bd, total = regavae_loss(model, [pairs[i].source_tokens for i in batch],
                                         [pairs[i].target_tokens for i in batch], db, k, beta,
                                         [_rng(cfg.seed, 12, step, i) for i in batch],
                                         exclude_id=batch, kl_floor=cfg.kl_floor)
                if not np.isfinite(total.item()):
                    raise DivergenceError(f"non-finite loss at step {step}")
                backward(total, tape)
            clip_grad_norm(optimizer, cfg.grad_clip)
            optimizer.step()
            losses.append(bd)
            step += 1
    return TrainResult(losses, step, start_epoch + epochs, db)


# ---------------------------------------------------------------------------
# Pipeline stages
# ---------------------------------------------------------------------------

def _load_corpus(cfg: RunConfig, vocab: list[str] | None = None):
    return ingest(cfg.corpus, tokenizer=None if vocab is None else Tokenizer(vocab),
                  min_count=cfg.min_count)


def beta_schedule(cfg: RunConfig, n_pairs: int) -> tuple[int, int]:
    """(warmup_steps, cycle_steps) for this run, derived from the stage-1
    length: one ramp over beta_warmup_frac of stage 1, or beta_cycles cycles
    each ramping over beta_warmup_frac of the cycle. The checkpoint carries
    both, so stage 3 goes on with the same cycles past stage 1's end."""
    total = steps_per_epoch(n_pairs, cfg.batch_size) * cfg.stage1_epochs
    if cfg.beta_cycles > 0:
        cycle = math.ceil(total / cfg.beta_cycles)
        return max(1, int(round(cfg.beta_warmup_frac * cycle))), cycle
    return int(round(cfg.beta_warmup_frac * total)), 0


def _train_stage(cfg: RunConfig, out_dir, checkpoint_path, database_path, k: int,
                 epochs: int, name: str, stage: int) -> tuple[str, TrainResult]:
    """The one stage driver: echo the config, load the corpus, train with
    regavae_loss for `epochs` epochs and write <out_dir>/<name>.

    With checkpoint_path None it starts from a fresh model; otherwise it
    resumes that checkpoint's step/epoch counters and beta schedule. k > 0
    retrieves from database_path, refreshes it on schedule and writes the
    final snapshot next to the checkpoint; k=0 trains the plain VAE."""
    cfg.echo(out_dir)
    if checkpoint_path is None:
        pairs, tok = _load_corpus(cfg)
        model = VaeModel(cfg.model_config(tok.vocab_size), seed=cfg.seed)
        vocab, extra = tok.words, {}
    else:
        model, vocab, extra = load_checkpoint(checkpoint_path)
        pairs, _ = _load_corpus(cfg, vocab=vocab)
    warmup, cycle = beta_schedule(cfg, len(pairs))
    warmup = extra.get("warmup_steps", warmup)
    cycle = extra.get("cycle_steps", cycle)
    db = load_database(database_path, model.config.d_z) if k > 0 else None
    # A document excludes its own entry by corpus index, so row i must be pair i.
    if db is not None and (token_digest(db.sources, db.targets)
                           != token_digest(*corpus_tokens(pairs))):
        raise InputError(f"{database_path}: not a database of the training corpus ({len(db)} "
                         f"entries for {len(pairs)} pairs; row i must hold pair i)")
    # The dump carries the interval maybe_refresh follows; it must be the config's.
    if db is not None and db.refresh_interval != cfg.refresh_interval:
        raise InputError(f"{database_path}: database refresh_interval {db.refresh_interval} "
                         f"differs from the config's {cfg.refresh_interval}; rerun build-db "
                         "with this config")
    start = extra.get("global_step", 0)
    # Stage 3 rewrites its database at its last step: a rerun on it meets this.
    if db is not None and db.snapshot_step > start:
        raise InputError(f"{database_path}: database snapshot step {db.snapshot_step} is after "
                         f"the checkpoint's step {start}; rerun build-db from this checkpoint")
    result = train_loop(model, pairs, cfg, db, k, epochs, warmup, cycle, start_step=start,
                        start_epoch=extra.get("global_epoch", 0))
    path = os.path.join(out_dir, name)
    save_checkpoint(path, model, vocab, extra={
        "stage": stage, "global_step": result.global_step,
        "global_epoch": result.global_epoch,
        "warmup_steps": warmup, "cycle_steps": cycle,
    })
    if result.database is not None:
        final_db = maybe_refresh(result.database, result.global_step, model)
        save_database(final_db, os.path.join(out_dir, os.path.basename(cfg.database_path)))
    return path, result


def run_stage1(cfg: RunConfig, out_dir) -> tuple[str, TrainResult]:
    """Plain-VAE pretraining; writes <out_dir>/stage1.ckpt."""
    return _train_stage(cfg, out_dir, None, None, 0, cfg.stage1_epochs, "stage1.ckpt", 1)


def run_stage2(cfg: RunConfig, checkpoint_path, out_dir) -> str:
    """Build and dump the retrieval database from the training corpus."""
    cfg.echo(out_dir)
    model, vocab, extra = load_checkpoint(checkpoint_path)
    pairs, _ = _load_corpus(cfg, vocab=vocab)
    db = build_database(pairs, model, refresh_interval=cfg.refresh_interval,
                        snapshot_step=extra.get("global_step", 0))
    path = os.path.join(out_dir, os.path.basename(cfg.database_path))
    save_database(db, path)
    return path


def run_stage3(cfg: RunConfig, checkpoint_path, database_path, out_dir) -> tuple[str, TrainResult]:
    """Retrieval-augmented training with periodic index refresh; writes
    <out_dir>/stage3.ckpt and the refreshed database. With k_neighbors=0 the
    database is not read (database_path may be None) and this continues the
    plain VAE."""
    return _train_stage(cfg, out_dir, checkpoint_path, database_path, cfg.k_neighbors,
                        cfg.stage3_epochs, "stage3.ckpt", 3)


def continue_stage1(cfg: RunConfig, checkpoint_path, epochs: int, out_dir) -> tuple[str, TrainResult]:
    """Resume plain-VAE training from a checkpoint for `epochs` epochs; writes
    <out_dir>/stage1_continued.ckpt. Same steps as run_stage3 at
    k_neighbors=0, which is the reference that the k=0 ablation checks."""
    return _train_stage(cfg, out_dir, checkpoint_path, None, 0, epochs,
                        "stage1_continued.ckpt", 1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def run_eval(cfg: RunConfig, checkpoint_path, database_path, out_dir) -> MetricReport:
    """Held-out perplexity, diversity metrics over one generation per held-out
    source (top-k sampling, fixed seed), active units, BLEU/Rouge-L against the
    held-out targets."""
    cfg.echo(out_dir)
    model, vocab, _ = load_checkpoint(checkpoint_path)
    tok = Tokenizer(vocab)
    eval_pairs, _ = ingest(cfg.eval_corpus, tokenizer=tok)
    db = None
    k = 0
    if database_path is not None and cfg.k_neighbors > 0:
        db = load_database(database_path, model.config.d_z)
        k = cfg.k_neighbors
    # The eval sources are encoded once, as one pack, for all three uses.
    sources = [p.source_tokens for p in eval_pairs]
    posts = model.encode(sources)
    ppl = perplexity(model, eval_pairs, posts, db=db, k=k)
    if not math.isfinite(ppl):  # metrics.json stays strict JSON
        raise DivergenceError(f"held-out perplexity is {ppl}")
    au = active_units(model, eval_pairs, posts=posts)
    latents = mixture_mean_latents(model, sources, db, k, posts=posts)
    # One generation per pair, all decoded as one pack; pair i draws from its own stream.
    rngs = [generation_rng(cfg.seed, i) for i in range(len(eval_pairs))]
    generations = [gen if gen else [0] for gen in model.generate_pack(
        latents, cfg.max_gen_len, "top_k", rngs, cfg.top_k_sample)]
    report = MetricReport(
        ppl=ppl,
        self_bleu=self_bleu(generations),
        dist2=dist_n(generations, 2),
        au=au,
        bleu=corpus_bleu(generations, [p.target_tokens for p in eval_pairs]),
        rouge_l=float(np.mean([
            rouge_l(g, p.target_tokens) for g, p in zip(generations, eval_pairs)
        ])),
    )
    base = os.path.join(out_dir, os.path.splitext(os.path.basename(cfg.metrics_path))[0])
    _write_text(base + ".json", report.to_json())
    _write_text(base + ".txt", report.to_text())
    return report


def run_pipeline(cfg: RunConfig, out_dir) -> tuple[str, MetricReport]:
    """Full three-stage run plus evaluation; returns (stage3 ckpt, report)."""
    ckpt1, _ = run_stage1(cfg, out_dir)
    # Stage 3 rewrites the database it read at the same path, refreshed.
    db_path = run_stage2(cfg, ckpt1, out_dir) if cfg.k_neighbors > 0 else None
    ckpt3, _ = run_stage3(cfg, ckpt1, db_path, out_dir)
    report = run_eval(cfg, ckpt3, db_path, out_dir)
    return ckpt3, report


def run_ablation(cfg: RunConfig, out_dir, sweep: list[int] | None = None) -> dict[str, MetricReport]:
    """Train/evaluate the full model, the k=0 ablation, and a neighbor-count
    sweep under a shared seed; writes a side-by-side table."""
    import dataclasses

    variants = {"full": cfg.k_neighbors, "k=0": 0}
    for k in (sweep or []):
        variants[f"k={k}"] = k
    reports: dict[str, MetricReport] = {}
    for name, k in variants.items():
        sub = dataclasses.replace(cfg, k_neighbors=k)
        sub_dir = os.path.join(out_dir, name.replace("=", ""))
        _, reports[name] = run_pipeline(sub, sub_dir)
    cols = ["ppl", "self_bleu", "dist2", "au", "bleu", "rouge_l"]
    lines = ["variant " + " ".join(cols)]
    for name, rep in reports.items():
        vals = [getattr(rep, c) for c in cols]
        lines.append(name + " " + " ".join(
            f"{v:.4f}" if isinstance(v, float) else str(v) for v in vals))
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "ablation.txt"), "\n".join(lines) + "\n")
    return reports
