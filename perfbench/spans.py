"""Span tracing around regavae's public functions, installed from outside.

The traced run replaces each function with a wrapper at the name its calling
module imports (``regavae.training.backward``, ``regavae.mixture.top_k``,
methods on their class), so ``src/`` stays untouched. A wrapper records one
span (name, start, end, parent span, run id) per call and keeps it in memory;
``similarity`` runs once per key per query, so it is counted, not spanned.
Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

from regavae import autograd, checkpoint, data, metrics, mixture, retrieval, training
from regavae.model import VaeModel


def _tape_nodes(result, args):
    return {"tape_nodes": len(args[1].nodes)}


def _tokens(result, args):
    return {"tokens": len(result)}


def _refreshed(result, args):
    return {"refreshes": int(result is not args[0])}


def _db_bytes(result, args):
    return {"bytes": os.path.getsize(args[1])}


def _ckpt_bytes(result, args):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (owners whose attribute is replaced, attribute, observer).
# An owner is the module or class through which callers reach the function.
SPANNED = {
    "autograd.backward": ((training,), "backward", _tape_nodes),
    "autograd.clip_grad_norm": ((training,), "clip_grad_norm", None),
    "autograd.adam_step": ((autograd.Adam,), "step", None),
    "model.encode": ((VaeModel,), "encode", None),
    "model.decode": ((VaeModel,), "decode", None),
    "model.inject_latent": ((VaeModel,), "inject_latent", None),
    "model.elbo_step": ((VaeModel,), "elbo_step", None),
    "model.generate": ((VaeModel,), "generate", _tokens),
    "mixture.regavae_loss": ((training,), "regavae_loss", None),
    "mixture.retrieve_mixture": ((mixture,), "retrieve_mixture", None),
    "mixture.mixture_weights": ((mixture,), "mixture_weights", None),
    "mixture.mixture_mean_latents": ((training, metrics, mixture), "mixture_mean_latents", None),
    "retrieval.top_k": ((mixture,), "top_k", None),
    "retrieval.build_database": ((training,), "build_database", None),
    "retrieval.maybe_refresh": ((training,), "maybe_refresh", _refreshed),
    "retrieval.save_database": ((training, retrieval), "save_database", _db_bytes),
    "retrieval.load_database": ((training, retrieval), "load_database", None),
    "metrics.perplexity": ((training,), "perplexity", None),
    "metrics.active_units": ((training,), "active_units", None),
    "metrics.self_bleu": ((training,), "self_bleu", None),
    "metrics.corpus_bleu": ((training,), "corpus_bleu", None),
    "metrics.rouge_l": ((training,), "rouge_l", None),
    "metrics.dist_n": ((training,), "dist_n", None),
    "checkpoint.save_checkpoint": ((training,), "save_checkpoint", _ckpt_bytes),
    "checkpoint.load_checkpoint": ((training, checkpoint), "load_checkpoint", None),
    "data.ingest": ((training, data), "ingest", None),
    "training.train_loop": ((training,), "train_loop", None),
    "training.run_stage1": ((training,), "run_stage1", None),
    "training.run_stage2": ((training,), "run_stage2", None),
    "training.run_stage3": ((training,), "run_stage3", None),
    "training.run_eval": ((training,), "run_eval", None),
}
COUNTED = {"retrieval.similarity": ((retrieval, mixture), "similarity")}

LAYERS = ("autograd", "model", "mixture", "retrieval", "metrics", "checkpoint", "data",
          "training")


class Tracer:
    """In-memory span recorder. ``install`` swaps the wrappers in, ``remove``
    restores the originals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _spanned(self, name, fn, observe):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self.clock

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                for key, n in observe(result, args).items():
                    counts[f"{name}.{key}"] += n
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = [(owners, attr, self._spanned(name, owners[0].__dict__[attr], observe))
                    for name, (owners, attr, observe) in SPANNED.items()]
        wrappers += [(owners, attr, self._counted(name, owners[0].__dict__[attr]))
                     for name, (owners, attr) in COUNTED.items()]
        for owners, attr, wrapper in wrappers:
            original = owners[0].__dict__[attr]
            for owner in owners:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function "
                                       f"{owners[0].__name__}.{attr}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct children)."""
        child = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")
