"""Command-line entry point.

Subcommands: train-vae, build-db, train-regavae, generate, eval, pipeline, ablate.
Exit codes: 0 success, 1 input error or out of memory, 2 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .autograd import Tensor
from .checkpoint import load_checkpoint
from .data import Tokenizer
from .errors import DivergenceError, InputError, NumericOverflowError, RegaVaeError
from .mixture import mixture_mean_latents
from .retrieval import load_database
from .training import (RunConfig, generation_rng, run_ablation, run_eval, run_pipeline,
                       run_stage1, run_stage2, run_stage3)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regavae",
                                     description="retrieval-augmented VAE language model")
    parser.add_argument("--config", help="JSON config file with RunConfig keys")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train-vae", help="stage 1: plain-VAE pretraining")
    p = sub.add_parser("build-db", help="stage 2: build the retrieval database")
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("train-regavae", help="stage 3: retrieval-augmented training")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--database", required=True)
    p = sub.add_parser("generate", help="sample continuations for a source text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--database")
    p.add_argument("--source", required=True)
    p.add_argument("--n-samples", type=int, default=1)
    p.add_argument("--strategy", choices=["greedy", "top-k-sampling"], default="top-k-sampling")
    p = sub.add_parser("eval", help="evaluate a checkpoint on the held-out corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--database")
    sub.add_parser("pipeline", help="all three stages, then eval")
    p = sub.add_parser("ablate", help="full vs k=0 vs neighbor sweep")
    p.add_argument("--sweep", type=int, nargs="*", default=[])
    return parser


def _generate(cfg: RunConfig, args) -> None:
    if args.n_samples < 1:
        raise InputError(f"--n-samples must be >= 1, got {args.n_samples}")
    model, vocab, _ = load_checkpoint(args.checkpoint)
    if args.n_samples * model.config.d_z * 8 > np.iinfo(np.intp).max:
        raise InputError(f"--n-samples {args.n_samples} is too large: the samples' "
                         f"{model.config.d_z}-dimensional latents cannot be indexed")
    tok = Tokenizer(vocab)
    source = tok.encode(args.source)
    db = load_database(args.database, model.config.d_z) if args.database else None
    k = cfg.k_neighbors if db is not None else 0
    # The N samples decode as one pack of N copies of the source's latents.
    z_layers = [Tensor(np.repeat(z.data[None], args.n_samples, axis=0))
                for z in mixture_mean_latents(model, source, db, k)]
    strategy = "greedy" if args.strategy == "greedy" else "top_k"
    rngs = [generation_rng(cfg.seed, i) for i in range(args.n_samples)]
    for ids in model.generate_pack(z_layers, cfg.max_gen_len, strategy, rngs, cfg.top_k_sample):
        print(tok.decode(ids))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)  # re-validates
        os.makedirs(args.out, exist_ok=True)
        if args.command == "train-vae":
            path, _ = run_stage1(cfg, args.out)
            print(path)
        elif args.command == "build-db":
            print(run_stage2(cfg, args.checkpoint, args.out))
        elif args.command == "train-regavae":
            path, _ = run_stage3(cfg, args.checkpoint, args.database, args.out)
            print(path)
        elif args.command == "generate":
            _generate(cfg, args)
        elif args.command == "eval":
            report = run_eval(cfg, args.checkpoint, args.database, args.out)
            print(report.to_text(), end="")
        elif args.command == "pipeline":
            path, report = run_pipeline(cfg, args.out)
            print(path)
            print(report.to_text(), end="")
        elif args.command == "ablate":
            reports = run_ablation(cfg, args.out, sweep=args.sweep)
            print(json.dumps({k: json.loads(v.to_json()) for k, v in reports.items()},
                             indent=2, sort_keys=True))
    except (DivergenceError, NumericOverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RegaVaeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory ({e})" if str(e) else "error: out of memory", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
