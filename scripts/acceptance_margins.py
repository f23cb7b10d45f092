#!/usr/bin/env python3
"""Print the margins of acceptance criteria 6 and 7 for seeds 0-2.

Runs the pipelines of `tests/test_acceptance.py`'s `pipelines` fixture with
the regavae package from this checkout's `src/`: `configs/synthetic.json` on
the bundled corpus (`make_synthetic_corpus(0)`), seeds 0, 1 and 2, once at
the config's k_neighbors and once at k_neighbors=0. It prints

- every run's metrics.json values, one `seed variant metric value` line each;
- criterion 6: each seed's relative perplexity gain of the full model over
  k=0, and their median (the floor is 2%);
- criterion 7: held-out KL and active units of seed 0's stage-1 checkpoint
  (the floors are KL > 0.01 and AU >= 1).

Before/after margins of a change are then a `diff` of

    python3 scripts/acceptance_margins.py --out /tmp/m > margins.txt

run in each checkout. Takes about as long as the acceptance fixture.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from regavae.checkpoint import load_checkpoint  # noqa: E402
from regavae.data import Tokenizer, ingest, make_synthetic_corpus, write_jsonl  # noqa: E402
from regavae.metrics import active_units, heldout_kl  # noqa: E402
from regavae.training import RunConfig, run_pipeline  # noqa: E402

SEEDS = (0, 1, 2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the corpus and all runs")
    args = ap.parse_args()

    train, evals = make_synthetic_corpus(0)
    os.makedirs(args.out, exist_ok=True)
    corpus = os.path.join(args.out, "train.jsonl")
    eval_corpus = os.path.join(args.out, "eval.jsonl")
    write_jsonl(train, corpus)
    write_jsonl(evals, eval_corpus)
    base = dataclasses.replace(RunConfig.from_file(os.path.join(ROOT, "configs", "synthetic.json")),
                               corpus=corpus, eval_corpus=eval_corpus)
    gains = []
    for seed in SEEDS:
        ppl = {}
        for variant, k in (("full", base.k_neighbors), ("k=0", 0)):
            out = os.path.join(args.out, f"{variant.replace('=', '')}_s{seed}")
            _, report = run_pipeline(dataclasses.replace(base, seed=seed, k_neighbors=k), out)
            for name, value in sorted(json.loads(report.to_json()).items()):
                print(seed, variant, name, value, flush=True)
            ppl[variant] = report.ppl
        gains.append((ppl["k=0"] - ppl["full"]) / ppl["k=0"])
        print(seed, "criterion6_gain", f"{100 * gains[-1]:.4f}%", flush=True)
    print("criterion6_median_gain", f"{100 * float(np.median(gains)):.4f}%")

    model, vocab, _ = load_checkpoint(os.path.join(args.out, f"full_s{SEEDS[0]}", "stage1.ckpt"))
    eval_pairs, _ = ingest(eval_corpus, tokenizer=Tokenizer(vocab))
    print("criterion7_heldout_kl", f"{heldout_kl(model, eval_pairs):.6f}")
    print("criterion7_active_units", active_units(model, eval_pairs, threshold=0.2))


if __name__ == "__main__":
    main()
