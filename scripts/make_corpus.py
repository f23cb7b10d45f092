#!/usr/bin/env python3
"""Generate the bundled clustered corpus (12 clusters, seed 0) as JSONL files:
120 train pairs in train.jsonl and 36 held-out pairs in eval.jsonl.

Each cluster has a fixed 3-word source signature and a small target
vocabulary drawn from a shared, overlapping pool; sources add shuffled
per-sample noise words and targets are sampled token-by-token from the
cluster vocabulary. Latent-space neighbors share the cluster, so they carry
the information the decoder needs at every target position.
"""

import argparse
import os

from regavae.data import make_synthetic_corpus, write_jsonl


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="data", help="output directory")
    args = ap.parse_args()

    train, evals = make_synthetic_corpus()
    os.makedirs(args.out_dir, exist_ok=True)
    write_jsonl(train, os.path.join(args.out_dir, "train.jsonl"))
    write_jsonl(evals, os.path.join(args.out_dir, "eval.jsonl"))
    print(f"wrote {len(train)} train / {len(evals)} eval pairs to {args.out_dir}/")


if __name__ == "__main__":
    main()
