#!/usr/bin/env python3
"""Print the SHA-256 of every artifact a seed-0 pipeline writes.

Runs `configs/synthetic.json` at seed 0 with full epochs on the bundled
corpus (`make_synthetic_corpus(0)`), once at k_neighbors=5 and once at
k_neighbors=0 (the plain VAE), with the regavae package from this checkout's
`src/`. Prints one `k file sha256` line per checkpoint, database dump and
metric report, and after the k=5 run one `5 generate sha256` line: the
digest of what `regavae generate --n-samples 4` prints for the first
held-out source with that run's checkpoint and database. Two checkouts make
byte-identical artifacts when the outputs of

    python3 scripts/artifact_digest.py --out /tmp/a > a.txt

run in each have no `diff`. Takes under two minutes on two CPU cores.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from regavae.cli import main as cli_main  # noqa: E402
from regavae.data import make_synthetic_corpus, write_jsonl  # noqa: E402
from regavae.training import RunConfig, run_pipeline  # noqa: E402

# config.json is left out: it echoes the corpus paths, which name --out.
ARTIFACTS = ("stage1.ckpt", "retrieval.db", "stage3.ckpt", "metrics.json", "metrics.txt")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="directory for the corpus and both runs")
    args = ap.parse_args()

    train, evals = make_synthetic_corpus(0)
    os.makedirs(args.out, exist_ok=True)
    corpus = os.path.join(args.out, "train.jsonl")
    eval_corpus = os.path.join(args.out, "eval.jsonl")
    write_jsonl(train, corpus)
    write_jsonl(evals, eval_corpus)
    base = dataclasses.replace(RunConfig.from_file(os.path.join(ROOT, "configs", "synthetic.json")),
                               seed=0, corpus=corpus, eval_corpus=eval_corpus)
    for k in (5, 0):
        out = os.path.join(args.out, f"k{k}")
        run_pipeline(dataclasses.replace(base, k_neighbors=k), out)
        for name in ARTIFACTS:
            path = os.path.join(out, name)
            if os.path.exists(path):  # k=0 builds no database
                with open(path, "rb") as f:
                    print(k, name, hashlib.sha256(f.read()).hexdigest(), flush=True)
        if k == 5:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                rc = cli_main(["--config", os.path.join(out, "config.json"), "--out", out,
                               "generate", "--checkpoint", os.path.join(out, "stage3.ckpt"),
                               "--database", os.path.join(out, "retrieval.db"),
                               "--source", evals[0]["source"], "--n-samples", "4"])
            if rc != 0:
                raise SystemExit(f"regavae generate exited {rc}")
            print(k, "generate", hashlib.sha256(printed.getvalue().encode()).hexdigest(),
                  flush=True)


if __name__ == "__main__":
    main()
