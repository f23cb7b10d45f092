#!/usr/bin/env python3
"""Milliseconds per token of `VaeModel.generate_pack` at two model sizes.

    python3 scripts/gen_scaling.py

For the bundled model size (configs/synthetic.json, over the bundled
corpus's vocabulary) and the default size (`ModelConfig`, over the 304-token
vocabulary of perfbench's long_docs workload), an untrained model (seed 0)
decodes packs of 1 and of 8 rows greedily, up to 32 tokens a row, under
seeded (B, d_z) latents. Each cell is the median over 15 calls, after one
untimed call, divided by the tokens the call drew: every row's tokens, plus
the EOS of a row that drew one. BLAS is pinned to one thread, as perfbench
pins it. Run it in two checkouts to compare them.

Every timed call's tokens are checked against a decode without the step: each
row alone, every prefix re-decoded in full by the decoder's op path, its last
logits' argmax taken. A mismatch is reported on stderr, and the script exits
1 after the table.
"""

import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from regavae.autograd import Tensor  # noqa: E402
from regavae.data import BOS, EOS, Tokenizer, make_synthetic_corpus  # noqa: E402
from regavae.model import ModelConfig, VaeModel  # noqa: E402
from regavae.training import RunConfig  # noqa: E402

MAX_LEN, SEED = 32, 0
REPEATS = 15


def sizes() -> list[tuple[str, ModelConfig]]:
    train, _ = make_synthetic_corpus()
    vocab = Tokenizer.build(t for r in train for t in (r["source"], r["target"])).vocab_size
    bundled = RunConfig.from_file(os.path.join(ROOT, "configs", "synthetic.json"))
    return [("bundled", bundled.model_config(vocab)), ("default", ModelConfig(vocab_size=304))]


def full_redecode(model: VaeModel, z_layers: list[Tensor], row: int) -> list[int]:
    """Row `row`'s greedy tokens, every prefix decoded in full: the reference."""
    z = [Tensor(l.data[row:row + 1]) for l in z_layers]
    out = []
    for _ in range(min(MAX_LEN, model.config.max_seq_len)):
        inputs = [BOS] + out
        logits = model._decoder_logits(z, inputs, np.array([0, len(inputs)])).data[-1]
        nxt = int(np.argmax(logits))
        if nxt == EOS:
            break
        out.append(nxt)
    return out


def main() -> None:
    mismatches = 0
    print("| size | ms/token, 1 row | ms/token, 8 rows |")
    print("|---|---|---|")
    for name, config in sizes():
        model = VaeModel(config, seed=SEED)
        rng = np.random.default_rng([SEED, config.d_h])
        cells = []
        for b in (1, 8):
            z = [Tensor(rng.standard_normal((b, config.d_z))) for _ in range(config.n_layers)]
            want = [full_redecode(model, z, i) for i in range(b)]
            tokens = sum(len(w) + (len(w) < MAX_LEN) for w in want)
            model.generate_pack(z, MAX_LEN)
            times = []
            for _ in range(REPEATS):
                t = time.perf_counter()
                got = model.generate_pack(z, MAX_LEN)
                times.append(time.perf_counter() - t)
                if got != want:
                    mismatches += 1
                    print(f"{name} size, {b} rows: tokens differ from the full re-decode",
                          file=sys.stderr)
            cells.append(f"{statistics.median(times) / tokens * 1e3:.3f}")
        print(f"| {name} | {cells[0]} | {cells[1]} |")
    if mismatches:
        sys.exit(f"{mismatches} timed calls differ from the full re-decode")


if __name__ == "__main__":
    main()
