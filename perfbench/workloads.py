"""The benchmark's workloads and the seeded generators of their inputs.

Every workload runs the same cycle (pipeline, generation requests, retrieval
queries, database dump round trips) with one closed-loop client; what differs
is the input size, which decides the layer that dominates. The program only
sees the generated corpus files and database entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from regavae import data
from regavae.model import LatentGaussian
from regavae.retrieval import RetrievalDatabase, RetrievalEntry


DUP_EVERY = 50


@dataclass(frozen=True)
class Workload:
    name: str
    # Repo-relative JSON config, or None for the RunConfig defaults.
    base_config: str | None
    # Fixed step counts and sizes laid over the base config for one cycle.
    overrides: dict
    corpus: Callable[[int], tuple[list[dict], list[dict]]]
    gen_requests: int
    # Token cap of a generation request; eval's sampled generations use the
    # config's max_gen_len.
    gen_len: int
    # 0: queries come from the corpus and hit the stage-3 database;
    # N > 0: `queries` synthetic queries hit a synthetic database of N keys.
    query_keys: int = 0
    queries: int = 0
    # Corpus queries are sent this many times per cycle.
    query_rounds: int = 1
    round_trips: int = 1
    # Share of the speed adjustment taken from the calibration's interpreter
    # part, the rest from its array part (pace.py), for stages, set-up and
    # generation; queries and dumps use the interpreter part alone. Chosen
    # per workload from the spreads of six seeds at shares 0 to 1.
    interp_share: float = 1.0


def long_doc_corpus(seed: int) -> tuple[list[dict], list[dict]]:
    """8 training and 4 eval documents over a Zipf-weighted 300-word
    vocabulary: sources of 8-24 words, targets of 16-96 words. Lengths are
    spread evenly over those ranges and shuffled by the seed, so every seed
    asks for the same amount of work in a different order and wording."""
    rng = np.random.default_rng([seed, 101])
    words = np.array([f"w{i:03d}" for i in range(300)])
    p = 1.0 / np.arange(1, words.size + 1)
    p /= p.sum()

    def docs(n: int) -> list[dict]:
        src = rng.permutation(np.linspace(8, 24, n).round().astype(int))
        tgt = rng.permutation(np.linspace(16, 96, n).round().astype(int))
        return [{"source": " ".join(rng.choice(words, size=ns, p=p)),
                 "target": " ".join(rng.choice(words, size=nt, p=p))}
                for ns, nt in zip(src, tgt)]

    return docs(8), docs(4)


def synthetic_database(seed: int, n_keys: int, d_z: int) -> RetrievalDatabase:
    """N diagonal-Gaussian keys with short token payloads. Every DUP_EVERY-th
    key repeats an earlier key exactly, so top-k meets exact ties."""
    rng = np.random.default_rng([seed, 102])
    means = rng.standard_normal((n_keys, d_z))
    for i in range(DUP_EVERY, n_keys, DUP_EVERY):
        means[i] = means[int(rng.integers(0, i))]
    log_vars = rng.uniform(-2.0, 0.0, size=(n_keys, d_z))
    src = rng.integers(4, 40, size=(n_keys, 5))
    tgt = rng.integers(4, 40, size=(n_keys, 6))
    entries = [RetrievalEntry(i, LatentGaussian.from_arrays(means[i], log_vars[i]),
                              src[i].tolist(), tgt[i].tolist())
               for i in range(n_keys)]
    return RetrievalDatabase(entries, 0, 25)


def synthetic_queries(seed: int, db: RetrievalDatabase, n_queries: int, n_layers: int):
    """(per-layer posteriors, exclude_id) pairs. Each query sits near a random
    key; every other query excludes that key, as stage 3 excludes a document
    from its own neighbours. Every fourth query is exactly a duplicated key and
    excludes nothing, so the tie between the copies decides the top hits."""
    rng = np.random.default_rng([seed, 103])
    dups = list(range(DUP_EVERY, len(db), DUP_EVERY))
    out = []
    for q in range(n_queries):
        if q % 4 == 2 and dups:
            anchor = dups[int(rng.integers(0, len(dups)))]
            centers = [db.entries[anchor].key.mean_array] * n_layers
        else:
            anchor = int(rng.integers(0, len(db)))
            centers = [db.entries[anchor].key.mean_array
                       + 0.3 * rng.standard_normal(db.entries[anchor].key.dim)
                       for _ in range(n_layers)]
        posts = [LatentGaussian.from_arrays(c.copy(), np.zeros_like(c)) for c in centers]
        out.append((posts, anchor if q % 2 == 1 else None))
    return out


# Why each workload exists, and what it stresses and bypasses: README.md.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="pipeline_small",
            base_config="configs/synthetic.json",
            # Fixed steps instead of 40+15 epochs. Generation stops at the
            # 6-token target length, so eval's sampled generations depend
            # little on when a seed's briefly trained model emits EOS.
            overrides={"stage1_epochs": 1, "stage3_epochs": 2, "max_gen_len": 6},
            corpus=lambda seed: data.make_synthetic_corpus(seed),
            gen_requests=40,
            gen_len=6,
            round_trips=40,
        ),
        Workload(
            name="retrieval_large",
            base_config="configs/synthetic.json",
            # A minimal pipeline; the 10k keys serve the queries and dumps.
            overrides={"stage1_epochs": 1, "stage3_epochs": 1, "max_gen_len": 6},
            # 36 eval documents, as on pipeline_small: with 12, how many of a
            # seed's sampled eval generations stopped early moved eval_s by
            # a sixth between seeds.
            corpus=lambda seed: data.make_synthetic_corpus(
                seed, train_per_cluster=2, eval_per_cluster=3),
            gen_requests=20,
            gen_len=6,
            query_keys=10_000,
            queries=34,
            round_trips=3,
        ),
        Workload(
            name="long_docs",
            base_config=None,
            # One batch of 8 per epoch, so every seed trains on the same batches.
            # Eval's sampled generations stop at 8 tokens: at 32, where each
            # seed's model emitted EOS moved eval_s by up to 1.7x between
            # seeds. Requests still decode 32 tokens greedily.
            overrides={"stage1_epochs": 1, "stage3_epochs": 1, "refresh_interval": 1,
                       "max_gen_len": 8},
            corpus=long_doc_corpus,
            gen_requests=14,
            gen_len=32,
            query_rounds=20,
            round_trips=50,
            interp_share=0.5,
        ),
    ]
}
