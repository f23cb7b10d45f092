#!/usr/bin/env python3
"""Microseconds per query of `retrieval.top_k_batch` as the key count grows.

    python3 scripts/topk_scaling.py

For 1e3, 1e4 and 1e5 keys of dimension 8 (seed 0, every 50th key an exact
copy of an earlier one) it times batches of 1 and of 8 queries at k=5; each
query sits near a key, and every other one excludes that key, as stage 3
excludes a document from its own neighbours. A database's unit keys are
built by one untimed call, so the table shows the steady state. Each cell is
the median over 25 calls, divided by the batch size. BLAS is pinned
to one thread, as perfbench pins it. Run it in two checkouts to compare them.

Every timed call's hits are checked against a full scan, which scores every
key with one `einsum` and divide and sorts stably: the rows must be equal
and the scores equal bit for bit. A mismatch is reported on stderr, and the
script exits 1 after the table.
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

from regavae.retrieval import Ragged, RetrievalDatabase, top_k_batch  # noqa: E402

D_Z, K, SEED = 8, 5, 0
REPEATS = 25


def database(n: int) -> RetrievalDatabase:
    rng = np.random.default_rng([SEED, n])
    means = rng.standard_normal((n, D_Z))
    for i in range(50, n, 50):
        means[i] = means[int(rng.integers(0, i))]
    tokens = Ragged.pack([[4]] * n)
    return RetrievalDatabase.from_arrays(means, np.zeros_like(means), tokens, tokens, 0, 500)


def full_scan(queries, db: RetrievalDatabase, k: int, excludes) -> list:
    """Exact top-k of each query over every key: the reference hits."""
    qn = np.sqrt(np.einsum("bj,bj->b", queries, queries))
    scores = np.einsum("bj,ij->bi", queries, db.means) / (qn[:, None] * db.norms)
    for i, c in enumerate(excludes):
        if c is not None:
            scores[i, c] = -np.inf
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return [(rows, s[rows]) for rows, s in zip(order, scores)]


def same_hits(got, want) -> bool:
    """Per query, the same rows and the same score bits."""
    return len(got) == len(want) and all(
        np.array_equal(rows, want_rows) and scores.tobytes() == want_scores.tobytes()
        for (rows, scores), (want_rows, want_scores) in zip(got, want))


def main() -> None:
    mismatches = 0
    print("| keys | µs/query, 1 query | µs/query, 8 queries |")
    print("|---|---|---|")
    for n in (1_000, 10_000, 100_000):
        db = database(n)
        rng = np.random.default_rng([SEED, n, 1])
        cells = []
        for b in (1, 8):
            anchors = rng.integers(0, n, b)
            queries = db.means[anchors] + 0.3 * rng.standard_normal((b, D_Z))
            excludes = [int(a) if i % 2 else None for i, a in enumerate(anchors)]
            want = full_scan(queries, db, K, excludes)
            top_k_batch(queries, db, K, excludes)
            times = []
            for _ in range(REPEATS):
                t = time.perf_counter()
                got = top_k_batch(queries, db, K, excludes)
                times.append(time.perf_counter() - t)
                if not same_hits(got, want):
                    mismatches += 1
                    print(f"{n} keys, {b} queries: top-k differs from the full scan",
                          file=sys.stderr)
            cells.append(f"{statistics.median(times) / b * 1e6:.0f}")
        print(f"| 1e{len(str(n)) - 1} | {cells[0]} | {cells[1]} |")
    if mismatches:
        sys.exit(f"{mismatches} timed calls differ from the full scan")


if __name__ == "__main__":
    main()
