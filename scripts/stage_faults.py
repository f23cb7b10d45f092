#!/usr/bin/env python3
"""Wall time and minor page faults of each pipeline stage on a perfbench workload.

    python3 scripts/stage_faults.py --workload long_docs --cycles 5

Makes the workload's inputs with perfbench's own set-up (the corpus of
seed 1, the workload's config overrides), then runs `run_stage1`,
`run_stage2`, `run_stage3` and `run_eval` in that order, --cycles times, each
cycle into a new directory. Per stage it prints the median wall time in ms,
the median minor page-fault count (`getrusage(RUSAGE_SELF).ru_minflt` read
before and after the call) and the count of every cycle. A stage that keeps
faulting after the first cycle touches fresh pages on every call: the heap
gave them back to the system and faults them in again. BLAS is pinned to one
thread, as perfbench pins it; perfbench/ is imported, never changed.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("run_stage1", "run_stage2", "run_stage3", "run_eval")
SEED = 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--cycles", type=int, required=True)
    args = ap.parse_args(argv)
    if args.cycles < 1:
        ap.error("--cycles must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from bench import setup
    from regavae import training
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    work = Path(tempfile.mkdtemp(prefix="stage-faults-"))
    try:
        cfg = setup(WORKLOADS[args.workload], SEED, work / "inputs", ROOT).cfg
        ms = {s: [] for s in STAGES}
        faults = {s: [] for s in STAGES}

        def timed(name, *call_args):
            f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
            result = getattr(training, name)(*call_args)
            ms[name].append(1e3 * (time.perf_counter() - t0))
            faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            return result

        for c in range(args.cycles):
            out = work / f"cycle{c}"
            ckpt1, _ = timed("run_stage1", cfg, out)
            db_path = timed("run_stage2", cfg, ckpt1, out)
            ckpt3, _ = timed("run_stage3", cfg, ckpt1, db_path, out)
            timed("run_eval", cfg, ckpt3, db_path, out)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {SEED} cycles {args.cycles}")
    print("stage wall_ms_median minflt_median minflt_per_cycle")
    for s in STAGES:
        print(f"{s} {statistics.median(ms[s]):.1f} {statistics.median(faults[s]):g} "
              f"{' '.join(map(str, faults[s]))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
