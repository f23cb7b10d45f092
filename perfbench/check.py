"""Checks on the benchmark itself.

    python3 perfbench/check.py spread --workload pipeline_small --seeds 1 2 3 4 5
        One untraced run per seed. Prints, per end-to-end metric, the median,
        the quartiles and the quartile spread as a share of the median, next
        to a third of the metric's bound from BENCHMARK.json.

    python3 perfbench/check.py counts --workload pipeline_small --seed 1
        Two traced runs of the same code and seed; the exact counts must
        repeat. Exits 1 if one differs or a run reports a failed check.

Runs are sequential and each is waited for. --seconds defaults to the
run_seconds of BENCHMARK.json; --json FILE also writes the summary there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("autograd.tape_nodes_per_doc", "retrieval.similarity_calls", "model.generate_tokens",
         "metrics.eval_ppl")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(args, spec) -> tuple[dict, bool]:
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: correct={runs[-1]['correct']} "
              f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
    summary = {}
    steady = all(r["correct"] for r in runs)
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": share, "bound": m["bound"], "values": vals}
        ok = share < m["bound"] / 3 or m["name"] == "setup_s"
        steady &= ok
        print(f"{m['name']:20s} median {med:12.6g} {m['unit']:7s} spread {share:7.4f} "
              f"(bound/3 {m['bound'] / 3:.4f}){'' if ok else '  <-- wide'}")
    return {"workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
            "end_to_end": summary}, steady


def counts(args, spec) -> tuple[dict, bool]:
    a, b = (run_once(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    same = True
    for name in EXACT:
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        same &= x == y
        print(f"{name:30s} {x!r:>24} {y!r:>24} {'same' if x == y else 'DIFFERENT'}")
    ok = same and a["correct"] and b["correct"]
    return {"workload": args.workload, "seed": args.seed, "runs": [a, b], "exact_repeat": same}, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("spread", "counts"):
        q = sub.add_parser(name)
        q.add_argument("--workload", required=True)
        q.add_argument("--seconds", type=float, default=spec["run_seconds"])
        q.add_argument("--json")
    sub.choices["spread"].add_argument("--seeds", type=int, nargs="+", required=True)
    sub.choices["counts"].add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    summary, ok = (spread if args.cmd == "spread" else counts)(args, spec)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
