#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../base --change . \\
        --workload pipeline_small --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH_7.json

For each seed it runs `perfbench/run.py --trace 0` once in each checkout, one
after the other; the side that runs first alternates from pair to pair, so a
drift in machine speed hits both sides alike. Each run's result file (under
the checkout's `.perfbench_out/`) is read back. The summary gives, per
end-to-end metric of BENCHMARK.json, each side's median and quartiles, the
per-seed values and `won k/n`: the number of pairs in which the change was
better than the parent, ties counting for neither. `worse_by` is the share by
which the change's median is worse than the parent's (negative when better),
and `within_bound` is true when that share is at most the metric's bound; the
last line printed names the metric with the largest `worse_by / bound`, so
"nothing got worse beyond its bound" is one line. `raw` gives the same
quartiles of the values before perfbench's speed adjustment, and `raw_ratio`
their median ratio, so a shift in the pace probes shows. It also keeps every run's
`correct`/`failed` and the environment perfbench recorded on each side, and
`src_sha256`, a digest of each side's `src/` tree (`src_digest`), so the file
names the code it compared, and `src_lines`, the line count of that tree, so
a simplification shows its size. Run length is the `run_seconds` of
BENCHMARK.json, the same on both sides.

The summary is added to the `runs` list of --out; the file is created if it
does not exist, so several workloads or seed sets can share one BENCH file.
Runs are sequential and each is waited for. Nothing under perfbench/ is
changed; the benchmark itself is the one in each checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_side(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in checkout `root`; returns its result
    file plus the correct/failed line it printed last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(result.read_text(encoding="utf-8"))
    record["correct"] = last["correct"]
    return record


def src_digest(root: Path) -> str:
    """SHA-256 of the `*.py` files under `root/src`: each file's path relative
    to `src/`, its length and its bytes, in path order."""
    src, h = root / "src", hashlib.sha256()
    for rel in sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def src_lines(root: Path) -> int:
    """The number of lines of the `*.py` files under `root/src`."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src").rglob("*.py"))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(spec: dict, seeds: list[int], runs: dict[str, list[dict]]) -> dict:
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["end_to_end"][name] for r in runs[side]] for side in SIDES}
        won = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        stats = {side: quartiles(vals[side]) for side in SIDES}
        raw = {side: quartiles([r["raw"][name] for r in runs[side]]) for side in SIDES}
        ratio = stats["change"]["median"] / stats["parent"]["median"]
        worse_by = 1.0 - ratio if higher else ratio - 1.0
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         **stats, "won": f"{won}/{len(seeds)}", "median_ratio": ratio,
                         "worse_by": worse_by, "within_bound": worse_by <= m["bound"],
                         # The same timings before the speed adjustment.
                         "raw": raw,
                         "raw_ratio": raw["change"]["median"] / raw["parent"]["median"],
                         # The claim rule: the medians differ by more than the
                         # distance between the parent's quartiles.
                         "beyond_parent_iqr": abs(stats["change"]["median"]
                                                  - stats["parent"]["median"])
                         > stats["parent"]["q3"] - stats["parent"]["q1"]}
    worst = max(metrics, key=lambda n: metrics[n]["worse_by"] / metrics[n]["bound"])
    return {"metrics": metrics, "worst": worst,
            "checks": {side: [{"seed": r["seed"], "correct": r["correct"],
                               "attempted": r["attempted"], "failed": r["failed"]}
                              for r in runs[side]] for side in SIDES},
            "env": {side: runs[side][0]["env"] for side in SIDES}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--out", required=True, type=Path, help="BENCH file to add the summary to")
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            runs[side].append(run_side(roots[side], args.workload, seed, seconds))
        print(f"seed {seed}: {order[0]} ran first", flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "first": first,
               "src_sha256": {side: src_digest(roots[side]) for side in SIDES},
               "src_lines": {side: src_lines(roots[side]) for side in SIDES},
               **summarize(spec, args.seeds, runs)}
    doc = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
           else {"runs": []})
    doc["runs"].append(summary)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for side in SIDES:
        print(f"{side} src sha256 {summary['src_sha256'][side]} "
              f"lines {summary['src_lines'][side]}")
    for name, m in summary["metrics"].items():
        print(f"{name:20s} parent {m['parent']['median']:12.6g} change "
              f"{m['change']['median']:12.6g} {m['unit']:7s} ratio {m['median_ratio']:.3f} "
              f"(raw {m['raw_ratio']:.3f}) won {m['won']}"
              f"{'' if m['within_bound'] else '  <-- beyond bound'}")
    m = summary["metrics"][summary["worst"]]
    print(f"worst against its bound: {summary['worst']} {100 * m['worse_by']:+.1f}% "
          f"(bound {100 * m['bound']:.0f}%, {'within' if m['within_bound'] else 'BEYOND'})")
    ok = all(c["correct"] and c["failed"] == 0 for side in SIDES for c in summary["checks"][side])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
