"""Run one regavae benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload pipeline_small --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics listed in BENCHMARK.json, measured untraced; with --trace 1
they are its per-layer metrics, from traced cycles. The lines before it give
the same values with units, the environment, the tail percentiles used and,
when traced, self times per span. A result file (and, when traced, the spans)
is written under .perfbench_out/.

Exit codes: 0 the run finished (failed checks give "correct": false), 1 the
program raised, 2 bad arguments or no regavae source under src/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy loads; at most `nproc`.
BLAS_THREADS = 1
ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_regavae() -> str | None:
    """Put the checkout's src/ first on the path; return an error or None."""
    src = ROOT / "src"
    if not (src / "regavae" / "__init__.py").is_file():
        return f"no regavae source at {src}"
    sys.path.insert(0, str(src))
    import regavae

    if Path(regavae.__file__).resolve().parent != (src / "regavae").resolve():
        return f"imported regavae from {regavae.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    error = _import_regavae()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import bench
    from pace import ARRAYS_REF_S, INTERP_REF_S
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        res = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                        work, ROOT)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = res["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in listed} - set(values)
    if missing or (args.trace and set(values) != {m["name"] for m in listed}):
        print(f"error: measured metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    checks = res["checks"]
    env = bench.environment(BLAS_THREADS)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} cycles {res['cycles']} "
          f"trace {args.trace} (closed loop, 1 client)")
    # Timings are speed-adjusted (pace.py); the raw value follows each.
    print(f"pace over {res['probes']} probes: interp median {res['pace_ms'][0]:.4f} ms "
          f"(reference {1e3 * INTERP_REF_S:g}), arrays median {res['pace_ms'][1]:.4f} ms "
          f"(reference {1e3 * ARRAYS_REF_S:g}), interp share {res['interp_share']:g}")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, v in res["end_to_end"].items():
        unit = e2e_units.get(name, "s")
        note = f" ({res['tails'][name]})" if name in res["tails"] else ""
        bounded = "" if name in e2e_units else " [not bounded]"
        print(f"{'untraced ' if args.trace else ''}{name} {v:.6g} {unit}{note} "
              f"raw {res['raw'][name]:.6g}{bounded}")
    # Printed, not bounded (see README.md): eval_ppl varies with the seed,
    # failed_ops_frac sits at 0.
    print(f"eval_ppl {res['eval_ppl']:.6g} ppl")
    print(f"failed_ops_frac {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed}/{checks.attempted})")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "cycles": res["cycles"], "tails": res["tails"],
              "end_to_end": res["end_to_end"], "raw": res["raw"],
              "pace_ms": res["pace_ms"], "probes": res["probes"],
              "interp_share": res["interp_share"],
              "eval_ppl": res["eval_ppl"],
              "attempted": checks.attempted, "failed": checks.failed}
    if args.trace:
        for m in listed:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
        print("self times per traced cycle: span calls total_ms self_ms")
        n = res["traced_cycles"]
        for name, s in sorted(res["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name} {s['calls'] / n:g} {1e3 * s['total_s'] / n:.3f} "
                  f"{1e3 * s['self_s'] / n:.3f}")
        record.update(per_layer=res["per_layer"], self_times=res["self_times"],
                      traced_cycles=n)
        res["tracer"].dump(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
