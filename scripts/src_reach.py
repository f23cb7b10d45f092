#!/usr/bin/env python3
"""List the statements of src/regavae that no run of the program executes.

    python3 scripts/src_reach.py [--seconds 1]

Runs, in this one process and under a `sys.settrace` line tracer limited to
the files of src/regavae:

- the README's CLI sequence on the bundled corpus (`scripts/make_corpus.py`),
  with a copy of `configs/synthetic.json` that trains 1 stage-1 and 2
  stage-3 epochs: train-vae, build-db, train-regavae, eval, generate with
  and without --database, pipeline, and ablate --sweep 1 3 5. Which lines
  run does not depend on the epoch count, as long as stage 3 passes one
  index refresh (every 25 steps; an epoch is 15);
- `perfbench/run.py` on every workload at --trace 0 and --trace 1, each for
  --seconds (it still runs its minimum cycle count); each run must end
  `correct`. perfbench is imported, not changed; its result files go to its
  usual `.perfbench_out/`.

Then prints every statement that no run executed as `file:line: source`,
and a last line counting them. A statement is a line that holds bytecode of
one of the file's compiled code objects, so a `def` line counts as reached
when the module that holds it is imported. Takes a few minutes on two cores.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "regavae")


class LineReach:
    """`with LineReach(root) as r:` records in `r.lines` every (file, line)
    executed in a Python file under the directory `root`; frames of other
    files are not traced line by line."""

    def __init__(self, root: str):
        self.root = os.path.realpath(root) + os.sep
        self.lines: set[tuple[str, int]] = set()  # (real path, line)
        self._real: dict[str, str | None] = {}  # code file -> real path under root, or None

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((self._real[frame.f_code.co_filename], frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._real:
            real = os.path.realpath(name)
            self._real[name] = real if real.startswith(self.root) else None
        return self._line if self._real[name] else None

    def __enter__(self) -> "LineReach":
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)


def statements(path: str) -> set[int]:
    """The lines of the Python file `path` that hold bytecode."""
    with open(path, encoding="utf-8") as f:
        todo = [compile(f.read(), path, "exec")]
    found: set[int] = set()
    while todo:
        code = todo.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def _quiet(fn, *args):
    """fn(*args) with its standard output captured: (result, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return fn(*args), out.getvalue()


def _cli_sequence(work: str) -> None:
    from regavae import cli

    data = os.path.join(work, "data")
    sys.argv = ["make_corpus.py", "--out-dir", data]
    _quiet(runpy.run_path, os.path.join(ROOT, "scripts", "make_corpus.py"), None, "__main__")
    with open(os.path.join(ROOT, "configs", "synthetic.json"), encoding="utf-8") as f:
        cfg = json.load(f)
    cfg.update(stage1_epochs=1, stage3_epochs=2, corpus=os.path.join(data, "train.jsonl"),
               eval_corpus=os.path.join(data, "eval.jsonl"))
    config = os.path.join(work, "config.json")
    with open(config, "w", encoding="utf-8") as f:
        json.dump(cfg, f)
    out = os.path.join(work, "out")
    ckpt1, db, ckpt3 = (os.path.join(out, n) for n in ("stage1.ckpt", "retrieval.db",
                                                       "stage3.ckpt"))
    gen = ["generate", "--checkpoint", ckpt3, "--source", "s00x0 s00x1 s00x2",
           "--n-samples", "3"]
    for argv in (["train-vae"], ["build-db", "--checkpoint", ckpt1],
                 ["train-regavae", "--checkpoint", ckpt1, "--database", db],
                 ["eval", "--checkpoint", ckpt3, "--database", db],
                 gen + ["--database", db], gen, ["pipeline"],
                 ["ablate", "--sweep", "1", "3", "5"]):
        if _quiet(cli.main, ["--config", config, "--out", out] + argv)[0] != 0:
            raise SystemExit(f"regavae {' '.join(argv)} failed")


def _perfbench(seconds: float) -> None:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run

    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", name, "--seed", "1", "--seconds", str(seconds),
                    "--trace", trace]
            code, out = _quiet(run.main, argv)
            if code != 0 or not json.loads(out.splitlines()[-1])["correct"]:
                raise SystemExit(f"perfbench/run.py {' '.join(argv)} failed")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=1.0,
                    help="run length of each perfbench run (default 1)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with LineReach(PACKAGE) as reach:  # before the first import, so module lines count
        with tempfile.TemporaryDirectory() as tmp:
            _cli_sequence(tmp)
        _perfbench(args.seconds)
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.realpath(os.path.join(PACKAGE, name))
        with open(path, encoding="utf-8") as f:
            source = f.read().splitlines()
        for line in sorted(statements(path)):
            if (path, line) not in reach.lines:
                missed += 1
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statements of src/regavae not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
