#!/usr/bin/env python3
"""Run the benchmark on two source trees in alternating pairs and write a BENCH file.

Usage::

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 104 105 \\
        --seconds 15 --out BENCH_12.json

Each tree is a checkout with its own ``perfbench/run.py`` and ``src/``; the
runs are that script, unchanged, with ``--trace 0``.  For every workload
and seed the two trees run back to back, the parent first in even pairs
and the change first in odd ones.  The file holds the machine, each tree's
commit and ``src/`` line count, every run's end-to-end metrics, and per
workload and side the median of each metric.  A tree made with ``git
archive`` carries no commit; name it with ``--commit`` (the change) or
``--parent-commit`` (the parent).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("coherence", "spans", "unbias", "laws")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's end-to-end metrics and its ``meta``, read from the JSON it writes."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    full = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "meta": full["meta"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--commit", help="the change's commit, where its tree is no git checkout")
    p.add_argument("--parent-commit", help="the parent's commit, where its tree is no git checkout")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    for workload in WORKLOADS:
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for k, side in enumerate(order):
                run = bench(trees[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side, "first": k == 0, **run})
                print(workload, seed, side, json.dumps(run["metrics"]), file=sys.stderr)

    medians = {}
    for workload in WORKLOADS:
        for side in trees:
            mine = [r["metrics"] for r in runs if r["workload"] == workload and r["side"] == side]
            medians.setdefault(workload, {})[side] = {k: statistics.median(m[k] for m in mine) for k in mine[0]}
    meta = {side: next(r["meta"] for r in runs if r["side"] == side) for side in trees}
    report = {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "commit": args.commit or meta["change"]["commit"],
        "parent_commit": args.parent_commit or meta["parent"]["commit"],
        "src_lines": {side: meta[side]["src_lines"] for side in trees},
        "seconds": args.seconds,
        "trace": 0,
        "seeds": args.seeds,
        "median": medians,
        "runs": [{k: v for k, v in r.items() if k != "meta"} for r in runs],
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
