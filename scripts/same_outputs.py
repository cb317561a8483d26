#!/usr/bin/env python3
"""Check that two source trees give the same CLI output on the benchmark's requests.

Usage::

    python3 scripts/same_outputs.py PARENT CHANGE --seeds 5 7 --suites all

Each tree is a checkout with its own ``perfbench/`` and ``src/``, and is read
in its own interpreter.  There, the first timed round of the ``coherence``,
``spans`` and ``unbias`` workloads at each seed is drawn with the tree's
``perfbench`` and run through ``cli.main``, each request as given and again
without its ``--format record``.  ``check-laws --suite S`` runs for each
suite at seeds 0 and 1, in text and in record format.  The exit code (or
the exception that escaped) and stdout of every run are hashed, one hash
per workload.  The script prints both trees' hashes per workload and exits
1 if any differ.  Bytecode writing is off, so neither tree is written to.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("coherence", "spans", "unbias")
LAW_SEEDS = (0, 1)
RECORD = ["--format", "record"]


def _formats(argv: list) -> list:
    """``argv`` as given, and without its leading ``--format record``."""
    return [argv, argv[2:] if argv[:2] == RECORD else argv]


def tree_hashes(tree: Path, seeds: list, suites: list) -> dict:
    """Per workload of ``tree``: the number of runs and the hash of their exit codes and stdout."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(tree / "perfbench"))
    harness = importlib.import_module("harness")
    cli = harness.import_smckit()
    argvs = {name: [] for name in (*WORKLOADS, "check-laws")}
    for name in WORKLOADS:
        workload = importlib.import_module(f"wl_{name}")
        for seed in seeds:
            for rnd in harness.make_rounds(workload, "timed", seed, 1):
                for req in rnd:
                    argvs[name] += _formats(req.argv)
    for suite in suites:
        for seed in LAW_SEEDS:
            argvs["check-laws"] += _formats(RECORD + ["check-laws", "--suite", suite, "--seed", str(seed)])
    out = {}
    for name, runs in argvs.items():
        digest = hashlib.sha256()
        for argv in runs:
            with contextlib.redirect_stderr(io.StringIO()):
                rc, text, error, _ = harness.call_cli(cli, harness.Request(argv, name))
            digest.update(json.dumps([rc if error is None else error, text]).encode())
        out[name] = {"runs": len(runs), "hash": digest.hexdigest()}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, nargs="?")
    p.add_argument("change", type=Path, nargs="?")
    p.add_argument("--seeds", type=int, nargs="+", default=[5, 7])
    p.add_argument("--suites", nargs="+", default=["all"])
    p.add_argument("--one", type=Path, help="hash this one tree and print its hashes as JSON")
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(tree_hashes(args.one.resolve(), args.seeds, args.suites)))
        return 0
    if args.parent is None or args.change is None:
        p.error("give the PARENT and CHANGE trees")

    results = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        cmd = [sys.executable, "-B", __file__, "--one", str(tree.resolve()),
               "--seeds", *map(str, args.seeds), "--suites", *args.suites]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            print(f"error: hashing the {side} tree {tree} failed:\n{proc.stderr}", file=sys.stderr)
            return 2
        results[side] = json.loads(proc.stdout)

    same = True
    for name, parent in results["parent"].items():
        change = results["change"][name]
        verdict = "same" if parent == change else "DIFFERENT"
        same = same and parent == change
        print(f"{name:<11} {parent['runs']:>4} runs  parent {parent['hash'][:16]}  "
              f"change {change['hash'][:16]}  {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
