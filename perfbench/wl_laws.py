"""Workload ``laws``: ``check-laws`` on every suite, at seeds S and S + 1.

About 76k exact checks on tiny objects per seed.  It is the only workload
that runs the law machinery, the ``pbc`` base-change cells and Kleisli
duality, and the only one made of many tiny calls, where per-call
constructor validation costs more than any algorithm's asymptotics.

A round is ``check-laws --suite NAME --seed S`` for each of the eight
suites in turn, which is what ``--suite all`` runs; a window is the rounds
at seeds S and S + 1.  The requests are one suite each, not one
``--suite all``, so that a slow phase of the machine (see ``refspeed``)
is matched with the suites it slowed.  The latency of this
workload is a whole round, the time of a ``--suite all`` run.  The unit the
oracle judges is a suite.  A suite fails if it reports a violation or if
its case count differs from the recorded one.  Seven suites have the same
count at every seed; ``pbc`` draws random pastes, so its count is recorded
for seed 0 only.  The warm-up runs the coherence suite at a seed from a
separate stream.
"""

from __future__ import annotations

import json

from harness import Request

NAME = "laws"
WARMUP_ROUNDS = 1
ROUNDS = 2
RSS_ROUNDS = 2
LATENCY_PER_ROUND = True
REC = ["--format", "record"]

# seed-0 case counts, which every refactor must keep
RECORDED = {
    "coxeter": 7967,
    "faithfulness": 16000,
    "braiding": 90,
    "coherence": 2004,
    "span": 5120,
    "kleisli": 32823,
    "pbc": 3395,
    "unbias": 8395,
}
SEED_DEPENDENT = {"pbc"}
WARMUP_SEED_OFFSET = 1_000_003


def make_rounds(stream: str, seed: int, count: int) -> list:
    if stream == "warmup":
        argv = REC + ["check-laws", "--suite", "coherence", "--seed", str(seed + WARMUP_SEED_OFFSET)]
        return [[Request(argv, "warmup", None)] for _ in range(count)]
    return [
        [Request(REC + ["check-laws", "--suite", name, "--seed", str(seed + i)], f"suite-{name}", seed + i)
         for name in RECORDED]
        for i in range(count)
    ]


def check(req, rc, text) -> list:
    (record,) = [json.loads(line) for line in text.splitlines()]
    name = req.kind.removeprefix("suite-")
    if name not in RECORDED:  # the warm-up
        return []
    reports = {r["name"]: r for r in record["reports"]}
    r = reports.get(name)
    if r is None:
        return [f"{name}: missing"]
    if r["violations"]:
        return [f"{name}: {len(r['violations'])} violations"]
    if r["cases"] != RECORDED[name] and (req.expect == 0 or name not in SEED_DEPENDENT):
        return [f"{name}: {r['cases']} cases, recorded {RECORDED[name]}"]
    if rc != 0 or len(reports) != 1:
        return [f"rc={rc} with {len(reports)} reports"]
    return []
