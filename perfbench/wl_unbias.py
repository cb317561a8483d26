"""Workload ``unbias``: ``--format record unbias`` with a span and a family record.

Each request evaluates the unbiased tensors of a random span in the term
model or the symmetric-list model, with or without ``--cells``.  The
span has three target fibers over a foot of eight family entries.  In the
smallest stratum of ``ARITY_STRATA`` each fiber has 0 to 4 elements, so
that empty and one-element tensors (the base cases of the unbiased fold)
occur; in the others each fiber lies within 10% of an arity (tensor size)
drawn from the stratum.  Each family entry is a small nested object
expression over labels that avoid the grammar's keywords.
Every round holds each (model, cells, stratum) triple once.

The oracle recomputes every fiber as a multiset from the span itself, and
checks that the label list of each rendered object is the concatenation of
the entries along the reported fiber.  Unit cells must be right unitors (term
model) or identities (list model); composition cells must be one per index.
"""

from __future__ import annotations

import json
import re
from collections import Counter

from harness import Request
from termgen import log_uniform_int

NAME = "unbias"
WARMUP_ROUNDS = 1
ROUNDS = 200
RSS_ROUNDS = 32
REC = ["--format", "record"]
LABELS = [f"p{i}" for i in range(6)]
ARITY_STRATA = ((0, 4), (8, 10), (20, 24), (45, 50))
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _entry(rng, depth: int = 2) -> str:
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(LABELS)
    return f"({_entry(rng, depth - 1)} * {_entry(rng, depth - 1)})"


def make_request(rng, model: str, cells: bool, stratum: int) -> Request:
    lo, hi = ARITY_STRATA[stratum]
    cod, dom = 3, 8
    if lo == 0:
        fibers = [rng.randint(lo, hi) for _ in range(cod)]
    else:
        arity = log_uniform_int(rng, lo, hi)
        fibers = [round(arity * rng.uniform(0.9, 1.1)) for _ in range(cod)]
    right = [k for k, n in enumerate(fibers) for _ in range(n)]
    rng.shuffle(right)
    left = [rng.randrange(dom) for _ in right]
    span = {
        "schema": "smckit/1", "kind": "span", "apex": len(right),
        "left": {"target": dom, "img": left},
        "right": {"target": cod, "img": right},
    }
    family = {
        "schema": "smckit/1", "kind": "family", "size": dom,
        "entries": {str(j): _entry(rng) for j in range(dom)},
    }
    argv = REC + ["unbias", json.dumps(span), json.dumps(family), "--model", model]
    if cells:
        argv.append("--cells")
    kind = f"{model}-{'cells' if cells else 'bare'}-a{ARITY_STRATA[stratum][1]}"
    return Request(argv, kind, {"span": span, "family": family, "model": model, "cells": cells})


def make_round(rng) -> list:
    reqs = [
        make_request(rng, model, cells, stratum)
        for model in ("term", "slist")
        for cells in (False, True)
        for stratum in range(len(ARITY_STRATA))
    ]
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# oracle


def _labels(text: str) -> list:
    return [w for w in IDENT.findall(text) if w != "I"]


def check(req, rc, text) -> list:
    exp = req.expect
    span, entries = exp["span"], exp["family"]["entries"]
    records = [json.loads(line) for line in text.splitlines()]
    if rc != 0 or not records or records[0].get("kind") != "unbias-result":
        return [f"unbias rc={rc}"]
    res = records[0]
    left, right = span["left"]["img"], span["right"]["img"]
    cod = span["right"]["target"]
    if sorted(res["fibers"]) != sorted(str(k) for k in range(cod)):
        return ["wrong fiber indices"]
    for k in range(cod):
        fiber = res["fibers"][str(k)]
        oracle = Counter(left[a] for a in range(len(left)) if right[a] == k)
        if Counter(fiber) != oracle:
            return [f"fiber {k} differs from the fiber multiset"]
        want = [label for j in fiber for label in _labels(entries[str(j)])]
        if _labels(res["objects"][str(k)]) != want:
            return [f"object {k} has the wrong labels"]
    if not exp["cells"]:
        return [] if len(records) == 1 else ["unexpected extra records"]
    if len(records) != 2 or records[1].get("kind") != "coherence-cells":
        return ["missing coherence cells"]
    cells = records[1]
    if sorted(cells["composition"]) != sorted(str(k) for k in range(cod)):
        return ["wrong composition cell indices"]
    dom = span["left"]["target"]
    for j in range(dom):
        unit = cells["unit"].get(str(j))
        entry = entries[str(j)]
        if exp["model"] == "term":
            ok = unit is not None and unit.startswith("r ") and _labels(unit[2:]) == _labels(entry)
        else:
            ok = unit == "phi=[" + ",".join(map(str, range(len(_labels(entry))))) + "]"
        if not ok:
            return [f"unit cell {j} is wrong"]
    return []
