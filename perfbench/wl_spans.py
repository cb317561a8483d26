"""Workload ``spans``: ``--format record span-compose`` over chains of span records.

Each request composes a chain of 2-4 random spans whose apices lie between
25 and 400.  The middle feet range from 2 (dense pullbacks, many pairs) to
about apex/2 (sparse pullbacks, few pairs).  Half the requests add
``--cells``, which recomputes the same pullbacks for the unitor and
associator cells.  Legs are random maps with balanced fibers, so the
nested-loop pair tests and composite sizes follow from the chain's sizes.
Each request class has one chain shape (apices and feet): of
``SHAPE_DRAWS`` shapes drawn from a fixed seed, the one nearest a rung of
``WORK_RUNGS`` in pair tests, with composites under ``APEX_CAP`` elements.
A request jitters the shape's apices by up to 10% and draws fresh legs, so
that a class costs about the same at every seed and no request takes
seconds.

The oracle composes the chain with its own nested-loop pullback and checks
the composite, the unitor maps, and that the associator map is a bijection
commuting with both legs.
"""

from __future__ import annotations

import functools
import json
import math
from random import Random

from harness import Request
from termgen import log_uniform_int

NAME = "spans"
WARMUP_ROUNDS = 1
ROUNDS = 60
RSS_ROUNDS = 4
# Every round holds each (chain length, cells, density, work rung) once.
# Density is set by the first middle foot: 2-4 values (dense pullbacks) or
# apex/4 to apex/2 values (sparse ones).  A request aims at the rung's pair
# tests and at a final apex of that over the density's divisor, because
# rendering costs grow with the apex.
WORK_RUNGS = (5_000, 40_000)
DENSITIES = {"dense": 4, "sparse": 40}
# largest expected apex of any composite the request builds, which bounds memory
APEX_CAP = 10_000
SHAPE_DRAWS = 2048
APEX_JITTER = 0.1
# the outer feet, narrow because the unitor cells cost apex times foot
OUTER_FEET = (4, 8)
REC = ["--format", "record"]


def _balanced(rng, n: int, target: int) -> list:
    """A random map of n points whose fibers differ in size by at most one."""
    img = [i % target for i in range(n)]
    rng.shuffle(img)
    return img


def _random_span(rng, dom: int, cod: int, apex: int) -> dict:
    return {
        "schema": "smckit/1",
        "kind": "span",
        "apex": apex,
        "left": {"target": dom, "img": _balanced(rng, apex, dom)},
        "right": {"target": cod, "img": _balanced(rng, apex, cod)},
    }


def _expected_work(apexes: list, feet: list) -> tuple[float, float, float]:
    """Pair tests, largest apex and final apex of the left-fold composite, for balanced legs.

    The largest apex also covers the right-nested composite of the second
    and third spans, which the associator cell builds.
    """
    work, apex, largest = 0.0, apexes[0], apexes[0]
    for a, mid in zip(apexes[1:], feet[1:-1]):
        work += apex * a
        apex = apex * a / mid
        largest = max(largest, apex)
    if len(apexes) >= 3:
        largest = max(largest, apexes[1] * apexes[2] / feet[2])
    return work, largest, apex


def _sizes(rng, k: int, density: str) -> tuple[list, list]:
    apexes = [log_uniform_int(rng, 25, 400) for _ in range(k)]
    feet = [log_uniform_int(rng, *OUTER_FEET)]
    for i, a in enumerate(apexes[:-1]):
        lo, hi = (2, max(2, a // 2)) if i else ((2, 4) if density == "dense" else (max(2, a // 4), max(2, a // 2)))
        feet.append(log_uniform_int(rng, lo, hi))
    feet.append(log_uniform_int(rng, *OUTER_FEET))
    return apexes, feet


@functools.lru_cache(maxsize=None)
def chain_shape(k: int, density: str, target: int) -> tuple[tuple, tuple]:
    """Apices and feet of the class's chain: of ``SHAPE_DRAWS`` shapes drawn
    from a fixed seed, the one nearest the work target, then the final-apex
    target (rendering costs grow with the apex), within ``APEX_CAP``."""
    rng = Random(f"spans-shape:{k}:{density}:{target}")
    best = None
    for _ in range(SHAPE_DRAWS):
        apexes, feet = _sizes(rng, k, density)
        work, largest, final = _expected_work(apexes, feet)
        miss = abs(math.log(work / target)) + 0.25 * abs(math.log(final * DENSITIES[density] / target))
        miss += 10.0 if largest > APEX_CAP else 0.0
        if best is None or miss < best[0]:
            best = (miss, tuple(apexes), tuple(feet))
    return best[1], best[2]


def make_chain(rng, k: int, density: str, target: int) -> list:
    """A chain of the class's shape with jittered apices and random balanced legs."""
    apexes, feet = chain_shape(k, density, target)
    apexes = [min(400, max(25, round(a * rng.uniform(1 - APEX_JITTER, 1 + APEX_JITTER)))) for a in apexes]
    return [_random_span(rng, feet[i], feet[i + 1], apexes[i]) for i in range(k)]


def make_round(rng) -> list:
    reqs = []
    for k in (2, 3, 4):
        for cells in (False, True):
            for density in DENSITIES:
                for i, rung in enumerate(WORK_RUNGS):
                    chain = make_chain(rng, k, density, rung)
                    argv = REC + ["span-compose"] + [json.dumps(s) for s in chain]
                    if cells:
                        argv.append("--cells")
                    kind = f"compose{k}-{'cells' if cells else 'bare'}-{density}-w{i}"
                    reqs.append(Request(argv, kind, None))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# oracle: a nested-loop pullback of the benchmark's own


def _compose(s: dict, t: dict) -> dict:
    f, g = s["right"]["img"], t["left"]["img"]
    pairs = [(a, b) for a in range(len(f)) for b in range(len(g)) if f[a] == g[b]]
    return {
        "apex": len(pairs),
        "left": {"target": s["left"]["target"], "img": [s["left"]["img"][a] for a, _ in pairs]},
        "right": {"target": t["right"]["target"], "img": [t["right"]["img"][b] for _, b in pairs]},
    }


def _fold(spans: list) -> dict:
    out = spans[0]
    for nxt in spans[1:]:
        out = _compose(out, nxt)
    return out


def check(req, rc, text) -> list:
    spans = [json.loads(a) for a in req.argv if a.startswith("{")]
    records = [json.loads(line) for line in text.splitlines()]
    if rc != 0 or not records or records[0].get("kind") != "span":
        return [f"span-compose rc={rc}"]
    want = _fold(spans)
    got = records[0]
    for key in ("apex", "left", "right"):
        if got[key] != want[key]:
            return [f"composite {key} differs"]
    if "--cells" not in req.argv:
        return [] if len(records) == 1 else ["unexpected extra records"]
    expected_kinds = ["span", "structural-cells"] + (["assoc-cell"] if len(spans) >= 3 else [])
    if [r.get("kind") for r in records] != expected_kinds:
        return ["wrong cell records"]
    cells = records[1]
    left = want["left"]["img"]
    lun = [a for j in range(want["left"]["target"]) for a in range(want["apex"]) if left[a] == j]
    if cells["lunitor"] != lun:
        return ["left unitor map differs"]
    if cells["runitor"] != list(range(want["apex"])):
        return ["right unitor map differs"]
    if len(spans) >= 3:
        s, t, u = spans[:3]
        src = _compose(_compose(s, t), u)
        dst = _compose(s, _compose(t, u))
        m = records[2]["map"]
        if sorted(m) != list(range(dst["apex"])) or len(m) != src["apex"]:
            return ["associator map is not a bijection"]
        for leg in ("left", "right"):
            if any(dst[leg]["img"][m[i]] != src[leg]["img"][i] for i in range(len(m))):
                return [f"associator map does not commute with the {leg} legs"]
    return []
