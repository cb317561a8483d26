"""Workload ``coherence``: ``equal`` and ``normalize`` on structural terms.

Three request classes, mixed in every round:

* ``walk-*``: small random walks of structural moves, compared with a copy
  under one to three axiom rewrites, or normalized.  This is the coherence
  law suite's distribution; its terms share many subterms.
* ``perm8/12/16``: terms of random permutations (with an inversion count
  near the mean) built from adjacent swaps on right-nested objects, compared either with a term of the same
  permutation from a longer word (equal) or with a term of another
  permutation with the same boundary (unequal).
* ``chain-100-*`` and ``chain-200-*`` (100-120 and 180-220 steps, one
  ``normalize`` and one ``equal`` each) and ``chain-long`` (700-1600
  steps): ``;``-chains of braidings or associators.  The long ones lie
  beyond the depth at which the recursive term code stops, so today they
  fail.

Expected answers come from how each term was built (``termgen``), never
from smckit's normalizer.
"""

from __future__ import annotations

import json

from termgen import (
    apply_word,
    axiom_rewrite,
    bubble_word,
    inversions,
    log_uniform_int,
    padded_word,
    random_walk,
    render_mor,
    swap_text,
    walk_answer,
)
from harness import Request

NAME = "coherence"
WARMUP_ROUNDS = 1
ROUNDS = 60
RSS_ROUNDS = 4
WALK_LABELS = [f"x{i}" for i in range(5)]

# (class, requests per round).  Each round holds every class in fixed
# numbers, so rounds cost about the same; the slowest 5.5% are the long chain
# and the n = 16 pairs, which puts the 90th percentile among the n = 12
# pairs and the longer short chains.  Resampling measured latencies showed
# that 20 rather than 13 walks of each kind halve the spread of both
# percentiles between runs, by putting them where latencies are dense.
MIX = (
    ("walk-equal", 20),
    ("walk-normalize", 20),
    ("perm8-eq", 2),
    ("perm8-ne", 2),
    ("perm12-eq", 2),
    ("perm12-ne", 2),
    ("perm16-eq", 1),
    ("perm16-ne", 1),
    ("chain-100-normalize", 1),
    ("chain-100-equal", 1),
    ("chain-200-normalize", 1),
    ("chain-200-equal", 1),
    ("chain-long", 1),
)
CHAIN_LENGTHS = {"chain-100": (100, 120), "chain-200": (180, 220), "chain-long": (700, 1600)}

REC = ["--format", "record"]


def make_round(rng) -> list:
    reqs = []
    for kind, n in MIX:
        for _ in range(n):
            reqs.append(GENERATORS[kind](rng, kind))
    rng.shuffle(reqs)
    return reqs


def _walk_equal(rng, kind):
    term, start, end = random_walk(rng, WALK_LABELS, rng.randint(0, 6))
    rewritten = term
    for _ in range(rng.randint(1, 3)):
        rewritten = axiom_rewrite(rng, rewritten)
    return Request(REC + ["equal", render_mor(term), render_mor(rewritten)], kind, {"equal": True})


def _walk_normalize(rng, kind):
    term, start, end = random_walk(rng, WALK_LABELS, rng.randint(0, 6))
    src, dst, phi = walk_answer(start, end)
    return Request(REC + ["normalize", render_mor(term)], kind, {"source": src, "target": dst, "phi": phi})


def _perm(rng, kind):
    n = int(kind[4:].split("-")[0])
    alphabet = [f"y{i}" for i in range(n * 3 // 4)]
    labels = [rng.choice(alphabet) for _ in range(n)]
    while len(set(labels)) == n:  # at least one repeated label
        labels[rng.randrange(n)] = labels[rng.randrange(n)]
    phi = _middle_permutation(rng, n)
    word = bubble_word(phi)
    lhs = swap_text(labels, word)
    if kind.endswith("-eq"):
        rhs = swap_text(labels, padded_word(rng, word, n))
        return Request(REC + ["equal", lhs, rhs], kind, {"equal": True})
    # another permutation with the same target: exchange two target
    # positions that carry equal labels
    dst = [labels[i] for i in phi]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if dst[i] == dst[j]]
    i, j = rng.choice(pairs)
    other = list(phi)
    other[i], other[j] = other[j], other[i]
    rhs = swap_text(labels, bubble_word(other))
    return Request(REC + ["equal", lhs, rhs], kind, {"equal": False, "lhs_phi": phi, "rhs_phi": other})


def _middle_permutation(rng, n: int) -> list:
    """A random permutation whose inversion count is within 5% of its range from the mean.

    A request's cost grows with the inversion count; a narrow band keeps
    each class's cost alike from seed to seed.
    """
    top = n * (n - 1) // 2
    while True:
        phi = list(range(n))
        rng.shuffle(phi)
        if abs(inversions(phi) - top / 2) <= 0.05 * top:
            return phi


CHAINS = {
    # name: (step texts alternating, source labels, target after odd length, phi after odd length)
    "bxy": (("b x y", "b y x"), ["x", "y"], ["y", "x"], [1, 0]),
    "bxx": (("b x x", "b x x"), ["x", "x"], ["x", "x"], [1, 0]),
    "assoc": (("a x y z", "inv (a x y z)"), ["x", "y", "z"], ["x", "y", "z"], [0, 1, 2]),
}
CHAIN_RHS = {
    "bxy": ("id (x * y)", "b x y"),
    "bxx": ("id (x * x)", "id (x * x)"),
    "assoc": ("id ((x * y) * z)", "a x y z"),
}


def _chain(rng, kind):
    """A chain of the kind's length band; the kind names its command, or a random one."""
    band, _, command = kind.partition("-")[2].partition("-")
    length = log_uniform_int(rng, *CHAIN_LENGTHS["chain-" + band])
    name = rng.choice(sorted(CHAINS))
    steps, src, odd_dst, odd_phi = CHAINS[name]
    text = " ; ".join(steps[i % 2] for i in range(length))
    odd = length % 2 == 1
    phi = odd_phi if odd else list(range(len(src)))
    dst = odd_dst if odd else src
    command = command or rng.choice(("normalize", "equal"))
    if command == "normalize":
        return Request(REC + ["normalize", text], kind, {"source": src, "target": dst, "phi": phi})
    rhs = CHAIN_RHS[name][1 if odd else 0]
    equal = not (name == "bxx" and odd)
    expect = {"equal": equal}
    if not equal:
        expect.update(lhs_phi=phi, rhs_phi=list(range(len(src))))
    return Request(REC + ["equal", text, rhs], kind, expect)


GENERATORS = {
    "walk-equal": _walk_equal,
    "walk-normalize": _walk_normalize,
    **{f"perm{n}-{v}": _perm for n in (8, 12, 16) for v in ("eq", "ne")},
    **{kind: _chain for kind, _ in MIX if kind.startswith("chain")},
}


# ---------------------------------------------------------------------------
# oracle


def check(req, rc, text) -> list:
    exp = req.expect
    (record,) = [json.loads(line) for line in text.splitlines()]
    if "equal" in exp:
        want_rc = 0 if exp["equal"] else 1
        if rc != want_rc or record.get("kind") != "decision" or record.get("equal") is not exp["equal"]:
            return [f"decision {record.get('equal')} rc={rc}, expected {exp['equal']}"]
        if not exp["equal"] and (record["lhs_phi"] != exp["lhs_phi"] or record["rhs_phi"] != exp["rhs_phi"]):
            return ["unequal pair reports the wrong phi"]
        return []
    if rc != 0 or record.get("kind") != "normal-form":
        return [f"normalize rc={rc}"]
    if record["source"] != exp["source"] or record["target"] != exp["target"]:
        return ["wrong boundary labels"]
    if record["phi"] != exp["phi"]:
        return [f"phi {record['phi']} != {exp['phi']}"]
    word = record["word"]
    n = len(exp["phi"])
    if any(not 0 <= p < n - 1 for p in word) or apply_word(n, word) != exp["phi"]:
        return ["reduced word does not give phi"]
    if len(word) != inversions(exp["phi"]):
        return ["word is not reduced"]
    if not isinstance(record.get("canonical"), str):
        return ["no canonical term"]
    return []
