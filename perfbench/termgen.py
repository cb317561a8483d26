"""Structural terms written as text, with their normal forms known by construction.

This module is the benchmark's own term language and never calls smckit.
Objects are tuples ``("I",)``, ``("g", label, ident)`` and ``("t", left, right)``;
``ident`` numbers the generator leaves of the source object so that a walk can
track where each leaf ends up.  Morphisms are tuples ``("id", o)``,
``("c", f, g)`` (diagram order), ``("p", f, g)``, ``("a", x, y, z)``,
``("l", x)``, ``("r", x)``, ``("b", x, y)`` and ``("inv", f)``.

Every generator returns the concrete syntax smckit parses together with the
expected answer: source labels, target labels and ``phi``, where
``src[phi[i]] == dst[i]``.
"""

from __future__ import annotations

import math
from random import Random

UNIT = ("I",)


# ---------------------------------------------------------------------------
# objects


def strip(o):
    """Drop leaf identifiers, keeping labels."""
    if o[0] == "g":
        return ("g", o[1], None)
    if o[0] == "t":
        return ("t", strip(o[1]), strip(o[2]))
    return o


def leaves(o) -> list:
    """Generator leaves of an object, left to right."""
    out, stack = [], [o]
    while stack:
        x = stack.pop()
        if x[0] == "g":
            out.append(x)
        elif x[0] == "t":
            stack.append(x[2])
            stack.append(x[1])
    return out


def node_count(o) -> int:
    return 1 + node_count(o[1]) + node_count(o[2]) if o[0] == "t" else 1


def render_obj(o) -> str:
    if o[0] == "I":
        return "I"
    if o[0] == "g":
        return o[1]
    return f"({render_obj(o[1])} * {render_obj(o[2])})"


def nest(labels) -> tuple:
    """Right-nested object l0 * (l1 * (... * I))."""
    out = UNIT
    for label in reversed(labels):
        out = ("t", ("g", label, None), out)
    return out


# ---------------------------------------------------------------------------
# morphisms


def render_mor(t) -> str:
    tag = t[0]
    if tag == "id":
        return f"id {render_obj(t[1])}"
    if tag == "c":
        return f"{render_mor(t[1])} ; {render_mor(t[2])}"
    if tag == "p":
        return f"({render_mor(t[1])} * {render_mor(t[2])})"
    if tag == "a":
        return f"a {render_obj(t[1])} {render_obj(t[2])} {render_obj(t[3])}"
    if tag in ("l", "r"):
        return f"{tag} {render_obj(t[1])}"
    if tag == "b":
        return f"b {render_obj(t[1])} {render_obj(t[2])}"
    if tag == "inv":
        return f"inv ({render_mor(t[1])})"
    raise ValueError(f"not a morphism: {t!r}")


def mor_src(t):
    tag = t[0]
    if tag == "id":
        return t[1]
    if tag == "c":
        return mor_src(t[1])
    if tag == "p":
        return ("t", mor_src(t[1]), mor_src(t[2]))
    if tag == "a":
        return ("t", ("t", t[1], t[2]), t[3])
    if tag == "l":
        return ("t", UNIT, t[1])
    if tag == "r":
        return ("t", t[1], UNIT)
    if tag == "b":
        return ("t", t[1], t[2])
    return mor_tgt(t[1])


def mor_tgt(t):
    tag = t[0]
    if tag == "id":
        return t[1]
    if tag == "c":
        return mor_tgt(t[2])
    if tag == "p":
        return ("t", mor_tgt(t[1]), mor_tgt(t[2]))
    if tag == "a":
        return ("t", t[1], ("t", t[2], t[3]))
    if tag in ("l", "r"):
        return t[1]
    if tag == "b":
        return ("t", t[2], t[1])
    return mor_src(t[1])


# ---------------------------------------------------------------------------
# random walks of structural moves (the coherence suite's distribution)


def random_obj(rng: Random, labels, depth: int = 3):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return UNIT
        return ("g", rng.choice(labels), None)
    return ("t", random_obj(rng, labels, depth - 1), random_obj(rng, labels, depth - 1))


def number_leaves(o, counter=None):
    counter = counter if counter is not None else [0]
    if o[0] == "g":
        counter[0] += 1
        return ("g", o[1], counter[0] - 1)
    if o[0] == "t":
        return ("t", number_leaves(o[1], counter), number_leaves(o[2], counter))
    return o


def _paths(o, prefix=()):
    yield prefix
    if o[0] == "t":
        yield from _paths(o[1], prefix + ("L",))
        yield from _paths(o[2], prefix + ("R",))


def _subtree(o, path):
    for step in path:
        o = o[1] if step == "L" else o[2]
    return o


def _replace(o, path, new):
    if not path:
        return new
    if path[0] == "L":
        return ("t", _replace(o[1], path[1:], new), o[2])
    return ("t", o[1], _replace(o[2], path[1:], new))


def _moves(sub, allow_growth: bool) -> list:
    """(term, result) pairs for each structural move out of ``sub``."""
    out = []
    if sub[0] == "t":
        x, y = sub[1], sub[2]
        out.append((("b", strip(x), strip(y)), ("t", y, x)))
        if x[0] == "t":
            out.append((("a", strip(x[1]), strip(x[2]), strip(y)), ("t", x[1], ("t", x[2], y))))
        if y[0] == "t":
            out.append((("inv", ("a", strip(x), strip(y[1]), strip(y[2]))), ("t", ("t", x, y[1]), y[2])))
        if x[0] == "I":
            out.append((("l", strip(y)), y))
        if y[0] == "I":
            out.append((("r", strip(x)), x))
    if allow_growth:
        out.append((("inv", ("l", strip(sub))), ("t", UNIT, sub)))
        out.append((("inv", ("r", strip(sub))), ("t", sub, UNIT)))
    return out


def _whisker(o, path, move):
    if not path:
        return move
    if path[0] == "L":
        return ("p", _whisker(o[1], path[1:], move), ("id", strip(o[2])))
    return ("p", ("id", strip(o[1])), _whisker(o[2], path[1:], move))


def random_move(rng: Random, cur):
    """One whiskered structural move out of ``cur``: (term, new object)."""
    allow_growth = node_count(cur) < 15
    candidates = [
        (path, move, result)
        for path in _paths(cur)
        for move, result in _moves(_subtree(cur, path), allow_growth)
    ]
    path, move, result = rng.choice(candidates)
    return _whisker(cur, path, move), _replace(cur, path, result)


def random_walk(rng: Random, labels, steps: int):
    """A left-nested walk; returns (term, source object, target object with leaf ids)."""
    start = number_leaves(random_obj(rng, labels))
    term = ("id", strip(start))
    cur = start
    for _ in range(steps):
        move, cur = random_move(rng, cur)
        term = ("c", term, move)
    return term, start, cur


def axiom_rewrite(rng: Random, t, depth: int = 0):
    """One boundary-preserving rewrite drawn from the symmetric monoidal axioms."""
    if depth < 4 and rng.random() < 0.5:
        if t[0] in ("c", "p"):
            if rng.random() < 0.5:
                return (t[0], axiom_rewrite(rng, t[1], depth + 1), t[2])
            return (t[0], t[1], axiom_rewrite(rng, t[2], depth + 1))
        if t[0] == "inv":
            return ("inv", axiom_rewrite(rng, t[1], depth + 1))
    src, tgt = mor_src(t), mor_tgt(t)
    choice = rng.randrange(6)
    if choice == 0:
        return ("c", ("id", src), t)
    if choice == 1:
        return ("c", t, ("id", tgt))
    if choice == 2:
        move, _ = random_move(rng, tgt)
        return ("c", t, ("c", move, ("inv", move)))
    if choice == 3:
        return ("c", ("c", ("inv", ("l", src)), ("p", ("id", UNIT), t)), ("l", tgt))
    if choice == 4:
        return ("c", ("c", ("inv", ("r", src)), ("p", t, ("id", UNIT))), ("r", tgt))
    return ("inv", ("inv", t))


def walk_answer(start, end) -> tuple[list, list, list]:
    """Source labels, target labels and phi of a walk from its leaf identifiers."""
    src = [leaf[1] for leaf in leaves(start)]
    ends = leaves(end)
    return src, [leaf[1] for leaf in ends], [leaf[2] for leaf in ends]


# ---------------------------------------------------------------------------
# terms of permutations: adjacent swaps whiskered under right-nested objects


def _swap_term(labels, p):
    if p > 0:
        return ("p", ("id", ("g", labels[0], None)), _swap_term(labels[1:], p - 1))
    a, b = ("g", labels[0], None), ("g", labels[1], None)
    rest = nest(labels[2:])
    return ("c", ("c", ("inv", ("a", a, b, rest)), ("p", ("b", a, b), ("id", rest))), ("a", b, a, rest))


def swap_text(labels, word) -> str:
    """Text of ``id N ; swap_w0 ; swap_w1 ; ...`` on the right-nested object N."""
    labels = list(labels)
    parts = [f"id {render_obj(nest(labels))}"]
    for p in word:
        parts.append(render_mor(_swap_term(labels, p)))
        labels[p], labels[p + 1] = labels[p + 1], labels[p]
    return " ; ".join(parts)


def apply_word(n: int, word) -> list[int]:
    """phi of a word of position swaps performed left to right."""
    img = list(range(n))
    for p in word:
        img[p], img[p + 1] = img[p + 1], img[p]
    return img


def bubble_word(phi) -> list[int]:
    """A reduced word whose swaps, performed left to right, give ``phi``."""
    img = list(phi)
    out = []
    n = len(img)
    for _ in range(n):
        swapped = False
        for i in range(n - 1):
            if img[i] > img[i + 1]:
                img[i], img[i + 1] = img[i + 1], img[i]
                out.append(i)
                swapped = True
        if not swapped:
            break
    return out[::-1]


def inversions(phi) -> int:
    return sum(1 for i in range(len(phi)) for j in range(i + 1, len(phi)) if phi[i] > phi[j])


def padded_word(rng: Random, word: list[int], n: int) -> list[int]:
    """A longer word for the same permutation: an inserted s_i s_i, or a braid move."""
    word = list(word)
    for i in range(len(word) - 2):
        a, b, c = word[i : i + 3]
        if a == c and abs(a - b) == 1 and rng.random() < 0.5:
            word[i : i + 3] = [b, a, b]
            break
    k = rng.randrange(len(word) + 1)
    i = rng.randrange(n - 1)
    return word[:k] + [i, i] + word[k:]


def log_uniform_int(rng: Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))
