"""
Law suites: executable checks behind the acceptance criteria.

This module is the one home of law checking and of the seeded random data
the checks draw.  Every suite has one shape,
``NAME_suite(max_size=None, seed=0) -> LawReport``, counts each of its
checks through one ``_Check``, and is deterministic given its seed.
``max_size`` bounds the suite's exhaustive part and None runs its
documented default size; ``coherence`` and ``kleisli`` have no size, and
``braiding`` draws nothing at random, so it ignores the seed.  The CLI
``check-laws`` command runs the suites through ``run_suite``, which looks
each one up by name when it runs.
Exhaustive enumeration is used wherever the instance count stays in the
tens of thousands; beyond that (pasting pairs, span chains) the suites
exhaust all shapes at a smaller size and add seeded random instances at
the stated size.
"""

from __future__ import annotations

import itertools
from collections import Counter
from random import Random
from typing import Sequence

from .kleisli import (
    KCell,
    KHom,
    composite_multiset,
    duality,
    invert_kcell,
    k_compose,
    k_hcomp,
    k_id,
    k_id_cell,
    k_vcomp,
)
from .models import FinBijModel, FreeTermModel, SListModel, smc_law_failures
from .monoidal import braiding, braiding_recursive
from .perms import (
    Perm,
    all_perms,
    coxeter_entry,
    exchange_step,
    inversion_length,
    is_reduced,
    reduced_word,
    word_to_perm,
)
from .slist import (
    GenWord,
    SList,
    compose as hom_compose,
    hom_equal,
    hom_from_word,
    is_linear,
    underlying_multiset,
    word_from_hom,
)
from .spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    adjunction_cells,
    assoc_cell,
    compose_span,
    fcompose,
    horizontal_compose,
    hpaste,
    identity_cell,
    identity_fun,
    identity_span,
    invert_cell,
    left_unitor_cell,
    right_unitor_cell,
    shared_composites,
    span_pull,
    span_push,
    square_from_cospan,
    transpose_span,
    vcomp,
    vpaste,
)
from .terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    MorTerm,
    ObjTerm,
    Par,
    RightUnitor,
    SmcModel,
    Tensor,
    Unit,
    boundaries,
    decide_equal,
    normalize_obj,
    psi_obj,
)
from .unbias import (
    base_change_unique,
    f_comp_cell,
    f_id_cell,
    lambda_u,
    lambda_v,
    pseudofunctor_on_cell,
    pseudofunctor_on_span,
    u_comp,
    u_id,
    unbias_cell,
    unbias_comp_iso,
    unbias_eval,
    unbias_unit_iso,
    v_comp,
    v_id,
)
from .values import value


@value
class LawReport:
    name: str
    cases: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "ok" if self.ok else f"FAILED ({len(self.violations)})"
        lines = [f"{self.name}: {self.cases} checks, {status}"]
        lines += [f"  - {v}" for v in self.violations[:20]]
        return "\n".join(lines)


class _Check:
    """Counts one case per call and records the message of each failed one."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.violations: list[str] = []

    def __call__(self, cond: bool, msg: str):
        self.cases += 1
        if not cond:
            self.violations.append(msg)

    def report(self) -> LawReport:
        return LawReport(self.name, self.cases, tuple(self.violations))


# ---------------------------------------------------------------------------
# finite functions and spans: enumeration and seeded random data


def all_functions(a: int, b: int):
    """All maps from a set of size a to one of size b, lexicographically."""
    src, dst = FinSet(a), FinSet(b)
    for img in itertools.product(range(b), repeat=a):
        # product varies the last entry fastest; reversed, the first one varies fastest
        yield FinFun(src, dst, img[::-1])


def random_function(rng: Random, a: int, b: int) -> FinFun | None:
    """A uniform map from a set of size a to one of size b; None if there is none."""
    if b == 0 and a > 0:
        return None
    return FinFun(FinSet(a), FinSet(b), tuple(rng.randrange(b) for _ in range(a)))


def random_span(rng: Random, max_size: int) -> Span:
    a = rng.randint(0, max_size)
    lo = 0 if a == 0 else 1
    left = random_function(rng, a, rng.randint(lo, max_size))
    right = random_function(rng, a, rng.randint(lo, max_size))
    return Span(left, right)


def random_span_from(rng: Random, dom: FinSet, max_size: int) -> Span:
    """A random span out of ``dom``, so that it composes after any span into it."""
    a = rng.randint(0, max_size) if dom.size else 0
    left = random_function(rng, a, dom.size)
    right = random_function(rng, a, rng.randint(0 if a == 0 else 1, max_size))
    return Span(left, right)


def random_chain(rng: Random, size: int, length: int) -> list[Span]:
    """``length`` composable random spans: one ``random_span``, then each out of the last codomain."""
    chain = [random_span(rng, size)]
    for _ in range(length - 1):
        chain.append(random_span_from(rng, chain[-1].cod, size))
    return chain


def random_pith_cell(rng: Random, s: Span) -> SpanCell:
    """A cell out of ``s`` whose apex map is a random permutation."""
    perm = list(range(s.apex.size))
    rng.shuffle(perm)
    phi = FinFun(s.apex, s.apex, tuple(perm))
    inv = phi.inverse()
    dst = Span(fcompose(inv, s.left), fcompose(inv, s.right))
    return SpanCell(s, dst, phi)


# ---------------------------------------------------------------------------
# permutations / Coxeter


def coxeter_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Exhaustive in S_n for n <= max_size (default 6), then 1000 random permutations of n <= 8."""
    max_size = 6 if max_size is None else max_size
    check = _Check("coxeter")
    for n in range(1, max_size + 1):
        for i in range(n - 1):
            for j in range(n - 1):
                word = (i, j) * coxeter_entry(i, j)
                check(word_to_perm(word, n).is_identity(), f"relation ({i},{j}) fails in S_{n}")
        for p in all_perms(n):
            w = reduced_word(p)
            check(word_to_perm(w, n) == p, f"round trip fails at {p.img}")
            check(len(w) == inversion_length(p), f"length mismatch at {p.img}")
            for b in range(n - 1):
                lengthened = word_to_perm((b,) + w, n)
                if inversion_length(lengthened) <= len(w):
                    i = exchange_step(w, b, n)
                    erased = w[:i] + w[i + 1 :]
                    check(
                        word_to_perm(erased, n) == lengthened,
                        f"exchange value wrong at {p.img}, b={b}",
                    )
                    check(is_reduced(erased, n), f"erased word not reduced at {p.img}, b={b}")
    rng = Random(seed)
    for _ in range(1000):
        n = rng.randint(1, 8)
        img = list(range(n))
        rng.shuffle(img)
        p = Perm(tuple(img))
        w = reduced_word(p)
        check(word_to_perm(w, n) == p and len(w) == inversion_length(p), f"random round trip at {p.img}")
        u = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 6))) if n > 1 else ()
        v = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 6))) if n > 1 else ()
        check(
            word_to_perm(u + v, n) == word_to_perm(u, n) * word_to_perm(v, n),
            f"concatenation/composition mismatch at {u}, {v}",
        )
    return check.report()


# ---------------------------------------------------------------------------
# symmetric lists


def faithfulness_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """1000 random generator words over the labels abc per list length <= max_size (default 8)."""
    max_size = 8 if max_size is None else max_size
    check = _Check("faithfulness")
    rng = Random(seed)
    for length in range(1, max_size + 1):
        for _ in range(1000):
            start = SList(tuple(rng.choice("abc") for _ in range(length)))
            n_pos = rng.randint(0, 2 * length)
            positions = tuple(rng.randrange(length - 1) for _ in range(n_pos)) if length > 1 else ()
            f = hom_from_word(GenWord(start, positions))
            again = hom_from_word(word_from_hom(f))
            check(again == f, f"round trip fails for {start}, {positions}")
            other = tuple(rng.randrange(length - 1) for _ in range(rng.randint(0, 2 * length))) if length > 1 else ()
            g = hom_from_word(GenWord(start, other))
            same_perm = f.phi == g.phi
            if same_perm:
                check(hom_equal(f, g), f"equal permutations but unequal homs at {start}")
            else:
                check(f.dst != g.dst or not hom_equal(f, g), f"unequal permutations but equal homs at {start}")
    return check.report()


def braiding_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Every pair of lists with |x| + |y| <= max_size (default 8); nothing is random, so the seed is unused."""
    max_size = 8 if max_size is None else max_size
    check = _Check("braiding")
    for total in range(max_size + 1):
        for nx in range(total + 1):
            ny = total - nx
            x = SList(tuple(f"x{i}" for i in range(nx)))
            y = SList(tuple(f"y{i}" for i in range(ny)))
            check(
                braiding(x, y) == braiding_recursive(x, y),
                f"braiding oracle mismatch at sizes ({nx},{ny})",
            )
            forth = braiding(x, y)
            back = braiding(y, x)
            check(
                hom_compose(forth, back).phi.is_identity(),
                f"braiding not symmetric at sizes ({nx},{ny})",
            )
    return check.report()


# ---------------------------------------------------------------------------
# free SMC terms


def random_obj(rng: Random, labels, max_depth: int = 3) -> ObjTerm:
    if max_depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.15:
            return Unit()
        return Gen(rng.choice(labels))
    return Tensor(random_obj(rng, labels, max_depth - 1), random_obj(rng, labels, max_depth - 1))


def _positions(obj: ObjTerm) -> list[tuple[tuple, ObjTerm]]:
    """(path, subtree) for every node of ``obj``, in preorder."""
    out = []
    todo = [((), obj)]
    while todo:
        path, sub = todo.pop()
        out.append((path, sub))
        if isinstance(sub, Tensor):
            todo += ((path + ("R",), sub.right), (path + ("L",), sub.left))
    return out


def _moves_at(sub: ObjTerm, allow_growth: bool) -> list[MorTerm]:
    moves: list[MorTerm] = []
    if isinstance(sub, Tensor):
        moves.append(Braid(sub.left, sub.right))
        if isinstance(sub.left, Tensor):
            moves.append(Assoc(sub.left.left, sub.left.right, sub.right))
        if isinstance(sub.right, Tensor):
            moves.append(Inv(Assoc(sub.left, sub.right.left, sub.right.right)))
        if isinstance(sub.left, Unit):
            moves.append(LeftUnitor(sub.right))
        if isinstance(sub.right, Unit):
            moves.append(RightUnitor(sub.left))
    if allow_growth:
        moves.append(Inv(LeftUnitor(sub)))
        moves.append(Inv(RightUnitor(sub)))
    return moves


def _move_target(move: MorTerm) -> ObjTerm:
    """The target of a move of ``_moves_at``, read off its constructor."""
    if isinstance(move, Braid):
        return Tensor(move.y, move.x)
    if isinstance(move, Assoc):
        return Tensor(move.x, Tensor(move.y, move.z))
    if isinstance(move, (LeftUnitor, RightUnitor)):
        return move.x
    inverse = move.arg
    if isinstance(inverse, Assoc):
        return Tensor(Tensor(inverse.x, inverse.y), inverse.z)
    if isinstance(inverse, LeftUnitor):
        return Tensor(Unit(), inverse.x)
    return Tensor(inverse.x, Unit())


def _whisker(obj: ObjTerm, path, move: MorTerm) -> MorTerm:
    if not path:
        return move
    if path[0] == "L":
        return Par(_whisker(obj.left, path[1:], move), Id(obj.right))
    return Par(Id(obj.left), _whisker(obj.right, path[1:], move))


def _replace_at(obj: ObjTerm, path, new: ObjTerm) -> ObjTerm:
    """``obj`` with the subtree at ``path`` replaced by ``new``."""
    spine = []
    for step in path:
        spine.append((step, obj))
        obj = obj.left if step == "L" else obj.right
    for step, parent in reversed(spine):
        new = Tensor(new, parent.right) if step == "L" else Tensor(parent.left, new)
    return new


def random_walk_term(rng: Random, labels, steps: int) -> MorTerm:
    """A random well-typed structural morphism, built as a left-nested walk.

    The walk carries its current object: after each step the moved
    subtree's target is put in at the move's path.
    """
    obj = random_obj(rng, labels)
    term: MorTerm = Id(obj)
    for _ in range(steps):
        path, move, target = _random_move(rng, obj)
        term = Comp(term, _whisker(obj, path, move))
        obj = _replace_at(obj, path, target)
    return term


def _random_move(rng: Random, obj: ObjTerm) -> tuple:
    """A random (path, move, target): a structural move at the subtree of ``obj`` at the path."""
    positions = _positions(obj)
    allow_growth = len(positions) < 15
    path, move = rng.choice([(path, move) for path, sub in positions for move in _moves_at(sub, allow_growth)])
    return path, move, _move_target(move)


def _random_structural_from(rng: Random, obj: ObjTerm) -> tuple[MorTerm, ObjTerm]:
    """A random structural step out of ``obj``, whiskered to all of it, and its target."""
    path, move, target = _random_move(rng, obj)
    return _whisker(obj, path, move), _replace_at(obj, path, target)


def axiom_rewrite(rng: Random, t: MorTerm, depth: int = 0) -> MorTerm:
    """One boundary-preserving rewrite drawn from the axiom schemas."""
    if depth < 4 and rng.random() < 0.5:
        if isinstance(t, Comp):
            if rng.random() < 0.5:
                return Comp(axiom_rewrite(rng, t.first, depth + 1), t.second)
            return Comp(t.first, axiom_rewrite(rng, t.second, depth + 1))
        if isinstance(t, Par):
            if rng.random() < 0.5:
                return Par(axiom_rewrite(rng, t.left, depth + 1), t.right)
            return Par(t.left, axiom_rewrite(rng, t.right, depth + 1))
        if isinstance(t, Inv):
            return Inv(axiom_rewrite(rng, t.arg, depth + 1))
    src, tgt = boundaries(t)
    options = [
        lambda: Comp(Id(src), t),
        lambda: Comp(t, Id(tgt)),
        lambda: Comp(t, Comp(_m := _random_structural_from(rng, tgt)[0], Inv(_m))),
        lambda: Comp(Comp(Inv(LeftUnitor(src)), Par(Id(Unit()), t)), LeftUnitor(tgt)),
        lambda: Comp(Comp(Inv(RightUnitor(src)), Par(t, Id(Unit()))), RightUnitor(tgt)),
        lambda: Inv(Inv(t)),
    ]
    if isinstance(t, Comp) and isinstance(t.first, Comp):
        options.append(lambda: Comp(t.first.first, Comp(t.first.second, t.second)))
    if isinstance(t, Comp) and isinstance(t.second, Comp):
        options.append(lambda: Comp(Comp(t.first, t.second.first), t.second.second))
    if isinstance(t, Par):
        a, b = t.left, t.right
        (a_src, a_tgt), (b_src, b_tgt) = boundaries(a), boundaries(b)
        options.append(lambda: Comp(Par(a, Id(b_src)), Par(Id(a_tgt), b)))
        options.append(lambda: Comp(Par(Id(a_src), b), Par(a, Id(b_tgt))))
        options.append(lambda: Comp(Comp(Braid(a_src, b_src), Par(b, a)), Braid(b_tgt, a_tgt)))
    if isinstance(t, Id) and isinstance(t.obj, Tensor):
        options.append(lambda: Par(Id(t.obj.left), Id(t.obj.right)))
    return rng.choice(options)()


def coherence_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """1000 random terms over 5 generators and 200 naturality instances over 6; ``max_size`` is unused."""
    check = _Check("coherence")
    rng = Random(seed)
    labels = [f"x{i}" for i in range(5)]

    for m, objs in (
        (SListModel(), tuple(SList(tuple(w)) for w in ("a", "bc", "d", "ae"))),
        (FreeTermModel(), tuple(Gen(l) for l in "abcd")),
        (FinBijModel(), (1, 2, 3, 2)),
    ):
        fails = smc_law_failures(m, objs)
        check(not fails, f"{type(m).__name__} fails laws: {fails}")

    for _ in range(1000):
        term = random_walk_term(rng, labels, rng.randint(0, 6))
        rewritten = term
        for _ in range(rng.randint(1, 3)):
            rewritten = axiom_rewrite(rng, rewritten)
        check(decide_equal(term, rewritten), "axiom rewrite changed the normal form")

    instance_labels = [f"x{i}" for i in range(6)]
    for _ in range(200):
        w, x, y, z = (random_obj(rng, instance_labels, 2) for _ in range(4))
        failures = smc_law_failures(FreeTermModel(), (w, x, y, z))
        check(not failures, f"term-model instance fails: {failures}")
        # a structural step from an object has that object as its source
        f, tx = _random_structural_from(rng, x)
        g, ty = _random_structural_from(rng, y)
        check(
            decide_equal(Comp(Par(f, g), Braid(tx, ty)), Comp(Braid(x, y), Par(g, f))),
            "braid naturality fails",
        )
        check(
            decide_equal(Comp(Par(Id(Unit()), f), LeftUnitor(tx)), Comp(LeftUnitor(x), f)),
            "left unitor naturality fails",
        )
        check(
            decide_equal(Comp(Par(f, Id(Unit())), RightUnitor(tx)), Comp(RightUnitor(x), f)),
            "right unitor naturality fails",
        )
        h, tz = _random_structural_from(rng, z)
        check(
            decide_equal(
                Comp(Par(Par(f, g), h), Assoc(tx, ty, tz)),
                Comp(Assoc(x, y, z), Par(f, Par(g, h))),
            ),
            "associator naturality fails",
        )

    a = Gen(labels[0])
    check(not decide_equal(Braid(a, a), Id(Tensor(a, a))), "discriminating pair decided equal")
    return check.report()


# ---------------------------------------------------------------------------
# spans


def all_spans(max_size: int):
    for a in range(max_size + 1):
        for j in range(max_size + 1):
            for k in range(max_size + 1):
                for left in all_functions(a, j):
                    for right in all_functions(a, k):
                        yield Span(left, right)


def _pentagon_holds(s, t, u, v) -> bool:
    with shared_composites():
        lhs = vcomp(
            horizontal_compose(assoc_cell(s, t, u), identity_cell(v)),
            assoc_cell(s, compose_span(t, u), v),
            horizontal_compose(identity_cell(s), assoc_cell(t, u, v)),
        )
        rhs = vcomp(assoc_cell(compose_span(s, t), u, v), assoc_cell(s, t, compose_span(u, v)))
    return lhs == rhs


def _triangle_holds(s, t) -> bool:
    with shared_composites():
        lhs = vcomp(
            assoc_cell(s, identity_span(s.cod), t),
            horizontal_compose(identity_cell(s), left_unitor_cell(t)),
        )
        rhs = horizontal_compose(right_unitor_cell(s), identity_cell(t))
    return lhs == rhs


def _adjunction_holds(f: FinFun) -> bool:
    push, pull = span_push(f), span_pull(f)
    with shared_composites():
        unit, counit = adjunction_cells(f)
        tri1 = vcomp(
            invert_cell(left_unitor_cell(push)),
            horizontal_compose(unit, identity_cell(push)),
            assoc_cell(push, pull, push),
            horizontal_compose(identity_cell(push), counit),
            right_unitor_cell(push),
        )
        tri2 = vcomp(
            invert_cell(right_unitor_cell(pull)),
            horizontal_compose(identity_cell(pull), unit),
            invert_cell(assoc_cell(pull, push, pull)),
            horizontal_compose(counit, identity_cell(pull)),
            left_unitor_cell(pull),
        )
    return tri1 == identity_cell(push) and tri2 == identity_cell(pull)


def span_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Adjunctions over sets of size <= max_size (default 3), then 1000 random chains at that size or 5."""
    max_size = 3 if max_size is None else max_size
    check = _Check("span")
    rng = Random(seed)

    spans1 = list(all_spans(1))
    for s in spans1:
        for t in spans1:
            if t.dom != s.cod:
                continue
            for u in spans1:
                if u.dom != t.cod:
                    continue
                for v in spans1:
                    if v.dom != u.cod:
                        continue
                    check(_pentagon_holds(s, t, u, v), "pentagon fails at size 1")

    spans2 = list(all_spans(2))
    for s in spans2:
        for t in spans2:
            if t.dom == s.cod:
                check(_triangle_holds(s, t), "triangle fails at size 2")

    for a in range(max_size + 1):
        for c in range(max_size + 1):
            for f in all_functions(a, c):
                check(_adjunction_holds(f), f"adjunction triangles fail at {f.img}")

    for _ in range(1000):
        size = rng.choice((max_size, 5))
        s, t, u, v = random_chain(rng, size, 4)
        check(_pentagon_holds(s, t, u, v), f"pentagon fails at random size {size}")
        check(_triangle_holds(s, t), f"triangle fails at random size {size}")
        c1 = random_pith_cell(rng, s)
        d1 = random_pith_cell(rng, c1.dst)
        c2 = random_pith_cell(rng, t)
        d2 = random_pith_cell(rng, c2.dst)
        with shared_composites():
            lhs = vcomp(horizontal_compose(c1, c2), horizontal_compose(d1, d2))
            rhs = horizontal_compose(vcomp(c1, d1), vcomp(c2, d2))
        check(lhs == rhs, f"interchange fails at random size {size}")
        check(_adjunction_holds(s.left), "adjunction triangles fail on a random leg")
    return check.report()


# ---------------------------------------------------------------------------
# kleisli


def all_lists(size: int, max_len: int):
    for length in range(max_len + 1):
        for labels in itertools.product(range(size), repeat=length):
            yield SList(labels)


def all_khoms(i: int, j: int, max_len: int):
    choices = list(all_lists(j, max_len))
    for lists in itertools.product(choices, repeat=i):
        yield KHom(FinSet(i), FinSet(j), tuple(lists))


def random_khom(rng: Random, i: int, j: int, max_len: int) -> KHom:
    """A family of i random lists over j labels, each of length at most max_len."""
    lists = tuple(
        SList(tuple(rng.randrange(j) for _ in range(rng.randint(0, max_len)))) if j else SList(())
        for _ in range(i)
    )
    return KHom(FinSet(i), FinSet(j), lists)


def _multiset_matches(f: KHom, g: KHom) -> bool:
    comp = k_compose(f, g)
    return all(
        composite_multiset(f, g, j) == underlying_multiset(comp.lists[j])
        for j in range(f.src.size)
    )


def _duality_symmetric(x: KHom) -> bool:
    rows = [underlying_multiset(l) for l in x.lists]
    columns = [underlying_multiset(l) for l in duality(x).lists]
    return all(columns[k][j] == rows[j][k] for j in range(x.src.size) for k in range(x.dst.size))


def kleisli_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Exhaustive small families, then 1000 random ones; ``max_size`` is unused."""
    check = _Check("kleisli")
    # each inner family list is enumerated once and reused for every outer family
    families = list(all_khoms(2, 2, 2))
    for f in families:
        for g in families:
            check(_multiset_matches(f, g), "composite multiset formula fails at size 2")
    families = list(all_khoms(2, 3, 3))
    for f in all_khoms(1, 2, 3):
        for g in families:
            check(_multiset_matches(f, g), "composite multiset formula fails at mixed size")
    for x in all_khoms(3, 3, 2):
        check(_duality_symmetric(x), "duality multiplicity symmetry fails at size 3")
    for x in all_khoms(2, 2, 3):
        check(_duality_symmetric(x), "duality multiplicity symmetry fails at size 2")
    rng = Random(seed)
    for _ in range(1000):
        i, j, k = (rng.randint(0, 4) for _ in range(3))
        f = random_khom(rng, i, j, 5)
        g = random_khom(rng, j, k, 5)
        check(_multiset_matches(f, g), "composite multiset formula fails at random size")
        check(_duality_symmetric(f), "duality multiplicity symmetry fails at random size")
        check(
            k_compose(k_id(f.src), f) == f and k_compose(f, k_id(f.dst)) == f,
            "strict units fail",
        )
        h = random_khom(rng, k, rng.randint(0, 4), 4)
        check(
            k_compose(k_compose(f, g), h) == k_compose(f, k_compose(g, h)),
            "strict associativity fails",
        )
    return check.report()


# ---------------------------------------------------------------------------
# base change and the span pseudofunctor


def cell_after(w: KHom, theta: KCell) -> KCell:
    """Whisker: the 1-cell w happens first, then the legs of theta."""
    return k_hcomp(theta, k_id_cell(w))


def cell_before(theta: KCell, w: KHom) -> KCell:
    """Whisker: the legs of theta happen first, then the 1-cell w."""
    return k_hcomp(k_id_cell(w), theta)


def _check_hpaste(check: _Check, lsq: PullbackSquare, rsq: PullbackSquare):
    t0, t1 = lsq.top, rsq.top
    v0, v2 = lsq.left, rsq.right
    b0, b1 = lsq.bottom, rsq.bottom
    lhs = k_vcomp(base_change_unique(hpaste(lsq, rsq)), cell_before(v_comp(t0, t1), lambda_u(v0)))
    rhs = k_vcomp(
        cell_after(lambda_u(v2), v_comp(b0, b1)),
        cell_before(base_change_unique(rsq), lambda_v(b0)),
        cell_after(lambda_v(t1), base_change_unique(lsq)),
    )
    check(lhs == rhs, f"horizontal pasting at {b0.img}|{b1.img}|{v2.img}")


def _check_vpaste(check: _Check, tsq: PullbackSquare, bsq: PullbackSquare):
    h0, h2 = tsq.top, bsq.bottom
    l0, l1 = tsq.left, bsq.left
    r0, r1 = tsq.right, bsq.right
    lhs = k_vcomp(base_change_unique(vpaste(tsq, bsq)), cell_after(lambda_v(h0), u_comp(l0, l1)))
    rhs = k_vcomp(
        cell_before(u_comp(r0, r1), lambda_v(h2)),
        cell_after(lambda_u(r0), base_change_unique(bsq)),
        cell_before(base_change_unique(tsq), lambda_u(l1)),
    )
    check(lhs == rhs, f"vertical pasting at {h2.img}/{r1.img}/{r0.img}")


def _check_base_change(check: _Check, max_size: int, seed: int):
    """Exercise the defining laws of the fiber/value system, with exact cell equality.

    Unit squares, single base-change cells and linearity of every produced
    list run exhaustively up to ``max_size``.  Pasting laws run
    exhaustively over generating cospans up to size 2 and on 200 seeded
    random cospans up to ``max_size``; full exhaustion of pasteable pairs
    at size 3 is combinatorially out of budget.
    """
    sizes = range(max_size + 1)
    for a in sizes:
        for b in sizes:
            for f in all_functions(a, b):
                check(
                    all(is_linear(l) for l in lambda_u(f).lists)
                    and all(is_linear(l) for l in lambda_v(f).lists),
                    f"u/v lists not linear at {f.img}",
                )
                hsq = PullbackSquare(identity_fun(f.src), f, f, identity_fun(f.dst))
                lhs = base_change_unique(hsq)
                rhs = k_vcomp(
                    cell_after(lambda_u(f), v_id(f.dst)),
                    cell_before(invert_kcell(v_id(f.src)), lambda_u(f)),
                )
                check(lhs == rhs, f"horizontal unit square at {f.img}")
                vsq = PullbackSquare(f, identity_fun(f.src), identity_fun(f.dst), f)
                lhs = base_change_unique(vsq)
                rhs = k_vcomp(
                    cell_before(u_id(f.dst), lambda_v(f)),
                    cell_after(lambda_v(f), invert_kcell(u_id(f.src))),
                )
                check(lhs == rhs, f"vertical unit square at {f.img}")

    for w in sizes:
        for z in sizes:
            for y in sizes:
                for b in all_functions(z, w):
                    for r in all_functions(y, w):
                        cell = base_change_unique(square_from_cospan(b, r))
                        check(
                            all(is_linear(l) for l in cell.src.lists)
                            and all(is_linear(l) for l in cell.dst.lists),
                            f"base-change boundary not linear at {b.img}, {r.img}",
                        )

    psizes = range(3)
    for d in psizes:
        for e in psizes:
            for f_ in psizes:
                for c in psizes:
                    for b0 in all_functions(d, e):
                        for b1 in all_functions(e, f_):
                            for v2 in all_functions(c, f_):
                                rsq = square_from_cospan(b1, v2)
                                _check_hpaste(check, square_from_cospan(b0, rsq.left), rsq)
                    for h2 in all_functions(d, e):
                        for r1 in all_functions(f_, e):
                            bsq = square_from_cospan(h2, r1)
                            for r0 in all_functions(c, f_):
                                _check_vpaste(check, square_from_cospan(bsq.top, r0), bsq)

    rng = Random(seed)
    for _ in range(200):
        d, e, f_, c = (rng.randint(0, max_size) for _ in range(4))
        b0 = random_function(rng, d, e)
        b1 = random_function(rng, e, f_)
        v2 = random_function(rng, c, f_)
        if b0 is None or b1 is None or v2 is None:
            continue
        rsq = square_from_cospan(b1, v2)
        _check_hpaste(check, square_from_cospan(b0, rsq.left), rsq)
        h2 = random_function(rng, e, f_)
        r1 = random_function(rng, d, f_)
        r0 = random_function(rng, c, d)
        if h2 is not None and r1 is not None and r0 is not None:
            bsq = square_from_cospan(h2, r1)
            _check_vpaste(check, square_from_cospan(bsq.top, r0), bsq)


def _check_pseudofunctor(check: _Check, max_size: int, seed: int):
    """Check the generated pseudofunctor on 100 seeded random span chains and cells.

    This checks the apex-key formulas of ``unbias`` against the ``kleisli``
    whisker algebra, which they do not use: functoriality on cells,
    naturality of the composition comparison in both arguments, the
    associativity transport identity and both unit coherences, all as
    exact cell equalities in the strict target.
    """
    rng = Random(seed)
    for _ in range(100):
        s, t, u = random_chain(rng, max_size, 3)

        c1 = random_pith_cell(rng, s)
        c2 = random_pith_cell(rng, c1.dst)
        lhs = pseudofunctor_on_cell(vcomp(c1, c2))
        rhs = k_vcomp(pseudofunctor_on_cell(c1), pseudofunctor_on_cell(c2))
        check(lhs == rhs, "functoriality on vertical composites")
        check(
            pseudofunctor_on_cell(identity_cell(s)) == k_id_cell(pseudofunctor_on_span(s)),
            "identity cells map to identity cells",
        )

        d1 = random_pith_cell(rng, s)
        d2 = random_pith_cell(rng, t)
        hcell = horizontal_compose(d1, d2)
        lhs = k_vcomp(pseudofunctor_on_cell(hcell), f_comp_cell(d1.dst, d2.dst))
        rhs = k_vcomp(
            f_comp_cell(s, t),
            k_hcomp(pseudofunctor_on_cell(d2), pseudofunctor_on_cell(d1)),
        )
        check(lhs == rhs, "naturality of the composition comparison")

        lhs = k_vcomp(
            pseudofunctor_on_cell(assoc_cell(s, t, u)),
            f_comp_cell(s, compose_span(t, u)),
            cell_after(pseudofunctor_on_span(s), f_comp_cell(t, u)),
        )
        rhs = k_vcomp(
            f_comp_cell(compose_span(s, t), u),
            cell_before(f_comp_cell(s, t), pseudofunctor_on_span(u)),
        )
        check(lhs == rhs, "associativity transport")

        lhs = pseudofunctor_on_cell(right_unitor_cell(s))
        rhs = k_vcomp(
            f_comp_cell(s, identity_span(s.cod)),
            cell_after(pseudofunctor_on_span(s), f_id_cell(s.cod)),
        )
        check(lhs == rhs, "right unit coherence")

        lhs = pseudofunctor_on_cell(left_unitor_cell(s))
        rhs = k_vcomp(
            f_comp_cell(identity_span(s.dom), s),
            cell_before(f_id_cell(s.dom), pseudofunctor_on_span(s)),
        )
        check(lhs == rhs, "left unit coherence")


def pbc_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Base change over sets of size <= max_size (default 3), then the pseudofunctor on random chains."""
    max_size = 3 if max_size is None else max_size
    check = _Check("pbc")
    _check_base_change(check, max_size, seed)
    _check_pseudofunctor(check, max_size, seed)
    return check.report()


# ---------------------------------------------------------------------------
# the end-to-end evaluator


def psi_family_map(m: SmcModel, homs: Sequence, l: SList):
    """Fold a family of morphisms along a list: the action of a fold on maps."""
    out = m.identity(m.unit())
    for label in reversed(l.labels):
        out = m.tensor_mor(homs[label], out)
    return out


def unbias_coherence_failures(m: SmcModel, triple: tuple[Span, Span, Span], x: dict, rng: Random) -> list[str]:
    """End-to-end pseudofunctor laws for one triple (s, t, u) of composable spans, at the assignment x on s.dom.

    Each law compares two model morphisms under the model's equality; with
    the free term model every comparison runs the coherence decision
    procedure.  ``rng`` draws the cell of the naturality law.
    """
    s, t, u = triple
    failures: list[str] = []
    fam_s = pseudofunctor_on_span(s)
    fam_t = pseudofunctor_on_span(t)
    fam_u = pseudofunctor_on_span(u)
    y = {k: psi_obj(m, x, l.labels) for k, l in enumerate(fam_s.lists)}

    st = compose_span(s, t)
    comp_st = unbias_comp_iso(s, t, m, x)

    # associativity transport
    alpha = unbias_cell(assoc_cell(s, t, u), m, x)
    comp_s_tu = unbias_comp_iso(s, compose_span(t, u), m, x)
    comp_tu_at_y = unbias_comp_iso(t, u, m, y)
    comp_st_u = unbias_comp_iso(st, u, m, x)
    for l in range(fam_u.src.size):
        lhs = m.compose(m.compose(alpha[l], comp_s_tu[l]), comp_tu_at_y[l])
        rhs = m.compose(comp_st_u[l], psi_family_map(m, comp_st, fam_u.lists[l]))
        if not m.mor_equal(lhs, rhs):
            failures.append(f"associativity at index {l} of {u.cod.size}")

    # unit coherences
    run = unbias_cell(right_unitor_cell(s), m, x)
    comp_rid = unbias_comp_iso(s, identity_span(s.cod), m, x)
    unit_y = unbias_unit_iso(s.cod, m, y)
    for k in range(s.cod.size):
        if not m.mor_equal(run[k], m.compose(comp_rid[k], unit_y[k])):
            failures.append(f"right unit at index {k}")
    lun = unbias_cell(left_unitor_cell(s), m, x)
    comp_lid = unbias_comp_iso(identity_span(s.dom), s, m, x)
    unit_x = unbias_unit_iso(s.dom, m, x)
    for k in range(s.cod.size):
        rhs = m.compose(comp_lid[k], psi_family_map(m, unit_x, fam_s.lists[k]))
        if not m.mor_equal(lun[k], rhs):
            failures.append(f"left unit at index {k}")

    # naturality of the comparison in the first argument
    if s.apex.size:
        c = random_pith_cell(rng, s)
        hcell = horizontal_compose(c, identity_cell(t))
        moved = unbias_cell(hcell, m, x)
        comp_2 = unbias_comp_iso(c.dst, t, m, x)
        cs = unbias_cell(c, m, x)
        for l in range(fam_t.src.size):
            lhs = m.compose(moved[l], comp_2[l])
            rhs = m.compose(comp_st[l], psi_family_map(m, cs, fam_t.lists[l]))
            if not m.mor_equal(lhs, rhs):
                failures.append(f"comparison naturality at index {l}")
    return failures


def _fiber_multiset_oracle(s: Span, k: int) -> Counter:
    return Counter(s.left(a) for a in range(s.apex.size) if s.right(a) == k)


def unbias_suite(max_size: int | None = None, seed: int = 0) -> LawReport:
    """Exhaustive spans over sets of size <= max_size (default 3), then 55 random triples."""
    max_size = 3 if max_size is None else max_size
    check = _Check("unbias")
    model = FreeTermModel()

    def assignment_for(dom: FinSet):
        return {j: Gen(f"x{j}") for j in range(dom.size)}

    for s in all_spans(max_size):
        fam = pseudofunctor_on_span(s)
        result = unbias_eval(s, model, assignment_for(s.dom))
        for k in range(s.cod.size):
            oracle = _fiber_multiset_oracle(s, k)
            check(
                underlying_multiset(fam.lists[k]) == oracle,
                f"family multiset differs from the fiber oracle at k={k}",
            )
            flat = normalize_obj(result.objects[k])
            relabeled = Counter({f"x{j}": c for j, c in oracle.items()})
            check(
                underlying_multiset(flat) == relabeled,
                f"object normalization differs from the fiber oracle at k={k}",
            )

    # transposition compatibility: the pushforward span transposes onto v
    for a in range(max_size + 1):
        for b in range(max_size + 1):
            for f in all_functions(a, b):
                check(
                    pseudofunctor_on_span(transpose_span(span_push(f))) == lambda_v(f),
                    f"transposition compatibility fails at {f.img}",
                )

    rng = Random(seed)
    triples = [random_chain(rng, 2, 3) for _ in range(40)]
    triples += [random_chain(rng, max_size, 3) for _ in range(15)]
    naturality_rng = Random(seed + 1)
    for triple in triples:
        failures = unbias_coherence_failures(model, triple, assignment_for(triple[0].dom), naturality_rng)
        check(not failures, "; ".join(failures))
    return check.report()


# ---------------------------------------------------------------------------
# registry

# the suite names, in the order "all" runs them, read off the functions so that each name has one;
# only the names are kept, since run_suite looks each NAME_suite up when it runs
SUITES = tuple(
    suite.__name__.removesuffix("_suite")
    for suite in (
        coxeter_suite, faithfulness_suite, braiding_suite, coherence_suite,
        span_suite, kleisli_suite, pbc_suite, unbias_suite,
    )
)


def suite_names() -> tuple[str, ...]:
    return SUITES + ("all",)


def run_suite(name: str, max_size: int | None = None, seed: int = 0) -> list[LawReport]:
    """Run one named suite, or all of them; max_size None runs each suite's default size."""
    if max_size is not None and (type(max_size) is not int or max_size < 1):
        raise ValueError(f"max_size must be a positive integer, not {max_size!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer, not {seed!r}")
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(suite_names())}")
    # looked up at call time, so that a replaced NAME_suite (e.g. a tracing wrapper) is the one run
    return [globals()[f"{n}_suite"](max_size, seed) for n in (SUITES if name == "all" else (name,))]
