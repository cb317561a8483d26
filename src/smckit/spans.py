"""
Finite sets, pullbacks and the bicategory of spans.

A finite set is just a size; a function stores its image sequence.  The
pullback of two maps into a common target is one hash join that writes the
agreeing pairs, in lexicographic order, as two projections and keeps no
pair list; the pairs are the canonical apex of a composite span.  The
associator's map is ``identity_fun`` on that apex; every other map into a
pullback apex is ``Pullback.lift``, and its index lookup is the cone check.

Cells between spans are apex maps commuting with both legs; the pith is
the cells with bijective maps.  Each equation is checked on image tuples,
without building the composite map.  The public constructors check every
value; an operation whose output is valid by its construction (a
projection, a composite, an identity, an inverse, a unitor cell) builds it
with the class's ``_unchecked`` constructor instead.  Every composite s;t is built by
``composite``, which returns its pullback with the span over it, so a cell
reuses one pullback for the span and for the lifts into its apex.  Inside a
``shared_composites()`` scope it also returns the same pair for every later
request of an equal (s, t), so a law check that pastes many cells over the
same chain builds each composite once; the table is dropped with the scope.
The law suites open one scope per law check; the CLI opens none.  The
unitor cells call no ``composite``: a composite with an identity span has a
closed form, which they write directly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from itertools import chain
from typing import NamedTuple

from .errors import (
    BoundaryMismatch,
    LiftEquationFails,
    NotInvertible,
    NotPullbackSquare,
    TargetMismatch,
)
from .values import value


@value
class FinSet:
    size: int

    def __post_init__(self):
        if type(self.size) is not int:
            raise ValueError(f"size must be an integer, found {self.size!r}")
        if self.size < 0:
            raise ValueError("size must be a natural number")

    def __iter__(self):
        return iter(range(self.size))


@value(unchecked=True)
class FinFun:
    src: FinSet
    dst: FinSet
    img: tuple[int, ...]

    def __post_init__(self):
        if type(self.img) is not tuple:
            object.__setattr__(self, "img", tuple(self.img))
        if len(self.img) != self.src.size:
            raise ValueError(f"image sequence has length {len(self.img)}, expected {self.src.size}")
        n = self.dst.size
        for v in self.img:
            if type(v) is not int:
                raise ValueError(f"value {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"value {v} outside target of size {n}")

    def __call__(self, i: int) -> int:
        return self.img[i]

    def is_bijective(self) -> bool:
        return self.src.size == self.dst.size and len(set(self.img)) == self.src.size

    def inverse(self) -> "FinFun":
        if not self.is_bijective():
            raise NotInvertible(f"map {self.img} is not bijective")
        inv = [0] * self.src.size
        for i, v in enumerate(self.img):
            inv[v] = i
        return FinFun._unchecked(self.dst, self.src, tuple(inv))  # a bijection's inverse is one


def identity_fun(x: FinSet) -> FinFun:
    return FinFun._unchecked(x, x, tuple(range(x.size)))  # range(x.size) lies in x


def fcompose(f: FinFun, g: FinFun) -> FinFun:
    """Diagram-order composite: f first, then g."""
    if f.dst != g.src:
        raise TargetMismatch(f"cannot compose: {f.dst} != {g.src}")
    gi = g.img
    # one value of g per point of f.src; f's values index g.img, since f.dst is g.src
    return FinFun._unchecked(f.src, g.dst, tuple([gi[v] for v in f.img]))


def fibers(f: FinFun) -> tuple[tuple[int, ...], ...]:
    """The preimage of each target element, each ascending."""
    out = [[] for _ in range(f.dst.size)]
    for a, k in enumerate(f.img):
        out[k].append(a)
    return tuple(map(tuple, out))


@value
class Pullback:
    """The canonical pullback of f and g over their shared target.

    Apex point i is the pair (p1(i), p2(i)); the pairs are every (a, b)
    with f(a) = g(b), in lexicographic order.
    """

    apex: FinSet
    p1: FinFun
    p2: FinFun
    __slots__ = ("_index",)  # each pair's apex point, filled by the first lift

    def lift(self, src: FinSet, left, right) -> FinFun:
        """The map x -> (left[x], right[x]) from src into the apex.

        A cone commutes exactly when each of its pairs lies in the pullback,
        so the index lookup is the cone check.
        """
        try:
            index = self._index
        except AttributeError:
            index = {pair: i for i, pair in enumerate(zip(self.p1.img, self.p2.img))}
            object.__setattr__(self, "_index", index)
        try:
            img = tuple([index[pair] for pair in zip(left, right, strict=True)])
        except KeyError:
            raise LiftEquationFails("cone does not commute over the shared target") from None
        if len(img) != src.size:
            raise ValueError(f"image sequence has length {len(img)}, expected {src.size}")
        # every value is an index into the apex, which is the range check
        return FinFun._unchecked(src, self.apex, img)


def pullback(f: FinFun, g: FinFun) -> Pullback:
    """Pairs agreeing under two maps into a common target, as two projections.

    >>> c = FinFun(FinSet(2), FinSet(1), (0, 0))
    >>> pb = pullback(c, c)
    >>> pb.p1.img, pb.p2.img
    ((0, 0, 1, 1), (0, 1, 0, 1))
    """
    if f.dst != g.dst:
        raise TargetMismatch(f"pullback needs a shared target: {f.dst} != {g.dst}")
    buckets: dict[int, list[int]] = {}
    for b, v in enumerate(g.img):
        buckets.setdefault(v, []).append(b)
    left, right = [], []  # p1 repeats a once per point of g's fiber over f(a), and p2 lists that fiber
    for a, v in enumerate(f.img):
        bucket = buckets.get(v)
        if bucket:
            left += [a] * len(bucket)
            right += bucket
    apex = FinSet(len(left))
    # one entry per pair (a, b), each a point of f.src or of g.src
    return Pullback(apex, FinFun._unchecked(apex, f.src, tuple(left)), FinFun._unchecked(apex, g.src, tuple(right)))


@value
class Span:
    """A pair of maps out of a shared apex; a 1-cell left.dst -> right.dst."""

    left: FinFun
    right: FinFun

    def __post_init__(self):
        if self.left.src != self.right.src:
            raise ValueError("legs must share their apex")

    @property
    def apex(self) -> FinSet:
        return self.left.src

    @property
    def dom(self) -> FinSet:
        return self.left.dst

    @property
    def cod(self) -> FinSet:
        return self.right.dst


@value(unchecked=True)
class SpanCell:
    """An apex map commuting with both legs."""

    src: Span
    dst: Span
    map: FinFun

    def __post_init__(self):
        if self.src.dom != self.dst.dom or self.src.cod != self.dst.cod:
            raise BoundaryMismatch("cells need parallel spans")
        if self.map.src != self.src.apex or self.map.dst != self.dst.apex:
            raise BoundaryMismatch("cell map must go between the apices")
        m, dl, dr = self.map.img, self.dst.left.img, self.dst.right.img
        if tuple([dl[v] for v in m]) != self.src.left.img:
            raise BoundaryMismatch("cell map does not commute with left legs")
        if tuple([dr[v] for v in m]) != self.src.right.img:
            raise BoundaryMismatch("cell map does not commute with right legs")

    def is_pith(self) -> bool:
        return self.map.is_bijective()


def identity_span(x: FinSet) -> Span:
    return Span(identity_fun(x), identity_fun(x))


def span_push(f: FinFun) -> Span:
    """The covariant span of f: identity left leg, f on the right."""
    return Span(identity_fun(f.src), f)


def span_pull(f: FinFun) -> Span:
    """The contravariant span of f: f on the left, identity right leg."""
    return Span(f, identity_fun(f.src))


def transpose_span(s: Span) -> Span:
    return Span(s.right, s.left)


class _Scope(threading.local):
    """Per thread, so that a scope in one thread shares nothing with another."""

    table: dict | None = None  # value key of (s, t) -> composite(s, t), while a scope is open


_scope = _Scope()


@contextmanager
def shared_composites():
    """Within the scope, each composite s;t is built once per value of (s, t).

    A nested scope reuses the outer table; the table is dropped when the
    outermost scope exits, so no composite outlives it.
    """
    if _scope.table is not None:
        yield
        return
    _scope.table = {}
    try:
        yield
    finally:
        _scope.table = None


def composite(s: Span, t: Span) -> tuple[Pullback, Span]:
    """The pullback of s's right leg and t's left leg, and the span s;t over it.

    Inside ``shared_composites`` an equal (s, t) gets the pair built first;
    only a composable pair is ever built or stored.
    """
    table = _scope.table
    if table is not None:
        # the legs' images and feet determine s and t, apexes included (an
        # apex's size is its image's length); a flat tuple hashes in one call
        sl, sr, tl, tr = s.left, s.right, t.left, t.right
        key = (sl.img, sr.img, tl.img, tr.img, sl.dst.size, sr.dst.size, tl.dst.size, tr.dst.size)
        found = table.get(key)
        if found is not None:
            return found
    if s.cod != t.dom:
        raise TargetMismatch(f"spans not composable: {s.cod} != {t.dom}")
    pb = pullback(s.right, t.left)
    found = pb, Span(fcompose(pb.p1, s.left), fcompose(pb.p2, t.right))
    if table is not None:
        table[key] = found
    return found


def compose_span(s: Span, t: Span) -> Span:
    """The total span over the canonical pullback of the inner legs."""
    return composite(s, t)[1]


def identity_cell(s: Span) -> SpanCell:
    return SpanCell._unchecked(s, s, identity_fun(s.apex))  # the identity commutes with any legs


def vcomp(*cells: SpanCell) -> SpanCell:
    """The vertical composite of a chain of cells, first to last."""
    out = cells[0]
    for c in cells[1:]:
        if out.dst != c.src:
            raise BoundaryMismatch("vertical composition needs matching middle span")
        # maps commuting with the legs of out.src -> c.src -> c.dst compose to one
        out = SpanCell._unchecked(out.src, c.dst, fcompose(out.map, c.map))
    return out


def horizontal_compose(c1: SpanCell, c2: SpanCell) -> SpanCell:
    """Composite cell on composite spans, by the universal lift."""
    src_pb, src = composite(c1.src, c2.src)
    dst_pb, dst = composite(c1.dst, c2.dst)
    m1, m2 = c1.map.img, c2.map.img
    lift = dst_pb.lift(src.apex, [m1[a] for a in src_pb.p1.img], [m2[b] for b in src_pb.p2.img])
    # the lift's cone check places (c1(a), c2(b)) over each (a, b); c1 and c2 commute with their legs
    return SpanCell._unchecked(src, dst, lift)


def invert_cell(c: SpanCell) -> SpanCell:
    if not c.is_pith():
        raise NotInvertible("only pith cells invert")
    return SpanCell._unchecked(c.dst, c.src, c.map.inverse())  # a bijection commutes with legs iff its inverse does


def assoc_cell(s: Span, t: Span, u: Span) -> SpanCell:
    """(s;t);u => s;(t;u), matching ((a,b),c) with (a,(b,c)).

    Both canonical apexes list the triples (a, b, c) in lexicographic
    order, so the map is the identity; the cell's check proves that it
    commutes with both legs.
    """
    src = composite(composite(s, t)[1], u)[1]
    dst = composite(s, composite(t, u)[1])[1]
    return SpanCell(src, dst, identity_fun(src.apex))


def left_unitor_cell(s: Span) -> SpanCell:
    """id;s => s, projecting the pair (j, a) to a.

    The canonical apex of id;s lists the pairs (s.left(a), a) fiber by
    fiber of s.left, so the map lists those fibers in turn and the left leg
    repeats each j once per point of its fiber; no pullback is built.
    """
    fibs = fibers(s.left)
    apex = s.apex
    proj = FinFun._unchecked(apex, apex, tuple(chain.from_iterable(fibs)))  # the fibers partition the apex
    # j once per point of its fiber, each a point of s.dom
    left = FinFun._unchecked(apex, s.dom, tuple(chain.from_iterable([j] * len(f) for j, f in enumerate(fibs))))
    src = Span(left, fcompose(proj, s.right))
    return SpanCell._unchecked(src, s, proj)  # proj sends (j, a) to a, and j is s.left(a)


def right_unitor_cell(s: Span) -> SpanCell:
    """s;id => s, projecting the pair (a, k) to a.

    The canonical apex of s;id pairs each a with s.right(a), in the order of
    a, so s;id equals s and the map is the identity; no pullback is built.
    """
    return SpanCell._unchecked(s, s, identity_fun(s.apex))  # the identity commutes with any legs


class AdjunctionCells(NamedTuple):
    unit: SpanCell
    counit: SpanCell


def adjunction_cells(f: FinFun) -> AdjunctionCells:
    """Unit and counit exhibiting the push span as left adjoint to the pull span.

    The unit is the diagonal a -> (a, a); the counit sends a diagonal pair
    to its common value under f.  Neither is a pith cell in general.
    """
    push, pull = span_push(f), span_pull(f)
    unit_pb, push_pull = composite(push, pull)
    unit_map = unit_pb.lift(f.src, range(f.src.size), range(f.src.size))
    # the lift sends a to the pair (a, a), which both legs of push;pull project back to a
    unit = SpanCell._unchecked(identity_span(f.src), push_pull, unit_map)

    counit_pb, pull_push = composite(pull, push)
    counit_map = fcompose(counit_pb.p1, f)
    # pull;push pairs each a with itself, and both of its legs send (a, a) to f(a)
    counit = SpanCell._unchecked(pull_push, identity_span(f.dst), counit_map)
    return AdjunctionCells(unit, counit)


@value
class PullbackSquare:
    """A commuting square top/left/right/bottom; pullback-ness checked on demand.

        X --top--> Y
        |          |
      left       right
        |          |
        Z -bottom-> W
    """

    top: FinFun
    left: FinFun
    right: FinFun
    bottom: FinFun

    def __post_init__(self):
        if self.top.src != self.left.src:
            raise BoundaryMismatch("top and left must share their source")
        if self.top.dst != self.right.src or self.left.dst != self.bottom.src:
            raise BoundaryMismatch("square edges do not line up")
        if self.right.dst != self.bottom.dst:
            raise BoundaryMismatch("right and bottom must share their target")
        r, b = self.right.img, self.bottom.img
        if tuple([r[v] for v in self.top.img]) != tuple([b[v] for v in self.left.img]):
            raise BoundaryMismatch("square does not commute")

    def comparison(self) -> FinFun:
        """The canonical map from the corner into the pullback of (bottom, right)."""
        return pullback(self.bottom, self.right).lift(self.left.src, self.left.img, self.top.img)

    def is_pullback(self) -> bool:
        return self.comparison().is_bijective()


def square_from_cospan(bottom: FinFun, right: FinFun) -> PullbackSquare:
    """Complete a cospan to its canonical pullback square."""
    pb = pullback(bottom, right)
    return PullbackSquare(pb.p2, pb.p1, right, bottom)


def hpaste(l: PullbackSquare, r: PullbackSquare) -> PullbackSquare:
    """Paste side by side; l's right edge must be r's left edge."""
    if l.right != r.left:
        raise BoundaryMismatch("squares do not share the middle vertical edge")
    return PullbackSquare(fcompose(l.top, r.top), l.left, r.right, fcompose(l.bottom, r.bottom))


def vpaste(t: PullbackSquare, b: PullbackSquare) -> PullbackSquare:
    """Paste on top of each other; t's bottom edge must be b's top edge."""
    if t.bottom != b.top:
        raise BoundaryMismatch("squares do not share the middle horizontal edge")
    return PullbackSquare(t.top, fcompose(t.left, b.left), fcompose(t.right, b.right), b.bottom)


def base_change_1cell(square: PullbackSquare) -> SpanCell:
    """The invertible cell from the pull/push side to the push/pull side.

    For a pullback square with edges t, l, r, b its map lifts the legs
    (l, t) of compose(pull(l), push(t)) into the apex of compose(push(b), pull(r)).
    """
    pull_l, push_t = span_pull(square.left), span_push(square.top)
    push_b, pull_r = span_push(square.bottom), span_pull(square.right)
    src = composite(pull_l, push_t)[1]
    dst_pb, dst = composite(push_b, pull_r)
    # the legs of src are (left, top) over a copy of the corner, so this lift
    # is the square's comparison map: the square is a pullback iff it is bijective
    lift = dst_pb.lift(src.apex, src.left.img, src.right.img)
    if not lift.is_bijective():
        raise NotPullbackSquare("base change needs a pullback square")
    return SpanCell(src, dst, lift)
