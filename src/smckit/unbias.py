"""
The fiber/value Pith-Beck-Chevalley system on finite sets, valued in the
strict Kleisli target, the pseudofunctor it generates on spans of finite
sets, and the end-to-end evaluator that realizes unbiased tensor products
in any model.  The system is a set of plain functions, called directly.

Every cell but the identity ``f_id_cell`` is one ``_linear_cell``, the
unique bijection between two lists of distinct keys.  Fiber/value cells
key linear lists by their labels; the pseudofunctor's cells key each
entry by its apex element, the paper's universal formulas.

Orientation conventions, fixed once here and used throughout:

* A 1-cell A -> B of the opposite Kleisli bicategory is stored as a
  ``KHom`` with src B and dst A.  "p then q" is stored as
  ``k_compose(stored(q), stored(p))``; the composite is strictly
  associative and unital, so the target associators and unitors below are
  identities and pasting laws are exact cell equalities.
* For a function f : J -> K, v(f) = ``lambda_v(f)`` is the singleton
  family j -> [f(j)] (stored J ~> K, a 1-cell K -> J) and u(f) =
  ``lambda_u(f)`` the ascending-fiber family k -> f^{-1}(k) (stored K ~> J
  as a 1-cell J -> K).
* A base-change cell for a pullback square (top, left, right, bottom) goes
  from the stored form of "u(right) then v(bottom)" to the stored form of
  "v(top) then u(left)".

A span J <- A -> K maps to "v(left) then u(right)"; its component at k is
the left-leg image of the right fiber at k, in ascending apex order.

The evaluator folds each list of that image into a model object.  Its
composition comparison reads its cell off pullback pairs and its blocks off
fibers, so ``smckit unbias --cells`` builds the image once, in ``unbias_eval``.
"""

from __future__ import annotations

from .errors import NotInvertible, NotPullbackSquare
from .kleisli import KCell, KHom, k_compose, k_id, k_id_cell
from .slist import SList, SListHom, unique_hom_linear
from .spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    composite,
    fcompose,
    fibers,
    identity_fun,
)
from .terms import SmcModel, lookup, psi_hom, psi_obj
from .values import value


# ---------------------------------------------------------------------------
# the fiber/value system


def _linear_cell(src: KHom, dst: KHom, src_keys=None, dst_keys=None) -> KCell:
    """Component k sends the entry keyed x in ``src.lists[k]`` to the one keyed x in ``dst.lists[k]``.

    Each key list has one distinct key per entry.  Without keys the lists
    are linear and each entry is its own key; with keys ``SListHom`` checks
    the labels.
    """
    if src_keys is None:
        homs = tuple(map(unique_hom_linear, src.lists, dst.lists))
    else:
        phis = (unique_hom_linear(SList(tuple(a)), SList(tuple(b))).phi for a, b in zip(src_keys, dst_keys))
        homs = tuple(map(SListHom, src.lists, dst.lists, phis))
    # every caller passes parallel families, and component k runs src.lists[k] -> dst.lists[k]
    return KCell._unchecked(src, dst, homs)


def lambda_u(f: FinFun) -> KHom:
    """Ascending fibers of f, one linear list per target element."""
    return KHom._unchecked(f.dst, f.src, tuple(map(SList._unchecked, fibers(f))))  # each fiber holds points of f.src


def lambda_v(f: FinFun) -> KHom:
    """Singleton values of f, one linear list per source element."""
    # each value is a point of f.dst
    return KHom._unchecked(f.src, f.dst, tuple([SList._unchecked((v,)) for v in f.img]))


def u_comp(f: FinFun, g: FinFun) -> KCell:
    """From u(f then g) to the stored form of "u(f) then u(g)"."""
    src, dst = lambda_u(fcompose(f, g)), k_compose(lambda_u(g), lambda_u(f))
    return _linear_cell(src, dst)


def v_comp(f: FinFun, g: FinFun) -> KCell:
    """From v(f then g) to the stored form of "v(g) then v(f)"."""
    src, dst = lambda_v(fcompose(f, g)), k_compose(lambda_v(f), lambda_v(g))
    return _linear_cell(src, dst)


def u_id(x: FinSet) -> KCell:
    """Collapse u(id_x) onto the strict unit at x."""
    src, dst = lambda_u(identity_fun(x)), k_id(x)
    return _linear_cell(src, dst)


def v_id(x: FinSet) -> KCell:
    """Collapse v(id_x) onto the strict unit at x."""
    src, dst = lambda_v(identity_fun(x)), k_id(x)
    return _linear_cell(src, dst)


def base_change_unique(square: PullbackSquare) -> KCell:
    """The unique cell between the two fiber readings of a pullback square.

    Both sides are componentwise linear with the same underlying multiset
    (the right fiber over the bottom image), so there is exactly one
    choice; any failure inside signals an implementation bug.
    ``laws.pbc_suite`` checks the pasting and unit-square laws.
    """
    if not square.is_pullback():
        raise NotPullbackSquare("base change needs a pullback square")
    src = k_compose(lambda_v(square.bottom), lambda_u(square.right))
    dst = k_compose(lambda_u(square.left), lambda_v(square.top))
    return _linear_cell(src, dst)


# ---------------------------------------------------------------------------
# the pseudofunctor on spans


def pseudofunctor_on_span(s: Span) -> KHom:
    """Stored form of "v(left) then u(right)".

    >>> from .spans import FinFun, FinSet, Span
    >>> a, j, k = FinSet(3), FinSet(2), FinSet(2)
    >>> s = Span(FinFun(a, j, (0, 1, 0)), FinFun(a, k, (0, 0, 1)))
    >>> [list(l.labels) for l in pseudofunctor_on_span(s).lists]
    [[0, 1], [0]]
    """
    return k_compose(lambda_u(s.right), lambda_v(s.left))


def pseudofunctor_on_cell(c: SpanCell) -> KCell:
    """Image of a pith cell, keyed by the apex of ``c.dst``.

    At k the source keys are ``c.map(a)`` for each ``a`` in the right fiber
    of ``c.src`` at k, and the target keys are the right fiber of ``c.dst``.
    """
    if not c.is_pith():
        raise NotInvertible("only pith cells map forward")
    src_keys = [tuple(map(c.map, fiber)) for fiber in fibers(c.src.right)]
    return _linear_cell(pseudofunctor_on_span(c.src), pseudofunctor_on_span(c.dst), src_keys, fibers(c.dst.right))


def f_comp_cell(s: Span, t: Span) -> KCell:
    """Comparison from the image of s;t to "image of s, then image of t".

    Keyed by the pullback pairs (a, b): at l the source keys are the pairs
    ``(p1(i), p2(i))`` of the right fiber of s;t, in lexicographic order;
    the target keys are ``(a, b)`` for each ``b`` in t's right fiber at l,
    then each ``a`` in s's right fiber at ``t.left(b)``.  Both families are
    read off the keys: the entry keyed (a, b) is ``s.left(a)``.
    """
    pb, st = composite(s, t)
    p1, p2, sl, tl, s_fibers = pb.p1.img, pb.p2.img, s.left.img, t.left.img, fibers(s.right)
    src_keys = [[(p1[i], p2[i]) for i in fiber] for fiber in fibers(st.right)]
    dst_keys = [[(a, b) for b in fiber for a in s_fibers[tl[b]]] for fiber in fibers(t.right)]
    # one list per element of t.cod, each of values of s.left in s.dom
    src, dst = (KHom._unchecked(t.cod, s.dom, tuple([SList._unchecked(tuple([sl[a] for a, _ in k])) for k in keys]))
                for keys in (src_keys, dst_keys))
    return _linear_cell(src, dst, src_keys, dst_keys)


def f_id_cell(x: FinSet) -> KCell:
    """Comparison from the image of the identity span onto the identity 1-cell; both are k_id(x)."""
    return k_id_cell(k_id(x))


# ---------------------------------------------------------------------------
# the end-to-end evaluator


@value
class UnbiasResult:
    """Per-target-index unbiased tensors for a span, in a chosen model."""

    family: KHom
    objects: tuple


def unbias_eval(s: Span, m: SmcModel, assignment) -> UnbiasResult:
    """Objects of the unbiased tensor: fold each pulled-back fiber list.

    ``assignment`` gives an object of ``m`` for each element of the span's
    left foot.

    >>> from .models import FreeTermModel
    >>> from .spans import FinFun, FinSet, Span
    >>> from .terms import Gen
    >>> pt = FinSet(1); two = FinSet(2)
    >>> s = Span(FinFun(two, pt, (0, 0)), FinFun(two, pt, (0, 0)))
    >>> r = unbias_eval(s, FreeTermModel(), {0: Gen("A")})
    >>> print(r.objects[0])
    (A*(A*I))
    """
    fam = pseudofunctor_on_span(s)
    objects = tuple(psi_obj(m, assignment, l.labels) for l in fam.lists)
    return UnbiasResult(fam, objects)


def unbias_cell(c: SpanCell, m: SmcModel, assignment) -> tuple:
    """Model morphisms of a pith cell, one per target index."""
    kcell = pseudofunctor_on_cell(c)
    return tuple(psi_hom(m, assignment, h) for h in kcell.homs)


def unbias_comp_iso(s: Span, t: Span, m: SmcModel, assignment) -> tuple:
    """Composition comparison of the evaluated pseudofunctor, per index.

    Component l goes from the object of the composite span to the object
    obtained by folding t's fibers over the family of s's objects: the
    image of ``f_comp_cell``, then ``regroup`` of the blocks s.left(a) for
    a over s's right fiber at t.left(b), one per b in t's right fiber at l.
    """
    sl, tl, s_fibers = s.left.img, t.left.img, fibers(s.right)
    out = []
    for h, fiber in zip(f_comp_cell(s, t).homs, fibers(t.right)):
        move = psi_hom(m, assignment, h)
        unpack = m.regroup([[lookup(assignment, sl[a]) for a in s_fibers[tl[b]]] for b in fiber])
        out.append(m.compose(move, unpack))
    return tuple(out)


def unbias_unit_iso(x: FinSet, m: SmcModel, assignment) -> tuple:
    """Unit comparison: collapse each singleton fold onto its object."""
    return tuple(m.right_unitor(lookup(assignment, j)) for j in x)


