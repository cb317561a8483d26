"""Value checks in their earlier forms, kept as the oracle for the faster ones.

These are ``SListHom``'s label-transport check, ``Perm.__mul__`` and
``unique_hom_linear``'s permutation-equivalence test as they were before
they ran as whole-sequence operations: one ``phi(i)`` per index, a
generator per image entry, and two ``Counter``s compared.  Beside them are
the ``SpanCell`` and ``PullbackSquare`` equations as they were before they
compared image tuples: each side built as a checked ``fcompose`` and its
image compared.  They must accept, reject and word their exceptions
exactly as the library does.

``pullback_oracle`` is the nested-loop pullback: every pair (a, b) tested,
in lexicographic order.  ``spans.pullback`` keeps no pairs, so its
projections, read together, must list exactly these; ``checked_pullback``
builds the ``Pullback`` of these pairs through the checked constructors.

``pullback_lift`` is the checked universal lift that ``Pullback.lift``
replaced: it takes the cone legs as maps, checks that they commute over
the shared target, and only then finds each cone pair in the oracle's own
pair list, so it reads nothing of the pullback it is compared with.  On a
cone whose legs share a source and land in the cospan's sources,
``Pullback.lift`` must return the same map, and raise
``LiftEquationFails`` with the same text exactly where it does.

``assoc_cell`` is the associator cell as it was before it returned the
identity: two lifts into the pullbacks of s;(t;u), which match
((a,b),c) with (a,(b,c)).  On every composable chain it must equal
``spans.assoc_cell``.

``left_unitor_cell`` and ``right_unitor_cell`` are the unitor cells as
they were before they were written in closed form: each composes s with
the identity span by ``composite`` and returns the pullback projection
onto s's apex.  On every span they must equal the ``spans`` cells.

``vertical_compose`` is the binary vertical composition of span cells that
the n-ary ``spans.vcomp`` replaced; a chain's ``vcomp`` must equal its left
fold, and fail with the same text where the fold does.

``theta_whisker`` and ``theta_apply_hom`` are the two checked list
morphisms that ``kleisli.k_hcomp`` once composed per component: psi
whiskered along a list, then the blocks moved the way phi moves labels.
``k_hcomp_two_step`` is that composite, kept as the oracle for the one
block permutation ``k_hcomp`` now writes; on every composable pair of
cells the two must be equal.
"""

from smckit.errors import (
    BoundaryMismatch,
    LiftEquationFails,
    NotLinear,
    NotPermutationEquivalent,
    SourceTargetMismatch,
    TargetMismatch,
)
from itertools import accumulate

from smckit.kleisli import KCell, KHom, k_compose, theta_apply
from smckit.perms import Perm, block_perm
from smckit.slist import SList, SListHom, compose as hom_compose, is_linear, underlying_multiset
from smckit.spans import FinFun, FinSet, Pullback, Span, SpanCell, composite, fcompose, identity_span


def check_slist_hom(src: SList, dst: SList, phi: Perm) -> None:
    """Raise as ``SListHom(src, dst, phi)`` must; return when it must accept."""
    if len(src) != len(dst):
        raise SourceTargetMismatch(f"lists of different lengths: {len(src)} vs {len(dst)}")
    if phi.n != len(dst):
        raise SourceTargetMismatch(f"phi has size {phi.n}, expected {len(dst)}")
    for i in range(len(dst)):
        if src.labels[phi(i)] != dst.labels[i]:
            raise SourceTargetMismatch(
                f"label transport fails at index {i}: "
                f"{src}[{phi(i)}] != {dst}[{i}]"
            )


def perm_mul(p: Perm, q: Perm) -> Perm:
    if p.n != q.n:
        raise ValueError(f"size mismatch: {p.n} vs {q.n}")
    return Perm(tuple(p.img[j] for j in q.img))


def unique_hom_linear(src: SList, dst: SList) -> SListHom:
    if not (is_linear(src) or is_linear(dst)):
        raise NotLinear(f"neither {src} nor {dst} is linear")
    if underlying_multiset(src) != underlying_multiset(dst):
        raise NotPermutationEquivalent(f"{src} and {dst} differ as multisets")
    position = {label: i for i, label in enumerate(src.labels)}
    phi = Perm(tuple(position[label] for label in dst.labels))
    return SListHom(src, dst, phi)


def check_span_cell(src: Span, dst: Span, map: FinFun) -> None:
    """Raise as ``SpanCell(src, dst, map)`` must; return when it must accept."""
    if src.dom != dst.dom or src.cod != dst.cod:
        raise BoundaryMismatch("cells need parallel spans")
    if map.src != src.apex or map.dst != dst.apex:
        raise BoundaryMismatch("cell map must go between the apices")
    if fcompose(map, dst.left).img != src.left.img:
        raise BoundaryMismatch("cell map does not commute with left legs")
    if fcompose(map, dst.right).img != src.right.img:
        raise BoundaryMismatch("cell map does not commute with right legs")


def pullback_oracle(f: FinFun, g: FinFun) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(f.src.size) for b in range(g.src.size) if f.img[a] == g.img[b])


def checked_pullback(f: FinFun, g: FinFun) -> Pullback:
    pairs = pullback_oracle(f, g)
    apex = FinSet(len(pairs))
    return Pullback(apex, FinFun(apex, f.src, tuple(a for a, _ in pairs)), FinFun(apex, g.src, tuple(b for _, b in pairs)))


def pullback_lift(f: FinFun, g: FinFun, f1: FinFun, f2: FinFun) -> FinFun:
    if f1.src != f2.src:
        raise TargetMismatch("cone legs must share a source")
    if fcompose(f1, f).img != fcompose(f2, g).img:
        raise LiftEquationFails("cone does not commute over the shared target")
    pairs = pullback_oracle(f, g)
    return FinFun(f1.src, FinSet(len(pairs)), tuple(map(pairs.index, zip(f1.img, f2.img))))


def check_pullback_square(top: FinFun, left: FinFun, right: FinFun, bottom: FinFun) -> None:
    """Raise as ``PullbackSquare(top, left, right, bottom)`` must; return when it must accept."""
    if top.src != left.src:
        raise BoundaryMismatch("top and left must share their source")
    if top.dst != right.src or left.dst != bottom.src:
        raise BoundaryMismatch("square edges do not line up")
    if right.dst != bottom.dst:
        raise BoundaryMismatch("right and bottom must share their target")
    if fcompose(top, right).img != fcompose(left, bottom).img:
        raise BoundaryMismatch("square does not commute")


def assoc_cell(s: Span, t: Span, u: Span) -> SpanCell:
    st_pb, st = composite(s, t)
    outer, src = composite(st, u)
    tu_pb, tu = composite(t, u)
    dst_pb, dst = composite(s, tu)
    o1, p1, p2 = outer.p1.img, st_pb.p1.img, st_pb.p2.img
    to_tu = tu_pb.lift(src.apex, [p2[i] for i in o1], outer.p2.img)
    lift = dst_pb.lift(src.apex, [p1[i] for i in o1], to_tu.img)
    return SpanCell(src, dst, lift)


def left_unitor_cell(s: Span) -> SpanCell:
    pb, src = composite(identity_span(s.dom), s)
    return SpanCell(src, s, pb.p2)


def right_unitor_cell(s: Span) -> SpanCell:
    pb, src = composite(s, identity_span(s.cod))
    return SpanCell(src, s, pb.p1)


def vertical_compose(c1: SpanCell, c2: SpanCell) -> SpanCell:
    if c1.dst != c2.src:
        raise BoundaryMismatch("vertical composition needs matching middle span")
    return SpanCell(c1.src, c2.dst, fcompose(c1.map, c2.map))


def theta_apply_hom(g: KHom, f: SListHom) -> SListHom:
    """The block permutation extending g along a list morphism.

    Whole blocks move the way f moves labels; positions inside a block are
    preserved.
    """
    src = theta_apply(g, f.src)  # raises LabelOutOfRange before a label indexes g
    dst = theta_apply(g, f.dst)
    return SListHom(src, dst, block_perm([len(g.lists[label]) for label in f.src.labels], f.phi))


def theta_whisker(psi: KCell, l: SList) -> SListHom:
    """Block-diagonal morphism with blocks psi at each label of l."""
    src = theta_apply(psi.src, l)
    dst = theta_apply(psi.dst, l)
    src_off = list(accumulate((len(psi.src.lists[label]) for label in l.labels), initial=0))
    dst_off = list(accumulate((len(psi.dst.lists[label]) for label in l.labels), initial=0))
    phi = [0] * len(dst)
    for t, label in enumerate(l.labels):
        h = psi.homs[label]
        for u in range(len(h.dst)):
            phi[dst_off[t] + u] = src_off[t] + h.phi(u)
    return SListHom(src, dst, Perm(tuple(phi)))


def k_hcomp_two_step(phi: KCell, psi: KCell) -> KCell:
    """Horizontal composite: whisker psi along each list, then move blocks."""
    f, f2 = phi.src, phi.dst
    g, g2 = psi.src, psi.dst
    if f.dst != g.src:
        raise BoundaryMismatch("horizontal composition needs composable boundaries")
    homs = tuple(
        hom_compose(theta_whisker(psi, f.lists[i]), theta_apply_hom(g2, phi.homs[i]))
        for i in range(f.src.size)
    )
    return KCell(k_compose(f, g), k_compose(f2, g2), homs)
