"""Spans of finite sets: pullbacks, cells, adjunctions, base change."""

from random import Random

import pytest

from smckit.errors import (
    BoundaryMismatch,
    LiftEquationFails,
    NotInvertible,
    NotPullbackSquare,
    TargetMismatch,
)
from smckit.spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    adjunction_cells,
    assoc_cell,
    base_change_1cell,
    compose_lift,
    compose_pullback,
    compose_span,
    fcompose,
    horizontal_compose,
    identity_cell,
    identity_fun,
    identity_span,
    invert_cell,
    left_unitor_cell,
    pullback,
    pullback_lift,
    right_unitor_cell,
    span_pull,
    span_push,
    transpose_span,
    vcomp,
    vertical_compose,
)
from smckit.laws import all_functions, random_pith_cell, random_span, random_span_from


def is_pullback_oracle(square: PullbackSquare, max_cone: int = 3) -> bool:
    """Universal property checked by enumerating all cones up to a size bound."""
    t, l, r, b = square.top, square.left, square.right, square.bottom
    for size in range(max_cone + 1):
        for qy in all_functions(size, t.dst.size):
            for qz in all_functions(size, l.dst.size):
                if fcompose(qy, r).img != fcompose(qz, b).img:
                    continue
                mediators = [
                    u
                    for u in all_functions(size, t.src.size)
                    if fcompose(u, t).img == qy.img and fcompose(u, l).img == qz.img
                ]
                if len(mediators) != 1:
                    return False
    return True


def test_pullback_examples():
    two, one = FinSet(2), FinSet(1)
    ident = identity_fun(two)
    pb = pullback(ident, ident)
    assert pb.pairs == ((0, 0), (1, 1))
    const = FinFun(two, one, (0, 0))
    pb = pullback(const, const)
    assert pb.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
    empty = FinFun(FinSet(0), one, ())
    assert pullback(empty, const).apex.size == 0
    with pytest.raises(TargetMismatch):
        pullback(const, ident)


def test_pullback_lift_uniqueness():
    two, one = FinSet(2), FinSet(1)
    const = FinFun(two, one, (0, 0))
    pb = pullback(const, const)
    lift = pullback_lift(pb, const, const, pb.p1, pb.p2)
    assert lift.img == tuple(range(4))
    bad = FinFun(two, two, (0, 1))
    with pytest.raises(LiftEquationFails):
        pullback_lift(pb, const, identity_fun(two), bad, bad)


def test_compose_span_examples():
    two = FinSet(2)
    s = Span(identity_fun(two), FinFun(two, two, (1, 0)))
    with_id = compose_span(s, identity_span(two))
    assert with_id.apex.size == s.apex.size
    one = FinSet(1)
    t = Span(FinFun(two, one, (0, 0)), FinFun(two, one, (0, 0)))
    u = Span(FinFun(FinSet(3), one, (0, 0, 0)), FinFun(FinSet(3), one, (0, 0, 0)))
    assert compose_span(t, u).apex.size == 6
    pb = compose_pullback(t, u)
    assert compose_lift(t, u, pb.p1, pb.p2).img == tuple(range(6))


def test_structural_cells_are_pith_and_project():
    rng = Random(21)
    for _ in range(100):
        s = random_span(rng, 3)
        t = random_span_from(rng, s.cod, 3)
        u = random_span_from(rng, t.cod, 3)
        acell = assoc_cell(s, t, u)
        assert acell.is_pith()
        assert left_unitor_cell(s).is_pith() and right_unitor_cell(u).is_pith()
        # associator preserves the three projections
        outer = compose_pullback(compose_span(s, t), u)
        inner = compose_pullback(s, t)
        dst_outer = compose_pullback(s, compose_span(t, u))
        dst_inner = compose_pullback(t, u)
        amap = acell.map
        for idx, (x, cc) in enumerate(outer.pairs):
            aa, bb = inner.pairs[x]
            a2, y = dst_outer.pairs[amap(idx)]
            b2, c2 = dst_inner.pairs[y]
            assert (aa, bb, cc) == (a2, b2, c2)


def test_unitor_triangle():
    rng = Random(22)
    for _ in range(100):
        s = random_span(rng, 3)
        t = random_span_from(rng, s.cod, 3)
        lhs = vcomp(
            assoc_cell(s, identity_span(s.cod), t),
            horizontal_compose(identity_cell(s), left_unitor_cell(t)),
        )
        rhs = horizontal_compose(right_unitor_cell(s), identity_cell(t))
        assert lhs == rhs


def test_cell_ops():
    rng = Random(23)
    for _ in range(100):
        s = random_span(rng, 3)
        c = random_pith_cell(rng, s)
        assert vertical_compose(identity_cell(s), c) == c
        assert vertical_compose(c, identity_cell(c.dst)) == c
        assert vertical_compose(c, invert_cell(c)) == identity_cell(s)
        t = random_span_from(rng, s.cod, 3)
        d = random_pith_cell(rng, t)
        h = horizontal_compose(c, d)
        assert h.src == compose_span(s, t) and h.dst == compose_span(c.dst, d.dst)
        # interchange
        c2 = random_pith_cell(rng, c.dst)
        d2 = random_pith_cell(rng, d.dst)
        assert vcomp(h, horizontal_compose(c2, d2)) == horizontal_compose(
            vcomp(c, c2), vcomp(d, d2)
        )


def test_cell_boundary_errors():
    two = FinSet(2)
    s = identity_span(two)
    with pytest.raises(BoundaryMismatch):
        SpanCell(s, s, FinFun(two, two, (0, 0)))
    swap_cell = SpanCell(
        Span(FinFun(two, two, (1, 0)), FinFun(two, two, (1, 0))),
        Span(identity_fun(two), identity_fun(two)),
        FinFun(two, two, (1, 0)),
    )
    assert swap_cell.is_pith()
    diag = adjunction_cells(FinFun(two, FinSet(1), (0, 0))).unit
    with pytest.raises(NotInvertible):
        invert_cell(diag)


def test_transpose():
    f = FinFun(FinSet(2), FinSet(3), (2, 0))
    assert transpose_span(span_push(f)) == span_pull(f)
    assert transpose_span(transpose_span(span_pull(f))) == span_pull(f)
    two = FinSet(2)
    assert transpose_span(identity_span(two)) == identity_span(two)


def test_adjunction_cells_examples():
    ident = identity_fun(FinSet(2))
    cells = adjunction_cells(ident)
    assert cells.unit.map.is_bijective() and cells.counit.map.is_bijective()
    f = FinFun(FinSet(2), FinSet(1), (0, 0))
    cells = adjunction_cells(f)
    assert cells.unit.dst.apex.size == 4
    assert cells.unit.map.img == (0, 3)
    assert not cells.unit.map.is_bijective()


def test_adjunction_triangles_exhaustive():
    from smckit.laws import _adjunction_holds

    for a in range(5):
        for c in range(4):
            for f in all_functions(a, c):
                assert _adjunction_holds(f)


def test_base_change_examples():
    two = FinSet(2)
    ident = identity_fun(two)
    sq = PullbackSquare(ident, ident, ident, ident)
    cell = base_change_1cell(sq)
    assert cell.is_pith()
    f = FinFun(two, FinSet(1), (0, 0))
    sq = PullbackSquare(ident, ident, f, f)
    with pytest.raises(NotPullbackSquare):
        base_change_1cell(sq)
    # bijective rows: the cell is determined by the row bijections
    swap = FinFun(two, two, (1, 0))
    sq = PullbackSquare(swap, ident, ident, swap)
    cell = base_change_1cell(sq)
    assert cell.is_pith()


def test_base_change_invertible_on_all_pullback_squares():
    for w in range(3):
        for z in range(3):
            for y in range(3):
                for b in all_functions(z, w):
                    for r in all_functions(y, w):
                        from smckit.spans import square_from_cospan

                        sq = square_from_cospan(b, r)
                        assert base_change_1cell(sq).is_pith()


def test_is_pullback_matches_universal_property_oracle():
    # cross-validate the comparison-map test against cone enumeration
    count = 0
    for w in range(3):
        for z in range(3):
            for y in range(3):
                for x in range(3):
                    for b in all_functions(z, w):
                        for r in all_functions(y, w):
                            for t in all_functions(x, y):
                                for l in all_functions(x, z):
                                    if fcompose(t, r).img != fcompose(l, b).img:
                                        continue
                                    sq = PullbackSquare(t, l, r, b)
                                    assert sq.is_pullback() == is_pullback_oracle(sq, 2)
                                    count += 1
    assert count > 100


def test_pentagon_small():
    from smckit.laws import _pentagon_holds, all_spans

    spans = list(all_spans(1))
    for s in spans:
        for t in spans:
            if t.dom != s.cod:
                continue
            for u in spans:
                if u.dom != t.cod:
                    continue
                for v in spans:
                    if v.dom != u.cod:
                        continue
                    assert _pentagon_holds(s, t, u, v)


def test_structural_cell_naturality():
    rng = Random(24)
    for _ in range(100):
        s = random_span(rng, 3)
        t = random_span_from(rng, s.cod, 3)
        u = random_span_from(rng, t.cod, 3)
        c = random_pith_cell(rng, s)
        d = random_pith_cell(rng, t)
        e = random_pith_cell(rng, u)
        lhs = vcomp(
            assoc_cell(s, t, u), horizontal_compose(c, horizontal_compose(d, e))
        )
        rhs = vcomp(
            horizontal_compose(horizontal_compose(c, d), e),
            assoc_cell(c.dst, d.dst, e.dst),
        )
        assert lhs == rhs
        lhs = vcomp(left_unitor_cell(s), c)
        rhs = vcomp(
            horizontal_compose(identity_cell(identity_span(s.dom)), c),
            left_unitor_cell(c.dst),
        )
        assert lhs == rhs
        lhs = vcomp(right_unitor_cell(s), c)
        rhs = vcomp(
            horizontal_compose(c, identity_cell(identity_span(s.cod))),
            right_unitor_cell(c.dst),
        )
        assert lhs == rhs
        # horizontal composite of identity cells is the identity cell
        assert horizontal_compose(identity_cell(s), identity_cell(t)) == identity_cell(
            compose_span(s, t)
        )
