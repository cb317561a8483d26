"""The value checks against their earlier versions: same verdicts, same exceptions."""

from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

import check_oracle
from smckit.laws import random_chain, random_pith_cell
from smckit.perms import Perm
from smckit.slist import SList, SListHom, unique_hom_linear
from smckit.spans import (
    FinFun,
    FinSet,
    PullbackSquare,
    Span,
    SpanCell,
    adjunction_cells,
    assoc_cell,
    compose_span,
    composite,
    fcompose,
    horizontal_compose,
    identity_fun,
    pullback,
    square_from_cospan,
)

LABELS = st.one_of(st.sampled_from("abc"), st.integers(0, 3))
LISTS = st.lists(st.sampled_from("abcd"), max_size=6).map(lambda xs: SList(tuple(xs)))
PERMS = st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))).map(lambda img: Perm(tuple(img)))


def _outcome(call):
    """What a call did: its value, or the type and text of what it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001  the comparison is of any exception
        return type(exc), str(exc)


@st.composite
def hom_data(draw):
    """src, dst and phi: mostly a valid morphism with some entries disturbed."""
    phi = draw(PERMS)
    src = draw(st.lists(LABELS, min_size=phi.n, max_size=phi.n).map(tuple))
    dst = [src[j] for j in phi.img]
    if phi.n:
        for i in draw(st.lists(st.integers(0, phi.n - 1), max_size=2)):
            dst[i] = draw(LABELS)
    longer = draw(st.sampled_from(("", "", "", "", "src", "dst", "both")))
    if longer in ("dst", "both"):
        dst.append(draw(LABELS))
    if longer in ("src", "both"):
        src += (draw(LABELS),)
    return SList(src), SList(tuple(dst)), phi


@settings(max_examples=500, deadline=None)
@given(hom_data())
def test_slist_hom_checks_like_the_loop(data):
    src, dst, phi = data
    expected = _outcome(lambda: check_oracle.check_slist_hom(src, dst, phi))
    found = _outcome(lambda: SListHom(src, dst, phi))
    assert found[0] == expected[0]
    if expected[0] != "ok":
        assert found == expected


@settings(max_examples=300, deadline=None)
@given(PERMS, st.data())
def test_perm_product_matches_the_loop(p, data):
    same_size = st.permutations(range(p.n)).map(lambda img: Perm(tuple(img)))
    q = data.draw(st.one_of(same_size, PERMS))
    assert _outcome(lambda: p * q) == _outcome(lambda: check_oracle.perm_mul(p, q))


@settings(max_examples=500, deadline=None)
@given(LISTS, LISTS, st.booleans())
@example(SList((1, "a")), SList(("a", 1)), False)  # labels that do not sort together
def test_unique_hom_linear_matches_the_multiset_check(src, dst, shuffle):
    if shuffle:
        dst = SList(tuple(reversed(src.labels)))
    found = _outcome(lambda: unique_hom_linear(src, dst))
    assert found == _outcome(lambda: check_oracle.unique_hom_linear(src, dst))


SIZES = st.integers(1, 3)


def _fun(draw, src: int, dst: int) -> FinFun:
    """A random map between sets of the given sizes (``dst`` is positive or ``src`` is 0)."""
    img = draw(st.lists(st.integers(0, max(dst - 1, 0)), min_size=src, max_size=src))
    return FinFun(FinSet(src), FinSet(dst), tuple(img))


def _agree(library, oracle):
    """The library accepts where the oracle does, and raises as it does (type and text) where not."""
    found, expected = _outcome(library), _outcome(oracle)
    assert found[0] == expected[0]
    if expected[0] != "ok":
        assert found == expected


@st.composite
def cell_data(draw):
    """src, dst and map: mostly a commuting cell, sometimes with a leg, the map or a foot changed."""
    a, b, j, k = draw(st.integers(0, 3)), draw(SIZES), draw(SIZES), draw(SIZES)
    dst = Span(_fun(draw, b, j), _fun(draw, b, k))
    m = _fun(draw, a, b)
    left, right = fcompose(m, dst.left), fcompose(m, dst.right)
    change = draw(st.sampled_from(("", "", "left", "right", "map", "left foot", "right foot", "apex")))
    if change == "left":
        left = _fun(draw, a, j)
    elif change == "right":
        right = _fun(draw, a, k)
    elif change == "map":
        m = _fun(draw, a, b)
    elif change == "left foot":
        left = FinFun(left.src, FinSet(j + 1), left.img)
    elif change == "right foot":
        right = FinFun(right.src, FinSet(k + 1), right.img)
    elif change == "apex":
        m = FinFun(m.src, FinSet(b + 1), m.img)
    return Span(left, right), dst, m


@settings(max_examples=500, deadline=None)
@given(cell_data())
def test_span_cell_checks_like_fcompose(data):
    src, dst, m = data
    _agree(lambda: SpanCell(src, dst, m), lambda: check_oracle.check_span_cell(src, dst, m))


@st.composite
def lift_data(draw):
    """A cospan f, g, its pullback (empty or not) and a cone f1, f2 over it: through the apex, or random."""
    x, y, w, c = draw(SIZES), draw(SIZES), draw(SIZES), draw(st.integers(0, 3))
    f, g = _fun(draw, x, w), _fun(draw, y, w)
    pb = pullback(f, g)
    if pb.apex.size and draw(st.booleans()):
        through = _fun(draw, c, pb.apex.size)
        f1, f2 = fcompose(through, pb.p1), fcompose(through, pb.p2)
    else:
        f1, f2 = _fun(draw, c, x), _fun(draw, c, y)
    return pb, f, g, f1, f2


@settings(max_examples=500, deadline=None)
@given(lift_data())
def test_pullback_lift_checks_like_fcompose(data):
    pb, f1, f2 = data[0], data[3], data[4]
    assert _outcome(lambda: pb.lift(f1.src, f1.img, f2.img)) == _outcome(lambda: check_oracle.pullback_lift(*data))


def test_lift_refuses_sequences_of_unequal_length():
    one = FinFun(FinSet(2), FinSet(1), (0, 0))
    pb = pullback(one, one)
    with pytest.raises(ValueError, match="zip"):
        pb.lift(FinSet(2), (0, 1), (0,))
    with pytest.raises(ValueError, match="zip"):
        pb.lift(FinSet(1), (0,), (0, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32))
def test_cell_lifts_match_the_oracle_on_cone_legs(size, seed):
    """Each map into an apex equals the checked lift of its ``fcompose`` cone legs; apexes may be empty."""
    rng = Random(seed)
    s, t, u = random_chain(rng, size, 3)
    lift = check_oracle.pullback_lift

    c, d = random_pith_cell(rng, s), random_pith_cell(rng, t)
    (src_pb, _), (dst_pb, _) = composite(c.src, d.src), composite(c.dst, d.dst)
    legs = fcompose(src_pb.p1, c.map), fcompose(src_pb.p2, d.map)
    assert horizontal_compose(c, d).map == lift(dst_pb, c.dst.right, d.dst.left, *legs)

    (st_pb, _), (tu_pb, tu) = composite(s, t), composite(t, u)
    outer, dst_pb = composite(compose_span(s, t), u)[0], composite(s, tu)[0]
    to_tu = lift(tu_pb, t.right, u.left, fcompose(outer.p1, st_pb.p2), outer.p2)
    assert assoc_cell(s, t, u).map == lift(dst_pb, s.right, tu.left, fcompose(outer.p1, st_pb.p1), to_tu)

    for f in (s.left, t.right):
        diagonal = lift(pullback(f, f), f, f, identity_fun(f.src), identity_fun(f.src))
        assert adjunction_cells(f).unit.map == diagonal


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32))
@example(0, 0)
def test_assoc_cell_is_the_cell_of_the_two_lifts(size, seed):
    """The identity on the canonical apex equals the lift matching ((a,b),c) with (a,(b,c)); apexes may be empty."""
    s, t, u = random_chain(Random(seed), size, 3)
    assert assoc_cell(s, t, u) == check_oracle.assoc_cell(s, t, u)


@st.composite
def square_data(draw):
    """top, left, right, bottom: mostly the canonical square with an edge or a corner changed."""
    z, y, w = draw(SIZES), draw(SIZES), draw(SIZES)
    bottom, right = _fun(draw, z, w), _fun(draw, y, w)
    square = square_from_cospan(bottom, right)
    top, left = square.top, square.left
    x = top.src.size
    change = draw(st.sampled_from(("", "", "top", "left", "corner", "source", "edge", "target")))
    if change == "top":
        top = _fun(draw, x, y)
    elif change == "left":
        left = _fun(draw, x, z)
    elif change == "corner":
        corner = draw(st.integers(0, 3))
        top, left = _fun(draw, corner, y), _fun(draw, corner, z)
    elif change == "source":
        left = _fun(draw, x + 1, z)
    elif change == "edge":
        right = _fun(draw, y + 1, w)
    elif change == "target":
        bottom = _fun(draw, z, w + 1)
    return top, left, right, bottom


@settings(max_examples=500, deadline=None)
@given(square_data())
def test_pullback_square_checks_like_fcompose(data):
    _agree(lambda: PullbackSquare(*data), lambda: check_oracle.check_pullback_square(*data))
