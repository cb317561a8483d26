"""The value checks against their earlier versions: same verdicts, same exceptions.

Operations whose output is valid by construction build it with a class's
unchecked ``_unchecked`` constructor; the tests at the end rebuild each such
value through the public constructors and run the law suites with every
``_unchecked`` swapped for the checked constructor.
"""

from collections import Counter
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import check_oracle
from smckit import kleisli, laws, perms, slist, spans
from smckit.kleisli import KCell, KHom, duality, invert_kcell, k_compose, k_hcomp, k_id, k_id_cell, k_vcomp
from smckit.laws import random_chain, random_pith_cell
from smckit.perms import Perm, reduced_word, word_to_perm
from smckit.slist import SList, SListHom, compose, hom_from_word, identity_hom, invert, unique_hom_linear, word_from_hom
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
    identity_cell,
    identity_fun,
    invert_cell,
    left_unitor_cell,
    pullback,
    right_unitor_cell,
    square_from_cospan,
    vcomp,
)
from smckit.unbias import (
    base_change_unique,
    f_comp_cell,
    lambda_u,
    lambda_v,
    pseudofunctor_on_cell,
    pseudofunctor_on_span,
    u_comp,
    u_id,
    v_comp,
    v_id,
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
    assert _outcome(lambda: pb.lift(f1.src, f1.img, f2.img)) == _outcome(lambda: check_oracle.pullback_lift(*data[1:]))


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
    src_pb = composite(c.src, d.src)[0]
    legs = fcompose(src_pb.p1, c.map), fcompose(src_pb.p2, d.map)
    assert horizontal_compose(c, d).map == lift(c.dst.right, d.dst.left, *legs)

    st_pb, tu = composite(s, t)[0], compose_span(t, u)
    outer = composite(compose_span(s, t), u)[0]
    to_tu = lift(t.right, u.left, fcompose(outer.p1, st_pb.p2), outer.p2)
    assert assoc_cell(s, t, u).map == lift(s.right, tu.left, fcompose(outer.p1, st_pb.p1), to_tu)

    for f in (s.left, t.right):
        diagonal = lift(f, f, identity_fun(f.src), identity_fun(f.src))
        assert adjunction_cells(f)[0].map == diagonal


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2**32))
@example(0, 0)
def test_assoc_cell_is_the_cell_of_the_two_lifts(size, seed):
    """The identity on the canonical apex equals the lift matching ((a,b),c) with (a,(b,c)); apexes may be empty."""
    s, t, u = random_chain(Random(seed), size, 3)
    assert assoc_cell(s, t, u) == check_oracle.assoc_cell(s, t, u)


@st.composite
def spans_with_small_feet(draw):
    """A random span with an apex of 0 to 6 points; feet of one point are common, empty ones need an empty apex."""
    apex = draw(st.integers(0, 6))
    lo = 0 if apex == 0 else 1
    dom, cod = draw(st.integers(lo, 4)), draw(st.integers(lo, 4))
    return Span(_fun(draw, apex, dom), _fun(draw, apex, cod))


@settings(max_examples=500, deadline=None)
@given(spans_with_small_feet())
@example(Span(identity_fun(FinSet(0)), identity_fun(FinSet(0))))
@example(Span(FinFun(FinSet(3), FinSet(1), (0, 0, 0)), FinFun(FinSet(3), FinSet(1), (0, 0, 0))))
def test_unitor_cells_are_the_pullback_projections(s):
    """Each closed-form unitor cell equals the projection out of the composite built by pullback."""
    for cell, oracle in ((left_unitor_cell, check_oracle.left_unitor_cell),
                         (right_unitor_cell, check_oracle.right_unitor_cell)):
        c, expected = cell(s), oracle(s)
        assert (c.src, c.dst, c.map) == (expected.src, expected.dst, expected.map)
        assert SpanCell(c.src, c.dst, c.map) == c


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


# ---------------------------------------------------------------------------
# values built unchecked


UNCHECKED = (Perm, SList, SListHom, FinFun, SpanCell, KHom, KCell)


def _rebuilt(value):
    """``value`` rebuilt through the public constructors, fields first, so that every check runs again."""
    if type(value) is tuple:
        return tuple(map(_rebuilt, value))
    if hasattr(value, "_fields"):
        return type(value)(*[_rebuilt(getattr(value, name)) for name in value._fields])
    return value


def _data(rng: Random, size: int) -> SimpleNamespace:
    """A chain s, t with pith cells c then c2 out of s and d out of t, the composite s;t over pb, and a cell e out of it."""
    s, t = random_chain(rng, size, 2)
    c = random_pith_cell(rng, s)
    pb, st_ = composite(s, t)
    return SimpleNamespace(s=s, t=t, c=c, c2=random_pith_cell(rng, c.dst), d=random_pith_cell(rng, t),
                           pb=pb, st=st_, e=random_pith_cell(rng, st_), p=Perm(c.map.img), h=pseudofunctor_on_cell(c))


def _linear_lists(x):
    """unique_hom_linear on each ascending fiber of s.right, read forward and reversed."""
    return tuple(unique_hom_linear(l, SList(l.labels[::-1])) for l in lambda_u(x.s.right).lists)


def _lift_through(x):
    """A bijection onto the apex of s;t, lifted back from its composites with the projections."""
    m = x.e.map
    lift = x.pb.lift(m.src, fcompose(m, x.pb.p1).img, fcompose(m, x.pb.p2).img)
    assert lift == m
    return lift


PATHS = {
    # spans.FinFun
    "pullback": lambda x: (x.pb.p1, x.pb.p2, pullback(x.t.left, x.s.right).p1),
    "fcompose": lambda x: (x.st.left, x.st.right, fcompose(x.c.map, x.c.dst.left)),
    "identity_fun": lambda x: identity_fun(x.s.apex),
    "FinFun.inverse": lambda x: x.c.map.inverse(),
    "Pullback.lift": _lift_through,
    # spans.SpanCell
    "identity_cell": lambda x: identity_cell(x.s),
    "vcomp": lambda x: vcomp(x.c, x.c2, invert_cell(x.c2)),
    "horizontal_compose": lambda x: horizontal_compose(x.c, x.d),
    "invert_cell": lambda x: invert_cell(x.c),
    "left_unitor_cell": lambda x: left_unitor_cell(x.s),
    "right_unitor_cell": lambda x: right_unitor_cell(x.t),
    "adjunction_cells": lambda x: adjunction_cells(x.s.left) + adjunction_cells(x.t.right),
    # kleisli.KHom
    "k_compose": lambda x: k_compose(pseudofunctor_on_span(x.t), pseudofunctor_on_span(x.s)),
    "k_id": lambda x: k_id(x.s.apex),
    "duality": lambda x: duality(pseudofunctor_on_span(x.st)),
    "lambda_u": lambda x: lambda_u(x.st.right),
    "lambda_v": lambda x: lambda_v(x.st.left),
    # kleisli.KCell
    "k_id_cell": lambda x: k_id_cell(pseudofunctor_on_span(x.s)),
    "k_vcomp": lambda x: k_vcomp(x.h, pseudofunctor_on_cell(x.c2)),
    "invert_kcell": lambda x: invert_kcell(x.h),
    "k_hcomp": lambda x: k_hcomp(pseudofunctor_on_cell(x.d), x.h),
    "_linear_cell": lambda x: (
        u_comp(x.pb.p1, x.s.left), v_comp(x.pb.p1, x.s.left), u_id(x.t.apex), v_id(x.t.apex),
        base_change_unique(square_from_cospan(x.s.right, x.t.left)), x.h, f_comp_cell(x.s, x.t),
    ),
    # slist.SListHom
    "compose": lambda x: tuple(compose(h, invert(h)) for h in x.h.homs),
    "invert": lambda x: tuple(map(invert, x.h.homs)),
    "identity_hom": lambda x: tuple(map(identity_hom, pseudofunctor_on_span(x.st).lists)),
    "unique_hom_linear": _linear_lists,
    "hom_from_word": lambda x: tuple(hom_from_word(word_from_hom(h)) for h in x.h.homs),
    # perms.Perm
    "Perm.__mul__": lambda x: (x.p * x.p, x.p * x.p.inverse()),
    "Perm.inverse": lambda x: x.p.inverse(),
    "Perm.identity": lambda x: Perm.identity(x.p.n),
    "word_to_perm": lambda x: word_to_perm(reduced_word(x.p), x.p.n),
}


@pytest.mark.parametrize("path", PATHS)
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32))
@example(0, 0)  # every apex empty
def test_unchecked_values_pass_the_public_constructors(path, size, seed):
    value = PATHS[path](_data(Random(seed), size))
    assert _rebuilt(value) == value


def test_the_swapped_classes_are_all_with_an_unchecked_constructor():
    found = {cls for module in (perms, slist, spans, kleisli) for cls in vars(module).values()
             if isinstance(cls, type) and "_unchecked" in vars(cls)}
    assert found == set(UNCHECKED)


def test_lift_refuses_an_image_of_another_length_than_its_source():
    one = FinFun(FinSet(2), FinSet(1), (0, 0))
    with pytest.raises(ValueError, match="image sequence has length 2, expected 3"):
        pullback(one, one).lift(FinSet(3), (0, 1), (0, 1))


SWAPPED_SUITES = ("span", "pbc", "kleisli")


def test_suites_report_the_same_with_every_value_checked(monkeypatch):
    """Seed-0 span, pbc and kleisli suites: with each ``_unchecked`` the checked constructor, nothing raises."""
    unchecked = [laws.run_suite(name, seed=0) for name in SWAPPED_SUITES]
    calls = Counter()
    for cls in UNCHECKED:
        def checked(*fields, cls=cls):
            calls[cls.__name__] += 1
            return cls(*fields)

        monkeypatch.setattr(cls, "_unchecked", staticmethod(checked))
    checked_reports = [laws.run_suite(name, seed=0) for name in SWAPPED_SUITES]
    assert checked_reports == unchecked
    assert all(r.ok for reports in unchecked for r in reports)
    assert set(calls) == {cls.__name__ for cls in UNCHECKED}
