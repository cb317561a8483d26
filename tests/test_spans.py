"""Spans of finite sets: pullbacks, cells, adjunctions, base change."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import reduce
from random import Random

import pytest
from check_oracle import checked_pullback, pullback_lift, pullback_oracle, vertical_compose
from hypothesis import example, given, strategies as st

from smckit import spans
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
    compose_span,
    composite,
    fcompose,
    fibers,
    horizontal_compose,
    identity_cell,
    identity_fun,
    identity_span,
    invert_cell,
    left_unitor_cell,
    pullback,
    right_unitor_cell,
    span_pull,
    span_push,
    square_from_cospan,
    transpose_span,
    vcomp,
)
from smckit.laws import all_functions, random_chain, random_pith_cell, random_span, random_span_from


def pairs_of(pb) -> tuple:
    """The apex of a pullback as its pairs (p1(i), p2(i)), in apex order."""
    return tuple(zip(pb.p1.img, pb.p2.img))


def checked_pairs(pb, f, g) -> tuple:
    """The pairs of the pullback pb of f and g, after checking pb against the oracle."""
    pairs, expected = pairs_of(pb), checked_pullback(f, g)
    assert pairs == pullback_oracle(f, g)
    assert (pb.p1, pb.p2, pb.apex) == (expected.p1, expected.p2, expected.apex)
    return pairs


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


@pytest.mark.parametrize("size, shown", [(2.5, "2.5"), (True, "True"), ("2", "'2'")])
def test_finset_refuses_a_size_that_is_not_an_int(size, shown):
    # FinSet(2.5) used to build and then fail in __iter__
    with pytest.raises(ValueError, match=rf"^size must be an integer, found {shown}$"):
        FinSet(size)
    with pytest.raises(ValueError, match="^size must be a natural number$"):
        FinSet(-1)


@pytest.mark.parametrize(
    "img, shown", [((0.5, 1), "0.5"), ((0, False), "False"), ((1.0, 0), "1.0"), (("0", 1), "'0'")]
)
def test_finfun_refuses_a_value_that_is_not_an_int(img, shown):
    # such a value broke fcompose, and pullback dropped its point
    with pytest.raises(ValueError, match=rf"^value {shown} is not an integer$"):
        FinFun(FinSet(2), FinSet(2), img)
    with pytest.raises(ValueError, match="^value 2 outside target of size 2$"):
        FinFun(FinSet(2), FinSet(2), (0, 2))


def test_finfun_from_a_list_is_the_finfun_from_a_tuple():
    f = FinFun(FinSet(2), FinSet(2), [0, 1])
    assert f.img == (0, 1)
    assert f == FinFun(FinSet(2), FinSet(2), (0, 1))
    assert hash(f) == hash(FinFun(FinSet(2), FinSet(2), (0, 1)))


def test_pullback_examples():
    two, one = FinSet(2), FinSet(1)
    ident = identity_fun(two)
    pb = pullback(ident, ident)
    assert pairs_of(pb) == ((0, 0), (1, 1)) == pullback_oracle(ident, ident)
    const = FinFun(two, one, (0, 0))
    pb = pullback(const, const)
    assert pairs_of(pb) == ((0, 0), (0, 1), (1, 0), (1, 1)) == pullback_oracle(const, const)
    empty = FinFun(FinSet(0), one, ())
    assert pullback(empty, const).apex.size == 0
    with pytest.raises(TargetMismatch):
        pullback(const, ident)


@st.composite
def cospans(draw):
    """Two maps into one target of up to 6 points, domains of up to 30, some constant."""
    target = FinSet(draw(st.integers(0, 6)))
    maps = []
    for _ in range(2):
        n = draw(st.integers(0, 30)) if target.size else 0
        values = st.integers(0, max(target.size - 1, 0))
        img = draw(st.one_of(
            st.lists(values, min_size=n, max_size=n),
            values.map(lambda v: [v] * n),
        ))
        maps.append(FinFun(FinSet(n), target, tuple(img)))
    return maps


@given(cospans())
def test_pullback_matches_the_nested_loop_oracle(cospan):
    f, g = cospan
    checked_pairs(pullback(f, g), f, g)


ALL_EMPTY, EMPTY_PULLBACK, EMPTY_INNER_FOOT = (0, 2, 0), (2, 2, 20), (2, 3, 4)  # random_chain (size, length, seed)


@given(st.integers(0, 5), st.integers(2, 4), st.integers(0, 2**32))
@example(*ALL_EMPTY)
@example(*EMPTY_PULLBACK)
@example(*EMPTY_INNER_FOOT)
def test_chain_composites_project_as_the_oracle(size, length, seed):
    chain = random_chain(Random(seed), size, length)
    for s, t in zip(chain, chain[1:]):
        checked_pairs(composite(s, t)[0], s.right, t.left)


def oracle_legs(s: Span, t: Span) -> tuple:
    """The legs of s;t read off the nested-loop pullback's pairs."""
    pairs = pullback_oracle(s.right, t.left)
    return tuple(s.left(a) for a, _ in pairs), tuple(t.right(b) for _, b in pairs)


def checked_composite(s: Span, t: Span) -> Span:
    """``composite(s, t)``'s span, after checking its pullback against the oracle."""
    pb, span = composite(s, t)
    checked_pairs(pb, s.right, t.left)
    return span


@given(st.integers(0, 5), st.integers(2, 4), st.integers(0, 2**32))
@example(*ALL_EMPTY)
@example(*EMPTY_PULLBACK)
@example(*EMPTY_INNER_FOOT)
def test_compose_span_legs_match_the_nested_loop_oracle(size, length, seed):
    """The one-pass legs, outside a scope and inside one, where ``composite`` asks before or after."""
    chain = random_chain(Random(seed), size, length)
    for s, t in zip(chain, chain[1:]):
        bare = compose_span(s, t)
        assert (bare.left.img, bare.right.img) == oracle_legs(s, t)
        assert (bare.dom, bare.cod) == (s.dom, t.cod)
        assert checked_composite(s, t) == bare
        for calls in ((compose_span, checked_composite), (checked_composite, compose_span)):
            with spans.shared_composites():
                assert [call(s, t) for call in calls] == [bare, bare]


def factored_span(chain: list) -> Span:
    """``chain_rows(chain)`` written out: per point a of the first span, s1.left(a) paired with row s1.right(a)."""
    first, rows = chain[0], spans.chain_rows(chain)
    blocks = [rows.get(v, ()) for v in first.right.img]
    left = [x for x, row in zip(first.left.img, blocks) for _ in row]
    apex = FinSet(len(left))
    return Span(FinFun(apex, first.dom, left), FinFun(apex, chain[-1].cod, [w for row in blocks for w in row]))


def oracle_fold(chain: list) -> Span:
    """The left fold of the chain, each composite read off the nested-loop pullback's pairs."""
    out = chain[0]
    for t in chain[1:]:
        left, right = oracle_legs(out, t)
        apex = FinSet(len(left))
        out = Span(FinFun(apex, out.dom, left), FinFun(apex, t.cod, right))
    return out


@given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2**32))
@example(*ALL_EMPTY)
@example(*EMPTY_PULLBACK)
@example(*EMPTY_INNER_FOOT)
def test_chain_rows_are_the_left_fold(size, length, seed):
    """The factored composite, written out, is the fold of ``compose_span`` and the nested-loop oracle's."""
    chain = random_chain(Random(seed), size, length)
    composite = factored_span(chain)
    assert composite == reduce(compose_span, chain) == oracle_fold(chain)
    # a row is kept only for a value of the first right leg, and only when it is not empty
    rows = spans.chain_rows(chain)
    assert set(rows) <= set(chain[0].right.img) and all(rows.values())


def test_chain_rows_refuse_the_first_pair_that_does_not_compose():
    one, two, three = (identity_span(FinSet(n)) for n in (1, 2, 3))
    with pytest.raises(TargetMismatch, match=r"^spans not composable: FinSet\(size=2\) != FinSet\(size=3\)$"):
        spans.chain_rows([two, two, three, one])


def test_chain_rows_build_only_the_rows_the_first_span_reaches():
    """A suffix of 10^6 points over one foot value, which the first span misses, is never built.

    The first span hits value 0 of a two-point foot.  Over value 1, s2 has
    1000 points and s3 1000 more, so s2;s3 has 10^6 points there, a row of
    8 MB of list slots; over value 0 each has one point, so the composite
    has one.
    """
    def fun(dst: int, img: list) -> FinFun:
        return FinFun(FinSet(len(img)), FinSet(dst), img)

    n = 1000
    s1 = Span(fun(1, [0]), fun(2, [0]))
    s2 = Span(fun(2, [0] + [1] * n), fun(2, [0] + [1] * n))
    s3 = Span(fun(2, [0] + [1] * n), fun(1, [0] * (n + 1)))
    unpruned = 8 * n * n  # one pointer per point of s2;s3 over value 1
    tracemalloc.start()
    try:
        rows = spans.chain_rows([s1, s2, s3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == {0: [0]}
    assert peak < unpruned / 50


def test_chain_examples_hold_empty_apexes_and_feet():
    chain = random_chain(Random(ALL_EMPTY[2]), *ALL_EMPTY[:2])
    assert {s.apex.size for s in chain} | {s.dom.size for s in chain} | {chain[-1].cod.size} == {0}
    s, t = random_chain(Random(EMPTY_PULLBACK[2]), *EMPTY_PULLBACK[:2])
    assert s.apex.size and t.apex.size and not pullback(s.right, t.left).apex.size
    chain = random_chain(Random(EMPTY_INNER_FOOT[2]), *EMPTY_INNER_FOOT[:2])
    assert 0 in [s.cod.size for s in chain[:-1]] and any(s.apex.size for s in chain)


@given(cospans())
def test_fibers_match_the_scanning_oracle(cospan):
    f = cospan[0]
    assert fibers(f) == tuple(tuple(a for a in range(f.src.size) if f(a) == k) for k in range(f.dst.size))


@given(cospans(), st.data())
def test_comparison_is_the_pullback_lift(cospan, data):
    # a random commuting square: a corner of up to 8 points, each sent to some pair over the cospan
    bottom, right = cospan
    pairs = pullback_oracle(bottom, right)
    cone = data.draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []
    corner = FinSet(len(cone))
    left = FinFun(corner, bottom.src, tuple(a for a, _ in cone))
    top = FinFun(corner, right.src, tuple(b for _, b in cone))
    square = PullbackSquare(top, left, right, bottom)
    lift = pullback_lift(bottom, right, left, top)
    assert square.comparison() == lift


@given(cospans(), st.randoms(use_true_random=False))
def test_base_change_lift_is_the_pullback_lift(cospan, rng):
    # a random pullback square: the canonical one with its corner relabelled by a bijection
    bottom, right = cospan
    pb = pullback(bottom, right)
    order = list(range(pb.apex.size))
    rng.shuffle(order)
    left = FinFun(pb.apex, bottom.src, tuple(pb.p1.img[i] for i in order))
    top = FinFun(pb.apex, right.src, tuple(pb.p2.img[i] for i in order))
    square = PullbackSquare(top, left, right, bottom)
    assert base_change_1cell(square).map == pullback_lift(bottom, right, left, top)


def _cell_calls():
    """(name, thunk, composites it must build, pullbacks it must compute): each distinct composite once.

    The unitor cells build none: their composites with an identity span
    are written in closed form.  A bare composite computes no pullback.
    """
    rng = Random(25)
    s, t, u = random_chain(rng, 3, 3)
    c, d = random_pith_cell(rng, s), random_pith_cell(rng, t)
    f = FinFun(FinSet(3), FinSet(2), (0, 1, 0))
    square = square_from_cospan(f, FinFun(FinSet(2), FinSet(2), (1, 0)))
    return [
        ("compose_span", lambda: compose_span(s, t), 1, 0),
        ("horizontal_compose", lambda: horizontal_compose(c, d), 2, 2),
        ("assoc_cell", lambda: assoc_cell(s, t, u), 4, 0),
        ("left_unitor_cell", lambda: left_unitor_cell(s), 0, 0),
        ("right_unitor_cell", lambda: right_unitor_cell(s), 0, 0),
        ("adjunction_cells", lambda: adjunction_cells(f), 2, 2),
        ("base_change_1cell", lambda: base_change_1cell(square), 2, 2),
    ]


@pytest.mark.parametrize("index", range(7), ids=[name for name, *_ in _cell_calls()])
def test_each_composite_pullback_is_computed_once(index, monkeypatch):
    _, call, composites, pullbacks = _cell_calls()[index]
    built, computed = [], []
    build = spans._built

    def counting_builds(s, t, with_pullback):
        built.append((s, t))
        return build(s, t, with_pullback)

    def counting_pullbacks(f, g):
        computed.append((f, g))
        return checked_pullback(f, g)

    monkeypatch.setattr(spans, "_built", counting_builds)
    monkeypatch.setattr(spans, "pullback", counting_pullbacks)
    call()
    assert (len(built), len(computed)) == (composites, pullbacks)


def test_pullback_lift_uniqueness():
    two, one = FinSet(2), FinSet(1)
    const = FinFun(two, one, (0, 0))
    pb = pullback(const, const)
    assert pb.lift(pb.apex, pb.p1.img, pb.p2.img).img == tuple(range(4))
    diagonal = pullback(identity_fun(two), identity_fun(two))
    assert diagonal.lift(two, (0, 1), (0, 1)).img == (0, 1)
    with pytest.raises(LiftEquationFails, match="^cone does not commute over the shared target$"):
        diagonal.lift(two, (0, 1), (1, 1))


def test_compose_span_examples():
    two = FinSet(2)
    s = Span(identity_fun(two), FinFun(two, two, (1, 0)))
    with_id = compose_span(s, identity_span(two))
    assert with_id.apex.size == s.apex.size
    one = FinSet(1)
    t = Span(FinFun(two, one, (0, 0)), FinFun(two, one, (0, 0)))
    u = Span(FinFun(FinSet(3), one, (0, 0, 0)), FinFun(FinSet(3), one, (0, 0, 0)))
    assert compose_span(t, u).apex.size == 6
    pb, tu = composite(t, u)
    assert pb == pullback(t.right, u.left) and tu == compose_span(t, u)
    assert pb.lift(pb.apex, pb.p1.img, pb.p2.img).img == tuple(range(6))


@pytest.mark.parametrize("scoped", [False, True])
def test_composite_refuses_spans_that_do_not_compose_before_any_pullback(scoped, monkeypatch):
    calls = []
    monkeypatch.setattr(spans, "pullback", lambda f, g: calls.append((f, g)))
    s, t = identity_span(FinSet(2)), identity_span(FinSet(3))
    with spans.shared_composites() if scoped else nullcontext():
        with pytest.raises(TargetMismatch, match=r"^spans not composable: FinSet\(size=2\) != FinSet\(size=3\)$"):
            composite(s, t)
    assert calls == []


def _reversed_leg(s: Span, leg: str) -> Span:
    left, right = s.left, s.right
    if leg == "left":
        left = FinFun(s.apex, s.dom, left.img[::-1])
    else:
        right = FinFun(s.apex, s.cod, right.img[::-1])
    return Span(left, right)


def _one_point_less(s: Span) -> Span:
    apex = FinSet(s.apex.size - 1)
    return Span(FinFun(apex, s.dom, s.left.img[1:]), FinFun(apex, s.cod, s.right.img[1:]))


@pytest.mark.parametrize("wrong, message", [
    (lambda s: _reversed_leg(s, "left"), "cell map does not commute with left legs"),
    (lambda s: _reversed_leg(s, "right"), "cell map does not commute with right legs"),
    (_one_point_less, "cell map must go between the apices"),
], ids=["left-leg", "right-leg", "apex"])
def test_assoc_cell_refuses_nestings_that_disagree(wrong, message, monkeypatch):
    """With (s;t);u made wrong, assoc_cell raises what the checked ``SpanCell`` would, with the identity map."""
    one, two = FinSet(1), FinSet(2)
    s = Span(FinFun(two, two, (0, 1)), FinFun(two, one, (0, 0)))
    t = Span(FinFun(FinSet(3), one, (0, 0, 0)), FinFun(FinSet(3), two, (0, 1, 1)))
    u = identity_span(two)
    calls, compose = [], spans.compose_span

    def second_call_wrong(a, b):
        calls.append((a, b))
        out = compose(a, b)
        return wrong(out) if len(calls) == 2 else out  # the outer composite of (s;t);u

    monkeypatch.setattr(spans, "compose_span", second_call_wrong)
    src = wrong(compose(compose(s, t), u))
    dst = compose(s, compose(t, u))
    with pytest.raises(BoundaryMismatch, match=f"^{message}$"):
        SpanCell(src, dst, identity_fun(src.apex))
    with pytest.raises(BoundaryMismatch, match=f"^{message}$"):
        assoc_cell(s, t, u)
    assert calls[1] == (compose(s, t), u)


def test_structural_cells_are_pith_and_project():
    rng = Random(21)
    for _ in range(100):
        s, t, u = random_chain(rng, 3, 3)
        acell = assoc_cell(s, t, u)
        assert acell.is_pith()
        assert left_unitor_cell(s).is_pith() and right_unitor_cell(u).is_pith()
        # associator preserves the three projections
        st_, tu = compose_span(s, t), compose_span(t, u)
        outer = checked_pairs(composite(st_, u)[0], st_.right, u.left)
        inner = checked_pairs(composite(s, t)[0], s.right, t.left)
        dst_outer = checked_pairs(composite(s, tu)[0], s.right, tu.left)
        dst_inner = checked_pairs(composite(t, u)[0], t.right, u.left)
        amap = acell.map
        for idx, (x, cc) in enumerate(outer):
            aa, bb = inner[x]
            a2, y = dst_outer[amap(idx)]
            b2, c2 = dst_inner[y]
            assert (aa, bb, cc) == (a2, b2, c2)


def test_unitor_triangle():
    rng = Random(22)
    for _ in range(100):
        s, t = random_chain(rng, 3, 2)
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
        assert vcomp(identity_cell(s), c) == c
        assert vcomp(c, identity_cell(c.dst)) == c
        assert vcomp(c, invert_cell(c)) == identity_cell(s)
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


def _pith_chain(rng: Random, s: Span, length: int) -> list:
    """``length`` pith cells, each starting where the one before ends."""
    cells = [random_pith_cell(rng, s)]
    while len(cells) < length:
        cells.append(random_pith_cell(rng, cells[-1].dst))
    return cells


def test_vcomp_is_the_left_fold_of_binary_vertical_composition():
    rng = Random(25)
    for _ in range(200):
        s = random_span(rng, 3)
        cells = _pith_chain(rng, s, rng.randint(1, 5))
        assert vcomp(*cells) == reduce(vertical_compose, cells)
        assert vcomp(*cells, invert_cell(vcomp(*cells))) == identity_cell(s)


def test_vcomp_refuses_a_mismatched_middle_span_anywhere_in_a_chain():
    rng = Random(26)
    for length in range(2, 6):
        for position in range(1, length):
            while True:
                s = random_span(rng, 3)
                cells = _pith_chain(rng, s, length)
                stranger = identity_cell(random_span(rng, 3))
                if stranger.src != cells[position - 1].dst:
                    break
            cells[position] = stranger
            with pytest.raises(BoundaryMismatch, match="^vertical composition needs matching middle span$"):
                vcomp(*cells)
            with pytest.raises(BoundaryMismatch, match="^vertical composition needs matching middle span$"):
                reduce(vertical_compose, cells)


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
    diag, _ = adjunction_cells(FinFun(two, FinSet(1), (0, 0)))
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
    unit, counit = adjunction_cells(ident)
    assert unit.map.is_bijective() and counit.map.is_bijective()
    f = FinFun(FinSet(2), FinSet(1), (0, 0))
    unit, counit = adjunction_cells(f)
    assert unit.dst.apex.size == 4
    assert unit.map.img == (0, 3)
    assert not unit.map.is_bijective()


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
        s, t, u = random_chain(rng, 3, 3)
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


def _law_cells(rng: Random) -> list:
    """The cells the pentagon, triangle, interchange and adjunction checks paste, on a random chain."""
    s, t, u, v = random_chain(rng, rng.choice((2, 3, 4)), 4)
    c1, c2 = random_pith_cell(rng, s), random_pith_cell(rng, t)
    d1, d2 = random_pith_cell(rng, c1.dst), random_pith_cell(rng, c2.dst)
    f = s.left
    push, pull = span_push(f), span_pull(f)
    unit, counit = adjunction_cells(f)
    return [
        horizontal_compose(assoc_cell(s, t, u), identity_cell(v)),
        assoc_cell(s, compose_span(t, u), v),
        horizontal_compose(identity_cell(s), assoc_cell(t, u, v)),
        assoc_cell(compose_span(s, t), u, v),
        assoc_cell(s, t, compose_span(u, v)),
        assoc_cell(s, identity_span(s.cod), t),
        horizontal_compose(identity_cell(s), left_unitor_cell(t)),
        horizontal_compose(right_unitor_cell(s), identity_cell(t)),
        horizontal_compose(c1, c2),
        horizontal_compose(d1, d2),
        horizontal_compose(vcomp(c1, d1), vcomp(c2, d2)),
        unit,
        counit,
        horizontal_compose(unit, identity_cell(push)),
        horizontal_compose(identity_cell(push), counit),
        assoc_cell(push, pull, push),
        assoc_cell(pull, push, pull),
        invert_cell(left_unitor_cell(push)),
        invert_cell(right_unitor_cell(pull)),
    ]


def test_cells_built_in_a_shared_scope_equal_those_built_outside():
    for seed in range(40):
        outside = _law_cells(Random(seed))
        with spans.shared_composites():
            inside = _law_cells(Random(seed))
            again = _law_cells(Random(seed))
        assert inside == outside and again == outside


def test_a_shared_scope_keys_composites_by_value():
    rng = Random(3)
    s, t = random_chain(rng, 3, 2)
    copy = Span(FinFun(s.apex, s.dom, s.left.img), FinFun(s.apex, s.cod, s.right.img))
    assert compose_span(s, t) is not compose_span(s, t)
    with spans.shared_composites():
        first = compose_span(s, t)
        assert compose_span(copy, t) is first
        # the same images over larger feet are other spans
        wider = Span(FinFun(s.apex, FinSet(s.dom.size + 1), s.left.img), s.right)
        assert compose_span(wider, t).dom == FinSet(s.dom.size + 1)
        off = Span(FinFun(t.apex, FinSet(t.dom.size + 1), t.left.img), t.right)
        with pytest.raises(TargetMismatch):
            compose_span(s, off)
    assert spans._scope.table is None


def test_a_shared_scope_leaves_no_table():
    s, t = random_chain(Random(5), 3, 2)
    with spans.shared_composites():
        compose_span(s, t)
        assert spans._scope.table
        with ThreadPoolExecutor(1) as pool:  # another thread sees no scope
            assert pool.submit(lambda: spans._scope.table).result() is None
    assert spans._scope.table is None
    with pytest.raises(RuntimeError):
        with spans.shared_composites():
            compose_span(s, t)
            raise RuntimeError("a law check fails half way")
    assert spans._scope.table is None


def test_a_nested_shared_scope_reuses_the_outer_table():
    s, t, u = random_chain(Random(7), 3, 3)
    with spans.shared_composites():
        table = spans._scope.table
        s_t = compose_span(s, t)
        with spans.shared_composites():
            assert spans._scope.table is table
            assert compose_span(s, t) is s_t
            t_u = compose_span(t, u)
        assert spans._scope.table is table
        assert compose_span(t, u) is t_u
        with pytest.raises(RuntimeError):
            with spans.shared_composites():
                raise RuntimeError("an inner check fails")
        assert spans._scope.table is table
    assert spans._scope.table is None
