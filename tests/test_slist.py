"""Symmetric lists: generator words, index bijections, linearity, multisets."""

import itertools
from collections import Counter
from random import Random

import pytest
from hypothesis import given, strategies as st

from smckit.errors import (
    NotLinear,
    NotPermutationEquivalent,
    PositionOutOfRange,
    SourceTargetMismatch,
)
from smckit.perms import Perm
from smckit.slist import (
    GenWord,
    SList,
    SListHom,
    compose,
    hom_equal,
    hom_from_word,
    identity_hom,
    invert,
    is_linear,
    underlying_multiset,
    unique_hom_linear,
    word_from_hom,
)


def apply_word_oracle(labels, positions):
    # independent of hom_from_word: swap the labels step by step
    out = list(labels)
    for p in positions:
        out[p], out[p + 1] = out[p + 1], out[p]
    return tuple(out)


def brute_force_word(f, max_len):
    n = len(f.src)
    for length in range(max_len + 1):
        for word in itertools.product(range(n - 1), repeat=length):
            g = hom_from_word(GenWord(f.src, word))
            if g.dst == f.dst and g.phi == f.phi:
                return word
    return None


abc = SList(("a", "b", "c"))


def test_hom_from_word_examples():
    h = hom_from_word(GenWord(abc, (0,)))
    assert h.dst == SList(("b", "a", "c")) and h.phi.img == (1, 0, 2)
    assert hom_from_word(GenWord(abc, ())) == identity_hom(abc)
    assert apply_word_oracle(("a", "b", "c"), (0, 1)) == ("b", "c", "a")
    h = hom_from_word(GenWord(abc, (0, 1)))
    assert h.dst == SList(("b", "c", "a")) and h.phi.img == (1, 2, 0)


def test_genword_position_out_of_range():
    with pytest.raises(PositionOutOfRange):
        GenWord(abc, (2,))


def test_word_from_hom_examples():
    ab = SList(("a", "b"))
    assert word_from_hom(identity_hom(ab)).positions == ()
    f = SListHom(abc, SList(("b", "a", "c")), Perm((1, 0, 2)))
    assert word_from_hom(f).positions == (0,)
    g = SListHom(abc, SList(("c", "b", "a")), Perm((2, 1, 0)))
    w = word_from_hom(g)
    assert len(w.positions) == 3
    assert brute_force_word(g, 3) is not None
    assert hom_from_word(w) == g


def test_compose_examples():
    f = hom_from_word(GenWord(abc, (0,)))
    assert compose(identity_hom(abc), f) == f
    ab = SList(("a", "b"))
    sw = hom_from_word(GenWord(ab, (0,)))
    back = hom_from_word(GenWord(SList(("b", "a")), (0,)))
    assert compose(sw, back) == identity_hom(ab)
    g = hom_from_word(GenWord(SList(("b", "a", "c")), (1,)))
    assert compose(f, g) == hom_from_word(GenWord(abc, (0, 1)))


def test_compose_mismatch():
    f = hom_from_word(GenWord(abc, (0,)))
    with pytest.raises(SourceTargetMismatch):
        compose(f, f)


def test_invert():
    assert invert(identity_hom(abc)) == identity_hom(abc)
    f = hom_from_word(GenWord(abc, (0, 1)))
    assert f.phi.img == (1, 2, 0)
    assert invert(f).phi.img == (2, 0, 1)
    assert invert(invert(f)) == f
    assert compose(f, invert(f)) == identity_hom(abc)


def test_hom_equal_examples():
    # hexagon relation: both orders of the overlapping swaps agree
    lhs = hom_from_word(GenWord(abc, (0, 1, 0)))
    rhs = hom_from_word(GenWord(abc, (1, 0, 1)))
    assert lhs.phi.img == (2, 1, 0) and hom_equal(lhs, rhs)
    one = hom_from_word(GenWord(SList(("a", "b")), (0,)))
    with pytest.raises(SourceTargetMismatch):
        hom_equal(one, identity_hom(SList(("a", "b"))))
    four = SList(("a", "b", "c", "d"))
    assert hom_equal(
        hom_from_word(GenWord(four, (0, 2))), hom_from_word(GenWord(four, (2, 0)))
    )


def test_label_transport_checked():
    with pytest.raises(SourceTargetMismatch):
        SListHom(SList(("a", "b")), SList(("a", "b")), Perm((1, 0)))


def test_unique_hom_linear_examples():
    f = unique_hom_linear(SList(("a", "b")), SList(("b", "a")))
    assert f.phi.img == (1, 0)
    with pytest.raises(NotLinear):
        unique_hom_linear(SList(("a", "a")), SList(("a", "a")))
    with pytest.raises(NotPermutationEquivalent):
        unique_hom_linear(SList(("a", "b")), SList(("a", "c")))


def test_multiset_examples():
    m = underlying_multiset(SList(("a", "b", "a")))
    assert m == Counter({"a": 2, "b": 1}) and not is_linear(SList(("a", "b", "a")))
    assert underlying_multiset(SList(())) == Counter()
    assert is_linear(SList(()))
    assert is_linear(abc)


def test_linearity_transported_along_homs():
    rng = Random(0)
    for _ in range(200):
        labels = tuple(rng.choice("aabbc") for _ in range(rng.randint(0, 6)))
        start = SList(labels)
        positions = tuple(
            rng.randrange(len(labels) - 1) for _ in range(rng.randint(0, 6))
        ) if len(labels) > 1 else ()
        f = hom_from_word(GenWord(start, positions))
        assert is_linear(f.src) == is_linear(f.dst)
        assert underlying_multiset(f.src) == underlying_multiset(f.dst)


labels_st = st.lists(st.sampled_from("abc"), min_size=0, max_size=8).map(tuple)


def positions_st(n):
    return st.lists(st.integers(0, n - 2), max_size=10).map(tuple) if n > 1 else st.just(())


@given(labels_st, st.data())
def test_round_trip_word_hom(labels, data):
    positions = data.draw(positions_st(len(labels)))
    f = hom_from_word(GenWord(SList(labels), positions))
    assert hom_from_word(word_from_hom(f)) == f


@given(labels_st, st.data())
def test_hom_from_word_target_is_the_swaps_left_to_right(labels, data):
    positions = data.draw(positions_st(len(labels)))
    assert hom_from_word(GenWord(SList(labels), positions)).dst.labels == apply_word_oracle(labels, positions)


def test_hom_set_sizes():
    # linear lists: exactly one morphism between them
    src, dst = SList(("a", "b", "c")), SList(("c", "a", "b"))
    h = unique_hom_linear(src, dst)
    found = {
        g.phi.img
        for g in _all_homs_by_words(src, 4)
        if g.dst == dst
    }
    assert found == {h.phi.img}
    # repeated label: word enumeration reaches exactly n! bijections
    for n in range(1, 5):
        rep = SList(("a",) * n)
        found = {g.phi.img for g in _all_homs_by_words(rep, n * (n - 1) // 2)}
        assert len(found) == _factorial(n)


def _all_homs_by_words(start, max_len):
    n = len(start)
    for length in range(max_len + 1):
        for word in itertools.product(range(n - 1), repeat=length):
            yield hom_from_word(GenWord(start, word))


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_rendering():
    assert str(abc) == "[a,b,c]"
    assert str(hom_from_word(GenWord(abc, (0,)))) == "phi=[1,0,2]"


def test_presentation_relations():
    rng = Random(9)
    for _ in range(200):
        labels = tuple(rng.choice("abc") for _ in range(rng.randint(2, 6)))
        start = SList(labels)
        n = len(labels)
        # swap squared is the identity
        p = rng.randrange(n - 1)
        assert hom_equal(hom_from_word(GenWord(start, (p, p))), identity_hom(start))
        # overlapping swaps satisfy the hexagon relation
        if n >= 3:
            p = rng.randrange(n - 2)
            assert hom_equal(
                hom_from_word(GenWord(start, (p, p + 1, p))),
                hom_from_word(GenWord(start, (p + 1, p, p + 1))),
            )
        # disjoint swaps commute
        if n >= 4:
            p = rng.randrange(n - 3)
            q = rng.randrange(p + 2, n - 1)
            assert hom_equal(
                hom_from_word(GenWord(start, (p, q))),
                hom_from_word(GenWord(start, (q, p))),
            )
        # prefixing a head is functorial: shifted words compose like words
        head_start = SList(("h",) + labels)
        u = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 4)))
        shifted = lambda w: tuple(x + 1 for x in w)
        whole = hom_from_word(GenWord(head_start, shifted(u + v)))
        first = hom_from_word(GenWord(head_start, shifted(u)))
        second = hom_from_word(GenWord(first.dst, shifted(v)))
        assert whole == compose(first, second)


def test_slist_from_a_list_is_the_slist_from_a_tuple():
    l = SList([0, 1])
    assert l.labels == (0, 1)
    assert l == SList((0, 1))
    assert hash(l) == hash(SList((0, 1)))
