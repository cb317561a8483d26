"""Kleisli composition of list families: extension, whiskering and duality."""

from collections import Counter
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from check_oracle import k_hcomp_two_step
from smckit.errors import BoundaryMismatch, LabelOutOfRange
from smckit.kleisli import (
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
    theta_apply,
)
from smckit.laws import random_khom
from smckit.perms import Perm
from smckit.slist import (
    SList,
    SListHom,
    compose as hom_compose,
    hom_from_word,
    GenWord,
    identity_hom,
    underlying_multiset,
    unique_hom_linear,
)
from smckit.spans import FinSet
from smckit.monoidal import tensor_obj


g_example = KHom(FinSet(2), FinSet(3), (SList((0, 1)), SList((2,))))


def test_theta_apply_examples():
    assert theta_apply(g_example, SList((0, 1))) == SList((0, 1, 2))
    assert theta_apply(g_example, SList(())) == SList(())
    with pytest.raises(LabelOutOfRange):
        theta_apply(g_example, SList((5,)))


def test_bool_labels_are_refused():
    """``True == 1``, but a bool is no label: a family or a list holding one is refused."""
    with pytest.raises(LabelOutOfRange, match=r"^label True outside target of size 2$"):
        KHom(FinSet(1), FinSet(2), (SList((True, 0)),))
    with pytest.raises(LabelOutOfRange, match=r"^label False outside target of size 3$"):
        KHom(FinSet(2), FinSet(3), (SList((0,)), SList((False,))))
    with pytest.raises(LabelOutOfRange, match=r"^label True outside source of size 2$"):
        theta_apply(g_example, SList((0, True)))
    assert KHom(FinSet(1), FinSet(2), (SList((1, 0)),)).lists == (SList((1, 0)),)
    # nor is a float or a string
    with pytest.raises(LabelOutOfRange, match=r"^label 1\.0 outside target of size 2$"):
        KHom(FinSet(1), FinSet(2), (SList((0, 1.0)),))
    with pytest.raises(LabelOutOfRange, match=r"^label '0' outside target of size 2$"):
        KHom(FinSet(1), FinSet(2), (SList(("0",)),))
    with pytest.raises(LabelOutOfRange, match=r"^label 0\.0 outside source of size 2$"):
        theta_apply(g_example, SList((0.0,)))
    with pytest.raises(LabelOutOfRange, match=r"^label '1' outside source of size 2$"):
        theta_apply(g_example, SList((0, "1")))


def theta_on(g: KHom, f: SListHom) -> SListHom:
    """The extension of g along f: k_hcomp of the one-component cell f with the identity on g."""
    cell = KCell(KHom(FinSet(1), g.src, (f.src,)), KHom(FinSet(1), g.src, (f.dst,)), (f,))
    return k_hcomp(cell, k_id_cell(g)).homs[0]


def test_theta_apply_hom_examples():
    sw = SListHom(SList((0, 1)), SList((1, 0)), Perm((1, 0)))
    h = theta_on(g_example, sw)
    assert h.src == SList((0, 1, 2)) and h.dst == SList((2, 0, 1))
    assert h.phi.img == (2, 0, 1)
    ident = identity_hom(SList(()))
    assert theta_on(g_example, ident) == identity_hom(SList(()))


def test_theta_functorial():
    rng = Random(31)
    for _ in range(100):
        j = rng.randint(1, 3)
        g = random_khom(rng, rng.randint(1, 3), j, 3)
        start = SList(tuple(rng.randrange(g.src.size) for _ in range(rng.randint(0, 4))))
        n = len(start)
        w1 = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 4))) if n > 1 else ()
        w2 = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 4))) if n > 1 else ()
        f1 = hom_from_word(GenWord(start, w1))
        f2 = hom_from_word(GenWord(f1.dst, w2))
        assert theta_on(g, hom_compose(f1, f2)) == hom_compose(theta_on(g, f1), theta_on(g, f2))
        assert theta_on(g, identity_hom(start)) == identity_hom(theta_apply(g, start))
        # extension preserves the tensor
        l2 = SList(tuple(rng.randrange(g.src.size) for _ in range(rng.randint(0, 4))))
        assert theta_apply(g, tensor_obj(start, l2)) == tensor_obj(
            theta_apply(g, start), theta_apply(g, l2)
        )


def _random_kcell(rng, x: KHom) -> KCell:
    homs = []
    lists = []
    for l in x.lists:
        n = len(l)
        img = list(range(n))
        rng.shuffle(img)
        phi = Perm(tuple(img))
        dst = SList(tuple(l.labels[phi(i)] for i in range(n)))
        homs.append(SListHom(l, dst, phi))
        lists.append(dst)
    return KCell(x, KHom(x.src, x.dst, tuple(lists)), tuple(homs))


def test_k_compose_examples():
    f = KHom(FinSet(1), FinSet(2), (SList((0, 0)),))
    g = KHom(FinSet(2), FinSet(1), (SList((0,)), SList(())))
    assert k_compose(f, g).lists == (SList((0, 0)),)
    assert k_compose(f, k_id(f.dst)) == f
    assert k_compose(k_id(f.src), f) == f
    empty = KHom(FinSet(0), FinSet(2), ())
    assert k_compose(empty, g_example_23()) == KHom(FinSet(0), FinSet(3), ())
    with pytest.raises(BoundaryMismatch):
        k_compose(f, f)


@example(seed=0, i=0, j=0, k=0, max_len=0)
@example(seed=0, i=2, j=0, k=3, max_len=3)
@example(seed=0, i=2, j=3, k=0, max_len=0)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_k_compose_is_the_checked_extension(seed, i, j, k, max_len):
    # k_compose concatenates blocks without theta_apply's label check; the checked path must agree
    rng = Random(seed)
    f = random_khom(rng, i, j, max_len)
    g = random_khom(rng, j, k, max_len)
    assert k_compose(f, g) == KHom(f.src, g.dst, tuple(theta_apply(g, l) for l in f.lists))


def g_example_23():
    return KHom(FinSet(2), FinSet(3), (SList((0,)), SList((1, 2))))


@example(seed=0, i=0, j=2, k=2, max_len=4)  # an empty family
@example(seed=0, i=3, j=3, k=3, max_len=0)  # every list empty
@example(seed=0, i=2, j=3, k=0, max_len=4)  # a target of size 0
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_k_hcomp_is_the_two_step_composite(seed, i, j, k, max_len):
    # k_hcomp writes one block permutation per component; whiskering then moving blocks must agree
    rng = Random(seed)
    phi = _random_kcell(rng, random_khom(rng, i, j, max_len))
    psi = _random_kcell(rng, random_khom(rng, j, k, max_len))
    assert k_hcomp(phi, psi) == k_hcomp_two_step(phi, psi)


def test_strictness_cells():
    rng = Random(32)
    for _ in range(50):
        f = random_khom(rng, rng.randint(0, 3), rng.randint(1, 3), 3)
        g = random_khom(rng, f.dst.size, rng.randint(1, 3), 3)
        h = random_khom(rng, g.dst.size, rng.randint(1, 3), 3)
        # composition is strictly associative and unital: the associator and unitor cells are identities
        assert k_compose(k_compose(f, g), h) == k_compose(f, k_compose(g, h))
        assert k_compose(k_id(f.src), f) == f == k_compose(f, k_id(f.dst))


def test_k_hcomp_examples():
    f = KHom(FinSet(1), FinSet(2), (SList((0, 1)),))
    g = g_example
    assert k_hcomp(k_id_cell(f), k_id_cell(g)) == k_id_cell(k_compose(f, g))
    # a single swap inside one block moves only that block
    sw = SListHom(SList((0, 1)), SList((1, 0)), Perm((1, 0)))
    psi = KCell(g, KHom(g.src, g.dst, (SList((1, 0)), SList((2,)))), (sw, identity_hom(SList((2,)))))
    w = k_hcomp(k_id_cell(KHom(FinSet(1), g.src, (SList((0, 1)),))), psi).homs[0]
    assert w.phi.img == (1, 0, 2)


def test_k_hcomp_interchange():
    rng = Random(33)
    for _ in range(100):
        f = random_khom(rng, rng.randint(0, 3), rng.randint(1, 3), 3)
        g = random_khom(rng, f.dst.size, rng.randint(1, 3), 3)
        c1 = _random_kcell(rng, f)
        c2 = _random_kcell(rng, c1.dst)
        d1 = _random_kcell(rng, g)
        d2 = _random_kcell(rng, d1.dst)
        lhs = k_vcomp(k_hcomp(c1, d1), k_hcomp(c2, d2))
        rhs = k_hcomp(k_vcomp(c1, c2), k_vcomp(d1, d2))
        assert lhs == rhs
        assert k_vcomp(c1, invert_kcell(c1)) == k_id_cell(f)


def test_k_hcomp_strictly_associative_and_unital():
    rng = Random(38)
    for _ in range(100):
        f = random_khom(rng, rng.randint(1, 3), rng.randint(1, 3), 3)
        g = random_khom(rng, f.dst.size, rng.randint(1, 3), 3)
        h = random_khom(rng, g.dst.size, rng.randint(1, 3), 3)
        c1, c2, c3 = _random_kcell(rng, f), _random_kcell(rng, g), _random_kcell(rng, h)
        assert k_hcomp(k_hcomp(c1, c2), c3) == k_hcomp(c1, k_hcomp(c2, c3))
        assert k_hcomp(k_id_cell(k_id(f.src)), c1) == c1
        assert k_hcomp(c1, k_id_cell(k_id(f.dst))) == c1


def test_composite_multiset_examples():
    f = KHom(FinSet(1), FinSet(2), (SList((0, 0)),))
    g = KHom(FinSet(2), FinSet(1), (SList((0,)), SList(())))
    assert composite_multiset(f, g, 0) == Counter({0: 2})
    f_empty = KHom(FinSet(1), FinSet(2), (SList(()),))
    assert composite_multiset(f_empty, g, 0) == Counter()
    f2 = KHom(FinSet(1), FinSet(2), (SList((0, 1)),))
    g2 = KHom(FinSet(2), FinSet(1), (SList((0,)), SList((0,))))
    assert composite_multiset(f2, g2, 0) == Counter({0: 2})


def test_composite_multiset_matches_composition():
    rng = Random(34)
    for _ in range(300):
        i, j, k = (rng.randint(0, 4) for _ in range(3))
        f = random_khom(rng, i, j, 5)
        g = random_khom(rng, j, k, 5)
        comp = k_compose(f, g)
        for idx in range(i):
            assert composite_multiset(f, g, idx) == Counter(comp.lists[idx].labels)


def khoms(i, j, max_len=4):
    lists = st.lists(st.integers(0, j - 1), max_size=max_len).map(tuple).map(SList)
    return st.tuples(*([lists] * i)).map(lambda ls: KHom(FinSet(i), FinSet(j), ls))


@given(khoms(2, 3), khoms(3, 2))
def test_composite_multiset_property(f, g):
    comp = k_compose(f, g)
    for idx in range(f.src.size):
        m = composite_multiset(f, g, idx)
        # Counter equality ignores zero counts, so a stored zero is looked for on its own
        assert m == Counter(comp.lists[idx].labels) and 0 not in m.values()


@given(khoms(3, 3))
def test_duality_symmetry_property(x):
    d = duality(x)
    for j in range(3):
        for k in range(3):
            assert Counter(d.lists[k].labels)[j] == Counter(x.lists[j].labels)[k]


def test_duality_examples():
    x = KHom(FinSet(2), FinSet(1), (SList((0,)), SList((0,))))
    assert duality(x).lists == (SList((0, 1)),)
    empty = KHom(FinSet(2), FinSet(2), (SList(()), SList(())))
    assert duality(empty).lists == (SList(()), SList(()))


def test_duality_multiplicity_symmetry():
    rng = Random(35)
    for _ in range(300):
        x = random_khom(rng, rng.randint(0, 4), rng.randint(1, 4), 5)
        d = duality(x)
        for j in range(x.src.size):
            for k in range(x.dst.size):
                assert underlying_multiset(d.lists[k])[j] == underlying_multiset(x.lists[j])[k]
        dd = duality(d)
        for j in range(x.src.size):
            assert underlying_multiset(dd.lists[j]) == underlying_multiset(x.lists[j])


def test_duality_involution_on_linear_families():
    rng = Random(37)
    for _ in range(100):
        j, k = rng.randint(0, 3), rng.randint(1, 4)
        lists = []
        for _ in range(j):
            labels = list(range(k))
            rng.shuffle(labels)
            lists.append(SList(tuple(labels[: rng.randint(0, k)])))
        x = KHom(FinSet(j), FinSet(k), tuple(lists))
        dd = duality(duality(x))
        # transposing twice sorts each list; on linear lists that is a unique permutation
        assert dd.lists == tuple(SList(tuple(sorted(l.labels))) for l in x.lists)
        KCell(x, dd, tuple(unique_hom_linear(x.lists[i], dd.lists[i]) for i in range(j)))
