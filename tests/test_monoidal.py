"""Monoidal structure on symmetric lists: tensor, braiding, whiskering."""

from random import Random

import pytest

from smckit.models import FinBijModel, SListModel, StrictModel, smc_law_failures
from smckit.monoidal import braiding, braiding_recursive, tensor_hom, tensor_obj
from smckit.perms import Perm
from smckit.slist import GenWord, SList, compose, hom_equal, hom_from_word, identity_hom, invert


def rand_hom(rng, labels):
    start = SList(labels)
    n = len(labels)
    positions = tuple(rng.randrange(n - 1) for _ in range(rng.randint(0, 2 * n))) if n > 1 else ()
    return hom_from_word(GenWord(start, positions))


def test_tensor_obj():
    assert tensor_obj(SList(("a",)), SList(("b", "c"))) == SList(("a", "b", "c"))
    assert tensor_obj(SList(()), SList(("x",))) == SList(("x",))
    x, y, z = SList(("a",)), SList(("b",)), SList(("c", "d"))
    assert tensor_obj(tensor_obj(x, y), z) == tensor_obj(x, tensor_obj(y, z))


def test_tensor_hom_examples():
    a, b, c = SList(("a",)), SList(("b",)), SList(("c",))
    ab = tensor_obj(a, b)
    assert tensor_hom(identity_hom(ab), identity_hom(c)) == identity_hom(SList(("a", "b", "c")))
    sw = hom_from_word(GenWord(ab, (0,)))
    assert tensor_hom(sw, identity_hom(c)).phi.img == (1, 0, 2)
    assert tensor_hom(identity_hom(c), sw).phi.img == (0, 2, 1)


def test_braiding_examples():
    assert braiding(SList(("a",)), SList(("b", "c"))).phi.img == (1, 2, 0)
    l = SList(("p", "q"))
    assert braiding(SList(()), l) == identity_hom(l)
    x, y = SList(("a", "b")), SList(("c",))
    assert compose(braiding(x, y), braiding(y, x)) == identity_hom(tensor_obj(x, y))


def test_braiding_recursive_examples():
    a, b = SList(("a",)), SList(("b",))
    h = braiding_recursive(a, b)
    assert h.phi.img == (1, 0)
    assert braiding_recursive(a, SList(("b", "c"))).phi.img == (1, 2, 0)
    assert braiding_recursive(SList(("a", "b")), SList(("c",))).phi.img == (2, 0, 1)


@pytest.mark.parametrize("total", range(0, 9))
def test_braiding_agrees_with_recursive_oracle(total):
    for nx in range(total + 1):
        x = SList(tuple(f"x{i}" for i in range(nx)))
        y = SList(tuple(f"y{i}" for i in range(total - nx)))
        assert braiding(x, y) == braiding_recursive(x, y)


def test_inverse_braiding_is_the_opposite_braiding():
    # SListModel takes SmcModel's default braid_inv, braid(b, a), for this reason
    for nx in range(4):
        for ny in range(4):
            x = SList(tuple(f"x{i}" for i in range(nx)))
            y = SList(tuple(f"y{i}" for i in range(ny)))
            assert SListModel().braid_inv(x, y) == invert(braiding(x, y)) == braiding(y, x)


def test_braiding_naturality():
    rng = Random(5)
    for _ in range(200):
        f = rand_hom(rng, tuple(rng.choice("ab") for _ in range(rng.randint(0, 4))))
        g = rand_hom(rng, tuple(rng.choice("cd") for _ in range(rng.randint(0, 4))))
        lhs = compose(tensor_hom(f, g), braiding(f.dst, g.dst))
        rhs = compose(braiding(f.src, g.src), tensor_hom(g, f))
        assert hom_equal(lhs, rhs)


def test_hexagons_strict():
    rng = Random(6)
    for _ in range(100):
        x = SList(tuple(rng.choice("ab") for _ in range(rng.randint(0, 3))))
        y = SList(tuple(rng.choice("cd") for _ in range(rng.randint(0, 3))))
        z = SList(tuple(rng.choice("ef") for _ in range(rng.randint(0, 3))))
        lhs = braiding(tensor_obj(x, y), z)
        rhs = compose(
            tensor_hom(identity_hom(x), braiding(y, z)),
            tensor_hom(braiding(x, z), identity_hom(y)),
        )
        assert hom_equal(lhs, rhs)
        lhs = braiding(x, tensor_obj(y, z))
        rhs = compose(
            tensor_hom(braiding(x, y), identity_hom(z)),
            tensor_hom(identity_hom(y), braiding(x, z)),
        )
        assert hom_equal(lhs, rhs)


def test_interchange():
    rng = Random(7)
    for _ in range(200):
        f = rand_hom(rng, tuple(rng.choice("ab") for _ in range(rng.randint(0, 4))))
        f2 = rand_hom(rng, f.dst.labels)
        g = rand_hom(rng, tuple(rng.choice("cd") for _ in range(rng.randint(0, 4))))
        g2 = rand_hom(rng, g.dst.labels)
        assert compose(tensor_hom(f, g), tensor_hom(f2, g2)) == tensor_hom(
            compose(f, f2), compose(g, g2)
        )


def test_whiskering_formula():
    # tensoring with an identity acts through phi on the indices of f's block:
    # index i of the left factor, index len(z) + i behind a left factor z
    rng = Random(8)
    for _ in range(100):
        f = rand_hom(rng, tuple(rng.choice("ab") for _ in range(rng.randint(1, 4))))
        z = SList(tuple(rng.choice("cd") for _ in range(rng.randint(0, 3))))
        left, right = tensor_hom(f, identity_hom(z)), tensor_hom(identity_hom(z), f)
        for i in range(len(f.dst)):
            assert left.phi(i) == f.phi(i)
            assert right.phi(len(z) + i) == len(z) + f.phi(i)


STRUCTURAL_MAPS = ("assoc", "assoc_inv", "left_unitor", "left_unitor_inv", "right_unitor", "right_unitor_inv")


def test_strict_models_write_no_structural_map_of_their_own():
    for model in (SListModel, FinBijModel):
        assert issubclass(model, StrictModel)
        assert not set(STRUCTURAL_MAPS) & set(vars(model))


def test_strict_structural_maps_equal_the_identities_each_model_wrote():
    """On random objects each of the six maps is the identity the model wrote for it by hand."""
    rng = Random(9)
    slist, finbij = SListModel(), FinBijModel()
    for _ in range(200):
        a, b, c = (SList(tuple(rng.choice("xyz") for _ in range(rng.randint(0, 4)))) for _ in range(3))
        abc = identity_hom(SList(a.labels + b.labels + c.labels))
        assert slist.assoc(a, b, c) == abc and slist.assoc_inv(a, b, c) == abc
        for name in STRUCTURAL_MAPS[2:]:
            assert getattr(slist, name)(a) == identity_hom(a)
        n, m, k = (rng.randint(0, 5) for _ in range(3))
        assert finbij.assoc(n, m, k) == Perm.identity(n + m + k) == finbij.assoc_inv(n, m, k)
        for name in STRUCTURAL_MAPS[2:]:
            assert getattr(finbij, name)(n) == Perm.identity(n)
        assert smc_law_failures(slist, (a, b, c, a)) == [] and smc_law_failures(finbij, (n, m, k, n)) == []
