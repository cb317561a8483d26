"""The one walker that writes objects and morphisms, against the renderer that walks every occurrence."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import render_oracle as oracle
from test_render import _dag_term
from smckit.cli import render_mor, render_obj
from smckit.terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    ObjTerm,
    Par,
    RightUnitor,
    Tensor,
    Unit,
    obj_text,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _objects(t) -> list:
    """The objects that the atoms of a morphism term hold, in output order."""
    out, todo = [], [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Comp):
            todo += (node.second, node.first)
        elif isinstance(node, Par):
            todo += (node.right, node.left)
        elif isinstance(node, Inv):
            todo.append(node.arg)
        else:
            out += [getattr(node, name) for name in node._fields]
    return out


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_objects_match_the_oracle_with_both_separators(seed):
    objs = _objects(_dag_term(Random(seed)))
    objs.append(Tensor(objs[-1], Tensor(objs[0], objs[-1])))  # a node reached again inside one object
    for o in objs:
        assert obj_text(o) == str(o) == oracle.obj_text(o)
        assert obj_text(o, " * ") == render_obj(o) == oracle.render_obj(o) == oracle.obj_text(o, " * ")


def test_a_deep_fold_reached_many_times_in_one_morphism(shallow_stack):
    fold = Unit()
    for k in range(3000):
        fold = Tensor(Gen(f"x{k}"), fold)
    twice = Tensor(fold, fold)
    t = Comp(Id(twice), Braid(fold, fold))
    t = Comp(t, Par(Inv(Assoc(fold, fold, twice)), Comp(LeftUnitor(fold), Inv(RightUnitor(fold)))))
    t = Comp(Par(t, Id(fold)), Braid(twice, fold))
    text = render_mor(t)
    assert text == oracle.render_mor(t)
    assert text.count("x2999") == 14
    assert obj_text(Tensor(twice, fold)) == oracle.obj_text(Tensor(twice, fold))


def _raised(call) -> tuple:
    with pytest.raises(TypeError) as info:
        call()
    return str(info.value)


MISPLACED = [
    Gen("x"),
    Tensor(Gen("x"), Unit()),
    Unit(),
    Id(Braid(Gen("x"), Gen("y"))),
    Comp(Id(Gen("x")), Par(Gen("y"), Id(Unit()))),
    Braid(Gen("x"), Tensor(Gen("y"), LeftUnitor(Unit()))),
    Assoc(Gen("x"), Unit(), Inv(Id(Unit()))),
    Par(Id(Gen("x")), Tensor(Unit(), Unit())),
    Inv(Unit()),
]


@pytest.mark.parametrize("t", MISPLACED, ids=range(len(MISPLACED)))
def test_a_term_of_the_wrong_kind_raises_as_before(t):
    expected = _raised(lambda: oracle.render_mor(t))
    assert expected.startswith(("not a morphism term: ", "not an object term: "))
    assert _raised(lambda: render_mor(t)) == expected


@pytest.mark.parametrize("t", [Id(Unit()), Braid(Gen("x"), Gen("y")), Tensor(Gen("x"), Id(Unit())),
                               Tensor(Tensor(Unit(), Gen("y")), Comp(Id(Unit()), Id(Unit())))])
def test_a_morphism_where_an_object_belongs_raises_as_before(t):
    expected = _raised(lambda: oracle.obj_text(t))
    assert expected.startswith("not an object term: ")
    assert _raised(lambda: obj_text(t)) == _raised(lambda: render_obj(t)) == expected
    if isinstance(t, ObjTerm):
        assert _raised(lambda: str(t)) == expected
