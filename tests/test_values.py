"""The semantics of ``@value`` classes, which replaced frozen data classes.

Every class must keep what a frozen ``dataclasses.dataclass`` gave it, so
that set and dict orders, every output and every check stay the same: a
twin made with ``dataclasses.make_dataclass`` over the same fields is the
reference for equality, hash and repr.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import smckit
from smckit import cli, errors, kleisli, laws, models, monoidal, perms, slist, spans, terms, unbias
from smckit.kleisli import KCell, KHom
from smckit.laws import LawReport
from smckit.perms import CoxeterMatrixA, Perm
from smckit.slist import GenWord, SList, SListHom
from smckit.spans import FinFun, FinSet, Pullback, PullbackSquare, Span, SpanCell, pullback
from smckit.terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    MorTerm,
    ObjTerm,
    Par,
    RightUnitor,
    Tensor,
    Unit,
)
from smckit.unbias import UnbiasResult

MODULES = (cli, errors, kleisli, laws, models, monoidal, perms, slist, spans, terms, unbias)


def _fun(*img):
    return FinFun(FinSet(len(img)), FinSet(2), tuple(img))


def _khom():
    return KHom(FinSet(1), FinSet(2), (SList((1, 0)),))


# a fresh value of each class per call, built through the public constructors
EXAMPLES = {
    ObjTerm: lambda: ObjTerm(),
    Unit: lambda: Unit(),
    Gen: lambda: Gen("x"),
    Tensor: lambda: Tensor(Gen("x"), Tensor(Unit(), Gen("y"))),
    MorTerm: lambda: MorTerm(),
    Id: lambda: Id(Gen("x")),
    Comp: lambda: Comp(Braid(Gen("x"), Gen("y")), Braid(Gen("y"), Gen("x"))),
    Par: lambda: Par(Id(Unit()), LeftUnitor(Gen("x"))),
    Assoc: lambda: Assoc(Gen("x"), Gen("y"), Gen("z")),
    LeftUnitor: lambda: LeftUnitor(Gen("x")),
    RightUnitor: lambda: RightUnitor(Gen("x")),
    Braid: lambda: Braid(Gen("x"), Unit()),
    Inv: lambda: Inv(Assoc(Gen("x"), Gen("y"), Gen("z"))),
    FinSet: lambda: FinSet(3),
    FinFun: lambda: _fun(0, 1, 1),
    Pullback: lambda: pullback(_fun(0, 1), _fun(1, 1)),
    Span: lambda: Span(_fun(0, 1), _fun(1, 1)),
    SpanCell: lambda: SpanCell(Span(_fun(0, 1), _fun(1, 1)), Span(_fun(1, 0), _fun(1, 1)),
                               FinFun(FinSet(2), FinSet(2), (1, 0))),
    PullbackSquare: lambda: spans.square_from_cospan(_fun(0, 1), _fun(1, 1, 0)),
    Perm: lambda: Perm((2, 0, 1)),
    CoxeterMatrixA: lambda: CoxeterMatrixA(4),
    SList: lambda: SList(("a", "b", "a")),
    SListHom: lambda: SListHom(SList(("a", "b")), SList(("b", "a")), Perm((1, 0))),
    GenWord: lambda: GenWord(SList(("a", "b", "c")), (0, 1)),
    KHom: _khom,
    KCell: lambda: KCell(_khom(), KHom(FinSet(1), FinSet(2), (SList((0, 1)),)),
                         (SListHom(SList((1, 0)), SList((0, 1)), Perm((1, 0))),)),
    UnbiasResult: lambda: UnbiasResult(_khom(), (Gen("A"),)),
    LawReport: lambda: LawReport("span", 5, ("a violation",)),
}
CLASSES = list(EXAMPLES)


def _fields(v) -> tuple:
    return tuple(getattr(v, name) for name in type(v)._fields)


def _twin(v):
    """``v`` rebuilt as an instance of a frozen data class of the same name and fields."""
    cls = type(v)
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)(*_fields(v))


def test_the_value_classes_are_pinned():
    found = {c for module in MODULES for c in vars(module).values()
             if isinstance(c, type) and c.__module__ == module.__name__
             and hasattr(c, "_fields") and not issubclass(c, tuple)}
    assert found == set(EXAMPLES) and len(found) == 28


def test_fields_are_the_annotations_in_order():
    assert ObjTerm._fields == Unit._fields == MorTerm._fields == ()
    assert Assoc._fields == ("x", "y", "z")
    assert FinFun._fields == ("src", "dst", "img")
    assert Pullback._fields == ("apex", "p1", "p2")
    assert PullbackSquare._fields == ("top", "left", "right", "bottom")
    assert LawReport._fields == ("name", "cases", "violations")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_are_equal_and_hash_their_field_tuple(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a)) == hash(_twin(a))
    assert len({a, b}) == 1 and {a: 1}[b] == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_data_class_repr(cls):
    v = EXAMPLES[cls]()
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, _fields(v)))
    assert repr(v) == repr(_twin(v)) == f"{cls.__name__}({shown})"


def test_repr_text():
    assert repr(Tensor(Gen("x"), Unit())) == "Tensor(left=Gen(label='x'), right=Unit())"
    assert repr(Perm((1, 0))) == "Perm(img=(1, 0))"
    assert repr(FinFun(FinSet(1), FinSet(1), (0,))) == "FinFun(src=FinSet(size=1), dst=FinSet(size=1), img=(0,))"
    assert repr(LawReport("coxeter", 3)) == "LawReport(name='coxeter', cases=3, violations=())"
    assert repr(MorTerm()) == "MorTerm()"


def test_equality_is_exact_to_the_class():
    x = Gen("x")
    assert LeftUnitor(x) != RightUnitor(x)
    assert hash(LeftUnitor(x)) == hash(RightUnitor(x))  # same field tuple, still not equal
    assert Unit() != ObjTerm() and MorTerm() != Id(Unit())
    assert ObjTerm() == ObjTerm() and Unit() == Unit()
    assert Perm((1, 0)) != (1, 0) and SList(("a",)) != ("a",) and FinSet(2) != 2
    assert Gen("x") != Gen("y") and Perm((0, 1)) != Perm((1, 0))
    assert Tensor(Gen("x"), Gen("y")) != Tensor(Gen("y"), Gen("x"))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    v = EXAMPLES[cls]()
    before = _fields(v)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(v, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(v, name)
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        v.extra = 1
    assert _fields(v) == before and not hasattr(v, "extra")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_keywords_build_the_same_value(cls):
    v = EXAMPLES[cls]()
    assert cls(**dict(zip(cls._fields, _fields(v)))) == v


def test_defaults_and_missing_arguments():
    assert LawReport("span", 5) == LawReport(name="span", cases=5, violations=())
    assert LawReport("span", 5).violations == () and LawReport("span", 5).ok
    assert LawReport(cases=1, name="n", violations=("v",)).violations == ("v",)
    with pytest.raises(TypeError):
        LawReport("span")
    with pytest.raises(TypeError):
        FinSet(1, 2)
    with pytest.raises(TypeError):
        Gen(label="x", other=1)


POST_INIT = [c for c in CLASSES if "__post_init__" in vars(c)]
UNCHECKED = [c for c in CLASSES if "_unchecked" in vars(c)]


def test_which_classes_check_at_construction():
    names = {c.__name__ for c in POST_INIT}
    assert names == {"FinSet", "FinFun", "Span", "SpanCell", "PullbackSquare", "Perm", "CoxeterMatrixA",
                     "SList", "SListHom", "GenWord", "KHom", "KCell"}
    assert set(UNCHECKED) <= set(POST_INIT)


@pytest.mark.parametrize("cls", POST_INIT, ids=lambda c: c.__name__)
def test_post_init_runs_through_the_public_constructor_only(cls, monkeypatch):
    v = EXAMPLES[cls]()
    seen = []
    monkeypatch.setattr(cls, "__post_init__", lambda self: seen.append(_fields(self)))
    assert cls(*_fields(v)) == v
    assert seen == [_fields(v)]  # once, with every field already stored
    if cls in UNCHECKED:
        assert cls._unchecked(*_fields(v)) == v
        assert seen == [_fields(v)]


def test_unchecked_builds_what_the_public_constructor_refuses():
    with pytest.raises(ValueError, match="not a permutation"):
        Perm((0, 0))
    assert Perm._unchecked((0, 0)).img == (0, 0)
    with pytest.raises(ValueError, match="outside target"):
        FinFun(FinSet(1), FinSet(1), (3,))
    assert FinFun._unchecked(FinSet(1), FinSet(1), (3,)).img == (3,)


def test_a_cached_property_does_not_change_equality():
    pb, fresh = EXAMPLES[Pullback](), EXAMPLES[Pullback]()
    pb.lift(FinSet(1), (1,), (0,))
    assert hasattr(pb, "_index") and not hasattr(fresh, "_index")
    assert pb == fresh and hash(pb) == hash(fresh)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_values_copy_and_pickle_to_an_equal_value(cls):
    v = EXAMPLES[cls]()
    for copied in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
        assert type(copied) is cls and copied == v and hash(copied) == hash(v)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_instance_has_a_dict(cls):
    """One layout, the class's slots, however the value was built."""
    v = EXAMPLES[cls]()
    built = [v, cls._unchecked(*_fields(v))] if cls in UNCHECKED else [v]
    assert not any(hasattr(b, "__dict__") for b in built)


def test_only_values_py_names_the_instance_dict():
    """Every value class has one instance layout, its slots, so no other module reads or writes ``__dict__``."""
    package = Path(smckit.__file__).resolve().parent
    assert sorted(p.name for p in package.glob("*.py") if "__dict__" in p.read_text()) == ["values.py"]


def test_start_up_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter builds the CLI's parser without the two modules that took most of its start-up."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import smckit.cli; smckit.cli.build_parser(); "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    src = str(Path(smckit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
