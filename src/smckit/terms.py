"""
Term language for the free symmetric monoidal category on an alphabet.

Objects are trees built from Unit, generators and a binary tensor; structural
morphisms are trees built from identities, composition (diagram order),
tensor, the four structural isomorphism families and a formal inverse.
Evaluation into any model is structural recursion; normalization evaluates
into symmetric lists with each generator sent to a singleton, and the
resulting index bijection is a complete invariant of the term modulo the
symmetric monoidal axioms.  Equality of well-typed terms with equal
boundaries is therefore decidable by comparing normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import BoundaryMismatch, IllTyped, UnassignedLabel
from .slist import SList, SListHom, hom_equal, word_from_hom


# ---------------------------------------------------------------------------
# object and morphism terms


@dataclass(frozen=True)
class ObjTerm:
    pass


@dataclass(frozen=True)
class Unit(ObjTerm):
    def __str__(self):
        return "I"


@dataclass(frozen=True)
class Gen(ObjTerm):
    label: Any

    def __str__(self):
        return str(self.label)


@dataclass(frozen=True)
class Tensor(ObjTerm):
    left: ObjTerm
    right: ObjTerm

    def __str__(self):
        return f"({self.left}*{self.right})"


@dataclass(frozen=True)
class MorTerm:
    def __rshift__(self, other: "MorTerm") -> "MorTerm":
        return Comp(self, other)

    def __matmul__(self, other: "MorTerm") -> "MorTerm":
        return Par(self, other)


@dataclass(frozen=True)
class Id(MorTerm):
    obj: ObjTerm


@dataclass(frozen=True)
class Comp(MorTerm):
    """first then second, diagram order"""

    first: MorTerm
    second: MorTerm


@dataclass(frozen=True)
class Par(MorTerm):
    """tensor of morphisms"""

    left: MorTerm
    right: MorTerm


@dataclass(frozen=True)
class Assoc(MorTerm):
    """(x*y)*z -> x*(y*z)"""

    x: ObjTerm
    y: ObjTerm
    z: ObjTerm


@dataclass(frozen=True)
class LeftUnitor(MorTerm):
    """I*x -> x"""

    x: ObjTerm


@dataclass(frozen=True)
class RightUnitor(MorTerm):
    """x*I -> x"""

    x: ObjTerm


@dataclass(frozen=True)
class Braid(MorTerm):
    """x*y -> y*x"""

    x: ObjTerm
    y: ObjTerm


@dataclass(frozen=True)
class Inv(MorTerm):
    arg: MorTerm


def mor_src(t: MorTerm) -> ObjTerm:
    if isinstance(t, Id):
        return t.obj
    if isinstance(t, Comp):
        return mor_src(t.first)
    if isinstance(t, Par):
        return Tensor(mor_src(t.left), mor_src(t.right))
    if isinstance(t, Assoc):
        return Tensor(Tensor(t.x, t.y), t.z)
    if isinstance(t, LeftUnitor):
        return Tensor(Unit(), t.x)
    if isinstance(t, RightUnitor):
        return Tensor(t.x, Unit())
    if isinstance(t, Braid):
        return Tensor(t.x, t.y)
    if isinstance(t, Inv):
        return mor_tgt(t.arg)
    raise TypeError(f"not a morphism term: {t!r}")


def mor_tgt(t: MorTerm) -> ObjTerm:
    if isinstance(t, Id):
        return t.obj
    if isinstance(t, Comp):
        return mor_tgt(t.second)
    if isinstance(t, Par):
        return Tensor(mor_tgt(t.left), mor_tgt(t.right))
    if isinstance(t, Assoc):
        return Tensor(t.x, Tensor(t.y, t.z))
    if isinstance(t, LeftUnitor):
        return t.x
    if isinstance(t, RightUnitor):
        return t.x
    if isinstance(t, Braid):
        return Tensor(t.y, t.x)
    if isinstance(t, Inv):
        return mor_src(t.arg)
    raise TypeError(f"not a morphism term: {t!r}")


def typecheck(t: MorTerm) -> None:
    """Raise IllTyped unless every composition has matching inner boundaries."""
    if isinstance(t, Comp):
        typecheck(t.first)
        typecheck(t.second)
        if mor_tgt(t.first) != mor_src(t.second):
            raise IllTyped(
                f"composition boundary mismatch: {mor_tgt(t.first)} != {mor_src(t.second)}"
            )
    elif isinstance(t, Par):
        typecheck(t.left)
        typecheck(t.right)
    elif isinstance(t, Inv):
        typecheck(t.arg)


def obj_labels(t: ObjTerm) -> tuple:
    if isinstance(t, Unit):
        return ()
    if isinstance(t, Gen):
        return (t.label,)
    if isinstance(t, Tensor):
        return obj_labels(t.left) + obj_labels(t.right)
    raise TypeError(f"not an object term: {t!r}")


# ---------------------------------------------------------------------------
# models


class SmcModel:
    """Semantic interface for a symmetric monoidal model.

    Composition is diagram order.  Shipped instances satisfy the pentagon,
    triangle, hexagon and symmetry laws; the shared check lives in
    ``models.smc_law_failures``.  ``braid_inv`` defaults to the opposite
    braiding, which is correct in any symmetric model.
    """

    def unit(self):
        raise NotImplementedError

    def tensor_obj(self, a, b):
        raise NotImplementedError

    def identity(self, a):
        raise NotImplementedError

    def compose(self, f, g):
        raise NotImplementedError

    def tensor_mor(self, f, g):
        raise NotImplementedError

    def assoc(self, a, b, c):
        raise NotImplementedError

    def assoc_inv(self, a, b, c):
        raise NotImplementedError

    def left_unitor(self, a):
        raise NotImplementedError

    def left_unitor_inv(self, a):
        raise NotImplementedError

    def right_unitor(self, a):
        raise NotImplementedError

    def right_unitor_inv(self, a):
        raise NotImplementedError

    def braid(self, a, b):
        raise NotImplementedError

    def braid_inv(self, a, b):
        return self.braid(b, a)

    def mor_equal(self, f, g) -> bool:
        return f == g


def lookup(assignment, label):
    """Fetch a generator's value from a mapping or callable assignment."""
    try:
        if callable(assignment):
            return assignment(label)
        return assignment[label]
    except (KeyError, UnassignedLabel):
        raise UnassignedLabel(f"no object assigned to label {label!r}") from None


def eval_obj(t: ObjTerm, m: SmcModel, assignment) -> Any:
    if isinstance(t, Unit):
        return m.unit()
    if isinstance(t, Gen):
        return lookup(assignment, t.label)
    if isinstance(t, Tensor):
        return m.tensor_obj(eval_obj(t.left, m, assignment), eval_obj(t.right, m, assignment))
    raise TypeError(f"not an object term: {t!r}")


def eval_mor(t: MorTerm, m: SmcModel, assignment) -> Any:
    """Evaluate a well-typed term; Inv is pushed through structurally."""
    typecheck(t)
    return _eval(t, m, assignment, inverted=False)


def _eval(t: MorTerm, m: SmcModel, x, inverted: bool):
    ev = lambda s: eval_obj(s, m, x)
    if isinstance(t, Id):
        return m.identity(ev(t.obj))
    if isinstance(t, Comp):
        if inverted:
            return m.compose(_eval(t.second, m, x, True), _eval(t.first, m, x, True))
        return m.compose(_eval(t.first, m, x, False), _eval(t.second, m, x, False))
    if isinstance(t, Par):
        return m.tensor_mor(_eval(t.left, m, x, inverted), _eval(t.right, m, x, inverted))
    if isinstance(t, Assoc):
        fn = m.assoc_inv if inverted else m.assoc
        return fn(ev(t.x), ev(t.y), ev(t.z))
    if isinstance(t, LeftUnitor):
        fn = m.left_unitor_inv if inverted else m.left_unitor
        return fn(ev(t.x))
    if isinstance(t, RightUnitor):
        fn = m.right_unitor_inv if inverted else m.right_unitor
        return fn(ev(t.x))
    if isinstance(t, Braid):
        fn = m.braid_inv if inverted else m.braid
        return fn(ev(t.x), ev(t.y))
    if isinstance(t, Inv):
        return _eval(t.arg, m, x, not inverted)
    raise TypeError(f"not a morphism term: {t!r}")


# ---------------------------------------------------------------------------
# normalization and the decision procedure


def normalize_obj(t: ObjTerm) -> SList:
    """Flatten an object term to the list of its generator labels."""
    return SList(obj_labels(t))


def normalize(t: MorTerm) -> SListHom:
    """The index bijection of a structural morphism; complete modulo the axioms.

    >>> a, b = Gen("a"), Gen("b")
    >>> normalize(Braid(a, b)).phi.img
    (1, 0)
    >>> normalize(Assoc(a, b, Gen("c"))).phi.img
    (0, 1, 2)
    """
    from .models import SListModel

    return eval_mor(t, SListModel(), lambda label: SList((label,)))


def normal_forms(s: MorTerm, t: MorTerm) -> tuple[SListHom, SListHom]:
    """Normal forms of two well-typed terms with syntactically equal boundaries.

    Normalizing typechecks each term, so each is typechecked once.
    """
    hs, ht = normalize(s), normalize(t)
    if mor_src(s) != mor_src(t) or mor_tgt(s) != mor_tgt(t):
        raise BoundaryMismatch("decide_equal needs syntactically equal boundaries")
    return hs, ht


def decide_equal(s: MorTerm, t: MorTerm) -> bool:
    """Coherence decision procedure: equal boundaries, then equal normal forms.

    >>> a = Gen("a")
    >>> decide_equal(Braid(a, a), Id(Tensor(a, a)))
    False
    """
    return hom_equal(*normal_forms(s, t))


# ---------------------------------------------------------------------------
# canonical terms over right-nested objects, and the monoidal extension


def nest_obj(labels) -> ObjTerm:
    """Right-nested object l0*(l1*(...*I)) over the given labels."""
    out: ObjTerm = Unit()
    for label in reversed(tuple(labels)):
        out = Tensor(Gen(label), out)
    return out


def _swap_term(labels: tuple, p: int) -> MorTerm:
    # adjacent swap at position p of the running list, whiskered under the
    # first p generators of the right-nested object
    if p > 0:
        head, tail = labels[0], labels[1:]
        return Par(Id(Gen(head)), _swap_term(tail, p - 1))
    a, b = Gen(labels[0]), Gen(labels[1])
    rest = nest_obj(labels[2:])
    swap = Comp(
        Comp(Inv(Assoc(a, b, rest)), Par(Braid(a, b), Id(rest))),
        Assoc(b, a, rest),
    )
    return swap


def canonical_term(f: SListHom) -> MorTerm:
    """A structural term over nested objects whose normalization is f."""
    word = word_from_hom(f)
    labels = f.src.labels
    term: MorTerm = Id(nest_obj(labels))
    for p in word.positions:
        term = Comp(term, _swap_term(labels, p))
        labels = labels[:p] + (labels[p + 1], labels[p]) + labels[p + 2 :]
    return term


def psi_obj(m: SmcModel, assignment, labels) -> Any:
    """Right-fold tensor x_{l0} (x) (x_{l1} (x) (... (x) unit))."""
    out = m.unit()
    for label in reversed(tuple(labels)):
        out = m.tensor_obj(lookup(assignment, label), out)
    return out


def psi_hom(m: SmcModel, assignment, f: SListHom) -> Any:
    """Image of a list morphism under the monoidal extension of the assignment."""
    return eval_mor(canonical_term(f), m, assignment)


def psi_extend(assignment, m: SmcModel) -> tuple[Callable, Callable]:
    """The extension of a generator assignment to lists and list morphisms."""
    return (
        lambda l: psi_obj(m, assignment, l.labels if isinstance(l, SList) else l),
        lambda f: psi_hom(m, assignment, f),
    )


def psi_monoidal_iso(l1: SList, l2: SList, assignment, m: SmcModel) -> Any:
    """Iso Psi(l1 (x) l2) -> Psi(l1) (x) Psi(l2), from associators and unitors only."""
    if len(l1) == 0:
        return m.left_unitor_inv(psi_obj(m, assignment, l2.labels))
    head, tail = l1.labels[0], SList(l1.labels[1:])
    a = lookup(assignment, head)
    rec = psi_monoidal_iso(tail, l2, assignment, m)
    step = m.tensor_mor(m.identity(a), rec)
    fix = m.assoc_inv(a, psi_obj(m, assignment, tail.labels), psi_obj(m, assignment, l2.labels))
    return m.compose(step, fix)
