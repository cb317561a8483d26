"""The recursive term evaluator, kept as the oracle for the one-pass functions.

This is the definition of checking, boundaries and evaluation by
structural recursion, as ``smckit.terms`` had it before its functions
became single passes with explicit stacks.  It recurses once per level of
a term, so it is only run on small terms.
"""

from typing import Any

from smckit.errors import IllTyped
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
    SmcModel,
    Tensor,
    Unit,
    lookup,
)


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
