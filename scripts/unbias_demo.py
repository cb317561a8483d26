#!/usr/bin/env python3
"""Worked example: evaluate the unbiased tensor of a span in the term model.

The span {0,1} <- {0,1,2} -> {0,1} with left leg (0,1,0) and right leg
(0,0,1) pulls a two-object family back along its left leg and tensors over
the right fibers.  The script prints the fiber lists, the folded objects,
and the coherence data connecting the composite of two spans with the
composite of their images.
"""

from smckit.cli import render_mor, render_obj
from smckit.models import FreeTermModel
from smckit.spans import FinFun, FinSet, Span, compose_span
from smckit.terms import Gen, normalize
from smckit.unbias import pseudofunctor_on_span, unbias_comp_iso, unbias_eval


def main() -> None:
    apex, feet = FinSet(3), FinSet(2)
    s = Span(FinFun(apex, feet, (0, 1, 0)), FinFun(apex, feet, (0, 0, 1)))
    model = FreeTermModel()
    x = {0: Gen("x"), 1: Gen("y")}

    result = unbias_eval(s, model, x)
    print("span:", s.left.img, s.right.img)
    for k, (l, obj) in enumerate(zip(result.family.lists, result.objects)):
        print(f"  k={k}: fiber={list(l.labels)} object={render_obj(obj)}")

    t = Span(FinFun(feet, feet, (1, 0)), FinFun(feet, FinSet(1), (0, 0)))
    st = compose_span(s, t)
    print("composite span:", st.left.img, st.right.img)
    print("composite family:", [list(l.labels) for l in pseudofunctor_on_span(st).lists])
    for k, cell in enumerate(unbias_comp_iso(s, t, model, x)):
        print(f"  composition cell k={k}: phi={normalize(cell).phi}")
        print(f"    term: {render_mor(cell)[:100]}...")


if __name__ == "__main__":
    main()
