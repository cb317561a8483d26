"""The pasted pseudofunctor cells, kept as the oracle for the apex-key formulas.

These are ``eta_cell``, ``pseudofunctor_on_cell``, ``f_comp_cell`` and
``f_id_cell`` as ``smckit.unbias`` had them when each cell was a pasting of
whiskered Kleisli cells (fiber/value cells, base change, ``k_hcomp``,
``k_vcomp`` and ``invert_kcell``), before they were read off lists of apex
elements.
"""

from smckit.errors import NotInvertible
from smckit.kleisli import KCell, invert_kcell, k_hcomp, k_id_cell, k_vcomp
from smckit.spans import FinFun, FinSet, PullbackSquare, Span, SpanCell, identity_fun, pullback
from smckit.unbias import base_change_unique, lambda_u, lambda_v, u_comp, u_id, v_comp, v_id


def eta_cell(phi: FinFun) -> KCell:
    """For an iso phi, the cell from "v(phi) then u(phi)" onto the identity."""
    if not phi.is_bijective():
        raise NotInvertible("eta needs a bijective map")
    square = PullbackSquare(phi, phi, identity_fun(phi.dst), identity_fun(phi.dst))
    bc = base_change_unique(square)
    collapse = k_hcomp(v_id(phi.dst), u_id(phi.dst))
    return k_vcomp(invert_kcell(bc), collapse)


def pseudofunctor_on_cell(c: SpanCell) -> KCell:
    """Image of a pith cell: split both legs along the apex map, cancel eta."""
    if not c.is_pith():
        raise NotInvertible("only pith cells map forward")
    phi = c.map
    f2, g2 = c.dst.left, c.dst.right
    split = k_hcomp(u_comp(phi, g2), v_comp(phi, f2))
    cancel = k_hcomp(
        k_id_cell(lambda_u(g2)),
        k_hcomp(eta_cell(phi), k_id_cell(lambda_v(f2))),
    )
    return k_vcomp(split, cancel)


def f_comp_cell(s: Span, t: Span) -> KCell:
    """Comparison from the image of s;t to "image of s, then image of t".

    The pullback of the inner legs is built here, not by ``spans.composite``,
    so that this oracle shares no code with the composer it checks.
    """
    pb = pullback(s.right, t.left)
    split = k_hcomp(u_comp(pb.p2, t.right), v_comp(pb.p1, s.left))
    middle = PullbackSquare(pb.p1, pb.p2, s.right, t.left)
    bc_inv = invert_kcell(base_change_unique(middle))
    rearrange = k_hcomp(
        k_id_cell(lambda_u(t.right)),
        k_hcomp(bc_inv, k_id_cell(lambda_v(s.left))),
    )
    return k_vcomp(split, rearrange)


def f_id_cell(x: FinSet) -> KCell:
    """Comparison from the image of the identity span onto the identity 1-cell."""
    return k_hcomp(v_id(x), u_id(x))
