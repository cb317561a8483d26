"""
The Kleisli bicategory of symmetric lists over finite sets.

A 1-cell I ~> K is a family of symmetric lists over the labels of K, one
per element of I.  The extension of such a family to all lists is blockwise
concatenation, which makes composition strictly associative and unital:
the associator and unitor cells collapse to identities, and the strict
equalities they would mediate are tested directly.

A 2-cell is a family of list morphisms.  The horizontal composite of phi
and psi is one block permutation per component: block t of the target is
block phi(t) of the source, a list of psi's source family, permuted inside
by psi at that block's label.

Duality transposes a family, exchanging row and column multiplicities.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate

from .errors import BoundaryMismatch, LabelOutOfRange
from .perms import Perm
from .slist import (
    SList,
    SListHom,
    compose as hom_compose,
    identity_hom,
    invert,
    underlying_multiset,
)
from .spans import FinSet
from .values import value


@value(unchecked=True)
class KHom:
    """A family of lists over dst, indexed by src: a 1-cell src ~> dst."""

    src: FinSet
    dst: FinSet
    lists: tuple[SList, ...]

    def __post_init__(self):
        if len(self.lists) != self.src.size:
            raise ValueError(f"family has {len(self.lists)} lists, expected {self.src.size}")
        for l in self.lists:
            _check_labels(l, self.dst.size, "target")


@value(unchecked=True)
class KCell:
    """A family of list morphisms between two parallel 1-cells."""

    src: KHom
    dst: KHom
    homs: tuple[SListHom, ...]

    def __post_init__(self):
        if self.src.src != self.dst.src or self.src.dst != self.dst.dst:
            raise BoundaryMismatch("cells need parallel 1-cells")
        if len(self.homs) != self.src.src.size:
            raise BoundaryMismatch(f"cell has {len(self.homs)} components, expected {self.src.src.size}")
        for i, h in enumerate(self.homs):
            if h.src != self.src.lists[i] or h.dst != self.dst.lists[i]:
                raise BoundaryMismatch(f"component {i} has the wrong boundary")


def theta_apply(g: KHom, l: SList) -> SList:
    """Extend the family g to a list: concatenate the blocks g(label).

    >>> from .spans import FinSet
    >>> g = KHom(FinSet(2), FinSet(3), (SList((0, 1)), SList((2,))))
    >>> print(theta_apply(g, SList((0, 1))))
    [0,1,2]
    """
    _check_labels(l, g.src.size, "source")
    return _blocks(g, l)


def _check_labels(l: SList, size: int, side: str) -> None:
    """Refuse a label of l that is not an int in range(size); a bool is no label."""
    for label in l.labels:
        if type(label) is not int or not 0 <= label < size:
            raise LabelOutOfRange(f"label {label!r} outside {side} of size {size}")


def _blocks(g: KHom, l: SList) -> SList:
    """The lists of g at the labels of l, concatenated, for labels that lie in g.src."""
    lists = g.lists
    labels: list = []
    for label in l.labels:
        labels += lists[label].labels
    return SList(tuple(labels))


def k_compose(f: KHom, g: KHom) -> KHom:
    """Composite family: extend g over each list of f."""
    if f.dst != g.src:
        raise BoundaryMismatch(f"cannot compose: {f.dst} != {g.src}")
    # f's own check puts every label of its lists in f.dst == g.src, so each block exists;
    # one list per element of f.src, each a concatenation of lists of g over g.dst
    return KHom._unchecked(f.src, g.dst, tuple([_blocks(g, l) for l in f.lists]))


def k_id(i: FinSet) -> KHom:
    """The singleton family; a strict unit for k_compose."""
    return KHom._unchecked(i, i, tuple([SList((j,)) for j in range(i.size)]))  # j < i.size


def k_id_cell(f: KHom) -> KCell:
    # component i is the identity on f.lists[i]
    return KCell._unchecked(f, f, tuple([identity_hom(l) for l in f.lists]))


def k_vcomp(*cells: KCell) -> KCell:
    out = cells[0]
    for c in cells[1:]:
        if out.dst != c.src:
            raise BoundaryMismatch("vertical composition needs matching middle 1-cell")
        # component i of checked cells goes out.src.lists[i] -> c.src.lists[i] -> c.dst.lists[i]
        out = KCell._unchecked(out.src, c.dst, tuple(map(hom_compose, out.homs, c.homs)))
    return out


def invert_kcell(c: KCell) -> KCell:
    return KCell._unchecked(c.dst, c.src, tuple(map(invert, c.homs)))  # each component inverts between the same lists


def k_hcomp(phi: KCell, psi: KCell) -> KCell:
    """Horizontal composite: one block permutation per component.

    phi goes between f, f' : I ~> J and psi between g, g' : J ~> K; the
    result lies over k_compose(f, g) => k_compose(f', g').  Component i
    moves whole blocks the way phi.homs[i] moves labels and permutes inside
    each block by psi.  With ``labels = f.lists[i].labels`` and ``starts``
    the running offsets of the blocks g(label) along them, target block t
    is source block ``j = phi.homs[i].phi(t)``, and its position u comes
    from ``starts[j] + psi.homs[labels[j]].phi(u)``.
    """
    f, f2 = phi.src, phi.dst
    g, g2 = psi.src, psi.dst
    if f.dst != g.src:
        raise BoundaryMismatch("horizontal composition needs composable boundaries")
    src, dst = k_compose(f, g), k_compose(f2, g2)
    blocks, inner = g.lists, psi.homs
    homs = []
    for i, h in enumerate(phi.homs):
        labels = f.lists[i].labels
        starts = list(accumulate([len(blocks[label]) for label in labels], initial=0))
        img: list[int] = []
        for j in h.phi.img:
            start = starts[j]
            img += [start + u for u in inner[labels[j]].phi.img]
        # f.dst == g.src, and the checked cells phi and psi bound every label and match every
        # block, so img is a bijection carrying src.lists[i] onto dst.lists[i]
        homs.append(SListHom._unchecked(src.lists[i], dst.lists[i], Perm._unchecked(tuple(img))))
    return KCell._unchecked(src, dst, tuple(homs))


# ---------------------------------------------------------------------------
# multiset formulas and duality


def composite_multiset(f: KHom, g: KHom, j: int) -> Counter:
    """Matrix-like formula for the multiset of the composite at index j.

    >>> from .spans import FinSet
    >>> f = KHom(FinSet(1), FinSet(1), (SList((0, 0)),))
    >>> g = KHom(FinSet(1), FinSet(1), (SList((0,)),))
    >>> composite_multiset(f, g, 0)
    Counter({0: 2})
    """
    if f.dst != g.src:
        raise BoundaryMismatch(f"cannot compose: {f.dst} != {g.src}")
    acc = Counter()
    for k, c in underlying_multiset(f.lists[j]).items():
        for label in g.lists[k].labels:
            acc[label] += c
    return acc


def duality(x: KHom) -> KHom:
    """Transpose a family: the multiplicity of j in D(x)(k) is that of k in x(j).

    Occurrences are laid out with source index ascending.

    >>> from .spans import FinSet
    >>> x = KHom(FinSet(2), FinSet(1), (SList((0,)), SList((0,))))
    >>> duality(x).lists
    (SList(labels=(0, 1)),)
    """
    columns: list[list[int]] = [[] for _ in range(x.dst.size)]
    for j, l in enumerate(x.lists):
        for k in l.labels:
            columns[k].append(j)
    # one column per element of x.dst, holding indices of x.src
    return KHom._unchecked(x.dst, x.src, tuple([SList(tuple(c)) for c in columns]))
