"""
The symmetric monoidal structure on symmetric lists.

The tensor on objects is plain concatenation and is strictly associative
and unital, so associators and unitors are identity morphisms; all
coherence content lives in the braiding.  The braiding ships twice: the
block formula is the working definition, and a literal two-level recursion
over cons cells serves as an independent oracle.
"""

from __future__ import annotations

from .perms import block_sum, block_swap
from .slist import GenWord, SList, SListHom, hom_from_word


def tensor_obj(x: SList, y: SList) -> SList:
    """Concatenation; strictly associative and unital with the empty list."""
    return SList(x.labels + y.labels)


def tensor_hom(f: SListHom, g: SListHom) -> SListHom:
    """Block sum: f acts on the first block, g shifted onto the second.

    >>> from .slist import identity_hom
    >>> from .perms import Perm
    >>> sw = SListHom(SList(("a", "b")), SList(("b", "a")), Perm((1, 0)))
    >>> tensor_hom(sw, identity_hom(SList(("c",)))).phi.img
    (1, 0, 2)
    """
    return SListHom(tensor_obj(f.src, g.src), tensor_obj(f.dst, g.dst), block_sum(f.phi, g.phi))


def braiding(x: SList, y: SList) -> SListHom:
    """The block transposition x (x) y -> y (x) x.

    >>> braiding(SList(("a",)), SList(("b", "c"))).phi.img
    (1, 2, 0)
    """
    return SListHom(tensor_obj(x, y), tensor_obj(y, x), block_swap(len(x), len(y)))


def _partial_braid_word(head, l1: SList, l2: SList) -> list[int]:
    # word for Q : (head :: l1) (x) l2 -> l1 (x) (head :: l2), one swap per
    # cons cell of l1, each shifted under the growing prefix
    if len(l1) == 0:
        return []
    rest = SList(l1.labels[1:])
    return [0] + [p + 1 for p in _partial_braid_word(head, rest, l2)]


def _braiding_word(x: SList, y: SList) -> list[int]:
    if len(x) == 0:
        return []
    head, tail = x.labels[0], SList(x.labels[1:])
    inner = [p + 1 for p in _braiding_word(tail, y)]
    return inner + _partial_braid_word(head, y, tail)


def braiding_recursive(x: SList, y: SList) -> SListHom:
    """Braiding built by the nested cons recursions, as a generator word.

    Independent oracle for `braiding`: first an inner induction moves one
    head past a whole list, then an outer induction peels x.

    >>> braiding_recursive(SList(("a",)), SList(("b",))).phi.img
    (1, 0)
    >>> braiding_recursive(SList(("a", "b")), SList(("c",))).phi.img
    (2, 0, 1)
    """
    word = _braiding_word(x, y)
    return hom_from_word(GenWord(tensor_obj(x, y), tuple(word)))
