"""
Symmetric lists: label lists whose morphisms are label-preserving index
bijections.

A morphism ``f : src -> dst`` stores the permutation ``phi`` of size
``len(dst)`` reading target indices back to source indices, subject to
``src[phi(i)] == dst[i]``.  Storing the bijection instead of a quotiented
generator path is lossless: two morphisms are equal exactly when their
``phi`` sequences agree, and every generator word can be recovered from
``phi`` via its canonical reduced word.

Labels come from any alphabet that is equality-comparable and orderable
(duality and fiber enumeration downstream sort by label), and hashable
where multisets (``collections.Counter``) count them.  All values here are
immutable and all operations pure.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator

from .errors import (
    NotLinear,
    NotPermutationEquivalent,
    PositionOutOfRange,
    SourceTargetMismatch,
)
from .perms import Perm, reduced_word, word_to_perm
from .values import value


@value
class SList:
    """A finite list of labels.

    >>> print(SList(("a", "b", "c")))
    [a,b,c]
    """

    labels: tuple[Any, ...]

    def __post_init__(self):
        if type(self.labels) is not tuple:
            object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int):
        return self.labels[i]

    def __iter__(self) -> Iterator:
        return iter(self.labels)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.labels)) + "]"


@value(unchecked=True)
class SListHom:
    """A label-preserving index bijection between two lists of equal length.

    ``phi`` maps indices of ``dst`` to indices of ``src``; label transport
    ``src[phi(i)] == dst[i]`` is checked at construction.
    """

    src: SList
    dst: SList
    phi: Perm

    def __post_init__(self):
        n = len(self.dst)
        if len(self.src) != n:
            raise SourceTargetMismatch(f"lists of different lengths: {len(self.src)} vs {n}")
        if self.phi.n != n:
            raise SourceTargetMismatch(f"phi has size {self.phi.n}, expected {n}")
        src, img = self.src.labels, self.phi.img
        if tuple(map(src.__getitem__, img)) != self.dst.labels:
            # only a failing check pays for the loop that names the first bad index
            for i, (j, label) in enumerate(zip(img, self.dst.labels)):
                if src[j] != label:
                    raise SourceTargetMismatch(
                        f"label transport fails at index {i}: "
                        f"{self.src}[{j}] != {self.dst}[{i}]"
                    )

    def __str__(self) -> str:
        return f"phi={self.phi}"


@value
class GenWord:
    """A start list plus adjacent-swap positions applied to the running list."""

    start: SList
    positions: tuple[int, ...]

    def __post_init__(self):
        for p in self.positions:
            # lengths are constant along a word, so one bound serves all steps
            if not 0 <= p < len(self.start) - 1:
                raise PositionOutOfRange(
                    f"position {p} invalid for a list of length {len(self.start)}"
                )


def identity_hom(l: SList) -> SListHom:
    return SListHom._unchecked(l, l, Perm.identity(len(l)))  # the identity transports every label


def hom_from_word(g: GenWord) -> SListHom:
    """Realize a generator word as an index bijection.

    >>> h = hom_from_word(GenWord(SList(("a", "b", "c")), (0, 1)))
    >>> str(h.dst), h.phi.img
    ('[b,c,a]', (1, 2, 0))
    """
    phi = word_to_perm(g.positions, len(g.start))
    # dst is read off start through phi, so phi transports its labels
    return SListHom._unchecked(g.start, SList(tuple(map(g.start.labels.__getitem__, phi.img))), phi)


def word_from_hom(f: SListHom) -> GenWord:
    """A canonical generator word recomposing to f, via the reduced word of phi."""
    return GenWord(f.src, reduced_word(f.phi))


def compose(f: SListHom, g: SListHom) -> SListHom:
    """Diagram-order composite: f first, then g."""
    if f.dst != g.src:
        raise SourceTargetMismatch(f"cannot compose: {f.dst} != {g.src}")
    # g transports g.src = f.dst to g.dst, and f transports f.src to f.dst
    return SListHom._unchecked(f.src, g.dst, f.phi * g.phi)


def invert(f: SListHom) -> SListHom:
    # f.src[phi(i)] == f.dst[i] for every i is f.dst[inv(j)] == f.src[j] for every j
    return SListHom._unchecked(f.dst, f.src, f.phi.inverse())


def hom_equal(f: SListHom, g: SListHom) -> bool:
    """Equality of parallel morphisms; this is decided entirely by phi."""
    if f.src != g.src or f.dst != g.dst:
        raise SourceTargetMismatch("hom_equal needs parallel morphisms")
    return f.phi == g.phi


def underlying_multiset(l: SList) -> Counter:
    return Counter(l.labels)


def is_linear(l: SList) -> bool:
    """True iff no label repeats."""
    return len(set(l.labels)) == len(l.labels)


def unique_hom_linear(src: SList, dst: SList) -> SListHom:
    """The unique morphism between permutation-equivalent linear lists.

    >>> unique_hom_linear(SList(("a", "b")), SList(("b", "a"))).phi.img
    (1, 0)
    """
    if not (is_linear(src) or is_linear(dst)):
        raise NotLinear(f"neither {src} nor {dst} is linear")
    # one side is linear, so equal length and equal label sets mean equal multisets
    position = {label: i for i, label in enumerate(src.labels)}
    if len(src) != len(dst) or position.keys() != set(dst.labels):
        raise NotPermutationEquivalent(f"{src} and {dst} differ as multisets")
    # both lists are linear on one label set, so phi is a bijection that transports labels
    phi = Perm._unchecked(tuple([position[label] for label in dst.labels]))
    return SListHom._unchecked(src, dst, phi)
