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
(duality and fiber enumeration downstream sort by label).  All values here
are immutable and all operations pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from .errors import (
    NotLinear,
    NotPermutationEquivalent,
    PositionOutOfRange,
    SourceTargetMismatch,
)
from .perms import Perm, reduced_word, word_to_perm


@dataclass(frozen=True)
class SList:
    """A finite list of labels.

    >>> print(SList(("a", "b", "c")))
    [a,b,c]
    """

    labels: tuple[Any, ...]

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i: int):
        return self.labels[i]

    def __iter__(self) -> Iterator:
        return iter(self.labels)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.labels)) + "]"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Multiset:
    """A finite map label -> positive count, kept sorted by label.

    >>> Multiset.from_iterable("aba").count("a")
    2
    >>> Multiset.from_iterable("ab") + Multiset.from_iterable("b")
    Multiset(items=(('a', 1), ('b', 2)))
    """

    items: tuple[tuple[Any, int], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.items]
        if labels != sorted(labels):
            raise ValueError(f"items not sorted by label: {self.items}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels: {self.items}")
        if any(c <= 0 for _, c in self.items):
            raise ValueError(f"zero or negative count stored: {self.items}")

    @staticmethod
    def from_iterable(labels) -> "Multiset":
        counts: dict = {}
        for label in labels:
            counts[label] = counts.get(label, 0) + 1
        return Multiset(tuple(sorted(counts.items())))

    @staticmethod
    def empty() -> "Multiset":
        return Multiset(())

    def count(self, label) -> int:
        for k, c in self.items:
            if k == label:
                return c
        return 0

    def support(self) -> tuple:
        return tuple(k for k, _ in self.items)

    def total(self) -> int:
        return sum(c for _, c in self.items)

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self.items)
        for k, c in other.items:
            counts[k] = counts.get(k, 0) + c
        return Multiset(tuple(sorted(counts.items())))

    def scale(self, n: int) -> "Multiset":
        if n < 0:
            raise ValueError("scale factor must be a natural number")
        if n == 0:
            return Multiset(())
        return Multiset(tuple((k, c * n) for k, c in self.items))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{k}:{c}" for k, c in self.items) + "}"


def identity_hom(l: SList) -> SListHom:
    return SListHom(l, l, Perm.identity(len(l)))


def apply_positions(start: SList, positions: Sequence[int]) -> SList:
    """The list obtained by performing the swaps left to right."""
    labels = list(start.labels)
    for p in positions:
        if not 0 <= p < len(labels) - 1:
            raise PositionOutOfRange(f"position {p} invalid for length {len(labels)}")
        labels[p], labels[p + 1] = labels[p + 1], labels[p]
    return SList(tuple(labels))


def hom_from_word(g: GenWord) -> SListHom:
    """Realize a generator word as an index bijection.

    >>> h = hom_from_word(GenWord(SList(("a", "b", "c")), (0, 1)))
    >>> str(h.dst), h.phi.img
    ('[b,c,a]', (1, 2, 0))
    """
    dst = apply_positions(g.start, g.positions)
    phi = word_to_perm(g.positions, len(g.start))
    return SListHom(g.start, dst, phi)


def word_from_hom(f: SListHom) -> GenWord:
    """A canonical generator word recomposing to f, via the reduced word of phi."""
    return GenWord(f.src, reduced_word(f.phi))


def compose(f: SListHom, g: SListHom) -> SListHom:
    """Diagram-order composite: f first, then g."""
    if f.dst != g.src:
        raise SourceTargetMismatch(f"cannot compose: {f.dst} != {g.src}")
    return SListHom(f.src, g.dst, f.phi * g.phi)


def invert(f: SListHom) -> SListHom:
    return SListHom(f.dst, f.src, f.phi.inverse())


def hom_equal(f: SListHom, g: SListHom) -> bool:
    """Equality of parallel morphisms; this is decided entirely by phi."""
    if f.src != g.src or f.dst != g.dst:
        raise SourceTargetMismatch("hom_equal needs parallel morphisms")
    return f.phi == g.phi


def underlying_multiset(l: SList) -> Multiset:
    return Multiset.from_iterable(l.labels)


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
    if sorted(src.labels) != sorted(dst.labels):
        raise NotPermutationEquivalent(f"{src} and {dst} differ as multisets")
    position = {label: i for i, label in enumerate(src.labels)}
    phi = Perm(tuple(position[label] for label in dst.labels))
    return SListHom(src, dst, phi)
