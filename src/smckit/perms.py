"""
Finite permutations and words in adjacent transpositions.

A permutation of ``{0..n-1}`` is stored in one-line notation: ``img[i]`` is
the image of ``i``.  Composition is ``(p * q)(i) = p(q(i))``, so the right
factor acts first; every module downstream inherits this convention.

A word is a plain sequence of generator indices, letter ``i`` standing for
the adjacent transposition ``t_i`` swapping ``i`` and ``i+1``.  A word acts
on a list by performing its swaps left to right; the permutation of the
whole word is then ``t_{w[0]} * t_{w[1]} * ... * t_{w[-1]}``, which reads
final positions back to original ones.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import LetterOutOfRange, NoReductionPossible, NoSuchIndex, NotReduced
from .values import value

Word = tuple[int, ...]


@value(unchecked=True)
class Perm:
    """A bijection of {0..n-1} as an image sequence.

    >>> Perm((1, 0, 2))(0)
    1
    >>> Perm((1, 2, 0)) * Perm((1, 2, 0))
    Perm(img=(2, 0, 1))
    """

    img: tuple[int, ...]

    def __post_init__(self):
        if type(self.img) is not tuple:
            object.__setattr__(self, "img", tuple(self.img))
        for v in self.img:
            if type(v) is not int:
                raise ValueError(f"value {v!r} is not an integer")
        if sorted(self.img) != list(range(len(self.img))):
            raise ValueError(f"not a permutation of range({len(self.img)}): {self.img}")

    @property
    def n(self) -> int:
        return len(self.img)

    def __call__(self, i: int) -> int:
        return self.img[i]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(i) = p(q(i)): q acts first.
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        # a composite of two bijections of one set is a bijection
        return Perm._unchecked(tuple(map(self.img.__getitem__, other.img)))

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, v in enumerate(self.img):
            inv[v] = i
        # each position is written once, since img is a bijection
        return Perm._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.img))

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm._unchecked(tuple(range(n)))  # the identity of range(n) is a bijection

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.img)) + "]"


@value
class CoxeterMatrixA:
    """The type-A Coxeter matrix on {0..rank-1}.

    Entries are evaluated lazily, so any pair of naturals may be queried;
    this doubles as the infinite-rank matrix.
    """

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be a natural number")

    def entry(self, i: int, j: int) -> int:
        """Entry m(i, j): 1 on the diagonal, 3 next to it, 2 elsewhere.

        >>> a4 = CoxeterMatrixA(4)
        >>> a4.entry(2, 2), a4.entry(1, 2), a4.entry(0, 3)
        (1, 3, 2)
        """
        if i < 0 or j < 0:
            raise ValueError("indices must be naturals")
        if i == j:
            return 1
        if abs(i - j) == 1:
            return 3
        return 2


def block_sum(p: Perm, q: Perm) -> Perm:
    """p on the first p.n points, q shifted onto the q.n points after them.

    >>> block_sum(Perm((1, 0)), Perm((0,))).img
    (1, 0, 2)
    """
    m = p.n
    return Perm(p.img + tuple([m + j for j in q.img]))


def block_swap(a: int, b: int) -> Perm:
    """The block transposition moving a block of a points past one of b.

    >>> block_swap(1, 2).img
    (1, 2, 0)
    """
    return Perm(tuple(range(a, a + b)) + tuple(range(a)))


def block_perm(sizes: Sequence[int], phi: Perm) -> Perm:
    """The permutation moving whole blocks the way phi moves points.

    ``sizes[j]`` is the size of block j of the source; block i of the
    target is block phi(i) of the source, its positions kept in order.

    >>> block_perm((1, 2), Perm((1, 0))).img
    (1, 2, 0)
    >>> block_perm((2, 0, 1), Perm((2, 0, 1))).img
    (2, 0, 1)
    """
    if len(sizes) != phi.n:
        raise ValueError(f"{len(sizes)} block sizes for a permutation of size {phi.n}")
    offsets = list(itertools.accumulate(sizes, initial=0))
    img: list[int] = []
    for j in phi.img:
        img += range(offsets[j], offsets[j + 1])
    return Perm(tuple(img))


def word_to_perm(word: Sequence[int], n: int) -> Perm:
    """Multiply out a word of adjacent transpositions in S_n.

    The swaps are performed left to right on positions, which realizes the
    product ``t_{word[0]} * ... * t_{word[-1]}``.

    >>> word_to_perm([], 3).img
    (0, 1, 2)
    >>> word_to_perm([0], 2).img
    (1, 0)
    >>> word_to_perm([0, 1, 0], 3).img
    (2, 1, 0)
    >>> word_to_perm([0, 1], 3).img
    (1, 2, 0)
    """
    img = list(range(n))
    for letter in word:
        if not 0 <= letter < n - 1:
            raise LetterOutOfRange(f"letter {letter} needs size >= {letter + 2}, got {n}")
        img[letter], img[letter + 1] = img[letter + 1], img[letter]
    # swaps of the identity, each inside range(n)
    return Perm._unchecked(tuple(img))


def inversion_length(p: Perm) -> int:
    """Number of pairs i < j with p(i) > p(j).

    >>> inversion_length(Perm((0, 1, 2)))
    0
    >>> inversion_length(Perm((1, 2, 0)))
    2
    >>> inversion_length(Perm((2, 1, 0)))
    3
    """
    img = p.img
    return sum(1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j])


def reduced_word(p: Perm) -> Word:
    """A canonical shortest word for p, of length inversion_length(p).

    Selection is by leftmost descent: repeatedly clear the smallest position
    i with p(i) > p(i+1).  The sweep is deterministic, so the output is a
    canonical form.

    >>> reduced_word(Perm((0, 1, 2)))
    ()
    >>> reduced_word(Perm((1, 0, 2)))
    (0,)
    >>> word_to_perm(reduced_word(Perm((2, 1, 0))), 3).img
    (2, 1, 0)
    """
    img = list(p.img)
    emitted = []
    i = 0
    while i < len(img) - 1:
        if img[i] > img[i + 1]:
            emitted.append(i)
            img[i], img[i + 1] = img[i + 1], img[i]
            i = max(i - 1, 0)
        else:
            i += 1
    # Clearing descents right-multiplies by t_i, so the word reads reversed.
    return tuple(reversed(emitted))


def is_reduced(word: Sequence[int], n: int) -> bool:
    """True iff the word has minimal length among words for its permutation.

    >>> is_reduced([0, 0], 2)
    False
    >>> is_reduced([0, 1], 3)
    True
    >>> is_reduced([], 5)
    True
    """
    return len(word) == inversion_length(word_to_perm(word, n))


def exchange_step(word: Sequence[int], b: int, n: int) -> int:
    """Index of the letter absorbed when prepending generator b to a reduced word.

    Requires ``word`` reduced and ``t_b * word`` no longer than ``word``; the
    returned i is the least index with ``[b] + word`` and ``word`` minus its
    i-th letter equal in S_n.

    >>> exchange_step([0], 0, 2)
    0
    >>> exchange_step([1, 0], 1, 3)
    0
    >>> exchange_step([0, 1], 0, 3)
    0
    """
    word = tuple(word)
    if not is_reduced(word, n):
        raise NotReduced(f"word {word} is not reduced in S_{n}")
    target = word_to_perm((b,) + word, n)
    if inversion_length(target) > len(word):
        raise NoReductionPossible(f"prepending {b} lengthens {word}")
    for i in range(len(word)):
        if word_to_perm(word[:i] + word[i + 1 :], n) == target:
            return i
    raise NoSuchIndex(f"exchange failed for b={b}, word={word}; this is a bug")


def all_perms(n: int) -> Iterator[Perm]:
    """All permutations of {0..n-1}, in lexicographic image order."""
    for img in itertools.permutations(range(n)):
        yield Perm(img)
