"""Permutation core: words, reduced words, exchange, Coxeter matrix."""

import itertools
from random import Random

import pytest
from hypothesis import given, strategies as st

from smckit.errors import LetterOutOfRange, NoReductionPossible, NotReduced
from smckit.perms import (
    Perm,
    all_perms,
    block_perm,
    block_swap,
    coxeter_entry,
    exchange_step,
    inversion_length,
    is_reduced,
    reduced_word,
    word_to_perm,
)


# --- independent oracles -----------------------------------------------------


def transposition(n, i):
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in range(n))


def compose_images(p, q):
    # (p . q)(i) = p(q(i)), by direct function application
    return tuple(p[q[i]] for i in range(len(q)))


def word_oracle(word, n):
    acc = tuple(range(n))
    for letter in reversed(word):
        acc = compose_images(transposition(n, letter), acc)
    return acc


def inversions_oracle(img):
    return sum(1 for i, j in itertools.combinations(range(len(img)), 2) if img[i] > img[j])


def shortest_words(target, n, max_len):
    found = []
    for length in range(max_len + 1):
        for word in itertools.product(range(n - 1), repeat=length):
            if word_oracle(word, n) == target:
                found.append(word)
        if found:
            return length, found
    return None, []


# --- word_to_perm ------------------------------------------------------------


def test_word_to_perm_examples():
    assert word_to_perm([], 3).img == (0, 1, 2)
    assert word_to_perm([0], 2).img == (1, 0)
    # derived by composing transpositions pointwise
    assert word_oracle((0, 1, 0), 3) == (2, 1, 0)
    assert word_to_perm([0, 1, 0], 3).img == (2, 1, 0)
    assert word_oracle((0, 1), 3) == (1, 2, 0)
    assert word_to_perm([0, 1], 3).img == (1, 2, 0)


def test_word_to_perm_letter_out_of_range():
    with pytest.raises(LetterOutOfRange):
        word_to_perm([2], 3)


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 2), max_size=12))))
def test_word_to_perm_matches_oracle(data):
    n, word = data
    assert word_to_perm(word, n).img == word_oracle(tuple(word), n)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 2), max_size=8),
            st.lists(st.integers(0, n - 2), max_size=8),
        )
    )
)
def test_concatenation_is_composition(data):
    n, u, v = data
    assert word_to_perm(u + v, n) == word_to_perm(u, n) * word_to_perm(v, n)


# --- inversion_length --------------------------------------------------------


def test_inversion_length_examples():
    assert inversion_length(Perm((0, 1, 2))) == 0
    assert inversions_oracle((1, 2, 0)) == 2
    assert inversion_length(Perm((1, 2, 0))) == 2
    assert inversions_oracle((2, 1, 0)) == 3
    assert inversion_length(Perm((2, 1, 0))) == 3


# --- reduced_word ------------------------------------------------------------


def test_reduced_word_examples():
    assert reduced_word(Perm((0, 1, 2))) == ()
    assert reduced_word(Perm((1, 0, 2))) == (0,)
    length, words = shortest_words((2, 1, 0), 3, 4)
    assert length == 3
    w = reduced_word(Perm((2, 1, 0)))
    assert len(w) == 3 and w in words


@pytest.mark.parametrize("n", range(1, 7))
def test_reduced_word_round_trip_exhaustive(n):
    for p in all_perms(n):
        w = reduced_word(p)
        assert word_to_perm(w, n) == p
        assert len(w) == inversion_length(p)


def test_reduced_word_is_canonical():
    # deterministic: repeated calls and structurally equal inputs agree
    p = Perm((3, 1, 4, 0, 2))
    assert reduced_word(p) == reduced_word(Perm((3, 1, 4, 0, 2)))


# --- is_reduced ---------------------------------------------------------------


def test_is_reduced_examples():
    assert not is_reduced([0, 0], 2)
    assert is_reduced([0, 1], 3)
    assert is_reduced([], 5)


# --- exchange_step -----------------------------------------------------------


def test_exchange_step_examples():
    assert exchange_step([0], 0, 2) == 0
    # s1 s1 s0 = s0: erase index 0
    assert word_oracle((1, 1, 0), 3) == word_oracle((0,), 3)
    assert exchange_step([1, 0], 1, 3) == 0
    assert word_oracle((0, 0, 1), 3) == word_oracle((1,), 3)
    assert exchange_step([0, 1], 0, 3) == 0


def test_exchange_step_errors():
    with pytest.raises(NotReduced):
        exchange_step([0, 0], 0, 2)
    with pytest.raises(NoReductionPossible):
        exchange_step([0], 1, 3)


def test_exchange_property_random_words():
    rng = Random(3)
    for _ in range(300):
        n = rng.randint(2, 7)
        img = list(range(n))
        rng.shuffle(img)
        w = reduced_word(Perm(tuple(img)))
        assert is_reduced(w, n)
        for b in range(n - 1):
            target = word_to_perm((b,) + w, n)
            if inversion_length(target) > len(w):
                continue
            i = exchange_step(w, b, n)
            erased = w[:i] + w[i + 1 :]
            assert word_to_perm(erased, n) == target
            assert is_reduced(erased, n)


# --- Coxeter matrix ----------------------------------------------------------


def test_matrix_entries():
    assert coxeter_entry(2, 2) == 1
    assert coxeter_entry(1, 2) == 3
    assert coxeter_entry(0, 3) == 2
    # the infinite view answers any pair
    assert coxeter_entry(10, 12) == 2 and coxeter_entry(10, 11) == 3
    with pytest.raises(ValueError, match="indices must be naturals"):
        coxeter_entry(-1, 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_coxeter_relations_semantically(n):
    for i in range(n - 1):
        for j in range(n - 1):
            word = (i, j) * coxeter_entry(i, j)
            assert word_to_perm(word, n).is_identity()


def test_perm_group_basics():
    p = Perm((1, 2, 0))
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


@pytest.mark.parametrize("img, shown", [((0.0, 1.0), "0.0"), ((0, True), "True"), ((1, "0"), "'0'")])
def test_perm_refuses_a_value_that_is_not_an_int(img, shown):
    # each passed the sorted-range check or broke inverse() before
    with pytest.raises(ValueError, match=rf"^value {shown} is not an integer$"):
        Perm(img)


def test_perm_from_a_list_is_the_perm_from_a_tuple():
    p = Perm([1, 0])
    assert p.img == (1, 0)
    assert p == Perm((1, 0))
    assert hash(p) == hash(Perm((1, 0)))


@given(st.integers(0, 6), st.integers(0, 6))
def test_block_perm_of_the_swap_is_block_swap(a, b):
    assert block_perm((a, b), Perm((1, 0))) == block_swap(a, b)


@given(st.lists(st.integers(0, 3), max_size=6), st.randoms(use_true_random=False))
def test_block_perm_moves_whole_blocks(sizes, rng):
    img = list(range(len(sizes)))
    rng.shuffle(img)
    phi = Perm(tuple(img))
    points = [(j, t) for j, size in enumerate(sizes) for t in range(size)]  # (block, offset) of each source point
    moved = [(j, t) for j in phi.img for t in range(sizes[j])]
    assert block_perm(sizes, phi).img == tuple(map(points.index, moved))


def test_block_perm_needs_one_size_per_point():
    with pytest.raises(ValueError):
        block_perm((1, 1, 1), Perm((1, 0)))
