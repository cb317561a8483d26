"""``cli.SyntaxModel``: the text of each formula, written while it is evaluated.

Its outputs are compared with the texts ``render_obj`` and ``render_mor``
write of the same formulas evaluated in ``FreeTermModel``: the unbiased
objects and cells of random spans, and the canonical terms of random list
morphisms.  Its equality is the decision procedure, so the symmetric
monoidal laws hold in it and a false equation is refused.
"""

from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from smckit.cli import SyntaxModel, joined, parse_obj, render_mor, render_obj
from smckit.errors import BoundaryMismatch
from smckit.models import FreeTermModel, smc_law_failures
from smckit.perms import Perm
from smckit.slist import SList, SListHom
from smckit.spans import FinFun, FinSet, Span, span_pull, span_push
from smckit.terms import Gen, canonical_term, psi_hom
from smckit.unbias import unbias_comp_iso, unbias_eval, unbias_unit_iso

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
LABELS = ("x", "y", "z", "w")


def _object_text(rng: Random, depth: int = 3) -> str:
    """An object in the CLI's syntax, unit and nested tensors included."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return "I" if roll < 0.1 else rng.choice(LABELS)
    return f"({_object_text(rng, depth - 1)} * {_object_text(rng, depth - 1)})"


def _span(rng: Random, dom: int, cod: int, max_fiber: int) -> Span:
    """A span from ``dom`` to ``cod`` points with right fibers of up to ``max_fiber`` elements."""
    sizes = [rng.randint(0, max_fiber) if dom else 0 for _ in range(cod)]
    right = [k for k, n in enumerate(sizes) for _ in range(n)]
    rng.shuffle(right)
    apex = FinSet(len(right))
    left = tuple(rng.randrange(dom) for _ in right)
    return Span(FinFun(apex, FinSet(dom), left), FinFun(apex, FinSet(cod), tuple(right)))


def _both_models(rng: Random, dom: int) -> tuple[dict, dict]:
    """One random family of ``dom`` entries, as terms and as the texts the CLI assigns."""
    terms = {j: parse_obj(_object_text(rng)) for j in range(dom)}
    return terms, {j: render_obj(o) for j, o in terms.items()}


def _texts(cells) -> list[str]:
    return [joined(c) for c in cells]


def _rendered(cells) -> list[str]:
    return [render_mor(c) for c in cells]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 60), SEEDS)
@example(0, 0, 60, 0)  # every set empty
@example(0, 3, 60, 0)  # an empty foot and apex under a non-empty one
@example(3, 0, 60, 0)
@example(3, 3, 0, 0)  # an empty apex over non-empty feet
@example(3, 3, 60, 1)
def test_unbiased_objects_and_cells_match_the_term_model(dom, cod, max_fiber, seed):
    rng = Random(seed)
    s = _span(rng, dom, cod, max_fiber)
    terms, texts = _both_models(rng, dom)
    free, syntax = FreeTermModel(), SyntaxModel()
    assert list(unbias_eval(s, syntax, texts).objects) == list(map(render_obj, unbias_eval(s, free, terms).objects))
    # the pull/push factorization that ``smckit unbias --cells`` evaluates
    pull, push = span_pull(s.left), span_push(s.right)
    assert _texts(unbias_comp_iso(pull, push, syntax, texts)) == _rendered(unbias_comp_iso(pull, push, free, terms))
    assert _texts(unbias_unit_iso(s.dom, syntax, texts)) == _rendered(unbias_unit_iso(s.dom, free, terms))
    # a composable pair of small spans, whose composite fibers hold several blocks
    t = _span(rng, cod, rng.randint(0, 3), 4)
    s = _span(rng, dom, cod, 4)
    assert _texts(unbias_comp_iso(s, t, syntax, texts)) == _rendered(unbias_comp_iso(s, t, free, terms))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.sampled_from(LABELS[:3]), min_size=n, max_size=n))))
def test_canonical_text_matches_the_canonical_term(draw):
    img, labels = draw
    h = SListHom(SList(tuple(labels)), SList(tuple(labels[i] for i in img)), Perm(tuple(img)))
    assert joined(psi_hom(SyntaxModel(), str, h)) == render_mor(canonical_term(h))


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_the_laws_hold_in_the_syntax_model(seed):
    rng = Random(seed)
    objs = [_object_text(rng, 2) for _ in range(4)]
    assert smc_law_failures(SyntaxModel(), objs) == []


def test_equality_is_the_decision_procedure():
    m = SyntaxModel()
    assert m.mor_equal(m.compose(m.braid("x", "y"), m.braid("y", "x")), m.identity("(x * y)"))
    assert m.mor_equal(m.braid_inv("x", "y"), m.braid("y", "x"))
    assert not m.mor_equal(m.braid("x", "x"), m.identity("(x * x)"))
    with pytest.raises(BoundaryMismatch):
        m.mor_equal(m.identity("x"), m.identity("y"))


def test_the_inverses_are_written_as_the_term_model_writes_them():
    m, free = SyntaxModel(), FreeTermModel()
    x, y, z = (Gen(label) for label in "xyz")
    assert joined(m.braid_inv("x", "y")) == render_mor(free.braid_inv(x, y)) == "inv (b x y)"
    assert joined(m.assoc_inv("x", "y", "z")) == render_mor(free.assoc_inv(x, y, z)) == "inv (a x y z)"
    assert joined(m.left_unitor_inv("x")) == render_mor(free.left_unitor_inv(x)) == "inv (l x)"
    assert joined(m.right_unitor_inv("x")) == render_mor(free.right_unitor_inv(x)) == "inv (r x)"


def test_a_deep_morphism_is_joined_without_recursion(shallow_stack):
    m = SyntaxModel()
    f = m.identity("x")
    for _ in range(5000):
        f = m.compose(m.tensor_mor(m.identity("I"), f), m.left_unitor("x"))
    text = joined(f)
    assert text.startswith("(id I * (id I * ") and text.endswith(") ; l x")
    assert text.count("id I") == 5000 and text.count(" ; l x") == 5000
