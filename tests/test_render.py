"""Rendering: the CLI renderer against the renderer that walks every occurrence."""

import tracemalloc
from random import Random

from hypothesis import given, settings, strategies as st

from render_oracle import render_mor as render_mor_oracle
from smckit.cli import render_mor
from smckit.laws import random_khom
from smckit.perms import Perm
from smckit.slist import SList, SListHom
from smckit.terms import (
    Assoc,
    Braid,
    Comp,
    FreeTermModel,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    Par,
    RightUnitor,
    Tensor,
    Unit,
    canonical_term,
    psi_split,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _dag_term(rng: Random):
    """A morphism term whose object and morphism nodes are reused instances."""
    objs = [Unit(), Gen("x"), Gen(7), Gen("y")]
    for _ in range(rng.randint(0, 8)):
        objs.append(Tensor(rng.choice(objs), rng.choice(objs)))
    pick = lambda: rng.choice(objs[-3:] if rng.random() < 0.5 else objs)
    atoms = (
        lambda: Id(pick()),
        lambda: Assoc(pick(), pick(), pick()),
        lambda: LeftUnitor(pick()),
        lambda: RightUnitor(pick()),
        lambda: Braid(pick(), pick()),
    )
    mors = [rng.choice(atoms)() for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 7)):
        kind = rng.randrange(4)
        if kind == 0:
            mors.append(rng.choice(atoms)())
        elif kind == 1:
            mors.append(Comp(rng.choice(mors), rng.choice(mors)))
        elif kind == 2:
            mors.append(Par(rng.choice(mors), rng.choice(mors)))
        else:
            mors.append(Inv(rng.choice(mors)))
    return mors[-1]


@settings(max_examples=300, deadline=None)
@given(SEEDS)
def test_render_matches_the_oracle_on_shared_nodes(seed):
    t = _dag_term(Random(seed))
    assert render_mor(t) == render_mor_oracle(t)


@settings(max_examples=100, deadline=None)
@given(st.permutations(range(7)), st.lists(st.sampled_from("abc"), min_size=7, max_size=7))
def test_render_matches_the_oracle_on_canonical_terms(img, labels):
    dst = tuple(labels[i] for i in img)
    t = canonical_term(SListHom(SList(tuple(labels)), SList(dst), Perm(tuple(img))))
    assert render_mor(t) == render_mor_oracle(t)


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_render_matches_the_oracle_on_unbiased_cells(seed):
    rng = Random(seed)
    m = FreeTermModel()
    values = [rng.choice((Gen("p"), Gen("q"), Tensor(Gen("p"), Unit()))) for _ in range(rng.randint(0, 6))]
    rest = Tensor(Gen("r"), Unit()) if rng.random() < 0.5 else Unit()
    iso, fold = psi_split(m, values, rest)
    assert render_mor(iso) == render_mor_oracle(iso)
    assert render_mor(Id(fold)) == render_mor_oracle(Id(fold))
    i, j = rng.randint(1, 4), rng.randint(0, 4)
    g = random_khom(rng, i, j, 3)
    l = SList(tuple(rng.randrange(i) for _ in range(rng.randint(0, 5))))
    assignment = {k: rng.choice((Gen(f"x{k}"), Tensor(Gen(f"x{k}"), Gen("y")))) for k in range(j)}
    # the iso from the fold of Theta_g(l) to the iterated fold
    iso = m.regroup([[assignment[label] for label in g.lists[head].labels] for head in l.labels])
    assert render_mor(iso) == render_mor_oracle(iso)


def _render_peak(depth: int) -> int:
    obj = Unit()
    for k in range(depth):
        obj = Tensor(Gen(f"x{k}"), obj)
    term = Id(obj)
    tracemalloc.start()
    try:
        text = render_mor(term)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == len(render_mor_oracle(term))
    return peak


def test_render_memory_is_linear_without_sharing():
    # a text kept per node would hold every suffix of the nest: about 16x here
    assert _render_peak(4000) < 8 * _render_peak(1000)
