"""Acceptance criteria, one test per criterion.

All checks are exact (discrete data, zero tolerance).  Each test prints one
pass line; run with ``pytest -s tests/test_acceptance.py`` to see them.
Exhaustive bounds follow the criteria; where a law quantifies over tuples
of composable data (span chains, pasted squares) the suite exhausts every
shape at the largest affordable size and adds seeded random instances at
the stated size, as documented in the suite docstrings.
"""

import io
import json
from random import Random

from smckit import laws
from smckit.cli import main, parse_mor, render_mor


def _report(name, report, expected_cases):
    assert report.ok, f"ACCEPTANCE {name}: FAIL\n{report}"
    # seed-0 case counts are pinned: a refactor that drops or adds checks shows here
    assert report.cases == expected_cases, f"ACCEPTANCE {name}: {report.cases} checks, expected {expected_cases}"
    print(f"ACCEPTANCE {name}: PASS ({report.cases} checks)")


def test_acceptance_coxeter():
    # relations and word/permutation round trips, exhaustive n <= 6 (720
    # permutations at n=6), 10^3 random samples at n <= 8, exchange on
    # every applicable (reduced word, generator) pair for n <= 6
    _report("coxeter", laws.coxeter_suite(seed=0), 7967)


def test_acceptance_faithfulness():
    # 10^3 random generator words per list length <= 8; word/hom round
    # trip; words agree as morphisms exactly when their permutations do
    _report("faithfulness", laws.faithfulness_suite(seed=0), 16000)


def test_acceptance_coherence():
    # 10^3 random well-typed terms over 5 generators survive axiom
    # rewrites; pentagon/triangle/hexagon/symmetry instances decide true;
    # the braid-vs-identity pair on a repeated generator decides false
    _report("coherence", laws.coherence_suite(seed=0), 2004)


def test_acceptance_braiding_oracle():
    # block-formula braiding equals the recursive construction, all shapes
    # with |x| + |y| <= 8
    _report("braiding-oracle", laws.braiding_suite(seed=0), 90)


def test_acceptance_span_bicategory():
    # pentagon, triangle, interchange and adjunction triangles; adjunction
    # and triangle exhaustive, pentagon shape-exhaustive at size 1, plus
    # 10^3 seeded random instances at sizes 3 and 5
    _report("span-bicategory", laws.span_suite(seed=0), 5120)


def test_acceptance_kleisli():
    # matrix-like composite multisets and duality multiplicity symmetry,
    # exhaustive small families plus 10^3 random larger ones
    _report("kleisli", laws.kleisli_suite(seed=0), 32823)


def test_acceptance_pbc_lambda():
    # the defining law families of the fiber/value system over squares
    # with sets of size <= 3, linearity of every produced list, and the
    # generated pseudofunctor's coherence cells
    _report("pbc-lambda", laws.pbc_suite(seed=0), 3395)


def test_acceptance_unbias():
    # per-index objects match the independent fiber oracle for exhaustive
    # spans over sets of size <= 3; every evaluated coherence law decides
    # equal in the free term model
    _report("unbias", laws.unbias_suite(seed=0), 8395)


def test_acceptance_cli():
    def run(*argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    cases = 0
    code, text = run("normalize", "a x y z")
    assert code == 0 and "phi=[0,1,2]" in text
    cases += 1
    code, text = run(
        "equal",
        "a x y z ; b x (y*z) ; a y z x",
        "(b x y * id z) ; a y x z ; (id y * b x z)",
    )
    assert code == 0 and text == "equal: true\n"
    cases += 1
    code, text = run("equal", "b x x", "id (x*x)")
    assert code == 1 and "lhs phi=[1,0]" in text
    cases += 1
    span = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": 3,
        "left": {"target": 2, "img": [0, 1, 0]},
        "right": {"target": 2, "img": [0, 0, 1]},
    })
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 2,
        "entries": {"0": "x", "1": "(y*z)"},
    })
    code, text = run("unbias", span, family)
    assert code == 0
    assert text.splitlines()[0] == "k=0: fiber=[0,1] object: (x * ((y * z) * I))"
    cases += 1
    ident = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": 2,
        "left": {"target": 2, "img": [0, 1]},
        "right": {"target": 2, "img": [0, 1]},
    })
    code, text = run("span-compose", ident, ident)
    assert code == 0 and "apex: 2" in text
    cases += 1

    rng = Random(99)
    for _ in range(1000):
        term = laws.random_walk_term(rng, ["x0", "x1", "x2", "x3", "x4"], rng.randint(0, 5))
        assert parse_mor(render_mor(term)) == term
        cases += 1
    print(f"ACCEPTANCE cli: PASS ({cases} checks)")
