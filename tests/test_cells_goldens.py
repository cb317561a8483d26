"""Golden stdout of the commands with ``--cells``, in text and in record format.

``span-compose --cells`` over a chain of three spans prints the composite,
the unitor cells and the associator cell; ``unbias --cells`` prints the
unbiased objects, the composition cells of the span's pull/push
factorization and the unit cells, in the term model and in the slist model.
A second term-model case has an empty, a one-element and a three-element
fiber over entries that hold ``I`` and nested tensors.  ``normalize`` of a
braiding of four labels, one of them repeated, prints its canonical term.
"""

import io
import json

import pytest

from smckit.cli import main

SPANS = [
    {"schema": "smckit/1", "kind": "span", "apex": 3,
     "left": {"target": 2, "img": [0, 1, 0]}, "right": {"target": 2, "img": [0, 0, 1]}},
    {"schema": "smckit/1", "kind": "span", "apex": 4,
     "left": {"target": 2, "img": [1, 0, 0, 1]}, "right": {"target": 3, "img": [2, 0, 1, 0]}},
    {"schema": "smckit/1", "kind": "span", "apex": 3,
     "left": {"target": 3, "img": [0, 2, 0]}, "right": {"target": 2, "img": [1, 0, 1]}},
]
SPAN = {"schema": "smckit/1", "kind": "span", "apex": 4,
        "left": {"target": 3, "img": [2, 0, 1, 0]}, "right": {"target": 2, "img": [1, 1, 0, 1]}}
FAMILY = {"schema": "smckit/1", "kind": "family", "size": 3, "entries": {"0": "x", "1": "(y*z)", "2": "I"}}

# right fibers [], [1] and [0, 2, 3], over the entries I, (x*(y*I)) and ((z*x)*w)
FIBERS_SPAN = {"schema": "smckit/1", "kind": "span", "apex": 4,
               "left": {"target": 3, "img": [2, 0, 1, 2]}, "right": {"target": 3, "img": [2, 1, 2, 2]}}
FIBERS_FAMILY = {"schema": "smckit/1", "kind": "family", "size": 3,
                 "entries": {"0": "I", "1": "(x*(y*I))", "2": "((z*x)*w)"}}
REPEATED = "b (x * y) (x * z)"

SPAN_COMPOSE_TEXT = (
    'apex: 7\n'
    'left: target=2 img=[0,0,1,1,0,0,0]\n'
    'right: target=2 img=[1,1,1,1,0,1,1]\n'
    'lunitor map=[0,1,4,5,6,2,3]\n'
    'runitor map=[0,1,2,3,4,5,6]\n'
    'assoc map=[0,1,2,3,4,5,6]\n'
)

UNBIAS_TERM_TEXT = (
    'k=0: fiber=[1] object: ((y * z) * I)\n'
    'k=1: fiber=[2,0,0] object: (I * (x * (x * I)))\n'
    'composition cell k=0: id ((y * z) * I) ; (id (y * z) * inv (l I)) ; inv (a (y * z) I I) ; (id ((y * z) * I) * id I)\n'
    'composition cell k=1: id (I * (x * (x * I))) ; (id I * inv (l (x * (x * I)))) ; inv (a I I (x * (x * I))) ; (id (I * I) * (id x * inv (l (x * I))) ; inv (a x I (x * I)) ; (id (x * I) * (id x * inv (l I)) ; inv (a x I I) ; (id (x * I) * id I)))\n'
    'unit cell j=0: r x\n'
    'unit cell j=1: r (y * z)\n'
    'unit cell j=2: r I\n'
)

UNBIAS_SLIST_TEXT = (
    'k=0: fiber=[1] object: [y,z]\n'
    'k=1: fiber=[2,0,0] object: [x,x]\n'
    'composition cell k=0: phi=[0,1]\n'
    'composition cell k=1: phi=[0,1]\n'
    'unit cell j=0: phi=[0]\n'
    'unit cell j=1: phi=[0,1]\n'
    'unit cell j=2: phi=[]\n'
)

SPAN_COMPOSE_RECORD = (
    '{"apex": 7, "kind": "span", "left": {"img": [0, 0, 1, 1, 0, 0, 0], "target": 2}, "right": {"img": [1, 1, 1, 1, 0, 1, 1], "target": 2}, "schema": "smckit/1"}\n'
    '{"kind": "structural-cells", "lunitor": [0, 1, 4, 5, 6, 2, 3], "runitor": [0, 1, 2, 3, 4, 5, 6], "schema": "smckit/1"}\n'
    '{"kind": "assoc-cell", "map": [0, 1, 2, 3, 4, 5, 6], "schema": "smckit/1"}\n'
)

UNBIAS_TERM_RECORD = (
    '{"fibers": {"0": [1], "1": [2, 0, 0]}, "kind": "unbias-result", "model": "term", "objects": {"0": "((y * z) * I)", "1": "(I * (x * (x * I)))"}, "schema": "smckit/1"}\n'
    '{"composition": {"0": "id ((y * z) * I) ; (id (y * z) * inv (l I)) ; inv (a (y * z) I I) ; (id ((y * z) * I) * id I)", "1": "id (I * (x * (x * I))) ; (id I * inv (l (x * (x * I)))) ; inv (a I I (x * (x * I))) ; (id (I * I) * (id x * inv (l (x * I))) ; inv (a x I (x * I)) ; (id (x * I) * (id x * inv (l I)) ; inv (a x I I) ; (id (x * I) * id I)))"}, "kind": "coherence-cells", "schema": "smckit/1", "unit": {"0": "r x", "1": "r (y * z)", "2": "r I"}}\n'
)

UNBIAS_SLIST_RECORD = (
    '{"fibers": {"0": [1], "1": [2, 0, 0]}, "kind": "unbias-result", "model": "slist", "objects": {"0": "[y,z]", "1": "[x,x]"}, "schema": "smckit/1"}\n'
    '{"composition": {"0": "phi=[0,1]", "1": "phi=[0,1]"}, "kind": "coherence-cells", "schema": "smckit/1", "unit": {"0": "phi=[0]", "1": "phi=[0,1]", "2": "phi=[]"}}\n'
)


FIBERS_OBJECT = "(((z * x) * w) * ((x * (y * I)) * (((z * x) * w) * I)))"
FIBERS_CELL_1 = "id (I * I) ; (id I * inv (l I)) ; inv (a I I I) ; (id (I * I) * id I)"
FIBERS_CELL_2 = (
    f"id {FIBERS_OBJECT} ; (id ((z * x) * w) * inv (l ((x * (y * I)) * (((z * x) * w) * I)))) ; "
    "inv (a ((z * x) * w) I ((x * (y * I)) * (((z * x) * w) * I))) ; "
    "(id (((z * x) * w) * I) * (id (x * (y * I)) * inv (l (((z * x) * w) * I))) ; "
    "inv (a (x * (y * I)) I (((z * x) * w) * I)) ; "
    "(id ((x * (y * I)) * I) * (id ((z * x) * w) * inv (l I)) ; inv (a ((z * x) * w) I I) ; "
    "(id (((z * x) * w) * I) * id I)))"
)

UNBIAS_FIBERS_TEXT = (
    'k=0: fiber=[] object: I\n'
    'k=1: fiber=[0] object: (I * I)\n'
    f'k=2: fiber=[2,1,2] object: {FIBERS_OBJECT}\n'
    'composition cell k=0: id I ; id I\n'
    f'composition cell k=1: {FIBERS_CELL_1}\n'
    f'composition cell k=2: {FIBERS_CELL_2}\n'
    'unit cell j=0: r I\n'
    'unit cell j=1: r (x * (y * I))\n'
    'unit cell j=2: r ((z * x) * w)\n'
)

UNBIAS_FIBERS_RECORD = (
    '{"fibers": {"0": [], "1": [0], "2": [2, 1, 2]}, "kind": "unbias-result", "model": "term", '
    f'"objects": {{"0": "I", "1": "(I * I)", "2": "{FIBERS_OBJECT}"}}, "schema": "smckit/1"}}\n'
    f'{{"composition": {{"0": "id I ; id I", "1": "{FIBERS_CELL_1}", "2": "{FIBERS_CELL_2}"}}, '
    '"kind": "coherence-cells", "schema": "smckit/1", '
    '"unit": {"0": "r I", "1": "r (x * (y * I))", "2": "r ((z * x) * w)"}}\n'
)

REPEATED_CANONICAL = (
    "id (x * (y * (x * (z * I)))) ; (id x * inv (a y x (z * I)) ; (b y x * id (z * I)) ; a x y (z * I)) ; "
    "(id x * (id x * inv (a y z I) ; (b y z * id I) ; a z y I)) ; inv (a x x (z * (y * I))) ; "
    "(b x x * id (z * (y * I))) ; a x x (z * (y * I)) ; "
    "(id x * inv (a x z (y * I)) ; (b x z * id (y * I)) ; a z x (y * I))"
)

NORMALIZE_REPEATED_TEXT = (
    'source: [x,y,x,z]\n'
    'target: [x,z,x,y]\n'
    'phi=[2,3,0,1]\n'
    'reduced-word: [1,2,0,1]\n'
    f'canonical: {REPEATED_CANONICAL}\n'
)

NORMALIZE_REPEATED_RECORD = (
    f'{{"canonical": "{REPEATED_CANONICAL}", "kind": "normal-form", "phi": [2, 3, 0, 1], "schema": "smckit/1", '
    '"source": ["x", "y", "x", "z"], "target": ["x", "z", "x", "y"], "word": [1, 2, 0, 1]}\n'
)


def run(*argv) -> str:
    out = io.StringIO()
    assert main(list(argv), out=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt, expected", [("text", SPAN_COMPOSE_TEXT), ("record", SPAN_COMPOSE_RECORD)])
def test_span_compose_cells_golden(fmt, expected):
    assert run("--format", fmt, "span-compose", *map(json.dumps, SPANS), "--cells") == expected


@pytest.mark.parametrize("fmt, model, expected", [
    ("text", "term", UNBIAS_TERM_TEXT),
    ("text", "slist", UNBIAS_SLIST_TEXT),
    ("record", "term", UNBIAS_TERM_RECORD),
    ("record", "slist", UNBIAS_SLIST_RECORD),
])
def test_unbias_cells_golden(fmt, model, expected):
    assert run("--format", fmt, "unbias", json.dumps(SPAN), json.dumps(FAMILY), "--model", model, "--cells") == expected


@pytest.mark.parametrize("fmt, expected", [("text", UNBIAS_FIBERS_TEXT), ("record", UNBIAS_FIBERS_RECORD)])
def test_unbias_cells_golden_on_empty_and_repeated_fibers(fmt, expected):
    assert run("--format", fmt, "unbias", json.dumps(FIBERS_SPAN), json.dumps(FIBERS_FAMILY), "--cells") == expected


@pytest.mark.parametrize("fmt, expected", [("text", NORMALIZE_REPEATED_TEXT), ("record", NORMALIZE_REPEATED_RECORD)])
def test_normalize_canonical_golden_with_a_repeated_label(fmt, expected):
    assert run("--format", fmt, "normalize", REPEATED) == expected
