"""Golden stdout of the commands with ``--cells``, in text and in record format.

``span-compose --cells`` over a chain of three spans prints the composite,
the unitor cells and the associator cell; ``unbias --cells`` prints the
unbiased objects, the composition cells of the span's pull/push
factorization and the unit cells, in the term model and in the slist model.
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
