"""Seeded mutation test of the CLI: no input ends in a traceback.

Each example runs ``cli.main`` in process on a valid request with a few
small edits:

* ``normalize`` and ``equal`` terms with one to three character or token
  edits (inserted, deleted, replaced, repeated or swapped);
* ``span-compose`` chains and ``unbias`` span and family records with one
  field of one record replaced by a small value, deleted, or added.

Every call must return 0, 1 or 2 without raising, and an exit 2 must
write exactly one stderr line, holding ``error:``.  Edit characters never
include ``-``: an argument that starts with one is an option to argparse,
whose usage errors print a usage line first.  Mutated values stay small,
so every valid input stays small; unbounded work from valid inputs (the
size bounds of ROADMAP item 5) is not covered here.
"""

import contextlib
import io
import json
import re
import sys
from random import Random

from hypothesis import example, given, settings, strategies as st

from smckit import laws
from smckit.cli import KEYWORDS, SCHEMA, main, render_mor, render_obj, span_to_record

LABELS = ["x", "y", "z"]
CHARS = "xyzabilrI()*; \t\n$9\x00\xe9Ⅻ\udcff"
TOKENS = sorted(KEYWORDS) + ["x", "y", "w", "(", ")", "*", ";", "$", "9x"]
SMALL = [0, 1, 2, 3, -1, 7, 0.5, True, None, "", "x", "0", "(x*y)", [], [0], [1, 0], {}, {"target": 1, "img": [0]}]


def _edit_chars(rng: Random, text: str) -> str:
    at = rng.randint(0, len(text))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert" or at == len(text):
        return text[:at] + rng.choice(CHARS) + text[at:]
    return text[:at] + (rng.choice(CHARS) if op == "replace" else "") + text[at + 1:]


def _edit_tokens(rng: Random, text: str) -> str:
    tokens = re.findall(r"\w+|\S", text)
    if not tokens:
        return rng.choice(TOKENS)
    at = rng.randrange(len(tokens))
    op = rng.choice(("delete", "replace", "repeat", "swap"))
    if op == "delete":
        del tokens[at]
    elif op == "replace":
        tokens[at] = rng.choice(TOKENS)
    elif op == "repeat":
        tokens.insert(at, tokens[at])
    elif at + 1 < len(tokens):
        tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    return " ".join(tokens)


def _mutated_term(rng: Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        text = (_edit_chars if rng.random() < 0.5 else _edit_tokens)(rng, text)
    return text


def _places(value, path=()):
    """The path of every node under ``value``, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _places(child, path + (key,))


def _mutated_record(rng: Random, record: dict) -> str:
    """``record`` with one field replaced by a small value, deleted, or added, as JSON text."""
    containers = [p for p in _places(record) if isinstance(_at(record, p), (dict, list))]
    fields = [p for p in _places(record) if p]
    op = rng.choice(("replace", "delete", "add"))
    if op == "add":
        node = _at(record, rng.choice(containers))
        if isinstance(node, dict):
            node[rng.choice(("extra", "0", "9", "size", "apex", "img"))] = rng.choice(SMALL)
        else:
            node.insert(rng.randint(0, len(node)), rng.choice(SMALL))
    else:
        *parent, key = rng.choice(fields)
        node = _at(record, parent)
        if op == "delete":
            del node[key]
        else:
            node[key] = rng.choice(SMALL)
    return json.dumps(record)


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _span_record(s) -> dict:
    return {"schema": SCHEMA, **span_to_record(s)}


@st.composite
def mutated_requests(draw):
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    command = draw(st.sampled_from(("normalize", "equal", "span-compose", "unbias")))
    options = ["--format", "record"] if rng.random() < 0.3 else []
    if command in ("normalize", "equal"):
        term = laws.random_walk_term(rng, LABELS, rng.randint(0, 3))
        terms = [render_mor(term)]
        if command == "equal":
            terms.append(render_mor(laws.axiom_rewrite(rng, term)))
        hit = rng.randrange(len(terms))
        terms[hit] = _mutated_term(rng, terms[hit])
        return options + [command, *terms]
    if command == "span-compose":
        records = [_span_record(s) for s in laws.random_chain(rng, 3, rng.randint(1, 3))]
        cells = ["--cells"] if rng.random() < 0.5 else []
    else:
        s = laws.random_span(rng, 3)
        entries = {str(k): render_obj(laws.random_obj(rng, LABELS, 2)) for k in range(s.dom.size)}
        family = {"schema": SCHEMA, "kind": "family", "size": s.dom.size, "entries": entries}
        records = [_span_record(s), family]
        cells = ["--model", rng.choice(("term", "slist"))] + (["--cells"] if rng.random() < 0.5 else [])
    hit = rng.randrange(len(records))
    args = [json.dumps(r) for r in records]
    args[hit] = _mutated_record(rng, records[hit])
    return options + [command, *args, *cells]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutated_requests())
@example(["span-compose", "x\x00y"])
@example(["unbias", "a\x00", "b"])
def test_mutated_requests_end_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("")  # an edit may leave a "-" argument
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv, out=out)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    if code == 2:
        text = err.getvalue()
        assert text.count("\n") == 1 and text.endswith("\n") and "error:" in text, text
