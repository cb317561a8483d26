"""The CLI parser's work against its input, counted rather than timed."""

import math
from collections import Counter

from smckit import cli
from smckit.perms import Perm
from smckit.slist import SList, SListHom
from smckit.terms import Gen, Objects, Tensor, canonical_term


def reversal_text(n: int) -> tuple[str, set]:
    """The canonical text of the n-element reversal, and the distinct objects of its term."""
    labels = tuple(f"x{i}" for i in range(n))
    t = canonical_term(SListHom(SList(labels), SList(labels[::-1]), Perm(tuple(reversed(range(n))))))
    objects, todo = set(), [t]
    while todo:
        node = todo.pop()
        for name in node._fields:
            part = getattr(node, name)
            if isinstance(part, (Gen, Tensor)):
                objects.add(part)
            if hasattr(part, "_fields"):
                todo.append(part)
    return cli.render_mor(t), objects


class GenLookups(Objects):
    """An ``Objects`` that counts its lookups of generator keys ``(label,)``, per label."""

    def __init__(self):
        super().__init__()
        self.lookups = Counter()

    def __getitem__(self, key):
        if len(key) == 1:
            self.lookups[key[0]] += 1
        return super().__getitem__(key)


def exponent(points: list) -> float:
    """The log-log slope between the two (size, count) points."""
    (x0, y0), (x1, y1) = points
    assert y0 > 0 and x1 > x0
    return math.log(y1 / y0) / math.log(x1 / x0)


def test_parsing_grows_linearly_and_numbers_each_object_once(monkeypatch):
    parse_obj, missing = cli._parse_obj, Objects.__missing__
    calls, keys = [0], []

    def counting_parse_obj(*args):
        calls[0] += 1
        return parse_obj(*args)

    def counting_missing(self, key):
        keys.append(key)
        return missing(self, key)

    # _parse_program looks _parse_obj up as a module global, and dict looks __missing__ up on the type
    monkeypatch.setattr(cli, "_parse_obj", counting_parse_obj)
    monkeypatch.setattr(Objects, "__missing__", counting_missing)
    parses, steps = [], []
    for n in (8, 16):
        text, objects = reversal_text(n)
        calls[0], keys[:] = 0, []
        objs = GenLookups()
        program = cli.parse_program(text, objs)
        # the parse looks each generator text up once, however often the text recurs
        assert objs.lookups == Counter(f"x{i}" for i in range(n))
        texts = cli._tokenize(text)
        assert texts.count("x0") > 1
        tokens = len(texts) - 1  # less the end marker
        parses.append((tokens, calls[0]))
        steps.append((tokens, len(program)))  # run steps once per program item
        # each key numbers a new object, and every object numbered is one of the term's
        assert len(keys) == len(set(keys)) <= len(objects)
        assert {objs.terms[objs[key]] for key in keys} <= objects
    assert exponent(parses) <= 1.1
    assert exponent(steps) <= 1.1
