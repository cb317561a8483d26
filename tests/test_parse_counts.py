"""The CLI parser's work against its input, counted rather than timed."""

import math

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
    points = []
    for n in (8, 16):
        text, objects = reversal_text(n)
        calls[0], keys[:] = 0, []
        objs = Objects()
        cli.parse_program(text, objs)
        tokens = len(cli._tokenize(text)[0]) - 1  # less the eof token
        points.append((tokens, calls[0]))
        # each key numbers a new object, and every object numbered is one of the term's
        assert len(keys) == len(set(keys)) <= len(objects)
        assert {objs.terms[objs[key]] for key in keys} <= objects
    (t8, c8), (t16, c16) = points
    assert c8 > 0 and t16 > t8
    assert math.log(c16 / c8) / math.log(t16 / t8) <= 1.1
