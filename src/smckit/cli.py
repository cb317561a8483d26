"""
Command-line front end.

Grammar for structural morphisms (whitespace insignificant)::

    obj := "I" | ident | "(" obj "*" obj ")"
    mor := atom (";" atom)*          -- ";" is diagram order, left-associative
    atom := "id" obj | "a" obj obj obj | "l" obj | "r" obj | "b" obj obj
          | "(" mor "*" mor ")" | "inv" "(" mor ")"

Structured input and output use one self-describing JSON record format
with a ``schema`` field (currently ``smckit/1``); spans, families and
results can be piped back as inputs, and a term given as ``-`` is read
from stdin.  Exit codes: 0 for success or a true decision, 1 for a false
decision or law violations, 2 for usage, syntax or record errors.

A canonical term and the term-model results of ``unbias`` are evaluated in
``SyntaxModel``, whose objects and morphisms are their own texts: the
output is written while the formula is built, and no term is built or
walked again to print it.  ``span-compose`` writes the integer lists of
its records as joins of decimal texts from a bounded table, in about half
the time ``json.dumps`` takes, with the same bytes.  It writes them
straight from ``spans.chain_rows``'s blocks and builds no composite leg: a
block of the left leg is one repeated digit string, a row of the right leg
is joined once however often it repeats, and a run of consecutive ints in
a unitor map is one slice of the table.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import laws
from .errors import ParseError, RecordFormatError, SmcError
from .models import SListModel
from .perms import reduced_word
from .slist import hom_equal
from .spans import (
    FinFun,
    FinSet,
    Span,
    assoc_cell,
    chain_rows,
    span_pull,
    span_push,
)
from .terms import (
    COMP,
    INV,
    PAR,
    Assoc,
    Braid,
    Id,
    LeftUnitor,
    MorTerm,
    Objects,
    ObjTerm,
    RightUnitor,
    SmcModel,
    normal_forms,
    normalize_obj,
    obj_text,
    psi_hom,
    syntax,
)
from .terms import typecheck  # noqa: F401  unused: normalize typechecks; perfbench's tests patch cli.typecheck
from .unbias import unbias_comp_iso, unbias_eval, unbias_unit_iso

if TYPE_CHECKING:  # at run time argparse is imported only where a parser is built or used
    import argparse

SCHEMA = "smckit/1"
SEED_ENV = "SMCKIT_SEED"

KEYWORDS = {"I", "id", "a", "l", "r", "b", "inv"}


# ---------------------------------------------------------------------------
# tokenizer and parser


_TOKEN = re.compile(r"[()*;]|[^\W\d]\w*|\S")
_RESERVED = frozenset("()*;").union(KEYWORDS, [""])  # every token text that is no identifier


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``text``; past the last token, of its end."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    return _line_column(text, match.start() if match else len(text))


def _error(text: str, index: int, message: str) -> ParseError:
    return ParseError(message, *_position(text, index))


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens of ``text``, closed by the end marker ``""``.

    A token is an identifier exactly when its text is not in ``_RESERVED``,
    so the parser dispatches on the texts alone.  An identifier starts with
    ``_`` or a letter; any other character that is not punctuation or white
    space is an error.  With punctuation spaced out, the pieces between
    white space are the tokens when each distinct piece is punctuation, a
    keyword or a whole identifier.  Otherwise some piece holds a character
    that starts no token, and ``_TOKEN`` finds the first one in the text.
    """
    texts = text.replace("(", " ( ").replace(")", " ) ").replace("*", " * ").replace(";", " ; ").split()
    for word in set(texts).difference(_RESERVED):
        if not _is_identifier(word):
            raise _unexpected(text)
    texts.append("")
    return texts


def _is_identifier(word: str) -> bool:
    """Whether ``word`` is one identifier token: ``_`` or a letter, then word characters."""
    # a word character of the regex engine is "_" or one for which isalnum() holds, so after
    # a letter or "_" this is a full match of _TOKEN's identifier pattern, with no regex call
    return (word[0].isalpha() or word[0] == "_") and word.replace("_", "a").isalnum()


def _unexpected(text: str) -> ParseError:
    """The error for the first token of ``text`` that is no punctuation, keyword or identifier."""
    for match in _TOKEN.finditer(text):
        word = match.group()
        if word not in _RESERVED and not (word[0].isalpha() or word[0] == "_"):
            return ParseError(f"unexpected character {word[0]!r}", *_line_column(text, match.start()))


def _expected(what: str, texts: list[str], i: int) -> str:
    return f"expected {what}, found {texts[i] or 'end of input'!r}"


def _parse_obj(texts: list[str], i: int, text: str, objs: Objects, names: dict) -> tuple[int, int]:
    """The number in ``objs`` of the object starting at token i, and the index of the token after it."""
    lefts: list = []  # per open "(": None, then the number of its left part once read
    while True:
        word = texts[i]
        if word == "(":
            lefts.append(None)
            i += 1
            continue
        k = names.get(word)  # the parse's number of each generator text it has met, and of "I"
        if k is None:
            if word in _RESERVED:
                raise _error(text, i, _expected("an object", texts, i))
            k = names[word] = objs[word,]
        i += 1
        while lefts:
            left = lefts[-1]
            if left is None:
                if texts[i] != "*":
                    raise _error(text, i, _expected("'*'", texts, i))
                lefts[-1] = k
                i += 1
                break
            if texts[i] != ")":
                raise _error(text, i, _expected("')'", texts, i))
            i += 1
            lefts.pop()
            k = objs[left, k]
        else:
            return k, i


def _parse_program(texts: list[str], text: str, objs: Objects, names: dict) -> tuple[list, int]:
    """The program of the morphism starting at the first token, and the index of the token after it."""
    program: list = []
    i = 0
    chained = False  # whether the current atom follows a ";"
    brackets: list = []  # per open bracket: (what closes it, its marker, chained before it)
    while True:
        word = texts[i]
        if word == "(":
            brackets.append(("*", PAR, chained))
            chained = False
            i += 1
            continue
        if word == "inv":
            if texts[i + 1] != "(":
                raise _error(text, i + 1, _expected("'('", texts, i + 1))
            brackets.append((")", INV, chained))
            chained = False
            i += 2
            continue
        if word == "id":
            x, i = _parse_obj(texts, i + 1, text, objs, names)
            atom = (Id, x)
        elif word == "b":
            x, i = _parse_obj(texts, i + 1, text, objs, names)
            y, i = _parse_obj(texts, i, text, objs, names)
            atom = (Braid, x, y)
        elif word == "a":
            x, i = _parse_obj(texts, i + 1, text, objs, names)
            y, i = _parse_obj(texts, i, text, objs, names)
            z, i = _parse_obj(texts, i, text, objs, names)
            atom = (Assoc, x, y, z)
        elif word == "l":
            x, i = _parse_obj(texts, i + 1, text, objs, names)
            atom = (LeftUnitor, x)
        elif word == "r":
            x, i = _parse_obj(texts, i + 1, text, objs, names)
            atom = (RightUnitor, x)
        else:
            raise _error(text, i, _expected("a morphism", texts, i))
        program.append(atom)
        if chained:
            program.append(COMP)
        # a chain ends where no ";" follows; close the brackets it ends
        while texts[i] != ";":
            if not brackets:
                return program, i
            closer, marker, chained = brackets.pop()
            if closer == "*":
                if texts[i] != "*":
                    raise _error(text, i, _expected("'*'", texts, i))
                brackets.append((")", marker, chained))
                chained = False
                i += 1
                break
            if texts[i] != ")":
                raise _error(text, i, _expected("')'", texts, i))
            i += 1
            program.append(marker)
            if chained:
                program.append(COMP)
        else:
            chained = True
            i += 1


def _check_end(texts: list[str], i: int, text: str) -> None:
    if texts[i]:
        raise _error(text, i, f"trailing input {texts[i]!r}")


def parse_obj(text: str, objs: Objects | None = None) -> ObjTerm:
    """The object of ``text``; objects numbered in one table ``objs`` share their equal parts."""
    if objs is None:
        objs = Objects()
    texts = _tokenize(text)
    out, i = _parse_obj(texts, 0, text, objs, {"I": 0})
    _check_end(texts, i, text)
    return objs.terms[out]


def parse_program(text: str, objs: Objects) -> list:
    """The program of a morphism (see ``terms.flatten``), its objects numbered in ``objs``."""
    texts = _tokenize(text)
    out, i = _parse_program(texts, text, objs, {"I": 0})
    _check_end(texts, i, text)
    return out


def render_obj(t: ObjTerm) -> str:
    return obj_text(t, " * ")


def render_mor(t: MorTerm) -> str:
    """Concrete syntax for a term; composition prints flat and left-associated."""
    return syntax(t, " * ", " ; ")


class SyntaxModel(SmcModel):
    """The concrete syntax as a model: the texts ``render_obj`` and ``render_mor`` write, built in place.

    An object is its text.  A morphism is a text or a tuple of morphisms,
    its pieces last first, and ``joined`` writes it out: a formula
    evaluated here is the text of the term it builds in ``FreeTermModel``,
    with no term built and no second walk.  A tuple only points at its
    parts, so composing and tensoring cost the same at any size, where
    concatenating texts would copy each part once per node above it.
    Equality parses both texts and decides them.

    >>> m = SyntaxModel()
    >>> joined(m.compose(m.braid("x", "I"), m.tensor_mor(m.identity("x"), m.braid_inv("y", m.unit()))))
    'b x I ; (id x * inv (b y I))'
    """

    def unit(self):
        return "I"

    def tensor_obj(self, a, b):
        return f"({a} * {b})"

    def identity(self, a):
        return "id " + a

    def compose(self, f, g):
        return (g, " ; ", f)

    def tensor_mor(self, f, g):
        return (")", g, " * ", f, "(")

    def assoc(self, a, b, c):
        return f"a {a} {b} {c}"

    def assoc_inv(self, a, b, c):
        return f"inv (a {a} {b} {c})"

    def left_unitor(self, a):
        return "l " + a

    def left_unitor_inv(self, a):
        return f"inv (l {a})"

    def right_unitor(self, a):
        return "r " + a

    def right_unitor_inv(self, a):
        return f"inv (r {a})"

    def braid(self, a, b):
        return f"b {a} {b}"

    def braid_inv(self, a, b):
        return f"inv (b {a} {b})"

    def mor_equal(self, f, g):
        objs = Objects()
        return hom_equal(*normal_forms(objs, parse_program(joined(f), objs), parse_program(joined(g), objs)))


def joined(f) -> str:
    """The text of a ``SyntaxModel`` morphism, in time linear in its length and with no recursion."""
    out: list[str] = []
    todo = [f]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:  # its pieces last first: the first is popped first
            todo += item
    return "".join(out)


# ---------------------------------------------------------------------------
# records


def _text(arg: str) -> str:
    """``arg``, or stdin for '-', as UTF-8 text; ``UnicodeDecodeError`` if it is not.

    Python reads stdin and argv with ``surrogateescape``, so an undecodable
    byte b comes in as U+DC00+b: the text is encoded back to its bytes and
    decoded strictly.  Text with any other lone surrogate is kept as it is.
    """
    text = sys.stdin.read() if arg == "-" else arg
    try:
        return text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeEncodeError:
        return text


def _escapes_as_bytes(text: str) -> str:
    """``text``, which holds reprs of a path, with each undecodable byte of the path shown as ``\\xNN``.

    Python reads an undecodable byte b of argv as U+DC00+b, which a repr
    shows as ``\\udcNN``.
    """
    # an escaped backslash is kept, so that the text after it starts no escape
    return re.sub(r"\\\\|\\udc([89a-f][0-9a-f])", lambda m: f"\\x{m[1]}" if m[1] else m[0], text)


def load_record(source: str, kind: str) -> dict:
    """Read a JSON record from a literal string, a file path, or '-' (stdin)."""
    literal = source.lstrip().startswith("{")
    try:
        if source == "-" or literal:
            text = _text(source)
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, or a NUL byte in the path
        shown = "an argument" if literal else repr(source)
        raise RecordFormatError(_escapes_as_bytes(f"cannot read record from {shown}: {exc}")) from None
    try:
        record = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer longer than Python's int-string limit
        raise RecordFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise RecordFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise RecordFormatError("record must be a JSON object")
    if record.get("schema") != SCHEMA:
        raise RecordFormatError(f"unsupported schema {record.get('schema')!r}, expected {SCHEMA!r}")
    if record.get("kind") != kind:
        raise RecordFormatError(f"expected a {kind!r} record, found {record.get('kind')!r}")
    return record


def _shown(value) -> str:
    return "an array" if isinstance(value, list) else "an object" if isinstance(value, dict) else json.dumps(value)


def _integer(value) -> int:
    """A JSON integer from a record; a boolean, a fraction or a string is refused."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, found {_shown(value)}")
    return value


def _leg_from_record(apex: FinSet, leg: dict) -> FinFun:
    dst = FinSet(_integer(leg["target"]))
    img = leg["img"]
    try:
        return FinFun(apex, dst, img)  # FinFun type-tests each image value
    except (TypeError, ValueError):
        # a value that is no integer is named before a length or range error
        for v in img:
            _integer(v)
        raise


def span_from_record(record: dict) -> Span:
    try:
        apex = FinSet(_integer(record["apex"]))
        legs = [_leg_from_record(apex, leg) for leg in (record["left"], record["right"])]
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"malformed span record: {exc}") from None
    return Span(*legs)


def span_to_record(s: Span) -> dict:
    """A span's record, its images as lists that the caller may edit."""
    return {
        "kind": "span",
        "apex": s.apex.size,
        "left": {"target": s.dom.size, "img": list(s.left.img)},
        "right": {"target": s.cod.size, "img": list(s.right.img)},
    }


def family_from_record(record: dict) -> tuple[int, dict]:
    try:
        size = _integer(record["size"])
        entries = {}
        for k, v in record["entries"].items():
            if not (k.isdecimal() and str(int(k)) == k):  # "01", " 1", "1_0" and "-1" are refused
                raise ValueError(f"expected a decimal key, found {json.dumps(k)}")
            if type(v) is not str:
                raise TypeError(f"expected a string entry, found {_shown(v)}")
            entries[int(k)] = v
        # the keys are exactly 0 .. size-1: each key is a natural number and distinct
        extra = [k for k in entries if k >= size]
        if extra:
            raise ValueError(f'key "{min(extra)}" is outside a family of size {size}')
        if len(entries) < size:
            missing = next(k for k in itertools.count() if k not in entries)
            raise ValueError(f'no entry for key "{missing}" in a family of size {size}')
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecordFormatError(f"malformed family record: {exc}") from None
    return size, entries


# _DIGITS[i] == str(i): span-compose writes its image lists from this table, each int in about
# half of json.dumps's time, and a run of consecutive ints as one slice of it.  It grows to the
# largest bound asked for below _DIGITS_CAP, by replacing the list, never in place, so that a
# thread always reads a consistent table; no lock is needed, since a thread that puts back a
# shorter table than another built leaves it correct.
_DIGITS_CAP = 1 << 14
_DIGITS: list[str] = []


class _Joined:
    """An int list that writes itself: ``text(table, sep)`` joins its items' texts from the digit
    table with ``sep``, and ``ints()`` iterates its ints, for a bound past the table's cap."""

    __slots__ = ("text", "ints")

    def __init__(self, text, ints):
        self.text, self.ints = text, ints


def _ints(values, bound: int, sep: str) -> str:
    """A list of ints, each in range(bound), as JSON writes it with ``sep`` between items.

    ``values`` is a sequence of ints, a ``range``, written as one slice of
    the table, or ``_Joined``.
    """
    global _DIGITS
    table = _DIGITS
    if bound > len(table):
        if bound >= _DIGITS_CAP:
            if type(values) is _Joined:
                values = values.ints()
            return json.dumps(tuple(values), separators=(sep, ":"))
        table = _DIGITS = table + list(map(str, range(len(table), bound)))
    if type(values) is range:
        return f"[{sep.join(table[values.start:values.stop])}]"
    if type(values) is _Joined:
        return f"[{values.text(table, sep)}]"
    return f"[{sep.join(map(table.__getitem__, values))}]"


def _listed(values, bound=None) -> str:
    """The text form of a list; given a bound, of ints in range(bound), from the table."""
    return f"[{','.join(map(str, values))}]" if bound is None else _ints(values, bound, ",")


def _leg_json(leg: dict) -> str:
    return f'{{"img": {_ints(leg["img"], leg["target"], ", ")}, "target": {leg["target"]}}}'


# The JSON line of each kind that span-compose writes, as json.dumps({"schema": SCHEMA, **r},
# sort_keys=True) writes it.  Each unitor and associator map is a bijection of an apex, so the
# apex bounds its values; the runitor map is a range as long as the apex.
_JSON = {
    "span": lambda r: (
        f'{{"apex": {r["apex"]}, "kind": "span", "left": {_leg_json(r["left"])}, '
        f'"right": {_leg_json(r["right"])}, "schema": "{SCHEMA}"}}\n'
    ),
    "structural-cells": lambda r: (
        f'{{"kind": "structural-cells", "lunitor": {_ints(r["lunitor"], len(r["runitor"]), ", ")}, '
        f'"runitor": {_ints(r["runitor"], len(r["runitor"]), ", ")}, "schema": "{SCHEMA}"}}\n'
    ),
    "assoc-cell": lambda r: (
        f'{{"kind": "assoc-cell", "map": {_ints(r["map"], len(r["map"]), ", ")}, "schema": "{SCHEMA}"}}\n'
    ),
}


# the text form of each kind of record, which shows its fields
_TEXT = {
    "normal-form": lambda r: (
        f"source: {_listed(r['source'])}\ntarget: {_listed(r['target'])}\nphi={_listed(r['phi'])}\n"
        f"reduced-word: {_listed(r['word'])}\ncanonical: {r['canonical']}\n"
    ),
    "decision": lambda r: f"equal: {'true' if r['equal'] else 'false'}\n" + (
        "" if r["equal"] else f"lhs phi={_listed(r['lhs_phi'])}\nrhs phi={_listed(r['rhs_phi'])}\n"
    ),
    "span": lambda r: f"apex: {r['apex']}\n" + "".join(
        f"{leg}: target={r[leg]['target']} img={_listed(r[leg]['img'], r[leg]['target'])}\n"
        for leg in ("left", "right")
    ),
    "structural-cells": lambda r: (
        f"lunitor map={_listed(r['lunitor'], len(r['runitor']))}\n"
        f"runitor map={_listed(r['runitor'], len(r['runitor']))}\n"
    ),
    "assoc-cell": lambda r: f"assoc map={_listed(r['map'], len(r['map']))}\n",
    "unbias-result": lambda r: "".join(
        f"k={k}: fiber={_listed(fiber)} object: {r['objects'][k]}\n" for k, fiber in r["fibers"].items()
    ),
    "coherence-cells": lambda r: "".join(
        [f"composition cell k={k}: {c}\n" for k, c in r["composition"].items()]
        + [f"unit cell j={j}: {c}\n" for j, c in r["unit"].items()]
    ),
    # each report as ``LawReport`` prints it, which lists at most 20 violations
    "law-report": lambda r: "".join(
        f"{laws.LawReport(x['name'], x['cases'], tuple(x['violations']))}\n" for x in r["reports"]
    ),
}


def emit(out, fmt: str, record: dict):
    """Write a result record: as one JSON line with its schema, or as its text form."""
    if fmt == "record":
        # span-compose's kinds write their int lists from the digit table; any other kind is one
        # dumps call, which runs the C encoder (dump does not)
        line = _JSON.get(record["kind"])
        out.write(line(record) if line else json.dumps({"schema": SCHEMA, **record}, sort_keys=True) + "\n")
    else:
        out.write(_TEXT[record["kind"]](record))


# ---------------------------------------------------------------------------
# commands


def term_text(arg: str) -> str:
    """A term given on the command line; '-' reads it from stdin.  Either must be UTF-8 text."""
    try:
        return _text(arg)
    except UnicodeDecodeError as exc:
        read = exc.object[:exc.start].decode(exc.encoding, "replace")
        where = "stdin" if arg == "-" else "argument"
        raise ParseError(f"{where} is not {exc.encoding} text: {exc.reason}", *_line_column(read, len(read))) from None


def _stdin_twice(what: str, sources) -> bool:
    """Whether more than one of ``sources`` is '-', said on stderr; stdin is read to its end once."""
    if sum(source == "-" for source in sources) < 2:
        return False
    print(f"error: only one {what} can be read from stdin ('-')", file=sys.stderr)
    return True


def cmd_normalize(args, out) -> int:
    objs = Objects()
    (hom,) = normal_forms(objs, parse_program(term_text(args.term), objs))
    emit(out, args.format, {
        "kind": "normal-form",
        "source": [str(x) for x in hom.src.labels],
        "target": [str(x) for x in hom.dst.labels],
        "phi": list(hom.phi.img),
        "word": list(reduced_word(hom.phi)),
        "canonical": joined(psi_hom(SyntaxModel(), str, hom)),
    })
    return 0


def cmd_equal(args, out) -> int:
    if _stdin_twice("term", (args.lhs, args.rhs)):
        return 2
    # both are parsed before either is run, so a syntax error comes before a typing error
    objs = Objects()
    lhs = parse_program(term_text(args.lhs), objs)
    rhs = parse_program(term_text(args.rhs), objs)
    lhs, rhs = normal_forms(objs, lhs, rhs)
    equal = hom_equal(lhs, rhs)
    record = {"kind": "decision", "equal": equal}
    if not equal:
        record["lhs_phi"] = list(lhs.phi.img)
        record["rhs_phi"] = list(rhs.phi.img)
    emit(out, args.format, record)
    return 0 if equal else 1


def cmd_span_compose(args, out) -> int:
    if _stdin_twice("record", args.spans):
        return 2
    spans = [span_from_record(load_record(src, "span")) for src in args.spans]
    first, rows = spans[0], chain_rows(spans)
    # the composite's apex is one block per point a of the first span, in the order of a:
    # first.left(a) paired with each entry of row first.right(a)
    blocks = list(map(rows.get, first.right.img, itertools.repeat(())))
    sizes = list(map(len, blocks))
    apex = sum(sizes)

    def left(table, sep):  # each block is one repeated digit string
        repeated = [text + sep for text in table[:first.dom.size]]
        return "".join(map(operator.mul, map(repeated.__getitem__, first.left.img), sizes))[:-len(sep)]

    def right(table, sep):  # each row is joined once and written once per block
        if apex < 16 * len(rows):  # rows short or used about once: a join per row costs more than it saves
            return sep.join(map(table.__getitem__, itertools.chain.from_iterable(blocks)))
        texts = {v: sep.join(map(table.__getitem__, row)) for v, row in rows.items()}
        return sep.join(filter(None, map(texts.get, first.right.img)))

    emit(out, args.format, {
        "kind": "span",
        "apex": apex,
        "left": {"target": first.dom.size, "img": _Joined(
            left, lambda: itertools.chain.from_iterable(map(itertools.repeat, first.left.img, sizes)))},
        "right": {"target": spans[-1].cod.size, "img": _Joined(
            right, lambda: itertools.chain.from_iterable(blocks))},
    })
    if args.cells:
        starts = list(itertools.accumulate(sizes, initial=0))  # block a is range(starts[a], starts[a + 1])

        def lunitor(points):
            # left_unitor_cell's map lists the left leg's fibers in turn: fiber x is the blocks of
            # the points of the first span's left fiber x, in order, each a run of the apex
            fibers = [[] for _ in range(first.dom.size)]
            for x, start, stop in zip(first.left.img, starts, starts[1:]):
                fibers[x] += points[start:stop]
            return itertools.chain.from_iterable(fibers)

        emit(out, args.format, {
            "kind": "structural-cells",
            "lunitor": _Joined(lambda table, sep: sep.join(lunitor(table)), lambda: lunitor(range(apex))),
            "runitor": range(apex),  # right_unitor_cell's map, the identity
        })
        if len(spans) >= 3:
            # assoc_cell checks that its map, the identity of its apex, commutes with both legs
            emit(out, args.format, {"kind": "assoc-cell", "map": range(assoc_cell(*spans[:3]).src.apex.size)})
    return 0


def _family_assignment(entries: dict, model_name: str):
    """The model and the assignment index -> object, every entry parsed once."""
    table = Objects()
    objs = {j: parse_obj(text, table) for j, text in entries.items()}
    if model_name == "term":
        return SyntaxModel(), {j: render_obj(obj) for j, obj in objs.items()}
    return SListModel(), {j: normalize_obj(obj) for j, obj in objs.items()}


def cmd_unbias(args, out) -> int:
    if _stdin_twice("record", (args.span, args.family)):
        return 2
    s = span_from_record(load_record(args.span, "span"))
    size, entries = family_from_record(load_record(args.family, "family"))
    if size != s.dom.size:
        raise RecordFormatError(
            f"family of size {size} does not match span foot of size {s.dom.size}"
        )
    # in the term model the objects are their texts already
    model, assign = _family_assignment(entries, args.model)
    result = unbias_eval(s, model, assign)
    emit(out, args.format, {
        "kind": "unbias-result",
        "model": args.model,
        "fibers": {str(k): list(map(int, l.labels)) for k, l in enumerate(result.family.lists)},
        "objects": {str(k): str(o) for k, o in enumerate(result.objects)},
    })
    if args.cells:
        # the span factors through its apex as a pull followed by a push
        comp = unbias_comp_iso(span_pull(s.left), span_push(s.right), model, assign)
        units = unbias_unit_iso(s.dom, model, assign)
        render = joined if args.model == "term" else str
        emit(out, args.format, {
            "kind": "coherence-cells",
            "composition": {str(k): render(c) for k, c in enumerate(comp)},
            "unit": {str(j): render(c) for j, c in enumerate(units)},
        })
    return 0


def cmd_check_laws(args, out) -> int:
    reports = laws.run_suite(args.suite, max_size=args.max_size, seed=args.seed)
    emit(out, args.format, {
        "kind": "law-report",
        "suite": args.suite,
        "seed": args.seed,
        "reports": [{"name": r.name, "cases": r.cases, "violations": list(r.violations)} for r in reports],
    })
    return 0 if all(r.ok for r in reports) else 1


def _positive_int(text: str) -> int:
    if not (text.strip().isdecimal() and int(text) > 0):
        import argparse  # called by argparse, so already loaded

        raise argparse.ArgumentTypeError(f"expected a positive integer, found {text!r}")
    return int(text)


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        import argparse  # called by argparse, so already loaded

        raise argparse.ArgumentTypeError(f"expected an integer (from --seed or ${SEED_ENV}), found {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    import argparse  # a well-formed request is read by _read_argv and never loads it

    parser = argparse.ArgumentParser(
        prog="smckit",
        description="normalize, compare and unbias structural morphisms of symmetric monoidal categories",
    )
    parser.add_argument("--format", choices=("text", "record"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of a structural morphism")
    p.add_argument("term", help="a term, or - to read it from stdin")

    p = sub.add_parser("equal", help="decide equality of two structural morphisms")
    p.add_argument("lhs", help="a term, or - to read it from stdin")
    p.add_argument("rhs", help="a term, or - to read it from stdin")

    p = sub.add_parser("span-compose", help="compose span records by pullback")
    p.add_argument("spans", nargs="+", help="span records (file, JSON literal, or -)")
    p.add_argument("--cells", action="store_true", help="also print structural cells")

    p = sub.add_parser("unbias", help="unbiased tensors of a span in a model")
    p.add_argument("span", help="span record (file, JSON literal, or -)")
    p.add_argument("family", help="family record (file, JSON literal, or -)")
    p.add_argument("--model", choices=("term", "slist"), default="term")
    p.add_argument("--cells", action="store_true", help="also print coherence cells")

    p = sub.add_parser("check-laws", help="run a law suite")
    p.add_argument("--suite", default="all", choices=laws.suite_names())
    p.add_argument("--max-size", type=_positive_int, default=None)
    # argparse converts a string default only when --seed is absent
    p.add_argument("--seed", type=_seed, default=os.environ.get(SEED_ENV, "0"), help=f"default: ${SEED_ENV}, else 0")

    return parser


# the request commands _read_argv reads: their positionals ("spans" takes one or more) and
# their options' defaults; check-laws, which runs for seconds, is always left to argparse
_REQUESTS = {
    "normalize": (("term",), {}),
    "equal": (("lhs", "rhs"), {}),
    "span-compose": (("spans",), {"cells": False}),
    "unbias": (("span", "family"), {"model": "term", "cells": False}),
}


def _read_argv(argv: list) -> SimpleNamespace | None:
    """The namespace argparse builds from well-formed ``argv`` of a request command; else None.

    It reads ``--format`` before the command, and after it the command's
    positionals and exact option names, each value in the next argument.
    Help, a prefix, an ``=`` form, ``--``, any other argument that starts
    with ``-`` but ``-`` itself, a bad choice and a missing or extra
    positional are left to argparse, so its usage and help texts are the
    only ones.
    """
    i, fmt = 0, "text"
    while argv[i:i + 1] == ["--format"] and argv[i + 1:i + 2] in (["text"], ["record"]):  # argparse checks each
        fmt, i = argv[i + 1], i + 2
    if i == len(argv) or argv[i] not in _REQUESTS:
        return None
    names, defaults = _REQUESTS[argv[i]]
    values, positionals, optioned = dict(defaults), [], False
    rest = iter(argv[i + 1:])
    for arg in rest:
        if arg[:1] != "-" or arg == "-":
            if optioned and names == ("spans",):  # argparse reads no span after an option
                return None
            positionals.append(arg)
        elif arg == "--cells" and "cells" in values:
            values["cells"] = optioned = True
        elif arg == "--model" and "model" in values:
            values["model"] = next(rest, None)
            if values["model"] not in ("term", "slist"):
                return None
            optioned = True
        else:
            return None
    if names == ("spans",) and positionals:
        positionals = [positionals]
    if len(positionals) != len(names):
        return None
    return SimpleNamespace(format=fmt, command=argv[i], **dict(zip(names, positionals)), **values)


def _parse_argv(argv=None) -> SimpleNamespace | argparse.Namespace:
    """Read argv directly, else with a parser built for this call; SystemExit on --help or a usage error.

    ``--seed`` falls back to ``$SMCKIT_SEED`` as it is when called, else 0.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    return _read_argv(argv) or build_parser().parse_args(argv)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # looked up at call time, so that a replaced cmd_* (e.g. a tracing wrapper) is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, out)
    except (ParseError, RecordFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
