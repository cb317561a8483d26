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
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import laws
from .errors import ParseError, RecordFormatError, SmcError
from .models import FreeTermModel, SListModel
from .perms import reduced_word
from .slist import hom_equal
from .spans import (
    FinFun,
    FinSet,
    Span,
    assoc_cell,
    compose_span,
    left_unitor_cell,
    right_unitor_cell,
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
    canonical_term,
    normal_forms,
    normalize_obj,
    obj_text,
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
_KINDS = {**{c: c for c in "()*;"}, **{word: word for word in KEYWORDS}}


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token ``index`` of ``text``; past the last token, of its end."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    return _line_column(text, match.start() if match else len(text))


def _error(text: str, index: int, message: str) -> ParseError:
    return ParseError(message, *_position(text, index))


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """Kinds and texts of the tokens of ``text``, closed by an ``eof`` token.

    An identifier starts with ``_`` or a letter; any other character that
    is not punctuation or white space is an error.  With punctuation spaced
    out, the pieces between white space are the tokens when each distinct
    piece is punctuation, a keyword or a whole identifier.  Otherwise some
    piece holds a character that starts no token, and ``_TOKEN`` finds the
    first one in the text.
    """
    texts = text.replace("(", " ( ").replace(")", " ) ").replace("*", " * ").replace(";", " ; ").split()
    kinds = dict(_KINDS)
    for word in set(texts).difference(kinds):
        if not _is_identifier(word):
            raise _unexpected(text)
        kinds[word] = "ident"
    out = list(map(kinds.get, texts))
    out.append("eof")
    texts.append("")
    return out, texts


def _is_identifier(word: str) -> bool:
    """Whether ``word`` is one identifier token: ``_`` or a letter, then word characters."""
    # a word character of the regex engine is "_" or one for which isalnum() holds, so after
    # a letter or "_" this is a full match of _TOKEN's identifier pattern, with no regex call
    return (word[0].isalpha() or word[0] == "_") and word.replace("_", "a").isalnum()


def _unexpected(text: str) -> ParseError:
    """The error for the first token of ``text`` that is no punctuation, keyword or identifier."""
    for match in _TOKEN.finditer(text):
        word = match.group()
        if word not in _KINDS and not (word[0].isalpha() or word[0] == "_"):
            return ParseError(f"unexpected character {word[0]!r}", *_line_column(text, match.start()))


def _expected(what: str, texts: list[str], i: int) -> str:
    return f"expected {what}, found {texts[i] or 'end of input'!r}"


def _parse_obj(kinds: list[str], texts: list[str], i: int, text: str, objs: Objects) -> tuple[int, int]:
    """The number in ``objs`` of the object starting at token i, and the index of the token after it."""
    lefts: list = []  # per open "(": None, then the number of its left part once read
    while True:
        kind = kinds[i]
        if kind == "(":
            lefts.append(None)
            i += 1
            continue
        if kind == "ident":
            k = objs[texts[i],]
        elif kind == "I":
            k = 0
        else:
            raise _error(text, i, _expected("an object", texts, i))
        i += 1
        while lefts:
            left = lefts[-1]
            if left is None:
                if kinds[i] != "*":
                    raise _error(text, i, _expected("'*'", texts, i))
                lefts[-1] = k
                i += 1
                break
            if kinds[i] != ")":
                raise _error(text, i, _expected("')'", texts, i))
            i += 1
            lefts.pop()
            k = objs[left, k]
        else:
            return k, i


def _parse_program(kinds: list[str], texts: list[str], text: str, objs: Objects) -> tuple[list, int]:
    """The program of the morphism starting at the first token, and the index of the token after it."""
    program: list = []
    i = 0
    chained = False  # whether the current atom follows a ";"
    brackets: list = []  # per open bracket: (what closes it, its marker, chained before it)
    while True:
        kind = kinds[i]
        if kind == "(":
            brackets.append(("*", PAR, chained))
            chained = False
            i += 1
            continue
        if kind == "inv":
            if kinds[i + 1] != "(":
                raise _error(text, i + 1, _expected("'('", texts, i + 1))
            brackets.append((")", INV, chained))
            chained = False
            i += 2
            continue
        if kind == "id":
            x, i = _parse_obj(kinds, texts, i + 1, text, objs)
            atom = (Id, x)
        elif kind == "b":
            x, i = _parse_obj(kinds, texts, i + 1, text, objs)
            y, i = _parse_obj(kinds, texts, i, text, objs)
            atom = (Braid, x, y)
        elif kind == "a":
            x, i = _parse_obj(kinds, texts, i + 1, text, objs)
            y, i = _parse_obj(kinds, texts, i, text, objs)
            z, i = _parse_obj(kinds, texts, i, text, objs)
            atom = (Assoc, x, y, z)
        elif kind == "l":
            x, i = _parse_obj(kinds, texts, i + 1, text, objs)
            atom = (LeftUnitor, x)
        elif kind == "r":
            x, i = _parse_obj(kinds, texts, i + 1, text, objs)
            atom = (RightUnitor, x)
        else:
            raise _error(text, i, _expected("a morphism", texts, i))
        program.append(atom)
        if chained:
            program.append(COMP)
        # a chain ends where no ";" follows; close the brackets it ends
        while kinds[i] != ";":
            if not brackets:
                return program, i
            closer, marker, chained = brackets.pop()
            if closer == "*":
                if kinds[i] != "*":
                    raise _error(text, i, _expected("'*'", texts, i))
                brackets.append((")", marker, chained))
                chained = False
                i += 1
                break
            if kinds[i] != ")":
                raise _error(text, i, _expected("')'", texts, i))
            i += 1
            program.append(marker)
            if chained:
                program.append(COMP)
        else:
            chained = True
            i += 1


def _check_end(kinds: list[str], texts: list[str], i: int, text: str) -> None:
    if kinds[i] != "eof":
        raise _error(text, i, f"trailing input {texts[i]!r}")


def parse_obj(text: str, objs: Objects | None = None) -> ObjTerm:
    """The object of ``text``; objects numbered in one table ``objs`` share their equal parts."""
    if objs is None:
        objs = Objects()
    kinds, texts = _tokenize(text)
    out, i = _parse_obj(kinds, texts, 0, text, objs)
    _check_end(kinds, texts, i, text)
    return objs.terms[out]


def parse_program(text: str, objs: Objects) -> list:
    """The program of a morphism (see ``terms.flatten``), its objects numbered in ``objs``."""
    kinds, texts = _tokenize(text)
    out, i = _parse_program(kinds, texts, text, objs)
    _check_end(kinds, texts, i, text)
    return out


def render_obj(t: ObjTerm) -> str:
    return obj_text(t, " * ")


def render_mor(t: MorTerm) -> str:
    """Concrete syntax for a term; composition prints flat and left-associated."""
    return syntax(t, " * ", " ; ")


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


def _listed(values) -> str:
    return f"[{','.join(map(str, values))}]"


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
        f"{leg}: target={r[leg]['target']} img={_listed(r[leg]['img'])}\n" for leg in ("left", "right")
    ),
    "structural-cells": lambda r: f"lunitor map={_listed(r['lunitor'])}\nrunitor map={_listed(r['runitor'])}\n",
    "assoc-cell": lambda r: f"assoc map={_listed(r['map'])}\n",
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
        # dumps runs the C encoder; dump does not
        out.write(json.dumps({"schema": SCHEMA, **record}, sort_keys=True) + "\n")
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


def cmd_normalize(args, out) -> int:
    objs = Objects()
    (hom,) = normal_forms(objs, parse_program(term_text(args.term), objs))
    emit(out, args.format, {
        "kind": "normal-form",
        "source": [str(x) for x in hom.src.labels],
        "target": [str(x) for x in hom.dst.labels],
        "phi": list(hom.phi.img),
        "word": list(reduced_word(hom.phi)),
        "canonical": render_mor(canonical_term(hom)),
    })
    return 0


def cmd_equal(args, out) -> int:
    if args.lhs == args.rhs == "-":
        print("error: only one term can be read from stdin ('-')", file=sys.stderr)
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
    spans = [span_from_record(load_record(src, "span")) for src in args.spans]
    composite = spans[0]
    for nxt in spans[1:]:
        composite = compose_span(composite, nxt)
    emit(out, args.format, span_to_record(composite))
    if args.cells:
        emit(out, args.format, {
            "kind": "structural-cells",
            "lunitor": list(left_unitor_cell(composite).map.img),
            "runitor": list(right_unitor_cell(composite).map.img),
        })
        if len(spans) >= 3:
            emit(out, args.format, {"kind": "assoc-cell", "map": list(assoc_cell(*spans[:3]).map.img)})
    return 0


def _family_assignment(entries: dict, model_name: str):
    """The model and the assignment index -> object, every entry parsed once."""
    table = Objects()
    objs = {j: parse_obj(text, table) for j, text in entries.items()}
    if model_name == "term":
        return FreeTermModel(), objs
    return SListModel(), {j: normalize_obj(obj) for j, obj in objs.items()}


def cmd_unbias(args, out) -> int:
    s = span_from_record(load_record(args.span, "span"))
    size, entries = family_from_record(load_record(args.family, "family"))
    if size != s.dom.size:
        raise RecordFormatError(
            f"family of size {size} does not match span foot of size {s.dom.size}"
        )
    model, assign = _family_assignment(entries, args.model)
    result = unbias_eval(s, model, assign)
    render = render_obj if args.model == "term" else str
    emit(out, args.format, {
        "kind": "unbias-result",
        "model": args.model,
        "fibers": {str(k): list(map(int, l.labels)) for k, l in enumerate(result.family.lists)},
        "objects": {str(k): render(o) for k, o in enumerate(result.objects)},
    })
    if args.cells:
        # the span factors through its apex as a pull followed by a push
        comp = unbias_comp_iso(span_pull(s.left), span_push(s.right), model, assign)
        units = unbias_unit_iso(s.dom, model, assign)
        render_m = render_mor if args.model == "term" else str
        emit(out, args.format, {
            "kind": "coherence-cells",
            "composition": {str(k): render_m(c) for k, c in enumerate(comp)},
            "unit": {str(j): render_m(c) for j, c in enumerate(units)},
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
        import argparse  # called by argparse, or by _parse_argv's fallback: already loaded

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
    # no default here: the parser is built once, so $SMCKIT_SEED is read in _parse_argv
    p.add_argument("--seed", type=_seed, default=None, help=f"default: ${SEED_ENV}, else 0")
    p.set_defaults(seed_error=p.error)

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


_PARSER = None  # build_parser(), made by the first argv that _read_argv declines; parsing leaves it unchanged


def _parse_argv(argv=None) -> SimpleNamespace | argparse.Namespace:
    """Read argv directly, else with the process's one parser; SystemExit on --help or a usage error.

    ``--seed`` falls back to ``$SMCKIT_SEED`` as it is when called, else 0.
    The environment is checked before unrecognized arguments are reported,
    the order in which argparse would check a default it converts.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is not None:
        return args
    import argparse

    global _PARSER
    parser = _PARSER
    if parser is None:
        parser = _PARSER = build_parser()  # threads that race here build equal parsers; the last is kept
    args, extra = parser.parse_known_args(argv)
    if args.command == "check-laws" and args.seed is None:
        try:
            args.seed = _seed(os.environ.get(SEED_ENV, "0"))
        except argparse.ArgumentTypeError as exc:
            args.seed_error(f"argument --seed: {exc}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


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
