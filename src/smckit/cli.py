"""
Command-line front end.

Grammar for structural morphisms (whitespace insignificant)::

    obj := "I" | ident | "(" obj "*" obj ")"
    mor := atom (";" atom)*          -- ";" is diagram order, left-associative
    atom := "id" obj | "a" obj obj obj | "l" obj | "r" obj | "b" obj obj
          | "(" mor "*" mor ")" | "inv" "(" mor ")"

Structured input and output use one self-describing JSON record format
with a ``schema`` field (currently ``smckit/1``); spans, families and
results can be piped back as inputs.  Exit codes: 0 for success or a true
decision, 1 for a false decision or law violations, 2 for usage, syntax or
record errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParseError, RecordFormatError, SmcError
from .models import FreeTermModel, SListModel
from .perms import reduced_word
from .slist import hom_equal
from .spans import FinFun, FinSet, Span, assoc_cell, compose_span, left_unitor_cell, right_unitor_cell
from .terms import (
    Assoc,
    Braid,
    Comp,
    Gen,
    Id,
    Inv,
    LeftUnitor,
    MorTerm,
    ObjTerm,
    Par,
    RightUnitor,
    Tensor,
    Unit,
    canonical_term,
    normal_forms,
    normalize,
    normalize_obj,
)
from .terms import typecheck  # noqa: F401  unused: normalize typechecks; perfbench's tests patch cli.typecheck
from .unbias import unbias_comp_iso, unbias_eval, unbias_unit_iso

SCHEMA = "smckit/1"
SEED_ENV = "SMCKIT_SEED"

KEYWORDS = {"I", "id", "a", "l", "r", "b", "inv"}


# ---------------------------------------------------------------------------
# tokenizer and parser


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "()*;":
            out.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = word if word in KEYWORDS else "ident"
            out.append(_Token(kind, word, line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def obj(self) -> ObjTerm:
        tok = self.peek()
        if tok.kind == "I":
            self.next()
            return Unit()
        if tok.kind == "ident":
            self.next()
            return Gen(tok.text)
        if tok.kind == "(":
            self.next()
            left = self.obj()
            self.expect("*")
            right = self.obj()
            self.expect(")")
            return Tensor(left, right)
        raise ParseError(f"expected an object, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def mor(self) -> MorTerm:
        term = self.atom()
        while self.peek().kind == ";":
            self.next()
            term = Comp(term, self.atom())
        return term

    def atom(self) -> MorTerm:
        tok = self.peek()
        if tok.kind == "id":
            self.next()
            return Id(self.obj())
        if tok.kind == "a":
            self.next()
            return Assoc(self.obj(), self.obj(), self.obj())
        if tok.kind == "l":
            self.next()
            return LeftUnitor(self.obj())
        if tok.kind == "r":
            self.next()
            return RightUnitor(self.obj())
        if tok.kind == "b":
            self.next()
            return Braid(self.obj(), self.obj())
        if tok.kind == "inv":
            self.next()
            self.expect("(")
            inner = self.mor()
            self.expect(")")
            return Inv(inner)
        if tok.kind == "(":
            self.next()
            left = self.mor()
            self.expect("*")
            right = self.mor()
            self.expect(")")
            return Par(left, right)
        raise ParseError(f"expected a morphism, found {tok.text or 'end of input'!r}", tok.line, tok.col)


def parse_obj(text: str) -> ObjTerm:
    p = _Parser(text)
    out = p.obj()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def parse_mor(text: str) -> MorTerm:
    p = _Parser(text)
    out = p.mor()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return out


def render_obj(t: ObjTerm) -> str:
    if isinstance(t, Unit):
        return "I"
    if isinstance(t, Gen):
        return str(t.label)
    if isinstance(t, Tensor):
        return f"({render_obj(t.left)} * {render_obj(t.right)})"
    raise TypeError(f"not an object term: {t!r}")


def render_mor(t: MorTerm) -> str:
    """Concrete syntax for a term; composition prints flat and left-associated."""
    if isinstance(t, Id):
        return f"id {render_obj(t.obj)}"
    if isinstance(t, Comp):
        return f"{render_mor(t.first)} ; {render_mor(t.second)}"
    if isinstance(t, Par):
        return f"({render_mor(t.left)} * {render_mor(t.right)})"
    if isinstance(t, Assoc):
        return f"a {render_obj(t.x)} {render_obj(t.y)} {render_obj(t.z)}"
    if isinstance(t, LeftUnitor):
        return f"l {render_obj(t.x)}"
    if isinstance(t, RightUnitor):
        return f"r {render_obj(t.x)}"
    if isinstance(t, Braid):
        return f"b {render_obj(t.x)} {render_obj(t.y)}"
    if isinstance(t, Inv):
        return f"inv ({render_mor(t.arg)})"
    raise TypeError(f"not a morphism term: {t!r}")


# ---------------------------------------------------------------------------
# records


def load_record(source: str, kind: str) -> dict:
    """Read a JSON record from a literal string, a file path, or '-' (stdin)."""
    if source == "-":
        text = sys.stdin.read()
    elif source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise RecordFormatError(f"cannot read record from {source!r}: {exc}") from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise RecordFormatError("record must be a JSON object")
    if record.get("schema") != SCHEMA:
        raise RecordFormatError(f"unsupported schema {record.get('schema')!r}, expected {SCHEMA!r}")
    if record.get("kind") != kind:
        raise RecordFormatError(f"expected a {kind!r} record, found {record.get('kind')!r}")
    return record


def span_from_record(record: dict) -> Span:
    try:
        apex = FinSet(int(record["apex"]))
        left = record["left"]
        right = record["right"]
        lf = FinFun(apex, FinSet(int(left["target"])), tuple(int(v) for v in left["img"]))
        rf = FinFun(apex, FinSet(int(right["target"])), tuple(int(v) for v in right["img"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"malformed span record: {exc}") from None
    return Span(lf, rf)


def span_to_record(s: Span) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "span",
        "apex": s.apex.size,
        "left": {"target": s.dom.size, "img": list(s.left.img)},
        "right": {"target": s.cod.size, "img": list(s.right.img)},
    }


def family_from_record(record: dict) -> tuple[int, dict]:
    try:
        size = int(record["size"])
        entries = {int(k): str(v) for k, v in record["entries"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RecordFormatError(f"malformed family record: {exc}") from None
    return size, entries


def emit(out, record: dict):
    json.dump(record, out, sort_keys=True)
    out.write("\n")


# ---------------------------------------------------------------------------
# commands


def cmd_normalize(args, out) -> int:
    hom = normalize(parse_mor(args.term))
    word = reduced_word(hom.phi)
    canon = canonical_term(hom)
    if args.format == "record":
        emit(out, {
            "schema": SCHEMA,
            "kind": "normal-form",
            "source": [str(x) for x in hom.src.labels],
            "target": [str(x) for x in hom.dst.labels],
            "phi": list(hom.phi.img),
            "word": list(word),
            "canonical": render_mor(canon),
        })
    else:
        out.write(f"source: {hom.src}\n")
        out.write(f"target: {hom.dst}\n")
        out.write(f"phi={hom.phi}\n")
        out.write(f"reduced-word: [{','.join(map(str, word))}]\n")
        out.write(f"canonical: {render_mor(canon)}\n")
    return 0


def cmd_equal(args, out) -> int:
    lhs, rhs = normal_forms(parse_mor(args.lhs), parse_mor(args.rhs))
    equal = hom_equal(lhs, rhs)
    if args.format == "record":
        record = {"schema": SCHEMA, "kind": "decision", "equal": equal}
        if not equal:
            record["lhs_phi"] = list(lhs.phi.img)
            record["rhs_phi"] = list(rhs.phi.img)
        emit(out, record)
    else:
        out.write(f"equal: {'true' if equal else 'false'}\n")
        if not equal:
            out.write(f"lhs phi={lhs.phi}\n")
            out.write(f"rhs phi={rhs.phi}\n")
    return 0 if equal else 1


def cmd_span_compose(args, out) -> int:
    spans = [span_from_record(load_record(src, "span")) for src in args.spans]
    composite = spans[0]
    for nxt in spans[1:]:
        composite = compose_span(composite, nxt)
    if args.format == "record":
        emit(out, span_to_record(composite))
    else:
        out.write(f"apex: {composite.apex.size}\n")
        out.write(f"left: target={composite.dom.size} img=[{','.join(map(str, composite.left.img))}]\n")
        out.write(f"right: target={composite.cod.size} img=[{','.join(map(str, composite.right.img))}]\n")
    if args.cells:
        lun = left_unitor_cell(composite)
        run = right_unitor_cell(composite)
        if args.format == "record":
            emit(out, {
                "schema": SCHEMA,
                "kind": "structural-cells",
                "lunitor": list(lun.map.img),
                "runitor": list(run.map.img),
            })
        else:
            out.write(f"lunitor map=[{','.join(map(str, lun.map.img))}]\n")
            out.write(f"runitor map=[{','.join(map(str, run.map.img))}]\n")
        if len(spans) >= 3:
            cell = assoc_cell(spans[0], spans[1], spans[2])
            if args.format == "record":
                emit(out, {"schema": SCHEMA, "kind": "assoc-cell", "map": list(cell.map.img)})
            else:
                out.write(f"assoc map=[{','.join(map(str, cell.map.img))}]\n")
    return 0


def _family_assignment(entries: dict, model_name: str):
    """The model and the assignment index -> object, every entry parsed once."""
    objs = {j: parse_obj(text) for j, text in entries.items()}
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
    if args.format == "record":
        emit(out, {
            "schema": SCHEMA,
            "kind": "unbias-result",
            "model": args.model,
            "fibers": {str(k): list(map(int, l.labels)) for k, l in enumerate(result.family.lists)},
            "objects": {str(k): render(o) for k, o in enumerate(result.objects)},
        })
    else:
        for k, l in enumerate(result.family.lists):
            out.write(f"k={k}: fiber=[{','.join(map(str, l.labels))}] object: {render(result.objects[k])}\n")
    if args.cells:
        # the span factors through its apex as a pull followed by a push
        factor_pull = Span(s.left, FinFun(s.apex, s.apex, tuple(range(s.apex.size))))
        factor_push = Span(FinFun(s.apex, s.apex, tuple(range(s.apex.size))), s.right)
        comp = unbias_comp_iso(factor_pull, factor_push, model, assign)
        units = unbias_unit_iso(s.dom, model, assign)
        render_m = render_mor if args.model == "term" else str
        if args.format == "record":
            emit(out, {
                "schema": SCHEMA,
                "kind": "coherence-cells",
                "composition": {str(k): render_m(c) for k, c in enumerate(comp)},
                "unit": {str(j): render_m(c) for j, c in enumerate(units)},
            })
        else:
            for k, c in enumerate(comp):
                out.write(f"composition cell k={k}: {render_m(c)}\n")
            for j, c in enumerate(units):
                out.write(f"unit cell j={j}: {render_m(c)}\n")
    return 0


def cmd_check_laws(args, out) -> int:
    from . import laws

    seed = args.seed if args.seed is not None else int(os.environ.get(SEED_ENV, "0"))
    reports = laws.run_suite(args.suite, max_size=args.max_size, seed=seed)
    ok = all(r.ok for r in reports)
    if args.format == "record":
        emit(out, {
            "schema": SCHEMA,
            "kind": "law-report",
            "suite": args.suite,
            "seed": seed,
            "reports": [
                {"name": r.name, "cases": r.cases, "violations": list(r.violations)}
                for r in reports
            ],
        })
    else:
        for r in reports:
            out.write(str(r) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smckit",
        description="normalize, compare and unbias structural morphisms of symmetric monoidal categories",
    )
    parser.add_argument("--format", choices=("text", "record"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of a structural morphism")
    p.add_argument("term")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("equal", help="decide equality of two structural morphisms")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=cmd_equal)

    p = sub.add_parser("span-compose", help="compose span records by pullback")
    p.add_argument("spans", nargs="+", help="span records (file, JSON literal, or -)")
    p.add_argument("--cells", action="store_true", help="also print structural cells")
    p.set_defaults(fn=cmd_span_compose)

    p = sub.add_parser("unbias", help="unbiased tensors of a span in a model")
    p.add_argument("span", help="span record (file, JSON literal, or -)")
    p.add_argument("family", help="family record (file, JSON literal, or -)")
    p.add_argument("--model", choices=("term", "slist"), default="term")
    p.add_argument("--cells", action="store_true", help="also print coherence cells")
    p.set_defaults(fn=cmd_unbias)

    from . import laws

    p = sub.add_parser("check-laws", help="run a law suite")
    p.add_argument("--suite", default="all", choices=laws.suite_names())
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_check_laws)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.fn(args, out)
    except (ParseError, RecordFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
