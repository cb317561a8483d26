"""The one pass from text to permutation, against the regex tokenizer and the recursive oracle."""

import contextlib
import io
import json
import re
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import term_oracle as oracle
from test_terms import mutate, walk_term
from smckit import cli
from smckit.cli import main, parse_mor, parse_program, render_mor
from smckit.errors import IllTyped, ParseError
from smckit.laws import axiom_rewrite
from smckit.models import SListModel
from smckit.perms import Perm
from smckit.slist import SList, SListHom
from smckit.terms import Objects, canonical_term, run

# ---------------------------------------------------------------------------
# the split tokenizer against the regex one

TOKEN = re.compile(r"[()*;]|[^\W\d]\w*|\S")
KINDS = {"(", ")", "*", ";", "I", "id", "a", "l", "r", "b", "inv"}
PIECES = [
    *sorted(KINDS), "x", "y0", "_", "_z", "ab", "\xe9", "\u0301", "x²", "0", "9", "²", "Ⅻ", "$", "-",
    " ", "\n", "\t", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000",
]


def regex_tokens(text: str):
    """The kinds and texts that a findall of the token regex gives, or the error it names."""
    texts = TOKEN.findall(text)
    for index, word in enumerate(texts):
        if word not in KINDS and not (word[0].isalpha() or word[0] == "_"):
            start = list(TOKEN.finditer(text))[index].start()
            line, column = text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)
            return "error", f"unexpected character {word[0]!r}", line, column
    return [w if w in KINDS else "ident" for w in texts] + ["eof"], texts + [""]


def split_tokens(text: str):
    try:
        return cli._tokenize(text)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.column


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_tokenize_gives_the_tokens_of_the_regex(text):
    assert split_tokens(text) == regex_tokens(text)


def test_identifier_check_accepts_what_the_identifier_pattern_does_on_every_character():
    # every code point as a one-character word and after a letter
    ident = re.compile(r"[^\W\d]\w*")
    for c in map(chr, range(sys.maxunicode + 1)):
        for word in (c, "x" + c):
            expected = (word[0].isalpha() or word[0] == "_") and ident.fullmatch(word) is not None
            assert cli._is_identifier(word) == expected, word


def test_tokenize_examples():
    assert split_tokens("inv(a x\u3000_y (z*I));b\x1cx y") == regex_tokens("inv(a x\u3000_y (z*I));b\x1cx y")
    assert split_tokens("id (x * y)")[0] == ["id", "(", "ident", "*", "ident", ")", "eof"]
    # pieces that are no single token: the regex names the first bad character
    assert split_tokens("id x$ y") == ("error", "unexpected character '$'", 1, 5)
    assert split_tokens("b x\n y²z ²") == ("error", "unexpected character '²'", 2, 6)
    assert split_tokens("b \xe9 e\u0301") == ("error", "unexpected character '\u0301'", 1, 6)


# ---------------------------------------------------------------------------
# the CLI's program path against the recursive oracle on parse_mor's term

LABELS = ["x0", "x1", "x2"]


def singletons(label):
    return SList((label,))


def cli_run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--format", "record", *argv], out=out)
    return code, out.getvalue(), err.getvalue()


def oracle_normal_form(text):
    """(boundaries, hom) of the term parse_mor reads, or the IllTyped text of its first mismatch."""
    t = parse_mor(text)
    try:
        oracle.typecheck(t)
    except IllTyped as exc:
        return str(exc)
    return (oracle.mor_src(t), oracle.mor_tgt(t)), oracle.eval_mor(t, SListModel(), singletons)


def expected_normalize(text):
    found = oracle_normal_form(text)
    if isinstance(found, str):
        return 2, None, f"error: IllTyped: {found}\n"
    hom = found[1]
    labels = {"source": list(hom.src.labels), "target": list(hom.dst.labels), "phi": list(hom.phi.img)}
    return 0, labels, ""


def expected_equal(lhs, rhs):
    s, t = oracle_normal_form(lhs), oracle_normal_form(rhs)
    for found in (s, t):
        if isinstance(found, str):
            return 2, None, f"error: IllTyped: {found}\n"
    if s[0] != t[0]:
        return 2, None, "error: BoundaryMismatch: decide_equal needs syntactically equal boundaries\n"
    if s[1].phi == t[1].phi:
        return 0, {"kind": "decision", "equal": True}, ""
    return 1, {"kind": "decision", "equal": False, "lhs_phi": list(s[1].phi.img), "rhs_phi": list(t[1].phi.img)}, ""


def normalize_outcome(text):
    code, out, err = cli_run("normalize", text)
    if code != 0:
        return code, None, err
    record = json.loads(out)
    return code, {k: record[k] for k in ("source", "target", "phi")}, err


def equal_outcome(lhs, rhs):
    code, out, err = cli_run("equal", lhs, rhs)
    record = json.loads(out) if out else None
    if record is not None:
        del record["schema"]
    return code, record, err


def perm_text(rng: Random, labels) -> str:
    """The canonical term, as text, of a random permutation of ``labels``."""
    img = list(range(len(labels)))
    rng.shuffle(img)
    return render_mor(canonical_term(SListHom(SList(labels), SList([labels[i] for i in img]), Perm(img))))


def cases(rng: Random):
    """Pairs of texts: a walk and a rewrite of it, two permutations of one list, and ill-typed mutants."""
    walk = walk_term(rng)
    yield render_mor(walk), render_mor(axiom_rewrite(rng, walk))
    labels = [rng.choice(LABELS) for _ in range(rng.randint(0, 7))]
    yield perm_text(rng, labels), perm_text(rng, labels)
    yield render_mor(mutate(rng, walk)), render_mor(walk)
    yield render_mor(walk), render_mor(mutate(rng, walk_term(rng)))


@pytest.mark.parametrize("seed", range(6))
def test_the_program_path_agrees_with_the_oracle(seed):
    rng = Random(seed)
    kinds = set()
    for _ in range(30):
        for lhs, rhs in cases(rng):
            assert normalize_outcome(lhs) == expected_normalize(lhs)
            assert normalize_outcome(rhs) == expected_normalize(rhs)
            expected = expected_equal(lhs, rhs)
            assert equal_outcome(lhs, rhs) == expected
            kinds.add(expected[0] if expected[0] != 2 else expected[2].split(":")[1])
            # the program's boundaries are the oracle's
            found = oracle_normal_form(lhs)
            if not isinstance(found, str):
                objs = Objects()
                src, tgt, _ = run(parse_program(lhs, objs), objs)
                assert (objs.terms[src], objs.terms[tgt]) == found[0]
    assert kinds == {0, 1, " IllTyped", " BoundaryMismatch"}


def test_a_syntax_error_comes_before_a_typing_error():
    ill_typed = "b x y ; b x y"
    assert cli_run("equal", ill_typed, "b x y ;")[::2] == (2, "error: 1:8: expected a morphism, found 'end of input'\n")
    assert cli_run("equal", "b x (", ill_typed)[::2] == (2, "error: 1:6: expected an object, found 'end of input'\n")
    assert cli_run("equal", ill_typed, "b x y")[::2] == (
        2, "error: IllTyped: composition boundary mismatch: (y*x) != (x*y)\n")
