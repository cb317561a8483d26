"""CLI: parser round trips, golden outputs, exit codes, record format."""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random

import pytest
from cli_state_cases import CASES
from hypothesis import example, given, settings, strategies as st

import smckit
from smckit import cli, laws, spans
from smckit.cli import (
    main,
    parse_obj,
    parse_program,
    render_mor,
    render_obj,
    span_from_record,
    span_to_record,
)
from smckit.errors import ParseError, RecordFormatError
from smckit.laws import random_obj, random_walk_term
from smckit.perms import Perm
from smckit.slist import SList, SListHom
from smckit.terms import Assoc, Braid, Comp, Gen, Id, Objects, Par, Tensor, Unit, canonical_term, flatten


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


SPAN_A = json.dumps({
    "schema": "smckit/1", "kind": "span", "apex": 3,
    "left": {"target": 2, "img": [0, 1, 0]},
    "right": {"target": 2, "img": [0, 0, 1]},
})
SPAN_ID2 = json.dumps({
    "schema": "smckit/1", "kind": "span", "apex": 2,
    "left": {"target": 2, "img": [0, 1]},
    "right": {"target": 2, "img": [0, 1]},
})
FAMILY = json.dumps({
    "schema": "smckit/1", "kind": "family", "size": 2,
    "entries": {"0": "x", "1": "(y*z)"},
})


def parses_to(text, term) -> bool:
    """Whether the program parsed from ``text`` is the program of ``term``, in one object table."""
    objs = Objects()
    return parse_program(text, objs) == flatten(term, objs)


def test_parse_examples():
    assert parses_to("b x y", Braid(Gen("x"), Gen("y")))
    assert parses_to("a x y z ; b (x*y) z", Comp(
        Assoc(Gen("x"), Gen("y"), Gen("z")),
        Braid(Tensor(Gen("x"), Gen("y")), Gen("z")),
    ))
    assert parse_obj("I") == Unit()
    assert parse_obj("(x * (y*I))") == Tensor(Gen("x"), Tensor(Gen("y"), Unit()))
    assert parses_to("(id x * b y z)", Par(Id(Gen("x")), Braid(Gen("y"), Gen("z"))))
    assert not parses_to("b x y", Braid(Gen("y"), Gen("x")))
    assert not parses_to("id x ; id x ; id x", Comp(Id(Gen("x")), Comp(Id(Gen("x")), Id(Gen("x")))))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_program("b x (y", Objects())
    assert err.value.line == 1 and err.value.column == 7
    with pytest.raises(ParseError):
        parse_program("b x y extra", Objects())
    with pytest.raises(ParseError):
        parse_obj("(x*y")
    with pytest.raises(ParseError):
        parse_program("8", Objects())


def test_parse_render_round_trip_generated():
    rng = Random(51)
    labels = ["x0", "x1", "x2", "x3", "x4"]
    for _ in range(1000):
        term = random_walk_term(rng, labels, rng.randint(0, 5))
        assert parses_to(render_mor(term), term)
        obj = random_obj(rng, labels)
        assert parse_obj(render_obj(obj)) == obj


# (input, stderr of `smckit normalize <input>`): the positions and texts of
# syntax and typing errors are part of the CLI's interface
MALFORMED = [
    ("x $", "error: 1:3: unexpected character '$'"),
    ("b x y ;\n\t(id x *\n\t\tb y %)", "error: 3:7: unexpected character '%'"),
    ("a x y z ;\n\t(b x y\n\t* id z", "error: 3:8: expected ')', found 'end of input'"),
    ("id\tx\t$", "error: 1:6: unexpected character '$'"),
    ("id x\x0c$", "error: 1:6: unexpected character '$'"),
    ("²x", "error: 1:1: unexpected character '²'"),
    ("Ⅻ", "error: 1:1: unexpected character 'Ⅻ'"),
    ("id 9x", "error: 1:4: unexpected character '9'"),
    ("(", "error: 1:2: expected a morphism, found 'end of input'"),
    ("(b x y", "error: 1:7: expected '*', found 'end of input'"),
    ("(id x * id y", "error: 1:13: expected ')', found 'end of input'"),
    ("inv x", "error: 1:5: expected '(', found 'x'"),
    ("inv (inv (b x y)", "error: 1:17: expected ')', found 'end of input'"),
    ("id ((x*y)", "error: 1:10: expected '*', found 'end of input'"),
    ("id (x * y * z)", "error: 1:11: expected ')', found '*'"),
    ("id ( * x)", "error: 1:6: expected an object, found '*'"),
    ("a x y", "error: 1:6: expected an object, found 'end of input'"),
    ("", "error: 1:1: expected a morphism, found 'end of input'"),
    ("b x y ; ; b y x", "error: 1:9: expected a morphism, found ';'"),
    ("b x y extra", "error: 1:7: trailing input 'extra'"),
    ("b x y\n\n   ) ", "error: 3:4: trailing input ')'"),
    ("(b x y * b y x) )", "error: 1:17: trailing input ')'"),
    ("id x ; id y ; b x y", "error: IllTyped: composition boundary mismatch: x != y"),
    ("(id x * a y z w ; b x x)", "error: IllTyped: composition boundary mismatch: (y*(z*w)) != (x*x)"),
    ("b (x*I) y ; b (I*x) y", "error: IllTyped: composition boundary mismatch: (y*(x*I)) != ((I*x)*y)"),
    # keywords, punctuation and identifiers where another class of token is expected
    ("b x id", "error: 1:5: expected an object, found 'id'"),
    ("a x y inv (b x y)", "error: 1:7: expected an object, found 'inv'"),
    ("id )", "error: 1:4: expected an object, found ')'"),
    ("l ;", "error: 1:3: expected an object, found ';'"),
    ("r (x * ;)", "error: 1:8: expected an object, found ';'"),
    ("id (I * inv)", "error: 1:9: expected an object, found 'inv'"),
    ("a a x y", "error: 1:3: expected an object, found 'a'"),
    ("id (x * b)", "error: 1:9: expected an object, found 'b'"),
    ("x", "error: 1:1: expected a morphism, found 'x'"),
    ("b x y ; I", "error: 1:9: expected a morphism, found 'I'"),
    ("(x * id y)", "error: 1:2: expected a morphism, found 'x'"),
    ("inv (b x y ; x)", "error: 1:14: expected a morphism, found 'x'"),
    (")", "error: 1:1: expected a morphism, found ')'"),
    ("inv (id x *", "error: 1:11: expected ')', found '*'"),
    ("inv (b x y) id", "error: 1:13: trailing input 'id'"),
]


@pytest.mark.parametrize("text,message", MALFORMED)
def test_malformed_input_messages(text, message, capsys):
    code, out = run("normalize", text)
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message + "\n"


def test_normalize_golden():
    code, text = run("normalize", "a x y z")
    assert code == 0
    assert text == (
        "source: [x,y,z]\n"
        "target: [x,y,z]\n"
        "phi=[0,1,2]\n"
        "reduced-word: []\n"
        "canonical: id (x * (y * (z * I)))\n"
    )


def test_equal_golden_and_exit_codes():
    code, text = run(
        "equal",
        "a x y z ; b x (y*z) ; a y z x",
        "(b x y * id z) ; a y x z ; (id y * b x z)",
    )
    assert code == 0 and text == "equal: true\n"
    code, text = run("equal", "b x x", "id (x*x)")
    assert code == 1
    assert text == "equal: false\nlhs phi=[1,0]\nrhs phi=[0,1]\n"


def test_normalize_record_is_stable():
    code, text1 = run("--format", "record", "normalize", "b x y")
    _, text2 = run("--format", "record", "normalize", "b x y")
    assert code == 0 and text1 == text2
    record = json.loads(text1)
    assert record["schema"] == "smckit/1"
    assert record["phi"] == [1, 0] and record["word"] == [0]


def test_span_compose_golden():
    code, text = run("span-compose", SPAN_A, SPAN_ID2)
    assert code == 0
    assert text == (
        "apex: 3\n"
        "left: target=2 img=[0,1,0]\n"
        "right: target=2 img=[0,0,1]\n"
    )
    code, text = run("--format", "record", "span-compose", SPAN_A, SPAN_ID2)
    record = json.loads(text)
    assert span_from_record(record) == span_from_record(json.loads(SPAN_A))


def test_span_record_round_trip():
    s = span_from_record(json.loads(SPAN_A))
    assert span_from_record(span_to_record(s)) == s
    with pytest.raises(RecordFormatError):
        span_from_record({"schema": "smckit/1", "kind": "span", "apex": 1})


def test_record_errors():
    code, _ = run("span-compose", '{"schema":"smckit/0","kind":"span"}')
    assert code == 2
    code, _ = run("span-compose", '{bad json')
    assert code == 2
    code, _ = run("normalize", "b x (y")
    assert code == 2


# composable spans 2 -> 2, pairwise distinct, none a unit for another, so no two composites coincide
CHAIN = [SPAN_A, *(json.dumps({
    "schema": "smckit/1", "kind": "span", "apex": len(left),
    "left": {"target": 2, "img": left},
    "right": {"target": 2, "img": right},
}) for left, right in (([1, 0], [0, 1]), ([0, 0, 1], [1, 0, 1]), ([1], [0])))]


@pytest.mark.parametrize("fmt", ["text", "record"])
def test_span_compose_builds_each_pullback_once(fmt, monkeypatch):
    """A bare chain builds no composite span; ``--cells`` adds only the associator's four.

    The composite is written from ``spans.chain_rows``, and the unitor maps
    without their cells.  Nothing builds a pullback or composes maps.
    """
    built, projected = [], []
    build = spans._built

    def counting(s, t, with_pullback):
        built.append((s, t))
        return build(s, t, with_pullback)

    monkeypatch.setattr(spans, "_built", counting)
    for name in ("pullback", "fcompose"):
        monkeypatch.setattr(spans, name, lambda *args, name=name: projected.append(name))
    # chain length -> composites without and with --cells: s;t, (s;t);u, t;u and s;(t;u) for assoc_cell
    for k, (bare, cells) in {1: (0, 0), 2: (0, 0), 3: (0, 4), 4: (0, 4)}.items():
        for options, want in (([], bare), (["--cells"], cells)):
            built.clear()
            assert run("--format", fmt, "span-compose", *CHAIN[:k], *options)[0] == 0
            assert len(built) == want, (k, options)
            assert spans._scope.table is None  # no composite outlives the command
    assert projected == []


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 3), length=st.integers(1, 4))
@example(seed=0, size=0, length=1)
@example(seed=0, size=0, length=4)  # every apex and foot empty
@example(seed=1, size=3, length=4)  # an empty foot (tests/test_draws.py pins what random_chain draws)
@example(seed=0, size=3, length=4)  # an empty apex over non-empty feet
def test_span_compose_cells_agree_with_the_library(seed, size, length):
    """The records of ``span-compose --cells`` are the library's fold and cells, built afresh."""
    chain = laws.random_chain(Random(seed), size, length)
    argv = [json.dumps({"schema": "smckit/1", **span_to_record(s)}) for s in chain]
    code, text = run("--format", "record", "span-compose", *argv, "--cells")
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    composite = functools.reduce(spans.compose_span, chain)
    assert span_from_record(records[0]) == composite
    assert records[1]["kind"] == "structural-cells"
    assert records[1]["lunitor"] == list(spans.left_unitor_cell(composite).map.img)
    assert records[1]["runitor"] == list(range(composite.apex.size))
    if length >= 3:
        assert records[2] == {"schema": "smckit/1", "kind": "assoc-cell",
                              "map": list(spans.assoc_cell(*chain[:3]).map.img)}
    assert len(records) == (3 if length >= 3 else 2)


def test_unbias_golden():
    code, text = run("unbias", SPAN_A, FAMILY)
    assert code == 0
    assert text == (
        "k=0: fiber=[0,1] object: (x * ((y * z) * I))\n"
        "k=1: fiber=[0] object: (x * I)\n"
    )


def test_unbias_record_and_slist_model():
    code, text = run("--format", "record", "unbias", SPAN_A, FAMILY, "--model", "slist")
    assert code == 0
    record = json.loads(text)
    assert record["objects"] == {"0": "[x,y,z]", "1": "[x]"}
    assert record["fibers"] == {"0": [0, 1], "1": [0]}


def test_unbias_missing_family_entry():
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 2, "entries": {"0": "x"},
    })
    code, _ = run("unbias", SPAN_A, family)
    assert code == 2


def test_unbias_family_entry_parse_error_is_exit_2(capsys):
    # the family record is checked in full where it is read, so an
    # unparsable entry fails even where the span never uses it
    span = _with(SPAN_A, ("left", "target"), 3)
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 3,
        "entries": {"0": "x", "1": "(y*z)", "2": "(y*"},
    })
    code, text = run("unbias", span, family)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: 1:4: ")


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"0": "x", "1": "y", "7": "z"}, 'key "7" is outside a family of size 2'),
        ({"0": "x", "2": "y"}, 'key "2" is outside a family of size 2'),
        ({"0": "x"}, 'no entry for key "1" in a family of size 2'),
        ({"1": "y"}, 'no entry for key "0" in a family of size 2'),
        ({}, 'no entry for key "0" in a family of size 2'),
    ],
)
def test_family_keys_are_exactly_the_foot(entries, message, capsys):
    # the span's left leg reaches only 0, so a missing key 1 used to show
    # only after the objects were printed, and a stray key was ignored
    span = _with(SPAN_A, ("left", "img"), [0, 0, 0])
    for cells in ((), ("--cells",)):
        assert run("unbias", span, _with(FAMILY, ("entries",), entries), *cells) == (2, "")
        assert capsys.readouterr().err == f"error: malformed family record: {message}\n"


def test_unbias_cells_parses_each_family_entry_once(monkeypatch):
    arity = 24
    span = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": arity,
        "left": {"target": 4, "img": [i % 4 for i in range(arity)]},
        "right": {"target": 1, "img": [0] * arity},
    })
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 4,
        "entries": {str(j): f"(x{j} * I)" for j in range(4)},
    })
    calls = []

    def counting_parse_obj(text, *table):
        calls.append(text)
        return parse_obj(text, *table)

    monkeypatch.setattr(cli, "parse_obj", counting_parse_obj)
    code, text = run("unbias", span, family, "--cells")
    assert code == 0 and "composition cell k=0" in text
    assert len(calls) <= 4


def test_equal_on_a_long_chain():
    # a 500-step composition chain decides without reaching the recursion limit
    chain = " ; ".join(["b x y ; b y x"] * 250)
    code, text = run("equal", chain, "id (x*y)")
    assert code == 0 and text == "equal: true\n"


def test_unbias_cells_run():
    span = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": 2,
        "left": {"target": 1, "img": [0, 0]},
        "right": {"target": 1, "img": [0, 0]},
    })
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 1, "entries": {"0": "A"},
    })
    code, text = run("unbias", span, family, "--cells")
    assert code == 0
    assert "unit cell j=0: r A" in text


def test_check_laws_cli():
    code, text = run("check-laws", "--suite", "braiding", "--max-size", "5")
    assert code == 0 and "braiding" in text and "ok" in text
    code, text = run("--format", "record", "check-laws", "--suite", "braiding", "--max-size", "4")
    record = json.loads(text)
    assert record["reports"][0]["violations"] == []


def test_check_laws_seed_env(monkeypatch):
    monkeypatch.setenv("SMCKIT_SEED", "11")
    code, text = run("--format", "record", "check-laws", "--suite", "braiding")
    assert json.loads(text)["seed"] == 11


@pytest.mark.parametrize(
    "argv, env_seed, message",
    [
        (("--suite", "braiding"), "abc", "--seed: expected an integer (from --seed or $SMCKIT_SEED), found 'abc'"),
        (("--suite", "braiding", "--seed", "1.5"), None, "--seed: expected an integer (from --seed or $SMCKIT_SEED), found '1.5'"),
        (("--suite", "span", "--max-size", "-3"), None, "--max-size: expected a positive integer, found '-3'"),
        (("--suite", "braiding", "--max-size", "0"), None, "--max-size: expected a positive integer, found '0'"),
        (("--suite", "braiding", "--max-size", "two"), None, "--max-size: expected a positive integer, found 'two'"),
    ],
    ids=["seed-from-env", "seed-fraction", "max-size-negative", "max-size-zero", "max-size-word"],
)
def test_check_laws_usage_errors(argv, env_seed, message, monkeypatch, capsys):
    if env_seed is None:
        monkeypatch.delenv("SMCKIT_SEED", raising=False)
    else:
        monkeypatch.setenv("SMCKIT_SEED", env_seed)
    code, text = run("check-laws", *argv)
    err = capsys.readouterr().err
    assert (code, text) == (2, "")
    assert err.startswith("usage: smckit check-laws") and err.endswith(f"error: argument {message}\n")


def test_run_suite_refuses_sizes_below_one():
    # the library counterpart of --max-size: no silent default, no vacuous suite, and a bool is no size
    for max_size in (0, -3, True, False, 2.0, "3"):
        with pytest.raises(ValueError, match="max_size must be a positive integer"):
            laws.run_suite("braiding", max_size=max_size)
    assert [r.cases for r in laws.run_suite("braiding")] == [90]
    assert [r.cases for r in laws.run_suite("braiding", max_size=2)] == [12]


@pytest.mark.parametrize("seed", [None, True, 1.5, "3"])
def test_run_suite_refuses_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, not {seed!r}$"):
        laws.run_suite("braiding", seed=seed)


def test_check_laws_seed_option_overrides_the_environment(monkeypatch):
    monkeypatch.setenv("SMCKIT_SEED", "abc")
    code, text = run("--format", "record", "check-laws", "--suite", "braiding", "--max-size", "2", "--seed", "3")
    assert code == 0 and json.loads(text)["seed"] == 3


def test_deeply_nested_record_is_a_record_error(tmp_path, capsys):
    depth = 10**5
    path = tmp_path / "deep.json"
    path.write_text('{"schema":"smckit/1","kind":"span","x":' + "[" * depth + "]" * depth + "}")
    assert run("span-compose", str(path)) == (2, "")
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_integer_past_the_int_string_limit_is_a_record_error(monkeypatch, capsys):
    digits = "9" * 5000
    message = ("error: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
               "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # Python's default, whatever PYTHONINTMAXSTRDIGITS says
    try:
        assert run("span-compose", '{"schema":"smckit/1","kind":"span","apex":' + digits + "}") == (2, "")
        assert capsys.readouterr().err == message
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"schema":"smckit/1","kind":"family","size":' + digits + "}"))
        assert run("unbias", SPAN_A, "-") == (2, "")
        assert capsys.readouterr().err == message
    finally:
        sys.set_int_max_str_digits(limit)


def _with(record: str, path: tuple, value) -> str:
    out = json.loads(record)
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return json.dumps(out)


@pytest.mark.parametrize(
    "path, value, shown",
    [
        (("left", "img"), [0.9, 1, 0], "0.9"),
        (("left", "img"), [0, 1, True], "true"),
        (("right", "img"), [0, "0", 1], '"0"'),
        (("right", "img"), [0, [0], 1], "an array"),
        (("apex",), 3.0, "3.0"),
        (("apex",), "3", '"3"'),
        (("left", "target"), 2.7, "2.7"),
        (("right", "target"), None, "null"),
        (("left", "img"), [5, 0.5, 0], "0.5"),
        (("left", "img"), [0.5], "0.5"),
    ],
)
def test_span_records_take_only_integers(path, value, shown, capsys):
    assert run("span-compose", _with(SPAN_A, path, value)) == (2, "")
    assert capsys.readouterr().err == f"error: malformed span record: expected an integer, found {shown}\n"


@pytest.mark.parametrize("apex", [1, 200])
def test_span_records_cost_three_integer_checks_each(apex, monkeypatch):
    """``_integer`` reads apex and targets; ``FinFun`` alone type-tests each image value."""
    calls = []
    integer = cli._integer

    def counting_integer(value):
        calls.append(value)
        return integer(value)

    def record(left_target, left, right_target, right):
        return json.dumps({
            "schema": "smckit/1", "kind": "span", "apex": apex,
            "left": {"target": left_target, "img": left},
            "right": {"target": right_target, "img": right},
        })

    monkeypatch.setattr(cli, "_integer", counting_integer)
    ones, identity = [0] * apex, list(range(apex))
    chain = (record(1, ones, apex, identity), record(apex, identity, 1, ones))
    assert run("span-compose", *chain)[0] == 0
    assert len(calls) == 3 * len(chain)


@pytest.mark.parametrize("value, shown", [(2.0, "2.0"), (True, "true"), ("2", '"2"'), ({}, "an object")])
def test_family_records_take_only_an_integer_size(value, shown, capsys):
    assert run("unbias", SPAN_A, _with(FAMILY, ("size",), value)) == (2, "")
    assert capsys.readouterr().err == f"error: malformed family record: expected an integer, found {shown}\n"


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"0": None, "1": True}, "expected a string entry, found null"),
        ({"0": "x", "1": 2}, "expected a string entry, found 2"),
        ({"0": "x", "1": ["y"]}, "expected a string entry, found an array"),
        ({"0": "x", "1": "y", "01": "z"}, 'expected a decimal key, found "01"'),
        ({"0": "x", " 1": "y"}, 'expected a decimal key, found " 1"'),
        ({"0": "x", "1_0": "y"}, 'expected a decimal key, found "1_0"'),
        ({"0": "x", "-1": "y"}, 'expected a decimal key, found "-1"'),
    ],
)
def test_family_records_take_only_decimal_keys_and_string_entries(entries, message, capsys):
    assert run("unbias", SPAN_A, _with(FAMILY, ("entries",), entries)) == (2, "")
    assert capsys.readouterr().err == f"error: malformed family record: {message}\n"


SHALLOW_MAIN = (
    "import json, sys; sys.setrecursionlimit(200); "
    "from smckit.cli import main; sys.exit(main(json.load(sys.stdin)))"
)


def run_shallow(*argv):
    """Run the CLI in a fresh interpreter whose recursion limit is 200."""
    env = dict(os.environ)
    src = str(Path(smckit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # the argv goes through stdin: a long term does not fit in one argument
    proc = subprocess.run(
        [sys.executable, "-c", SHALLOW_MAIN], input=json.dumps(argv),
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


CHAIN_10K = " ; ".join(["b x y ; b y x"] * 5000)
DEEP_OBJ = "(x * " * 3000 + "y" + ")" * 3000


def test_deep_chain_equal_and_normalize():
    code, out, err = run_shallow("equal", CHAIN_10K, "id (x*y)")
    assert (code, out, err) == (0, "equal: true\n", "")
    code, out, err = run_shallow("--format", "record", "normalize", CHAIN_10K)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["phi"] == [0, 1] and record["canonical"] == "id (x * (y * I))"


def test_deep_object():
    code, out, err = run_shallow("--format", "record", "normalize", "id " + DEEP_OBJ)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["source"] == ["x"] * 3000 + ["y"] and record["word"] == []
    code, out, err = run_shallow("equal", "id " + DEEP_OBJ, "id " + DEEP_OBJ)
    assert (code, out, err) == (0, "equal: true\n", "")
    # the message of an ill-typed composition prints the deep object
    code, out, err = run_shallow("normalize", f"id {DEEP_OBJ} ; id x")
    assert code == 2 and out == ""
    assert err == f"error: IllTyped: composition boundary mismatch: {DEEP_OBJ.replace(' * ', '*')} != x\n"


def test_deep_inverse_nesting():
    code, out, err = run_shallow("--format", "record", "normalize", "inv (" * 2000 + "b x y" + ")" * 2000)
    assert code == 0 and err == ""
    assert json.loads(out)["phi"] == [1, 0]


def test_reversed_permutation_of_48():
    n = 48
    labels = tuple(f"x{i}" for i in range(n))
    reverse = tuple(reversed(range(n)))
    term = render_mor(canonical_term(SListHom(SList(labels), SList(labels[::-1]), Perm(reverse))))
    code, out, err = run_shallow("--format", "record", "normalize", term)
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["phi"] == list(reverse) and len(record["word"]) == n * (n - 1) // 2
    assert record["canonical"] == term


def fibers_of(size: int) -> tuple[str, str]:
    """A span with three fibers of ``size`` over a foot of eight, and a family on the foot."""
    rng = Random(size)
    right = [k for k in range(3) for _ in range(size)]
    rng.shuffle(right)
    span = json.dumps({
        "schema": "smckit/1", "kind": "span", "apex": len(right),
        "left": {"target": 8, "img": [rng.randrange(8) for _ in right]},
        "right": {"target": 3, "img": right},
    })
    family = json.dumps({
        "schema": "smckit/1", "kind": "family", "size": 8,
        "entries": {str(j): f"(p{j} * q)" for j in range(8)},
    })
    return span, family


@pytest.mark.parametrize("model", ("term", "slist"))
def test_unbias_cells_with_fibers_of_300(model):
    span, family = fibers_of(300)
    code, out, err = run_shallow("unbias", span, family, "--model", model, "--cells")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3 + 3 + 8
    assert all(line.startswith(f"composition cell k={k}: ") for k, line in zip(range(3), lines[3:6]))


def run_stdin(argv, text):
    env = dict(os.environ)
    src = str(Path(smckit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "smckit", *argv], input=text,
        capture_output=True, text=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_terms_from_stdin():
    # the canonical term normalize prints for a 48-element reversal is
    # about 1 MB, too long for one command-line argument; it goes back in by '-'
    n = 48
    labels = tuple(f"x{i}" for i in range(n))
    reverse = Perm(tuple(reversed(range(n))))
    term = render_mor(canonical_term(SListHom(SList(labels), SList(labels[::-1]), reverse)))
    code, out, err = run_stdin(["--format", "record", "normalize", "-"], term)
    assert code == 0 and err == ""
    assert json.loads(out)["canonical"] == term
    code, out, err = run_stdin(["equal", "-", "b x y ; b y x"], "id (x*y)\n")
    assert (code, out, err) == (0, "equal: true\n", "")
    code, out, err = run_stdin(["equal", "id (x*x)", "-"], "b x x")
    assert code == 1 and out.startswith("equal: false\n") and err == ""


def test_two_terms_from_stdin_is_a_usage_error(capsys):
    assert run("equal", "-", "-") == (2, "")
    assert capsys.readouterr().err == "error: only one term can be read from stdin ('-')\n"


@pytest.mark.parametrize("argv, what", [
    (["equal", "-", "-"], "term"),
    (["span-compose", SPAN_A, "-", "-"], "record"),
    (["unbias", "-", "-", "--cells"], "record"),
], ids=["equal", "span-compose", "unbias"])
def test_a_second_stdin_argument_is_refused_before_stdin_is_read(argv, what, monkeypatch, capsys):
    stdin = io.StringIO(SPAN_A)
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: only one {what} can be read from stdin ('-')\n"
    assert stdin.tell() == 0


def strict_stdin(data: bytes) -> io.TextIOWrapper:
    """A stdin that decodes UTF-8 strictly, as with ``PYTHONIOENCODING=utf-8``."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")


def test_input_that_is_not_utf8_is_exit_2(tmp_path, monkeypatch, capsys):
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff" + SPAN_A.encode())
    assert run("span-compose", str(bad)) == (2, "")
    assert capsys.readouterr().err == f"error: cannot read record from {str(bad)!r}: {decode}\n"
    monkeypatch.setattr(sys, "stdin", strict_stdin(b"\xff" + SPAN_A.encode()))
    assert run("span-compose", "-") == (2, "")
    assert capsys.readouterr().err == f"error: cannot read record from '-': {decode}\n"
    monkeypatch.setattr(sys, "stdin", strict_stdin(b"\xff" + FAMILY.encode()))
    assert run("unbias", SPAN_A, "-") == (2, "")
    assert capsys.readouterr().err == f"error: cannot read record from '-': {decode}\n"
    for command in (("normalize", "-"), ("equal", "b x y", "-")):
        # the column counts characters: the two bytes of the e-acute are one
        monkeypatch.setattr(sys, "stdin", strict_stdin(b"b x y ;\n  b \xc3\xa9 \xff"))
        assert run(*command) == (2, "")
        assert capsys.readouterr().err == "error: 2:7: stdin is not utf-8 text: invalid start byte\n"


def test_nul_byte_in_a_record_path_is_exit_2(capsys):
    # no shell passes a NUL byte in argv, but main(argv) takes any string
    assert run("span-compose", "x\x00y") == (2, "")
    assert capsys.readouterr().err == "error: cannot read record from 'x\\x00y': embedded null byte\n"
    assert run("unbias", "a\x00", "b") == (2, "")
    assert capsys.readouterr().err == "error: cannot read record from 'a\\x00': embedded null byte\n"


def test_stdin_term_errors_point_into_it(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("b x y ;\n  b y $"))
    assert run("normalize", "-") == (2, "")
    assert capsys.readouterr().err == "error: 2:7: unexpected character '$'\n"


def run_bytes(argv, data=b""):
    """``python -m smckit`` under ``LC_ALL=C``, where Python reads undecodable stdin and argv bytes as surrogate escapes."""
    src = str(Path(smckit.__file__).resolve().parent.parent)
    env = dict(os.environ, LC_ALL="C", PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "smckit", *argv], input=data, capture_output=True, env=env, timeout=120,
    )
    assert proc.stdout == b"" and len(proc.stderr.splitlines()) == 1
    return proc.returncode, proc.stderr.decode()


def cannot_read(where: str, data: bytes) -> tuple[int, str]:
    """Exit 2 and the error for a record from ``where`` whose first undecodable byte is 0xff."""
    decode = f"'utf-8' codec can't decode byte 0xff in position {data.index(0xff)}: invalid start byte"
    return 2, f"error: cannot read record from {where}: {decode}\n"


def test_undecodable_bytes_are_reported_as_such():
    assert run_bytes(["normalize", "-"], b"b x y ;\n b y \xff x") == (
        2, "error: 2:6: stdin is not utf-8 text: invalid start byte\n")
    assert run_bytes(["equal", "b x y", "-"], b"b \xc3( x") == (
        2, "error: 1:3: stdin is not utf-8 text: invalid continuation byte\n")
    family = b'{"schema": "smckit/1", "kind": "family", "size": 2, "entries": {"0": "x\xff", "1": "y"}}'
    assert run_bytes(["unbias", SPAN_A, "-"], family) == cannot_read("'-'", family)
    span = b"\xff" + SPAN_A.encode()
    assert run_bytes(["span-compose", "-"], span) == cannot_read("'-'", span)
    assert run_bytes(["normalize", b"b x \xff"]) == (2, "error: 1:5: argument is not utf-8 text: invalid start byte\n")
    assert run_bytes(["equal", b"b x y ;\n  b \xc3\xa9 \xff", "b x y"]) == (
        2, "error: 2:7: argument is not utf-8 text: invalid start byte\n")
    span = b'{"schema": "smckit/1", "kind": "span\xff"}'
    assert run_bytes(["span-compose", span]) == cannot_read("an argument", span)
    assert run_bytes(["unbias", SPAN_A, family]) == cannot_read("an argument", family)


def test_undecodable_bytes_in_a_record_path_are_shown_as_bytes(capsys):
    def missing(shown):
        return 2, f"error: cannot read record from {shown}: [Errno 2] No such file or directory: {shown}\n"

    assert run_bytes(["span-compose", b"/nonexistent/\xff.json"]) == missing("'/nonexistent/\\xff.json'")
    assert run_bytes(["unbias", SPAN_A, b"/nonexistent/\xc3(\x80.json"]) == missing("'/nonexistent/\\xc3(\\x80.json'")
    assert run_bytes(["span-compose", "/nonexistent/é.json".encode()]) == missing("'/nonexistent/é.json'")
    # a backslash in a path is shown escaped, as repr shows it, and starts no byte
    assert run("span-compose", "/nonexistent/\\udcff.json") == (2, "")
    assert capsys.readouterr().err == missing("'/nonexistent/\\\\udcff.json'")[1]


def test_lone_surrogates_that_are_no_escapes_stay_unexpected_characters(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("b x \ud800"))
    assert run("normalize", "-") == (2, "")
    assert capsys.readouterr().err == "error: 1:5: unexpected character '\\ud800'\n"
    # beside a surrogate escape it cannot be encoded back, so the text is parsed as it is
    assert run("normalize", "b \ud800 \udcff") == (2, "")
    assert capsys.readouterr().err == "error: 1:3: unexpected character '\\ud800'\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"schema": "smckit/1", "kind": "span\ud800\udcff"}'))
    assert run("span-compose", "-") == (2, "")
    assert capsys.readouterr().err == "error: expected a 'span' record, found 'span\\ud800\\udcff'\n"


def test_render_prints_composition_flat():
    x, y = Gen("x"), Gen("y")
    f, g = Braid(x, y), Braid(y, x)
    assert render_mor(Comp(f, Comp(g, f))) == render_mor(Comp(Comp(f, g), f)) == "b x y ; b y x ; b x y"
    assert render_mor(Par(Comp(f, g), Id(Unit()))) == "(b x y ; b y x * id I)"


# ---------------------------------------------------------------------------
# one parser per process


def _count_builds(monkeypatch) -> list:
    """Drop the process's parser; each later build_parser call appends to the list returned."""
    builds = []
    build = cli.build_parser

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    return builds


def test_parser_is_built_once_per_process(monkeypatch):
    builds = _count_builds(monkeypatch)

    def well_formed():
        for _ in range(20):
            assert run("normalize", "b x y")[0] == 0
            assert run("equal", "b x y", "b x y")[0] == 0
            assert run("unbias", SPAN_A, FAMILY)[0] == 0

    well_formed()  # read directly: no parser at all
    assert len(builds) == 0
    # a usage error, a help request and check-laws go to the one parser, built by the first of them
    assert run("normalize")[0] == 2
    well_formed()
    assert run("-h")[0] == 0
    assert run("check-laws", "--suite", "braiding")[0] == 0
    well_formed()
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# the direct argv reader against argparse


ARGPARSE = cli.build_parser()


def argparse_reads(argv):
    """``vars`` of the namespace argparse gives ``argv`` as ``_parse_argv`` takes it, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = ARGPARSE.parse_known_args(argv)
        except SystemExit:
            return None
    return None if extra else vars(args)


ARGV_WORDS = (
    "--format", "--form", "--f", "--format=record", "text", "record", "json",
    "--cells", "--cel", "--cells=1", "--model", "--mod", "--model=slist", "term", "slist", "TERM",
    "--suite", "--seed", "--max-size", "-h", "--help", "--", "-", "", "-x", "-1", "-b x y",
    "b x y", "id (x*y)", SPAN_A, SPAN_ID2, FAMILY,
    "normalize", "equal", "span-compose", "unbias", "check-laws", "norm",
)
POSITIONALS = ("b x y", "id (x*y)", SPAN_A, SPAN_ID2, FAMILY, "-", "")
GOOD_OPTIONS = (("--cells",), ("--model", "term"), ("--model", "slist"))
BAD_OPTIONS = (("--model", "json"), ("--model",), ("--mod", "term"), ("--model=slist",), ("--cells=1",), ("-h",),
               ("--format", "record"), ("--suite", "span"), ("--",), ("-x",), ("b x y",))


@st.composite
def requests(draw, formats, options):
    """Argv of a command with its number of positionals and some ``options``, in any order."""
    argv = [word for _ in range(draw(st.integers(0, 2))) for word in ("--format", draw(st.sampled_from(formats)))]
    command = draw(st.sampled_from(("normalize", "equal", "span-compose", "unbias", "check-laws")))
    arity = {"normalize": 1, "equal": 2, "span-compose": draw(st.integers(1, 3)), "unbias": 2}.get(command, 0)
    groups = [(word,) for word in draw(st.lists(st.sampled_from(POSITIONALS), min_size=arity, max_size=arity))]
    groups += draw(st.lists(st.sampled_from(options), max_size=3))
    return argv + [command] + [word for group in draw(st.permutations(groups)) for word in group]


ARGVS = st.one_of(
    st.lists(st.sampled_from(ARGV_WORDS), max_size=7),
    requests(("text", "record"), GOOD_OPTIONS),
    requests(("text", "record", "json"), GOOD_OPTIONS + BAD_OPTIONS),
)


@settings(max_examples=1000, deadline=None)
@given(ARGVS)
@example(["span-compose", SPAN_A, "--cells", SPAN_ID2])  # argparse: "unrecognized arguments"
@example(["unbias", SPAN_A, "--cells", FAMILY])  # argparse reads it
@example(["--format", "record", "--format", "text", "equal", "-", ""])
def test_the_direct_reader_reads_as_argparse_or_declines(argv):
    read = cli._read_argv(list(argv))
    assert read is None or vars(read) == argparse_reads(argv), argv


@pytest.mark.parametrize("argv", [
    ["normalize", "b x y"],
    ["--format", "record", "equal", "b x y", "-"],
    ["equal", "", "id (x*y)"],
    ["--format", "text", "--format", "record", "span-compose", SPAN_A, SPAN_ID2, "--cells", "--cells"],
    ["span-compose", "-"],
    ["unbias", SPAN_A, "--cells", FAMILY, "--model", "slist", "--model", "term"],
    ["unbias", "--model", "slist", "-", FAMILY],
])
def test_the_direct_reader_reads_well_formed_requests(argv):
    read = cli._read_argv(argv)
    assert read is not None and vars(read) == argparse_reads(argv)


@pytest.mark.parametrize("argv", [
    ["span-compose", "--cells", SPAN_A],  # argparse reads it, but no span after an option is read here
    ["normalize", "b x y", "--format", "record"],
    ["--form", "record", "normalize", "b x y"],
    ["--format=record", "normalize", "b x y"],
    ["unbias", SPAN_A, FAMILY, "--model=slist"],
    ["unbias", SPAN_A, FAMILY, "--mod", "slist"],
    ["unbias", SPAN_A, FAMILY, "--model", "json"],
    ["unbias", SPAN_A, FAMILY, "--model"],
    ["equal", "b x y", "--", "-x"],
    ["normalize", "-h"],
    ["normalize"],
    ["normalize", "b x y", "b x y"],
    ["check-laws"],
    ["--format", "json", "normalize", "b x y"],
    ["--format"],
    [],
])
def test_the_direct_reader_declines(argv):
    assert cli._read_argv(argv) is None


def test_parser_is_not_built_at_import():
    # a shell run times the import and the parser build apart (the benchmark's setup_s)
    env = dict(os.environ, PYTHONPATH=str(Path(smckit.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import smckit.cli; print(smckit.cli._PARSER)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "None\n"), proc.stderr


def test_commands_are_looked_up_when_called(monkeypatch):
    run("normalize", "b x y")  # the parser exists before the commands are replaced
    calls = []

    def counting(command):
        def wrapper(args, out):
            calls.append(command.__name__)
            return command(args, out)
        return wrapper

    monkeypatch.setattr(cli, "cmd_normalize", counting(cli.cmd_normalize))
    monkeypatch.setattr(cli, "cmd_unbias", counting(cli.cmd_unbias))
    assert run("normalize", "b x y")[0] == 0
    assert run("unbias", SPAN_A, FAMILY)[0] == 0
    assert run("equal", "b x y", "b x y")[0] == 0
    assert calls == ["cmd_normalize", "cmd_unbias"]


def test_no_state_carries_over_between_calls(monkeypatch, capsys):
    # good and bad argument lists and help requests in turn, with $SMCKIT_SEED changing under them
    goldens = json.loads((Path(__file__).parent / "cli_state_goldens.json").read_text())
    assert len(goldens) == len(CASES)
    for (env_seed, argv, seed), golden in zip(CASES, goldens):
        assert (golden["env_seed"], golden["argv"]) == (env_seed, list(argv))
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, as recorded
        if env_seed is None:
            monkeypatch.delenv("SMCKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("SMCKIT_SEED", env_seed)
        code = main(list(argv))  # stdout is read at call time: the captured one
        out, err = capsys.readouterr()
        assert (code, out, err) == (golden["code"], golden["stdout"], golden["stderr"]), argv
        if seed is not None:
            assert json.loads(out)["seed"] == seed


def test_threads_share_the_parser(monkeypatch):
    rng = Random(12)
    requests = []
    for i in range(24):
        term = render_mor(random_walk_term(rng, ["x", "y", "z", "w"][: 2 + i % 3], 6))
        requests += [("normalize", term), ("equal", term, term)]
    requests += [("span-compose", SPAN_A, SPAN_ID2, "--cells"), ("span-compose", SPAN_ID2, SPAN_A, SPAN_ID2, "--cells")] * 6
    requests += [("unbias", SPAN_A, FAMILY, "--cells"), ("--format", "record", "unbias", SPAN_A, FAMILY, "--model", "slist")] * 6
    # argv that _read_argv declines, so the threads race to build the one parser
    usage_error = ("normalize",)
    requests += [("check-laws", "--suite", "braiding", "--seed", "1"), ("--format=record", "equal", term, term), usage_error] * 2
    Random(3).shuffle(requests)
    serial = [run(*argv) for argv in requests]
    assert all(code == (2 if argv == usage_error else 0) for argv, (code, _) in zip(requests, serial))
    builds = _count_builds(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda argv: run(*argv), requests, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert builds  # the parser was built while the threads ran
