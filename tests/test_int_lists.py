"""span-compose writes its integer lists from ``cli._DIGITS``, byte for byte as before.

Its three record kinds (``span``, ``structural-cells`` and ``assoc-cell``)
are written without ``json.dumps``.  Each line is checked against the line
``json.dumps`` writes for the record built from the library's own cells,
and each text form against the text form of the lists written with
``str``.  The table's cap is patched down, so that bounds below, at and
above it are all drawn.  Each leg and map is written from the blocks of
the composite's apex, one block per point of the first span; one test
draws the edges of the left unitor map's runs, one per block.
"""

import io
import json
import sys
import threading
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from smckit import cli
from smckit.cli import SCHEMA, main, span_to_record
from smckit.spans import FinFun, FinSet, Span, assoc_cell, compose_span, left_unitor_cell, right_unitor_cell

CAP = 8


def _listed(values) -> str:
    return f"[{','.join(map(str, values))}]"


# the text form of each kind, with every list written by str
TEXT = {
    "span": lambda r: f"apex: {r['apex']}\n" + "".join(
        f"{leg}: target={r[leg]['target']} img={_listed(r[leg]['img'])}\n" for leg in ("left", "right")
    ),
    "structural-cells": lambda r: f"lunitor map={_listed(r['lunitor'])}\nrunitor map={_listed(r['runitor'])}\n",
    "assoc-cell": lambda r: f"assoc map={_listed(r['map'])}\n",
}


def expected_records(chain: list, cells: bool) -> list:
    composite = chain[0]
    for nxt in chain[1:]:
        composite = compose_span(composite, nxt)
    records = [span_to_record(composite)]
    if cells:
        records.append({
            "kind": "structural-cells",
            "lunitor": list(left_unitor_cell(composite).map.img),
            "runitor": list(right_unitor_cell(composite).map.img),
        })
        if len(chain) >= 3:
            records.append({"kind": "assoc-cell", "map": list(assoc_cell(*chain[:3]).map.img)})
    return records


def argv(chain: list, cells: bool) -> list:
    return ["span-compose", *(json.dumps({"schema": SCHEMA, **span_to_record(s)}) for s in chain)] + (
        ["--cells"] if cells else []
    )


def run(args: list) -> str:
    out = io.StringIO()
    assert main(args, out=out) == 0
    return out.getvalue()


def assert_table_holds_digits():
    assert len(cli._DIGITS) <= cli._DIGITS_CAP
    assert all(text == str(i) for i, text in enumerate(cli._DIGITS))


def fun(dst: int, img) -> FinFun:
    return FinFun(FinSet(len(img)), FinSet(dst), tuple(img))


def through_a_point(n: int) -> list:
    """A chain whose composite has apex n and a left leg onto n points, the identity."""
    return [Span(fun(n, range(n)), fun(1, [0] * n)), Span(fun(1, [0]), fun(2, [1]))]


def one_row(cod: int) -> list:
    """A chain whose composite repeats one row of two points 20 times, so that each row is joined once."""
    return [Span(fun(2, [i % 2 for i in range(20)]), fun(1, [0] * 20)), Span(fun(1, [0, 0]), fun(cod, [cod - 1, 0]))]


@st.composite
def chains(draw) -> list:
    """2-4 spans; feet and apices lie around CAP, and an empty foot has an empty apex over it."""
    feet = draw(st.lists(st.sampled_from((0, 1, 2, 3, CAP - 1, CAP, CAP + 1)), min_size=3, max_size=5))
    chain = []
    for dom, cod in zip(feet, feet[1:]):
        n = 0 if 0 in (dom, cod) else draw(st.integers(0, CAP + 2))
        legs = [draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)) if n else [] for m in (dom, cod)]
        chain.append(Span(fun(dom, legs[0]), fun(cod, legs[1])))
    return chain


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(chain=chains(), cells=st.booleans())
@example(chain=[Span(fun(3, []), fun(3, []))] * 3, cells=True)  # empty apices
@example(chain=[Span(fun(1, [0]), fun(1, [0]))] * 3, cells=True)  # apex 1
@example(chain=through_a_point(CAP - 1), cells=True)  # bounds just below the cap
@example(chain=through_a_point(CAP), cells=True)  # at it
@example(chain=through_a_point(CAP + 1), cells=True)  # above it
@example(chain=one_row(CAP - 1), cells=False)  # a right leg of repeated rows, its bound just below the cap
@example(chain=one_row(CAP), cells=False)  # at it
@example(chain=one_row(CAP + 1), cells=True)  # above it
def test_span_compose_writes_what_dumps_and_str_write(chain, cells):
    records = expected_records(chain, cells)
    with mock.patch.object(cli, "_DIGITS_CAP", CAP), mock.patch.object(cli, "_DIGITS", []):
        record_lines = run(["--format", "record", *argv(chain, cells)]).splitlines(keepends=True)
        text = run(argv(chain, cells))
        assert_table_holds_digits()
    assert record_lines == [json.dumps({"schema": SCHEMA, **r}, sort_keys=True) + "\n" for r in records]
    assert text == "".join(TEXT[r["kind"]](r) for r in records)


def three_blocks(n: int) -> list:
    """Two spans whose composite has n points in three blocks; s.left's fibers list them out of order."""
    return [Span(fun(2, [1, 0, 1]), fun(3, [0, 1, 2])), Span(fun(3, [i % 3 for i in range(n)]), fun(2, [i % 2 for i in range(n)]))]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(chain=chains())
@example(chain=[Span(fun(3, [0]), fun(1, [0])), Span(fun(1, [0] * 9), fun(2, [1] * 9))])  # empty fibers of s.left
@example(chain=[Span(fun(2, [0, 1]), fun(2, [0, 1])), Span(fun(2, [0, 0, 0]), fun(1, [0, 0, 0]))])  # an empty run
@example(chain=[Span(fun(1, [0, 0]), fun(2, [0, 0])), Span(fun(2, [1]), fun(1, [0]))])  # a composite apex of 0
@example(chain=three_blocks(CAP - 1))  # the slice path, just below the cap
@example(chain=three_blocks(CAP))  # json.dumps, at it
@example(chain=three_blocks(CAP + 1))  # and above it
@example(chain=[Span(fun(3, [2, 0, 2, 1]), fun(2, [0, 1, 1, 0]))])  # one span: each point a run of one
@example(chain=[Span(fun(3, []), fun(3, []))] * 3)  # empty apices through three spans
def test_left_unitor_runs_write_what_dumps_and_str_write(chain):
    """The left unitor map, written as one run per point of the first span, matches the library's cells in both forms."""
    records = expected_records(chain, True)
    with mock.patch.object(cli, "_DIGITS_CAP", CAP), mock.patch.object(cli, "_DIGITS", []):
        record_lines = run(["--format", "record", *argv(chain, True)]).splitlines(keepends=True)
        text = run(argv(chain, True))
        assert_table_holds_digits()
    assert record_lines == [json.dumps({"schema": SCHEMA, **r}, sort_keys=True) + "\n" for r in records]
    assert text == "".join(TEXT[r["kind"]](r) for r in records)


def balanced_chain(dom: int, n: int) -> list:
    """Three spans from ``dom`` points through two and three; for an even n the composite's apex has n * n / 2 elements."""
    halves, thirds = fun(2, [i % 2 for i in range(n)]), fun(3, [i % 3 for i in range(n)])
    return [Span(fun(dom, [i % dom for i in range(n)]), halves), Span(halves, thirds),
            Span(fun(3, range(3)), fun(1, [0] * 3))]


def test_two_threads_grow_one_table_from_empty():
    # the same work up to the first record, whose left legs need tables of 50 and 3000 entries;
    # the cells of both need 1800
    requests = [["--format", "record", *argv(balanced_chain(dom, 60), True)] for dom in (50, 3000)]
    serial = [run(args) for args in requests]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with mock.patch.object(cli, "_DIGITS", []):
            for _ in range(20):
                cli._DIGITS = []
                barrier = threading.Barrier(2)
                outputs = [None, None]

                def request(i):
                    barrier.wait()
                    outputs[i] = run(requests[i])

                threads = [threading.Thread(target=request, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert outputs == serial
                assert_table_holds_digits()
    finally:
        sys.setswitchinterval(interval)
