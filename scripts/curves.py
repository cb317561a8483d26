#!/usr/bin/env python3
"""Per-layer curves: the time of one layer call against its size.

Usage::

    python3 scripts/curves.py --out BENCH_16.json

Each point is the median of ``--repeats`` samples (default 5).  A sample
times enough back-to-back calls to last at least 20 ms and reports the time
of one call.  Sizes and seeds are fixed, so two runs measure the same work.
The curves go under ``"curves"`` in the output file, and its other keys
(the paired end-to-end runs that ``bench_pairs.py`` writes) are kept;
without ``--out`` they are printed.  The curves are:

* ``psi_hom_reversal``: ``terms.psi_hom`` of the n-element reversal of
  singleton values, against n, in the SList and FinBij models (strict, so
  a block permutation) and in the term model (the structural formula).
  Two more entries time the text of that formula, what ``smckit
  normalize`` prints as the canonical term, for n up to 72:
  ``term_rendered`` builds the term and writes it with ``cli.render_mor``,
  and ``syntax`` evaluates the formula in ``cli.SyntaxModel`` and joins
  it, as the CLI does;
* ``reduced_word``: ``perms.reduced_word`` of a random permutation of n
  elements, against n, over the same sizes;
* ``normalize``: ``terms.normalize`` of ``canonical_term`` of a random
  permutation of n distinct labels, against the term's node count, for
  the same sizes up to ``--term-max-n``.  Nodes are counted as perfbench's
  tracer counts ``terms.nodes``: a shared subterm once per occurrence;
* ``equal_text``: ``smckit equal`` run in-process on the texts of the
  canonical terms of two permutations of n labels with one target (the
  labels repeat, and the permutations differ by a swap of two equal target
  labels, so the answer is "not equal"), for n = 4 .. 24, against the
  number of tokens of both texts.  It times the whole request: argv,
  tokenizing, parsing, normalizing and the output;
* ``parse_phases``: three phases of that request on the same texts,
  against the same token counts, each timed on its own within one loop:
  ``tokenize`` is ``cli._tokenize`` of both texts, ``parse`` is
  ``cli.parse_program`` of both into a fresh ``Objects`` (it tokenizes
  too, so ``parse`` less ``tokenize`` is the parser's own time), and
  ``normal_forms`` is ``terms.normal_forms`` of the two programs;
* ``unbias_comp_iso``: ``unbias.unbias_comp_iso`` of a one-fiber span of
  the given arity over an eight-entry family, factored as a pull then a
  push the way ``smckit unbias --cells`` does, against arity, in the term
  and slist models;
* ``cells_text``: the texts of the term-model cells that
  ``unbias_comp_iso`` gives for the span of that curve, against arity:
  ``syntax`` evaluates it in ``cli.SyntaxModel`` and joins each cell, as
  ``smckit unbias --cells`` does;
* ``f_comp_cell``: ``unbias.f_comp_cell`` of two spans with n apex
  elements each, against n.  The middle set has n elements and t's left
  leg is a bijection onto it, so the composite apex has exactly n pairs;
  s's left leg goes to eight elements and t's right leg to three, so
  labels repeat as in ``unbias``;
* ``pullback``, ``compose_span`` and ``assoc_cell``: ``spans.pullback`` of
  the inner legs of those two spans, ``spans.compose_span`` of them, and
  ``spans.assoc_cell`` of a chain of three built the same way (each left
  leg after the first a bijection), against apex size n.  Every composite
  in the chain has exactly n apex elements, and no ``shared_composites``
  scope is open;
* ``unitor_cells``: ``spans.left_unitor_cell`` and
  ``spans.right_unitor_cell`` of one span, both cells in one call,
  against apex size n.  Both legs go to six elements with fibers that
  differ in size by at most one;
* ``span_compose_cells``: ``smckit --format record span-compose A B C
  --cells`` run in-process on a chain of three spans of n apex elements
  each, against the apex of the composite (about 4n, from about 500 to
  10,000).  Every leg has fibers that differ in size by at most one: the
  inner feet have n/2 elements, the outer ones eight and three.  It times
  the whole request: argv, records, the fold, the cells and the output;
* ``span_compose_chain``: ``smckit --format record span-compose A B C
  D`` run in-process on a dense chain of four spans of n apex elements
  each, without ``--cells``, against the apex of the composite (n * (n/4)^3,
  from 324 to 9,604).  Every leg has fibers that differ in size by at most
  one: the three inner feet have four elements, the outer ones eight and
  three, so the composite is the blocks of few rows that repeat;
* ``pullback_dense``: ``spans.pullback`` of two maps of n points each onto
  a fixed foot of four, with fibers that differ in size by at most one,
  for n over the apex sizes, against the number of pairs (about n*n/4).
  The bijective chains above never build such a pullback;
* ``record_ints``: ``cli._ints``, the writer of span-compose's integer
  lists, on an int tuple, for tuple lengths 10^3 to 10^5, against length.
  ``below_8`` draws the values below 8, as in a leg onto a small foot, and
  ``below_length`` below the length, as in a unitor map of an apex that
  long.  ``table_cold`` empties the digit table before each call, so the
  call builds it up to its bound; ``table_warm`` finds it built.  A bound
  at or past the table's cap of 2^14 takes ``json.dumps``;
* ``k_hcomp``: ``kleisli.k_hcomp`` of a cell on one list of length n over
  eight labels and a cell on eight lists of length 2, against n.  Both
  cells permute their lists at random;
* ``startup``: where the CLI's start-up goes, not a curve.  ``module_own_s``
  is each ``smckit`` module's own import time, the median over ``2 *
  --repeats - 1`` fresh ``python -I -X importtime`` interpreters (9 by
  default) that import ``smckit.cli`` and build its parser.  One interpreter runs first, unread, to write the
  bytecode caches.  The whole start-up is the benchmark's ``setup_s``;
* ``cli_wall``: what a user waits for, not a curve.  For each of
  ``normalize``, ``equal``, ``span-compose``, ``unbias --cells`` and
  ``check-laws --suite braiding`` on a small fixed input, ``wall_s`` is
  the median wall time of ``2 * --repeats - 1`` fresh ``python -I``
  processes (9 by default) that run the package as ``python -m smckit``
  does (through ``runpy``), start-up included.  Each of them runs right after a bare ``python -I -c pass``,
  and ``over_bare_s`` is the median of each run less its bare run: the
  interpreter's own start-up (``site`` and its ``.pth`` files) and much of
  the machine's drift cancel out of it.  One process per command runs
  first, unread, to write the bytecode caches;
* ``values``: the instance layout of a value class, not a curve.  For a
  ``FinFun`` over shared fields, built through its public constructor and
  through ``FinFun._unchecked``: the bytes per instance, the traced
  allocations of 1000 instances (the list holding them not counted), and
  the median ns per build and per read of its three fields, each over a
  loop of 1000 whose own overhead is included.

Each curve also holds the least-squares slope of log time against log
size: about 1 for linear growth, about 3 for cubic.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from itertools import pairwise
from pathlib import Path
from random import Random

from smckit import cli
from smckit.cli import SyntaxModel, joined, parse_obj, render_mor, render_obj
from smckit.kleisli import KCell, KHom, k_hcomp
from smckit.laws import random_function
from smckit.models import FinBijModel, FreeTermModel, SListModel
from smckit.perms import Perm, reduced_word
from smckit.slist import SList, SListHom
from smckit.spans import (
    FinFun,
    FinSet,
    Span,
    assoc_cell,
    compose_span,
    left_unitor_cell,
    pullback,
    right_unitor_cell,
    span_pull,
    span_push,
)
from smckit.terms import Gen, Objects, canonical_term, normal_forms, normalize, normalize_obj, psi_hom
from smckit.unbias import f_comp_cell, unbias_comp_iso

PSI_SIZES = (10, 20, 30, 40, 60, 72, 80, 100, 120)
TERM_MAX_N = 60
TEXT_MAX_N = 72
ARITIES = (4, 8, 12, 16, 24, 32, 40, 48, 100, 200, 400)
ENTRIES = 8
APEX_SIZES = (4, 8, 16, 32, 64, 128, 256)
UNITOR_FOOT = 6
DENSE_FOOT = 4
LIST_LENGTHS = (10, 20, 40, 80, 160, 320, 640)
EQUAL_SIZES = (4, 8, 12, 16, 20, 24)
CELLS_SPAN_SIZES = (125, 250, 500, 1000, 2500)
CHAIN_SPAN_SIZES = (12, 16, 20, 24, 28)
INT_LENGTHS = (1_000, 10_000, 100_000)
MIN_SAMPLE_S = 0.02
VALUE_COUNT = 1000
# argv[1] is the directory that holds smckit
STARTUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import smckit.cli; smckit.cli.build_parser()"
# the same, then the rest of argv as the arguments of ``python -m smckit``
CLI_CODE = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
            "runpy.run_module('smckit', run_name='__main__', alter_sys=True)")
SPAN = json.dumps({"schema": "smckit/1", "kind": "span", "apex": 3,
                   "left": {"target": 2, "img": [0, 1, 0]}, "right": {"target": 2, "img": [0, 0, 1]}})
FAMILY = json.dumps({"schema": "smckit/1", "kind": "family", "size": 2, "entries": {"0": "x", "1": "(y*z)"}})
CLI_COMMANDS = {
    "normalize": ["normalize", "a x y z ; b x (y*z)"],
    "equal": ["equal", "b x y ; b y x", "id (x*y)"],
    "span-compose": ["span-compose", SPAN, SPAN],
    "unbias --cells": ["unbias", SPAN, FAMILY, "--cells"],
    "check-laws --suite braiding": ["check-laws", "--suite", "braiding"],
}
REC = ["--format", "record"]
TOKEN = re.compile(r"[()*;]|[^\W\d]\w*|\S")  # a token of the CLI's term syntax


def sample_time(call, repeats: int) -> float:
    """Median over ``repeats`` samples of the time of one call, in seconds."""
    number, start = 1, time.perf_counter()
    call()
    while number * (time.perf_counter() - start) < MIN_SAMPLE_S and number < 1 << 16:
        number *= 2
        start = time.perf_counter()
        call()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def sample_phases(call, repeats: int) -> list:
    """Per phase, the median over ``repeats`` samples of its time in one call; ``call`` returns its phase times."""
    number = 1
    while number * sum(call()) < MIN_SAMPLE_S and number < 1 << 16:
        number *= 2
    samples = [[sum(times) / number for times in zip(*(call() for _ in range(number)))] for _ in range(repeats)]
    return [statistics.median(phase) for phase in zip(*samples)]


def loglog_slope(points: list) -> float | None:
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var if var else None


def curve(size_name: str, sizes, make_call, repeats: int) -> dict:
    points = [[n, sample_time(make_call(n), repeats)] for n in sizes]
    return {"x": size_name, "unit": "s", "points": points, "loglog_slope": loglog_slope(points)}


def reversal(n: int) -> SListHom:
    labels = tuple(range(n))
    return SListHom(SList(labels), SList(labels[::-1]), Perm(labels[::-1]))


def reversal_call(m, value):
    def make(n: int):
        f = reversal(n)
        return lambda: psi_hom(m, value, f)
    return make


def reversal_text_call(model_name: str):
    """The canonical text of the n-element reversal: the term written out, or the formula joined."""
    def make(n: int):
        f = reversal(n)
        if model_name == "term":
            return lambda: render_mor(psi_hom(FreeTermModel(), Gen, f))
        return lambda: joined(psi_hom(SyntaxModel(), str, f))
    return make


def random_perm(n: int) -> Perm:
    img = list(range(n))
    Random(n).shuffle(img)
    return Perm(tuple(img))


def reduced_word_call(n: int):
    p = random_perm(n)
    return lambda: reduced_word(p)


def term_nodes(t) -> int:
    """Tree nodes of a term, each shared subterm counted at every occurrence."""
    counts, stack = {}, [t]
    while stack:
        node = stack[-1]
        kids = [getattr(node, name) for name in node._fields]
        kids = [k for k in kids if hasattr(k, "_fields")]
        pending = [k for k in kids if id(k) not in counts]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        counts[id(node)] = 1 + sum(counts[id(k)] for k in kids)
    return counts[id(t)]


def normalize_calls(sizes) -> dict:
    """Node count -> a call normalizing the canonical term of a random n-element permutation."""
    calls = {}
    for n in sizes:
        phi = random_perm(n)
        labels = tuple(f"x{i}" for i in range(n))
        t = canonical_term(SListHom(SList(labels), SList(tuple(labels[i] for i in phi.img)), phi))
        calls[term_nodes(t)] = lambda t=t: normalize(t)
    return calls


def equal_texts(sizes) -> dict:
    """Token count -> the texts of two permutations of n labels with one target, as ``smckit equal`` reads them."""
    pairs = {}
    for n in sizes:
        rng = Random(n)
        labels = [f"y{rng.randrange(n * 3 // 4)}" for _ in range(n)]  # fewer labels than places
        img = list(range(n))
        rng.shuffle(img)
        target = [labels[i] for i in img]
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if target[i] == target[j])
        other = list(img)
        other[i], other[j] = other[j], other[i]
        texts = [render_mor(canonical_term(SListHom(SList(labels), SList(target), Perm(p)))) for p in (img, other)]
        pairs[sum(len(TOKEN.findall(t)) for t in texts)] = texts
    return pairs


def parse_phases(pairs: dict, repeats: int) -> dict:
    """Curves of the tokenize, parse and ``normal_forms`` phases of ``smckit equal`` on each pair of texts."""
    def call(texts):
        t0 = time.perf_counter()
        for text in texts:
            cli._tokenize(text)
        t1 = time.perf_counter()
        objs = Objects()
        programs = [cli.parse_program(text, objs) for text in texts]
        t2 = time.perf_counter()
        normal_forms(objs, *programs)
        return t1 - t0, t2 - t1, time.perf_counter() - t2

    times = {tokens: sample_phases(lambda texts=texts: call(texts), repeats) for tokens, texts in pairs.items()}
    out = {}
    for k, name in enumerate(("tokenize", "parse", "normal_forms")):
        points = [[tokens, phases[k]] for tokens, phases in times.items()]
        out[name] = {"x": "tokens", "unit": "s", "points": points, "loglog_slope": loglog_slope(points)}
    return out


def family(model_name: str):
    """The model and fixed family entries of one and three generators, as the CLI parses them.

    ``model_name`` is ``term``, ``slist`` or ``syntax``, whose entries are
    the texts ``cli.render_obj`` writes of the parsed objects.
    """
    texts = [f"p{j % 6}" if j % 2 == 0 else f"(p{j % 6} * (p{(j + 1) % 6} * p{(j + 2) % 6}))"
             for j in range(ENTRIES)]
    objs = {j: parse_obj(text) for j, text in enumerate(texts)}
    if model_name == "term":
        return FreeTermModel(), objs
    if model_name == "syntax":
        return SyntaxModel(), {j: render_obj(o) for j, o in objs.items()}
    return SListModel(), {j: normalize_obj(o) for j, o in objs.items()}


def one_fiber_span(arity: int) -> tuple[Span, Span]:
    """A one-fiber span of the given arity over the family, factored as a pull then a push."""
    rng = Random(arity)
    apex = FinSet(arity)
    left = FinFun(apex, FinSet(ENTRIES), tuple(rng.randrange(ENTRIES) for _ in range(arity)))
    right = FinFun(apex, FinSet(1), (0,) * arity)
    return span_pull(left), span_push(right)


def comp_iso_call(model_name: str):
    m, assign = family(model_name)

    def make(arity: int):
        pull, push = one_fiber_span(arity)
        return lambda: unbias_comp_iso(pull, push, m, assign)
    return make


def cells_text_call(arity: int):
    """The texts of the term-model cells of ``comp_iso_call``'s span, evaluated in the syntax model and joined."""
    m, assign = family("syntax")
    pull, push = one_fiber_span(arity)
    return lambda: [joined(c) for c in unbias_comp_iso(pull, push, m, assign)]


def bijective_chain(n: int, length: int) -> list[Span]:
    """``length`` composable spans over n apex elements whose composites all have n apex elements.

    The first left leg goes to ``ENTRIES`` elements and the last right leg
    to three; each inner foot has n elements, and each later left leg is a
    random bijection onto it.
    """
    rng = Random(n)
    chain = [Span(random_function(rng, n, ENTRIES), random_function(rng, n, n))]
    for k in range(1, length):
        bijection = list(range(n))
        rng.shuffle(bijection)
        cod = 3 if k == length - 1 else n
        chain.append(Span(FinFun(FinSet(n), FinSet(n), tuple(bijection)), random_function(rng, n, cod)))
    return chain


def f_comp_call(n: int):
    s, t = bijective_chain(n, 2)
    return lambda: f_comp_cell(s, t)


def pullback_call(n: int):
    s, t = bijective_chain(n, 2)
    return lambda: pullback(s.right, t.left)


def compose_span_call(n: int):
    s, t = bijective_chain(n, 2)
    return lambda: compose_span(s, t)


def assoc_cell_call(n: int):
    s, t, u = bijective_chain(n, 3)
    return lambda: assoc_cell(s, t, u)


def balanced_function(rng: Random, n: int, target: int) -> FinFun:
    """A random map of n points onto ``target`` elements whose fibers differ in size by at most one."""
    img = [i % target for i in range(n)]
    rng.shuffle(img)
    return FinFun(FinSet(n), FinSet(target), tuple(img))


def unitor_cells_call(n: int):
    rng = Random(n)
    s = Span(balanced_function(rng, n, UNITOR_FOOT), balanced_function(rng, n, UNITOR_FOOT))
    return lambda: (left_unitor_cell(s), right_unitor_cell(s))


def span_compose_calls(sizes, feet, options: list) -> dict:
    """Composite apex -> a call of ``smckit --format record span-compose`` on a balanced chain of n-point spans.

    ``feet(n)`` gives the chain's feet, one more than its spans.
    """
    calls = {}
    for n in sizes:
        rng = Random(n)
        chain = [Span(balanced_function(rng, n, a), balanced_function(rng, n, b)) for a, b in pairwise(feet(n))]
        records = [json.dumps({"schema": "smckit/1", **cli.span_to_record(s)}) for s in chain]
        argv = REC + ["span-compose", *records, *options]
        apex = reduce(compose_span, chain).apex.size
        calls[apex] = lambda argv=argv: cli.main(argv, out=io.StringIO())
    return calls


def pullback_dense_calls(sizes) -> dict:
    """Pair count -> a call of the pullback of two balanced maps of n points onto ``DENSE_FOOT`` elements."""
    calls = {}
    for n in sizes:
        rng = Random(n)
        f, g = balanced_function(rng, n, DENSE_FOOT), balanced_function(rng, n, DENSE_FOOT)
        calls[pullback(f, g).apex.size] = lambda f=f, g=g: pullback(f, g)
    return calls


def record_ints(lengths, repeats: int) -> dict:
    """``cli._ints`` on an int tuple of each length, on a cold and on a warm table."""
    saved = cli._DIGITS
    out = {}
    try:
        for name, high in (("below_8", lambda n: 8), ("below_length", lambda n: n)):
            ints = {n: tuple(Random(n).randrange(high(n)) for _ in range(n)) for n in lengths}

            def cold(n: int):
                def call(values=ints[n], bound=high(n)):
                    cli._DIGITS = []
                    cli._ints(values, bound, ", ")
                return call

            out[name] = {
                "table_cold": curve("length", lengths, cold, repeats),
                # the first call of a sample fills the table
                "table_warm": curve("length", lengths, lambda n: lambda v=ints[n], b=high(n): cli._ints(v, b, ", "),
                                    repeats),
            }
    finally:
        cli._DIGITS = saved
    return out


def shuffled_cell(rng: Random, f: KHom) -> KCell:
    """A cell from f to a family with each list permuted at random."""
    homs = []
    for l in f.lists:
        phi = list(range(len(l)))
        rng.shuffle(phi)
        homs.append(SListHom(l, SList(tuple(l.labels[i] for i in phi)), Perm(tuple(phi))))
    return KCell(f, KHom(f.src, f.dst, tuple(h.dst for h in homs)), tuple(homs))


def k_hcomp_call(n: int):
    rng = Random(n)
    f = KHom(FinSet(1), FinSet(ENTRIES), (SList(tuple(rng.randrange(ENTRIES) for _ in range(n))),))
    g = KHom(FinSet(ENTRIES), FinSet(4), tuple(SList((rng.randrange(4), rng.randrange(4))) for _ in range(ENTRIES)))
    phi, psi = shuffled_cell(rng, f), shuffled_cell(rng, g)
    return lambda: k_hcomp(phi, psi)


def startup(runs: int) -> dict:
    """Each smckit module's own import time in the CLI's start-up, the median over ``runs`` fresh interpreters."""
    src = str(Path(cli.__file__).resolve().parents[1])
    own = {}
    for run in range(runs + 1):
        proc = subprocess.run([sys.executable, "-I", "-X", "importtime", "-c", STARTUP_CODE, src],
                              check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if run == 0:  # writes the bytecode caches
            continue
        # each line is "import time: <own us> | <cumulative us> | <indented module name>"
        for line in proc.stderr.splitlines():
            us, _, name = line.removeprefix("import time:").split("|")
            if name.strip().split(".")[0] == "smckit":
                own.setdefault(name.strip(), []).append(int(us) / 1e6)
    return {
        "unit": "s",
        "runs": runs,
        "module_own_s": {name: statistics.median(times) for name, times in own.items()},
    }


def wall_time(argv: list) -> float:
    """The wall time of one process running ``argv`` to its end."""
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, capture_output=True)
    return time.perf_counter() - t0


def cli_wall(runs: int) -> dict:
    """Each CLI command's median wall time in ``runs`` fresh interpreters, and its median excess over a bare one."""
    src = str(Path(cli.__file__).resolve().parents[1])
    wall, over = {}, {}
    for name, args in CLI_COMMANDS.items():
        command = [sys.executable, "-I", "-c", CLI_CODE, src, *args]
        wall_time(command)  # writes the bytecode caches
        times, excess = [], []
        for _ in range(runs):
            bare = wall_time([sys.executable, "-I", "-c", "pass"])
            times.append(wall_time(command))
            excess.append(times[-1] - bare)
        wall[name] = statistics.median(times)
        over[name] = statistics.median(excess)
    return {"unit": "s", "runs": runs, "wall_s": wall, "over_bare_s": over}


def values_layout(repeats: int) -> dict:
    """Bytes per ``FinFun``, and ns per build and per three field reads, for each way of building one."""
    src, dst, img = FinSet(3), FinSet(3), (0, 1, 2)
    out = {"class": "FinFun", "count": VALUE_COUNT}
    for path, build in (("public", FinFun), ("unchecked", FinFun._unchecked)):
        f = build(src, dst, img)
        tracemalloc.start()
        made = [build(src, dst, img) for _ in range(VALUE_COUNT)]
        used = tracemalloc.get_traced_memory()[0] - sys.getsizeof(made)
        tracemalloc.stop()

        def builds():
            for _ in range(VALUE_COUNT):
                build(src, dst, img)

        def reads():
            for _ in range(VALUE_COUNT):
                f.src, f.dst, f.img

        out[path] = {
            "bytes": used / VALUE_COUNT,
            "build_ns": sample_time(builds, repeats) / VALUE_COUNT * 1e9,
            "read3_ns": sample_time(reads, repeats) / VALUE_COUNT * 1e9,
        }
    return out


def singleton(label) -> SList:
    return SList((label,))


def curves(psi_sizes, term_max_n: int, arities, apex_sizes, list_lengths, repeats: int) -> dict:
    normalize_at = normalize_calls([n for n in psi_sizes if n <= term_max_n])
    equal_pairs = equal_texts(EQUAL_SIZES)
    dense_at = pullback_dense_calls(apex_sizes)
    cells_at = span_compose_calls(CELLS_SPAN_SIZES, lambda n: (ENTRIES, n // 2, n // 2, 3), ["--cells"])
    chain_at = span_compose_calls(CHAIN_SPAN_SIZES, lambda n: (ENTRIES, *[DENSE_FOOT] * 3, 3), [])
    return {
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "repeats": repeats,
        "psi_hom_reversal": {
            "slist": curve("n", psi_sizes, reversal_call(SListModel(), singleton), repeats),
            "finbij": curve("n", psi_sizes, reversal_call(FinBijModel(), lambda label: 1), repeats),
            "term": curve("n", [n for n in psi_sizes if n <= term_max_n], reversal_call(FreeTermModel(), Gen), repeats),
            **{name: curve("n", [n for n in psi_sizes if n <= TEXT_MAX_N], reversal_text_call(model), repeats)
               for name, model in (("term_rendered", "term"), ("syntax", "syntax"))},
        },
        "reduced_word": curve("n", psi_sizes, reduced_word_call, repeats),
        "normalize": curve("nodes", list(normalize_at), normalize_at.get, repeats),
        "equal_text": curve("tokens", list(equal_pairs),
                            lambda n: lambda: cli.main(["equal", *equal_pairs[n]], out=io.StringIO()), repeats),
        "parse_phases": parse_phases(equal_pairs, repeats),
        "unbias_comp_iso": {
            name: curve("arity", arities, comp_iso_call(name), repeats) for name in ("term", "slist")
        },
        "cells_text": {"syntax": curve("arity", arities, cells_text_call, repeats)},
        "f_comp_cell": curve("apex", apex_sizes, f_comp_call, repeats),
        "pullback": curve("apex", apex_sizes, pullback_call, repeats),
        "compose_span": curve("apex", apex_sizes, compose_span_call, repeats),
        "assoc_cell": curve("apex", apex_sizes, assoc_cell_call, repeats),
        "unitor_cells": curve("apex", apex_sizes, unitor_cells_call, repeats),
        "span_compose_cells": curve("apex", list(cells_at), cells_at.get, repeats),
        "span_compose_chain": curve("apex", list(chain_at), chain_at.get, repeats),
        "pullback_dense": curve("pairs", list(dense_at), dense_at.get, repeats),
        "record_ints": record_ints(INT_LENGTHS, repeats),
        "k_hcomp": curve("n", list_lengths, k_hcomp_call, repeats),
        # a run is a fresh process, so fewer repeats take fewer: 9 at the default of 5, 1 at 1
        "startup": startup(2 * repeats - 1),
        "cli_wall": cli_wall(2 * repeats - 1),
        "values": values_layout(repeats),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, help="JSON file to add the curves to")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--psi-sizes", type=int, nargs="+", default=PSI_SIZES)
    p.add_argument("--term-max-n", type=int, default=TERM_MAX_N)
    p.add_argument("--arities", type=int, nargs="+", default=ARITIES)
    p.add_argument("--apex-sizes", type=int, nargs="+", default=APEX_SIZES)
    p.add_argument("--list-lengths", type=int, nargs="+", default=LIST_LENGTHS)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    data = curves(args.psi_sizes, args.term_max_n, args.arities, args.apex_sizes, args.list_lengths, args.repeats)
    data["elapsed_s"] = time.perf_counter() - t0
    if args.out is None:
        print(json.dumps(data, indent=1))
        return 0
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report["curves"] = data
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
