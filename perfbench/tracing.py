"""Spans and counters recorded from outside smckit, for the traced run.

Nothing in smckit is edited.  While a ``Tracer`` is installed it replaces,
in every loaded ``smckit`` module, the references to the functions listed
in ``WRAPPED`` by timing wrappers, and the ``SListModel`` class by a
subclass that times each model call.  A traced request is the CLI's own
``cli.main`` run inside a ``cli.main`` span: since the CLI looks up its
commands, parsers, record readers and renderers by module name, the
wrappers see every call each command makes.  ``uninstall`` restores every
reference.

A span is (request, name, start, end, parent).  Model calls are too many to
keep one by one: they are summed into their enclosing span as child time
and into per-name totals.  Self time of a span is its duration minus the
time of its traced children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MAX_RECORDS = 100_000
MAX_SAMPLES = 50_000
LAW_SUITES = ("coxeter", "faithfulness", "braiding", "coherence", "span", "kleisli", "pbc", "unbias")

# (module, attribute, span name); the wrapped object is the module's own
# attribute, and it is replaced wherever any smckit module refers to it, so
# that calls made inside other layers (the law suites, the unbias evaluator)
# are timed too.  A call inside an open span of the same name is not split.
WRAPPED = (
    ("smckit.cli", "cmd_normalize", "cli.command"),
    ("smckit.cli", "cmd_equal", "cli.command"),
    ("smckit.cli", "cmd_span_compose", "cli.command"),
    ("smckit.cli", "cmd_unbias", "cli.command"),
    ("smckit.cli", "cmd_check_laws", "cli.command"),
    ("smckit.cli", "parse_mor", "cli.parse"),
    ("smckit.cli", "parse_obj", "cli.parse"),
    ("smckit.cli", "load_record", "cli.records"),
    ("smckit.cli", "span_from_record", "cli.records"),
    ("smckit.cli", "family_from_record", "cli.records"),
    ("smckit.cli", "emit", "cli.render"),
    ("smckit.cli", "render_mor", "cli.render"),
    ("smckit.cli", "render_obj", "cli.render"),
    ("smckit.cli", "span_to_record", "cli.render"),
    ("smckit.terms", "typecheck", "terms.typecheck"),
    ("smckit.terms", "eval_mor", "terms.eval"),
    ("smckit.terms", "canonical_term", "terms.canonical"),
    ("smckit.terms", "decide_equal", "terms.decide"),
    ("smckit.perms", "reduced_word", "perms.reduced_word"),
    ("smckit.spans", "pullback", "spans.pullback"),
    ("smckit.spans", "compose_span", "spans.compose"),
    ("smckit.spans", "assoc_cell", "spans.cells"),
    ("smckit.spans", "left_unitor_cell", "spans.cells"),
    ("smckit.spans", "right_unitor_cell", "spans.cells"),
    ("smckit.kleisli", "k_compose", "kleisli.compose"),
    ("smckit.kleisli", "k_hcomp", "kleisli.hcomp"),
    ("smckit.unbias", "unbias_eval", "unbias.eval"),
    ("smckit.unbias", "unbias_comp_iso", "unbias.comp_iso"),
    ("smckit.unbias", "unbias_unit_iso", "unbias.comp_iso"),
    *(("smckit.laws", f"{suite}_suite", f"laws.{suite}") for suite in LAW_SUITES),
)

MODEL_METHODS = (
    "unit", "tensor_obj", "identity", "compose", "tensor_mor", "assoc", "assoc_inv",
    "left_unitor", "left_unitor_inv", "right_unitor", "right_unitor_inv",
    "braid", "braid_inv", "mor_equal",
)


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []
        self.dropped = 0
        self.request = None
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack: list[list] = []  # [name, start, child time, record index]
        self._open = defaultdict(int)
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str):
        parent = self._stack[-1][3] if self._stack else None
        idx = None
        if len(self.records) < MAX_RECORDS:
            idx = len(self.records)
            self.records.append([self.request, name, 0.0, 0.0, parent])
        else:
            self.dropped += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def end(self) -> float:
        now = time.perf_counter()
        name, start, child, idx = self._stack.pop()
        self._open[name] -= 1
        dt = now - start
        if idx is not None:
            self.records[idx][2] = start
            self.records[idx][3] = now
        self.inclusive[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def leaf(self, name: str, dt: float):
        """A call summed into its parent instead of kept as its own span."""
        self.inclusive[name] += dt
        self.self_time[name] += dt
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dt

    def count(self, name: str, value: float = 1):
        self.counters[name] += value

    def sample(self, name: str, x: float, y: float):
        if len(self.samples[name]) < MAX_SAMPLES:
            self.samples[name].append((x, y))

    # -- installing the wrappers ----------------------------------------------

    def install(self):
        for modname, attr, span_name in WRAPPED:
            mod = sys.modules.get(modname)
            fn = getattr(mod, attr, None) if mod else None
            if fn is not None:
                self._replace(fn, self._wrap(fn, span_name))
        models = sys.modules.get("smckit.models")
        base = getattr(models, "SListModel", None) if models else None
        if base is not None:
            self._replace(base, self._timing_model(base))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _replace(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "smckit" or modname.startswith("smckit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._patched.append((mod, attr, orig))

    def _wrap(self, fn, name):
        tracer = self
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            if tracer.is_open(name):  # recursion inside the same layer call
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = tracer.end()
            if after is not None:
                t0 = time.perf_counter()
                after(tracer, args, result, dt)
                if tracer._stack:  # counting is tracing cost, not the parent's work
                    tracer._stack[-1][2] += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _timing_model(self, base):
        tracer = self

        def timed(method):
            def call(self, *args):
                t0 = time.perf_counter()
                try:
                    return method(self, *args)
                finally:
                    tracer.leaf("slist.model", time.perf_counter() - t0)

            return call

        body = {m: timed(getattr(base, m)) for m in MODEL_METHODS if hasattr(base, m)}
        return type("TimedSListModel", (base,), body)

    # -- results ------------------------------------------------------------

    def slope(self, name: str) -> float:
        """Least-squares slope of log(time) against log(size) over the samples."""
        pts = [(math.log(x), math.log(y)) for x, y in self.samples.get(name, ()) if x >= 2 and y > 0]
        if len({x for x, _ in pts}) < 2:
            return 0.0
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx = sum((x - mx) ** 2 for x, _ in pts)
        sxy = sum((x - mx) * (y - my) for x, y in pts)
        return sxy / sxx

    def dump(self, path):
        with open(path, "w") as fh:
            for req, name, start, end, parent in self.records:
                fh.write(json.dumps({"request": req, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")


def _after_pullback(tracer, args, result, dt):
    f, g = args[0], args[1]
    inputs = f.src.size * g.src.size
    tracer.count("spans.pullback_pairs", result.apex.size)
    tracer.count("spans.pullback_inputs", inputs)
    tracer.sample("spans.pullback", math.sqrt(inputs), dt)


def _after_k_compose(tracer, args, result, dt):
    tracer.count("kleisli.list_len", sum(len(l.labels) for l in result.lists))


def _after_reduced_word(tracer, args, result, dt):
    tracer.count("perms.word_len", len(result))
    tracer.count("perms.words")


def _after_eval(tracer, args, result, dt):
    nodes, depth, stack = 0, 0, [(args[0], 1)]
    while stack:
        t, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        for name in getattr(t, "__dataclass_fields__", ()):
            child = getattr(t, name)
            if hasattr(child, "__dataclass_fields__"):
                stack.append((child, d + 1))
    tracer.count("terms.nodes", nodes)
    tracer.count("terms.evals")
    tracer.counters["terms.max_depth"] = max(tracer.counters["terms.max_depth"], depth)
    tracer.count("terms.eval_incl_s", dt)
    tracer.sample("terms.normalize", nodes, dt)


def _after_unbias_eval(tracer, args, result, dt):
    arity = max((len(l.labels) for l in result.family.lists), default=0)
    tracer.counters["unbias.arity_max"] = max(tracer.counters["unbias.arity_max"], arity)


def _after_suite(suite):
    def after(tracer, args, result, dt):
        # the first traced run's count: the run's own seed, whose counts are recorded
        tracer.counters.setdefault(f"laws.{suite}_cases", result.cases)

    return after


_AFTER = {
    **{f"laws.{suite}": _after_suite(suite) for suite in LAW_SUITES},
    "unbias.eval": _after_unbias_eval,
    "terms.eval": _after_eval,
    "spans.pullback": _after_pullback,
    "kleisli.compose": _after_k_compose,
    "perms.reduced_word": _after_reduced_word,
}
