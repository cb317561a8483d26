"""Unused API: every definition in smckit is reached from the engine or its tools.

Every module-level function and class, and every method that is not a
dunder, in ``src/smckit/*.py`` must be referenced from ``src/`` outside its
own definition and outside ``__init__.py``, or from ``scripts/`` or
``perfbench/`` (its tests aside).  Tests and re-exports do not count: a
name that only they reach is library surface nothing runs.

A reference to a function or class is a use of the name in its own
module, a use of a name imported from smckit under it, an attribute of that
name (``laws.run_suite``), or a string equal to it (the benchmark's tracer
wraps functions it names that way).  A method is referenced only by an
attribute access (``m.compose``), since it is only ever called through one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smckit"

ALLOWED = {
    "spans.base_change_1cell": "the span-side Beck-Chevalley cell of a pullback square; the README names it",
    "kleisli.theta_apply": "the checked extension of a family to a list; tests/check_oracle.py builds the k_hcomp oracle from it",
}


def _imported(tree: ast.Module) -> dict[str, str]:
    """Local name -> original name, for every name imported from smckit."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("smckit")):
            for alias in node.names:
                out[alias.asname or alias.name] = alias.name
    return out


def _owned(tree: ast.Module):
    """(owner, statement): owner is the path of the definition holding it, () for none."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for node in [*stmt.decorator_list, *stmt.bases, *stmt.keywords]:
                yield (stmt.name,), node
            for inner in stmt.body:
                method = isinstance(inner, ast.FunctionDef)
                yield ((stmt.name, inner.name) if method else (stmt.name,)), inner
        elif isinstance(stmt, ast.FunctionDef):
            yield (stmt.name,), stmt
        else:
            yield (), stmt


def _references(tree: ast.Module) -> list[tuple[str, str, tuple]]:
    """(kind, name, owner) per reference: kind is "attr", "import", "local" or "string"."""
    imported = _imported(tree)
    out = []
    for owner, stmt in _owned(tree):
        for n in ast.walk(stmt):
            if isinstance(n, ast.Attribute):
                out.append(("attr", n.attr, owner))
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                if n.id in imported:
                    out.append(("import", imported[n.id], owner))
                else:
                    out.append(("local", n.id, owner))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.append(("string", n.value, owner))
    return out


def _definitions(tree: ast.Module) -> list[tuple]:
    """The path of each module-level function and class and each non-dunder method."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            out.append((stmt.name,))
        if isinstance(stmt, ast.ClassDef):
            out += [
                (stmt.name, f.name)
                for f in stmt.body
                if isinstance(f, ast.FunctionDef) and not (f.name.startswith("__") and f.name.endswith("__"))
            ]
    return out


def _reached(module: str, path: tuple, refs: dict, dead: set) -> bool:
    kinds = ("attr",) if len(path) == 2 else ("attr", "import", "local", "string")
    for m, kind, owner in refs.get(path[-1], ()):
        if kind not in kinds or (m, owner[:1]) in dead or (m, owner[:2]) in dead:
            continue
        if (owner[: len(path)] != path) if m == module else kind != "local":
            return True
    return False


def unreferenced(modules: dict[str, ast.Module], others: list[ast.Module]) -> list[str]:
    """The definitions of ``modules`` (by module name) that nothing in them or ``others`` references.

    A reference made inside an unreferenced definition does not count, so a
    chain of definitions that only reach each other is found whole.
    """
    refs: dict[str, list] = {}  # name -> (module, kind, owner); module None for others
    for module, tree in [*modules.items(), *((None, tree) for tree in others)]:
        for kind, name, owner in _references(tree):
            refs.setdefault(name, []).append((module, kind, owner))
    defined = [(module, path) for module, tree in modules.items() for path in _definitions(tree)]
    dead: set = set()
    while True:
        found = [d for d in defined if d not in dead and not _reached(*d, refs, dead)]
        if not found:
            return [".".join((module,) + path) for module, path in defined if (module, path) in dead]
        dead.update(found)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_check_finds_unreferenced_definitions():
    lib = ast.parse(
        "def used():\n    return helper(), Model()\n"
        "def helper():\n    return 1\n"
        "def wrapped():\n    return 2\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Base:\n    pass\n"
        "class Model(Base):\n"
        "    def __init__(self):\n        self.called()\n"
        "    def called(self):\n        return Model()\n"
        "    def named_only(self):\n        return named_only\n"
        "    def own_attribute(self):\n        return self.own_attribute\n"
    )
    tool = ast.parse("from smckit.lib import used as run\nrun()\nWRAPPED = ('wrapped', 'named_only')\n")
    found = unreferenced({"lib": lib}, [tool])
    assert found == ["lib.recursive", "lib.Model.named_only", "lib.Model.own_attribute"]
    # without the tool, the rest is reached only from the unreferenced used
    assert unreferenced({"lib": lib}, []) == [
        "lib.used", "lib.helper", "lib.wrapped", "lib.recursive", "lib.Base",
        "lib.Model", "lib.Model.called", "lib.Model.named_only", "lib.Model.own_attribute",
    ]


def test_every_definition_is_reached_outside_tests_and_reexports():
    modules = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    assert "laws" in modules and "cli" in modules
    tools = [p for d in ("scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    others = [_parse(p) for p in tools if "tests" not in p.relative_to(ROOT).parts]
    assert others
    found = unreferenced(modules, others)
    assert sorted(set(found) - set(ALLOWED)) == []
    assert set(ALLOWED) <= set(found), "an allowed name is now referenced: drop it from ALLOWED"
