"""Recursion: no module-level function in smckit reaches itself through its module's calls.

A function on such a cycle recurses once per level of its input, so its
result would depend on the interpreter's recursion limit.  The allowed
ones work on inputs of bounded size: the law generators' small random
objects and terms, and the recursive braiding kept as an oracle.
"""

import ast
from pathlib import Path

import smckit

PACKAGE = Path(smckit.__file__).parent

ALLOWED = {
    "laws.py": {"random_obj", "axiom_rewrite"},
    "monoidal.py": {"_partial_braid_word", "_braiding_word"},  # the helpers of the braiding_recursive oracle
}


def _references(tree: ast.Module) -> dict[str, set[str]]:
    """Per module-level function, the module-level functions its body names."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {
        name: {
            n.id
            for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in functions
        }
        for name, node in functions.items()
    }


def _on_a_cycle(graph: dict[str, set[str]]) -> set[str]:
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo += graph[name]
    return found


def test_the_call_graph_check_finds_recursion():
    tree = ast.parse(
        "def even(n):\n    return n == 0 or odd(n - 1)\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n"
        "def loop(xs):\n    return [loop(x) for x in xs]\n"
        "def caller(n):\n    return even(n)\n"
    )
    assert _on_a_cycle(_references(tree)) == {"even", "odd", "loop"}


def test_no_module_level_function_recurses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        recursive = _on_a_cycle(_references(ast.parse(path.read_text(), filename=str(path))))
        found += [f"{path.name}: {name}" for name in sorted(recursive - ALLOWED.get(path.name, set()))]
    assert found == []
