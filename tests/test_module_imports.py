"""Module boundaries: no smckit module reaches into another's private names."""

import ast
from pathlib import Path

import smckit

PACKAGE = Path(smckit.__file__).parent


def _private_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "smckit"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}"


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []
