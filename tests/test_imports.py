"""Package structure: modules share only public names."""

import ast
from pathlib import Path

import c2lab

PACKAGE = Path(c2lab.__file__).parent


def _cross_module_private_imports():
    """(file, line, name) of each underscore name a c2lab module imports from another c2lab module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            internal = isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "c2lab")
            if internal:
                found += [(path.name, node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_private_name_crosses_a_module_boundary():
    assert _cross_module_private_imports() == []
