"""Every name a module of the package imports is used in that module.

No linter ships with the test environment, so this test is the check
for dead imports.  __init__.py is skipped: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

import normbch

MODULES = sorted(p for p in Path(normbch.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import comb, gcd\nprint(gcd)\n") == ["line 1: os", "line 2: comb"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
