"""Every name a module of the package imports is used in that module, and
every name the package exports is used by the package, the scripts or the
acceptance tests.

No linter ships with the test environment, so these tests are the check
for dead imports and dead exports.  __init__.py is skipped: its names are
the public API.
"""

import ast
from pathlib import Path

import pytest

import normbch

MODULES = sorted(p for p in Path(normbch.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
# What the package exports is there for these: the commands, the scripts and the acceptance gate.
CALLERS = MODULES + sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py",
                                                               ROOT / "tests" / "oracles.py"]


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


def used_names(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute; a def or class binds its name, not reads it."""
    nodes = list(ast.walk(ast.parse(source)))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_used_names_skip_definitions():
    source = "import os\ndef f(x):\n    return os.path.join(x, g)\nclass C:\n    pass\n"
    assert used_names(source) == {"os", "path", "join", "x", "g"}


def test_every_export_has_a_caller():
    used = set().union(*(used_names(path.read_text()) for path in CALLERS))
    unused = sorted(set(normbch.__all__) - used)
    assert not unused, "exported without a caller: " + ", ".join(unused)
