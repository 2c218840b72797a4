"""Every name a module of the package imports is used in that module, and
every name the package exports or a module defines at its top level, and
every method of its top-level classes, is read by the package, the
scripts or the acceptance tests.

No linter ships with the test environment, so these tests are the check
for dead imports, dead exports and dead definitions.  __init__.py is
skipped: its names are the public API.
"""

import ast
import importlib
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
    """Every name the source reads, bare or as an attribute; a def, class or assignment binds its name,
    not reads it."""
    nodes = list(ast.walk(ast.parse(source)))
    loads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loads | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_used_names_skip_definitions():
    source = "import os\ndef f(x):\n    return os.path.join(x, g)\nclass C:\n    pass\nK = 1\n"
    assert used_names(source) == {"os", "path", "join", "x", "g"}


def top_level_names(source: str) -> list[str]:
    """The functions, classes and constants a module binds at its top level, in source order."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def unread_definitions(module: str, used: set[str]) -> list[str]:
    return [name for name in top_level_names(module) if name not in used]


def test_unread_definition_is_found():
    constants = "_WORD_BYTES, _POSITION_BYTES = 32, 48\n"
    images = "def _violation_images(v):\n    return _WORD_BYTES + _POSITION_BYTES * v\n"
    check = "def verify_lines_theorem(v):\n    return {}\n"
    before = constants + images + check.format("_violation_images(v)")
    caller = "verify_lines_theorem(4)\n"
    assert unread_definitions(before, used_names(before + caller)) == []
    after = constants + check.format("v")  # the function deleted, its constants left behind
    assert unread_definitions(after, used_names(after + caller)) == ["_WORD_BYTES", "_POSITION_BYTES"]


def test_every_export_has_a_caller():
    used = set().union(*(used_names(path.read_text()) for path in CALLERS))
    unused = sorted(set(normbch.__all__) - used)
    assert not unused, "exported without a caller: " + ", ".join(unused)


def unread_methods(source: str, used: set[str], inherited) -> list[str]:
    """Class.method for each unread method of a top-level class.  Dunder methods are exempt, and so
    is each name that inherited(class, method) reports a base class defines: the base calls it."""
    return [f"{node.name}.{item.name}" for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef) and item.name not in used
            and not (item.name.startswith("__") and item.name.endswith("__"))
            and not inherited(node.name, item.name)]


def test_unread_method_is_found():
    source = ("class Table(dict):\n    def __len__(self):\n        return 0\n    def keys(self):\n"
              "        return []\n    def rows(self):\n        return self._cells()\n"
              "    def _cells(self):\n        return []\n    def _stale(self):\n        return None\n")
    used = used_names(source + "Table().rows()\n")
    assert unread_methods(source, used, lambda cls, name: hasattr(dict, name)) == ["Table._stale"]


def overrides_in(path: Path):
    """Whether a method of a class in the module at path overrides one of a base class."""
    module = importlib.import_module(f"normbch.{path.stem}")
    return lambda cls, name: any(hasattr(base, name) for base in getattr(module, cls).__mro__[1:])


def test_every_definition_has_a_reader():
    used = set().union(*(used_names(path.read_text()) for path in CALLERS))
    unread = [f"{path.name}: {name}" for path in MODULES for name in unread_definitions(path.read_text(), used)]
    unread += [f"{path.name}: {name}" for path in MODULES
               for name in unread_methods(path.read_text(), used, overrides_in(path))]
    assert not unread, "defined without a reader: " + ", ".join(unread)


def defaulted_parameters(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position or None if keyword-only, name) of each defaulted parameter of the
    top-level functions."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            positional = node.args.posonlyargs + node.args.args
            for k in range(len(positional) - len(node.args.defaults), len(positional)):
                found.append((node.name, k, positional[k].arg))
            found += [(node.name, None, a.arg) for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                      if default]
    return found


def passed_parameters(source: str) -> set[tuple[str, int | str]]:
    """(called name, position or keyword) of each argument the source passes; a call through an
    attribute counts under the attribute's name."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            passed |= {(name, k) for k in range(len(node.args))} | {(name, kw.arg) for kw in node.keywords}
    return passed


def test_unpassed_parameter_is_found():
    source = "def f(a, b=1, *, c=2):\n    return a\nf(0, c=3)\n"
    assert defaulted_parameters(source) == [("f", 1, "b"), ("f", None, "c")]
    assert passed_parameters(source) == {("f", 0), ("f", "c")}


def test_every_defaulted_parameter_is_passed():
    passed = set().union(*(passed_parameters(path.read_text()) for path in CALLERS))
    unpassed = {(path.name, function, name) for path in MODULES
                for function, position, name in defaulted_parameters(path.read_text())
                if (function, name) not in passed and (function, position) not in passed}
    assert unpassed == set()


def test_environment_read_only_for_openblas():
    # no environment variable sets an option: the package's one use of os.environ fixes OpenBLAS's threads
    uses = {(path.name, line.strip()) for path in Path(normbch.__file__).parent.glob("*.py")
            for line in path.read_text().splitlines() if "environ" in line or "getenv" in line}
    assert uses == {("__init__.py", 'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")')}


def hashlib_imports(source: str) -> list[str]:
    """Where the source imports hashlib: 'function:handler' inside an except handler of a top-level
    function, else 'line N'."""
    tree = ast.parse(source)
    fallback = {id(node): f"{func.name}:handler" for func in tree.body if isinstance(func, ast.FunctionDef)
                for handler in ast.walk(func) if isinstance(handler, ast.ExceptHandler)
                for node in ast.walk(handler)}
    found = []
    for node in ast.walk(tree):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module] if isinstance(node, ast.ImportFrom) else [])
        if any(name and name.split(".")[0] == "hashlib" for name in names):
            found.append(fallback.get(id(node), f"line {node.lineno}"))
    return found


def test_hashlib_import_is_found():
    source = ("import hashlib\ndef digest(data):\n    from hashlib import sha256\n    try:\n"
              "        from _sha256 import sha256\n    except ImportError:\n        from hashlib import sha256\n"
              "    return sha256(data)\n")
    assert hashlib_imports(source) == ["line 1", "line 3", "digest:handler"]


def test_hashlib_only_as_the_digest_fallback():
    # hashlib maps OpenSSL's libcrypto; the package digests with the built-in SHA-256 and keeps
    # hashlib for a build without it
    found = {path.name: hashlib_imports(path.read_text()) for path in Path(normbch.__file__).parent.glob("*.py")}
    assert {name: where for name, where in found.items() if where} == {"__init__.py": ["_sha256_hex:handler"]}


PACKAGE = sorted(Path(normbch.__file__).parent.glob("*.py"))


def dataclass_importers(modules: dict[str, str]) -> list[str]:
    """The names of the sources, by file name, that import dataclasses anywhere."""
    found = []
    for name, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(module and module.split(".")[0] == "dataclasses" for module in names):
                found.append(name)
                break
    return sorted(found)


def test_dataclass_import_is_found():
    # a copy of the package's sources, one importing the decorator, one the module inside a function
    modules = sources(PACKAGE)
    modules["bounds.py"] = modules["bounds.py"].replace("import math\n", "from dataclasses import dataclass\n")
    modules["lines.py"] += "\n\ndef _fields(record):\n    import dataclasses.fields\n    return record\n"
    assert dataclass_importers(modules) == ["bounds.py", "lines.py"]


def test_no_dataclasses():
    # the records are NamedTuples: a frozen dataclass generates and compiles its methods when its module
    # loads, about 1.5 ms a class against 0.25 ms for a NamedTuple (Python 3.11), in every process
    assert dataclass_importers(sources(PACKAGE)) == []


FIELD_TABLES = ("_exp", "_log")


def table_reads(source: str) -> list[str]:
    """'line N: name' for each attribute _exp or _log the source reads outside the body of a
    top-level class Field."""
    tree = ast.parse(source)
    inside = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Field"
              for node in ast.walk(cls)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES and id(node) not in inside]
    return [f"line {node.lineno}: {node.attr}" for node in sorted(reads, key=lambda node: node.lineno)]


def test_table_read_is_found():
    source = ("class Field:\n    def mul(self, a, b):\n        return self._exp[self._log[a] + self._log[b]]\n"
              "class LocatorTable:\n    def columns(self, vals):\n        return self.field._log[vals]\n"
              "def mul(field, a, b):\n    return field._exp[a + b]\n")
    assert table_reads(source) == ["line 6: _log", "line 8: _exp"]


def test_field_tables_read_only_by_field():
    # the log and antilog tables have one reader, Field's mul, power and maps
    found = {path.name: table_reads(path.read_text()) for path in Path(normbch.__file__).parent.glob("*.py")}
    assert {name: where for name, where in found.items() if where} == {}


OUTPUT_CALLS = ("open", "print", "os.remove")


def output_sites(source: str) -> dict[str, list[str]]:
    """For each function of the source that does output, what it uses: calls of open, print and
    os.remove, and sys.stdout."""
    found = {}
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, ast.FunctionDef):
            nodes = list(ast.walk(func))
            calls = {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)}
            stdout = {"sys.stdout" for node in nodes if isinstance(node, ast.Attribute)
                      and ast.unparse(node) == "sys.stdout"}
            if sites := sorted(calls.intersection(OUTPUT_CALLS) | stdout):
                found[func.name] = sites
    return found


def test_output_site_is_found():
    source = ("import os, sys\ndef cmd_a(args):\n    print(args)\n    return 0\n"
              "def cmd_b(args):\n    with open(args.out, 'w') as fh:\n        fh.write('x')\n"
              "    sys.stdout.write('y')\ndef _render(x):\n    return str(x)\n"
              "def _run(argv):\n    os.remove(argv)\n    return sys.stdout.fileno()\n")
    assert output_sites(source) == {"cmd_a": ["print"], "cmd_b": ["open", "sys.stdout"],
                                    "_run": ["os.remove", "sys.stdout"]}


def test_only_run_writes_command_output():
    # Subcommands return their stdout and --out text; _run alone opens --out and the manifest,
    # removes what a failed run created and writes stdout.  main and pipe_safe print their one
    # stderr line, and pipe_safe flushes stdout.
    found = output_sites((Path(normbch.__file__).parent / "cli.py").read_text())
    assert found == {"_run": ["open", "os.remove", "sys.stdout"], "main": ["print"],
                     "pipe_safe": ["print", "sys.stdout"]}


SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def exit_breaches(modules: dict[str, str], scripts: dict[str, str]) -> list[str]:
    """How the sources, by file name, break the exit rule: os._exit is called once in the package and
    the scripts, in cli.exit_process, and each script's `if __name__ == "__main__":` block ends by
    calling cli.exit_process."""
    calls = []
    for name, source in {**modules, **scripts}.items():
        tree = ast.parse(source)
        owner = {id(node): func.name for func in tree.body if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        calls += [f"{name}:{owner.get(id(node), f'line {node.lineno}')}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.unparse(node.func) == "os._exit"]
    breaches = [] if calls == ["cli.py:exit_process"] else ["os._exit called in " + ", ".join(calls)]
    for name, source in scripts.items():
        blocks = [node for node in ast.parse(source).body
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
        last = blocks[-1].body[-1] if blocks else None
        if not (isinstance(last, ast.Expr) and isinstance(last.value, ast.Call)
                and ast.unparse(last.value.func) == "cli.exit_process"):
            breaches.append(f"{name}: __main__ does not end with cli.exit_process")
    return breaches


def sources(paths) -> dict[str, str]:
    return {path.name: path.read_text() for path in paths}


def test_exit_rule_breach_is_found():
    modules, scripts = sources(MODULES), sources(SCRIPTS)
    ending = "cli.exit_process(cli.pipe_safe(main))"
    assert ending in scripts["bounds_table.py"]
    scripts["bounds_table.py"] = scripts["bounds_table.py"].replace(ending, "sys.exit(cli.pipe_safe(main))")
    modules["verify.py"] += "\n\ndef _stop():\n    os._exit(1)\n"
    assert exit_breaches(modules, scripts) == ["os._exit called in cli.py:exit_process, verify.py:_stop",
                                               "bounds_table.py: __main__ does not end with cli.exit_process"]


def test_processes_end_through_exit_process():
    # the one exit that skips interpreter teardown, so that no second path to os._exit forgets
    # to flush stdout first or to report why it could not
    assert exit_breaches(sources(MODULES + [Path(normbch.__file__)]), sources(SCRIPTS)) == []


def package_imports(modules: dict[str, str]) -> dict[str, list[tuple[str, str]]]:
    """For each module, by stem, (source, name) of each name it imports from the package, at any depth:
    `from .x import y` gives ("x", "y"), and `from . import y` gives (y, "") for a submodule y, else
    ("__init__", y)."""
    found = {}
    for stem, source in modules.items():
        found[stem] = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                found[stem] += [(node.module, alias.name) if node.module else
                                (alias.name, "") if alias.name in modules else ("__init__", alias.name)
                                for alias in node.names]
    return found


def import_cycle(modules: dict[str, str]) -> list[str]:
    """A cycle of package imports, call-time and annotation-only ones included, as the stems along it with
    the first repeated at the end, or [] when there is none."""
    graph = {stem: sorted({source for source, _ in imports}) for stem, imports in package_imports(modules).items()}
    path, done = [], set()

    def visit(stem):
        if stem in path:
            return path[path.index(stem):] + [stem]
        if stem in done:
            return []
        path.append(stem)
        for source in graph[stem]:
            if cycle := visit(source):
                return cycle
        done.add(path.pop())
        return []

    return next(filter(None, map(visit, sorted(graph))), [])


def private_imports(modules: dict[str, str]) -> list[str]:
    """'module: sibling._name' for each underscore name a module imports from a sibling module or reads off
    one it imports; the names of the package's __init__ are the package's own."""
    found = []
    for stem, imports in package_imports(modules).items():
        found += [f"{stem}: {source}.{name}" for source, name in imports
                  if source != "__init__" and name.startswith("_")]
        siblings = {source for source, name in imports if not name}
        found += [f"{stem}: {node.value.id}.{node.attr}" for node in ast.walk(ast.parse(modules[stem]))
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_")]
    return found


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE}


def test_import_cycle_is_found():
    modules = package_sources()
    modules["orbit"] += "\n\ndef _engine(matrix, d):\n    from .verify import min_distance_at_least\n    return d\n"
    assert import_cycle(modules) == ["orbit", "verify", "orbit"]


def test_no_import_cycle():
    # the orbit check reaches the collision engine in linalg, not in verify, which calls the route
    assert import_cycle(package_sources()) == []


def test_private_import_is_found():
    modules = package_sources()
    modules["lines"] = modules["lines"].replace("from . import linalg, orbit\n",
                                                "from . import linalg, orbit\nfrom .orbit import _representatives\n")
    modules["verify"] += "\n\ndef _cap():\n    return linalg._SLOT_BYTES\n"
    assert sorted(private_imports(modules)) == ["lines: orbit._representatives", "verify: linalg._SLOT_BYTES"]


def test_no_private_imports_between_modules():
    # a module reads a sibling's public names only; the package's own __init__ helpers are shared
    assert private_imports(package_sources()) == []


def try_sites(modules: dict[str, str]) -> set[str]:
    """'file:function' for each top-level function of the sources, by file name, that holds a try
    statement, and 'file:<module>' for one outside any function."""
    found = set()
    for name, source in modules.items():
        tree = ast.parse(source)
        owner = {id(node): func.name for func in tree.body if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func)}
        found |= {f"{name}:{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if type(node).__name__ in ("Try", "TryStar")}
    return found


def test_try_site_is_found():
    # a copy of the package's sources: a decline that catches a ValueError, a module-level import fallback
    modules = sources(PACKAGE)
    modules["orbit.py"] += "\n\ndef _decline(matrix, d):\n    try:\n        return certifies(matrix, d)\n" \
                           "    except ValueError:\n        return False\n"
    modules["lines.py"] += "\ntry:\n    import fast\nexcept ImportError:\n    fast = None\n"
    found = {site for site in try_sites(modules) if not site.startswith("cli.py:")}
    assert found == {"__init__.py:_sha256_hex", "construct.py:read_matrix_file", "orbit.py:_decline",
                     "lines.py:<module>"}


def test_only_the_cli_the_digest_and_the_reader_catch():
    # cli.py maps exceptions to exit codes, _sha256_hex falls back to another hash module and
    # read_matrix_file names a bad file's line; every other module catches nothing, so a failed
    # self-check or a bug always surfaces as an exception
    found = {site for site in try_sites(sources(PACKAGE)) if not site.startswith("cli.py:")}
    assert found == {"__init__.py:_sha256_hex", "construct.py:read_matrix_file"}


def unlisted_scripts(names, tests: str, readme: str) -> list[str]:
    """'name: why' for each script name that no string constant of the tests holds, or that the README's
    Scripts section does not run as `python scripts/<name>`."""
    constants = {node.value for node in ast.walk(ast.parse(tests)) if isinstance(node, ast.Constant)}
    section = readme.partition("\n## Scripts\n")[2].partition("\n## ")[0]
    return [f"{name}: {why}" for name in names for why, listed in
            (("not run by the tests", name in constants), ("not in the README", f"python scripts/{name}" in section))
            if not listed]


def test_unlisted_script_is_found():
    tests = 'run_script("a.py")\nNAMES = ["b.py"]\n# c.py\n'
    readme = "# tool\n\n## Scripts\n\npython scripts/a.py\npython scripts/c.py\n\n## Layout\n\npython scripts/b.py\n"
    assert unlisted_scripts(["a.py", "b.py", "c.py"], tests, readme) == [
        "b.py: not in the README", "c.py: not run by the tests"]


def test_every_script_is_tested_and_documented():
    # a script that nothing runs can rot unseen, and one the README does not list is found by no reader
    names = [path.name for path in SCRIPTS]
    assert unlisted_scripts(names, (ROOT / "tests" / "test_scripts.py").read_text(),
                            (ROOT / "README.md").read_text()) == []
