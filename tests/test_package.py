"""`import normbch` is cheap: its exports and submodules load on first use.

Each check reads a report from one fresh interpreter, because this test
process has long since loaded every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import normbch

SRC = Path(normbch.__file__).resolve().parents[1]

# Run in order: the snapshot right after the import, a submodule reached only
# through the package attribute, every submodule file by name, every export,
# a star import, and an unknown name.
PROBE = """
import json, os, sys
from pathlib import Path
import normbch
report = {
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("normbch.")),
    "memory_cap": normbch.linalg.MEMORY_CAP_BYTES,
}
stems = sorted(p.stem for p in Path(normbch.__file__).parent.glob("*.py") if p.name != "__init__.py")
report["submodules"] = {stem: getattr(normbch, stem).__name__ for stem in stems}
report["modules"] = {name: getattr(normbch, name).__module__ for name in normbch.__all__}
namespace = {}
exec("from normbch import *", namespace)
report["unbound"] = [name for name in normbch.__all__ if name not in namespace]
try:
    normbch.no_such_name
except AttributeError as exc:
    report["no_such_name"] = str(exc)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_nothing_else(report):
    assert report["loaded"] == []


def test_bare_import_sets_one_blas_thread(report):
    assert report["openblas"] == "1"


def test_submodule_resolves_after_bare_import(report):
    assert report["memory_cap"] == 1 << 30


def test_every_submodule_resolves(report):
    assert report["submodules"] == {stem: f"normbch.{stem}" for stem in report["submodules"]}
    assert "cli" in report["submodules"]


def test_every_export_resolves(report):
    assert sorted(report["modules"]) == normbch.__all__
    assert all(module.startswith("normbch.") for module in report["modules"].values())


def test_star_import_binds_every_export(report):
    assert report["unbound"] == []


def test_unknown_name_is_an_attribute_error(report):
    assert report["no_such_name"] == "module 'normbch' has no attribute 'no_such_name'"
