"""Smoke test of the benchmark harness on the (5,2,4) instances.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once plain and once traced on the small instances
(about 20 s in all), and each result line is checked against the schema
the benchmark promises and the metric names in BENCHMARK.json.
"""

import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_result_schema(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--instance", "smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, m in result["metrics"].items():
        value = m["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
        if not trace:
            assert value > 0, f"end-to-end metric {name} must never be 0"


@pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (3, 4), (7, 2)])
def test_moduli_rejected_matches_search_order(p, k):
    from normbch.field import make_field

    winner = make_field(p, k).modulus
    tested = [tail + (1,) for tail in itertools.product(range(p), repeat=k) if tail[0] != 0]
    assert run.moduli_rejected(p, list(winner)) == tested.index(tuple(winner))
