"""The scripts run and print the numbers the README quotes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import normbch
from normbch import bch_upper, new_upper

ROOT = Path(__file__).resolve().parents[1]


def script_env() -> dict:
    env = dict(os.environ)
    src = str(Path(normbch.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_script(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)], capture_output=True, text=True, env=script_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bounds_table():
    lines = run_script("bounds_table.py").splitlines()
    assert lines[0].startswith("q\\d   d=3")
    assert "cells show the smallest recorded upper bound and its source; '=' marks" in lines


@pytest.mark.parametrize(("args", "error"), [
    (["x"], "parameter error: table ranges look like qmin..qmax dmin..dmax\n"),
    (["1"], "parameter error: table range 2..1 is empty: its lower end exceeds its upper end\n"),
])
def test_bounds_table_bad_range_exits_2(args, error):
    # exit 1 is reserved for counterexamples, and an empty range prints no table
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bounds_table.py"), *args],
                          capture_output=True, text=True, env=script_env(), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


@pytest.fixture(scope="module")
def census() -> dict[tuple[int, int, int], dict[str, str]]:
    """The census's cells by (q, m, d), in the order of its lines."""
    rows = [dict(cell.split("=", 1) for cell in line.split()) for line in run_script("census.py").splitlines()]
    return {(int(row["q"]), int(row["m"]), int(row["d"])): row for row in rows}


def test_census_cells(census):
    # every line opens with the build and the coefficients and closes with the tag and the seconds
    for (q, m, d), row in census.items():
        keys = list(row)
        assert keys[:11] == ["q", "m", "d", "r", "n", "rank", "r/m", "varshamov", "bch", "norm-bch", "verdict"]
        assert keys[-2:] == ["tag", "s"]
        assert row["n"] == str(q**m) and row["r/m"] == f"{int(row['rank']) / m:.4f}"
        assert (row["varshamov"], row["bch"], row["norm-bch"]) == (str(d - 2), str(bch_upper(q, d)), str(new_upper(d)))
    assert [census[5, 7, 6][key] for key in ("r", "n", "rank", "verdict")] == ["24", "78125", "24", "unchecked"]


def test_census_certifies(census):
    certified = [(qmd, row["subsets"]) for qmd, row in census.items() if row["verdict"] == "certified"]
    assert certified == [
        ((5, 2, 3), "300"),
        ((5, 2, 4), "2300"),
        ((5, 3, 5), "9691375"),
        ((7, 3, 5), "566685735"),
        ((5, 7, 3), "3051718750"),
        ((11, 3, 5), "130179173740"),
        ((5, 5, 5), "3966018065625"),
        ((13, 3, 5), "968104633665"),
        ((101, 2, 4), "176867998300"),
        ((29, 3, 5), "14738656119688501"),
        ((1021, 2, 4), "188799983626290260"),
    ]
    assert {row["verdict"] for row in census.values()} == {"certified", "unchecked"}
    # the desk members' base codes fall short of d: the witness is a base word the norm rows reject
    separated = {qmd: [row[key] for key in ("base", "witness", "base-syndrome", "aug-syndrome")]
                 for qmd, row in census.items() if "base" in row}
    assert separated == {(5, 2, 3): ["counterexample", "2", "zero", "nonzero"],
                         (5, 2, 4): ["counterexample", "3", "zero", "nonzero"],
                         (5, 3, 5): ["counterexample", "4", "zero", "nonzero"],
                         (7, 3, 5): ["counterexample", "4", "zero", "nonzero"]}


def test_census_line_checks(census):
    checked = {qmd: [row[key] for key in ("weight", "words", "on-line", "violations", "tag")]
               for qmd, row in census.items() if "words" in row}
    assert checked == {
        (5, 2, 4): ["3", "300", "300", "0", "proven"],
        (7, 2, 4): ["3", "1960", "1960", "0", "proven"],
        (5, 3, 5): ["4", "3875", "3875", "0", "proven"],
        (7, 3, 5): ["4", "97755", "97755", "0", "proven"],
        (11, 3, 5): ["4", "5310690", "5310690", "0", "proven"],
        (13, 3, 5): ["4", "22112805", "22112805", "0", "proven"],
        (101, 2, 4): ["3", "1716828300", "1716828300", "0", "proven"],
        (29, 3, 5): ["4", "17397868761", "17397868761", "0", "proven"],
        # (1021,2,4) fits the memory cap only with a leading 1 on the x half of the representative pass
        (1021, 2, 4): ["3", "184554859627460", "184554859627460", "0", "proven"],
        # m too small or not prime: observations, never asserted by the theorem
        (5, 2, 5): ["4", "350", "150", "200", "experiment"],
        (7, 2, 5): ["4", "4312", "1960", "2352", "experiment"],
        (5, 4, 5): ["4", "227500", "97500", "130000", "experiment"],
        (7, 4, 5): ["4", "10564400", "4802000", "5762400", "experiment"],
    }


@pytest.mark.parametrize("name", ["bounds_table.py", "census.py"])
def test_closed_stdout_exits_quietly(name):
    # The read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE, as when `| head` has exited.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / name)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=script_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""  # no BrokenPipeError traceback
    assert proc.returncode == 141  # as the CLI exits; 1 would claim a counterexample


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails with ENOSPC")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("name", ["bounds_table.py", "census.py"])
def test_full_stdout_exits_2_with_one_line(name, buffered):
    # as the CLI: one `file error:` line, not a traceback, a second report or exit 120 from a later flush
    env = script_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)], stdout=full, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "file error: [Errno 28] No space left on device\n")
