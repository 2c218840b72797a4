"""The scripts run and print the numbers the README quotes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import normbch

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


def test_lines_experiment():
    out = run_script("lines_experiment.py")
    assert "(q=13, m=3, d=5)  [proven range]  weight=4 words=22112805 on_line=22112805 violations=0\n" in out
    assert "(q=101, m=2, d=4)  [proven range]  weight=3 words=1716828300 on_line=1716828300 violations=0\n" in out
    assert "(q=29, m=3, d=5)  [proven range]  weight=4 words=17397868761 on_line=17397868761 violations=0\n" in out
    assert "(q=5, m=2, d=5)  [experiment only]  weight=4 words=350 on_line=150 violations=200\n" in out
    assert "(q=5, m=4, d=5)  [experiment only]  weight=4 words=227500 on_line=97500 violations=130000\n" in out
    assert "(q=7, m=4, d=5)  [experiment only]  weight=4 words=10564400 on_line=4802000 violations=5762400\n" in out


def test_certify_codes():
    certified = [line.split(" in ")[0] for line in run_script("certify_codes.py").splitlines()
                 if line.startswith("distance >=") and "certified over" in line]
    assert certified == [
        "distance >= 4: certified over 2300 subsets",
        "distance >= 5: certified over 9691375 subsets",
        "distance >= 5: certified over 566685735 subsets",
        "distance >= 5: certified over 130179173740 subsets",
        "distance >= 5: certified over 3966018065625 subsets",
        "distance >= 5: certified over 968104633665 subsets",
        "distance >= 4: certified over 176867998300 subsets",
        "distance >= 5: certified over 14738656119688501 subsets",
    ]


@pytest.mark.parametrize("name", ["bounds_table.py", "certify_codes.py", "lines_experiment.py"])
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
@pytest.mark.parametrize("name", ["bounds_table.py", "certify_codes.py", "lines_experiment.py"])
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
