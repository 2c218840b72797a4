#!/usr/bin/env python3
"""normbch benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -m pytest -q perfbench/test_smoke.py     # harness smoke test

With --trace 0 every operation is a `python -m normbch.cli ...` child
process with the checkout's src/ on PYTHONPATH (nothing is installed).
The run times start-up probes (`--version`) and the workload's command,
repeating the command until S seconds have been measured (at least once).
Runs of perfbench/calibrate.py between them scale each time to a reference
machine speed; the run reports medians of the scaled times.  Peak RSS
comes from os.wait4 on each child.

With --trace 1 the workload's command runs twice in-process through
perfbench/inproc.py: once plain and once with spans recorded around the
public functions of the layer modules.  The per-layer metrics come from
the traced pass; trace.overhead_s is traced minus plain wall time.

Every operation's exit code and key output fields are checked against
values pinned from the seed code; a failing operation contributes no
timing.  The seed orders the operations inside a run (where the first
command falls among the start-up probes, and which in-process pass goes
first); the program only ever receives the fixed instances below.

The last line of stdout is the JSON result.  Details (environment record,
every operation, spans) go to .perfbench/<workload>/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 5
# Wall time of perfbench/calibrate.py that defines speed 1.0: its median
# on the 2-CPU machine (Xeon, Python 3.11, numpy 2.4) the benchmark was
# written on.  Changing it rescales every reported time.
CALIBRATION_REF_S = 0.21
CALIBRATION_OUTPUT = "484987 196604"
CAL_NEIGHBOURS = 3  # calibrations on each side that set an operation's speed

LIMITS = (
    "shared machine: other tenants load the CPUs during a run; setup_s and command_s are scaled by "
    "neighbouring calibrate.py runs, raw medians are under 'raw'",
    "no CPU pinning and no page-cache dropping; only this benchmark's own processes are measured",
    "peak RSS is the largest single process of each command's tree (wait4 covers reaped descendants)",
)


@dataclass(frozen=True)
class Expect:
    """What a correct operation prints and writes."""

    rc: int = 0
    fields: dict = field(default_factory=dict)  # key=value tokens on stdout
    files: dict = field(default_factory=dict)  # file name in the work dir -> sha256
    prefix: str = ""  # required start of stdout


@dataclass(frozen=True)
class Op:
    args: tuple  # arguments after `python -m normbch.cli`
    expect: Expect


@dataclass(frozen=True)
class Instance:
    """Fixed inputs and the outputs the seed code gives for them."""

    build: tuple  # (q, m, d) built by gencode
    build_sha: str
    build_rank: int
    code: tuple  # (q, m, d) certified and line-checked
    aug_sha: str
    base_sha: str
    subsets: int  # C(n, d-1)
    cex_examined: int
    cex_positions: str
    cex_coeffs: str
    words: int


FULL = Instance(
    build=(5, 5, 5),
    build_sha="efeb42408b73802a4eee4904266f70464447c041fb424ecba17123084839a520",
    build_rank=13,
    code=(5, 3, 5),
    aug_sha="9093651095b9527c735c5fd30a7fe503c8914aad20a9c43a5c0e29b91b559b3a",
    base_sha="29c946851f3c25674f59365651ba32d8585896c1fbf1e4e7e021504d92115f54",
    subsets=9691375,
    cex_examined=25307,
    cex_positions="1,7,23,30",
    cex_coeffs="1,2,4,3",
    words=3875,
)
SMOKE = Instance(
    build=(5, 2, 4),
    build_sha="988c52af8609dcf38a38dff8c5e74de8f180eb900d4bd8cb1822c0ab2f8997ba",
    build_rank=4,
    code=(5, 2, 4),
    aug_sha="988c52af8609dcf38a38dff8c5e74de8f180eb900d4bd8cb1822c0ab2f8997ba",
    base_sha="34aeccad37742e15b75f8bbf408ffcb1510343e4d879ebe47239579317b9a38a",
    subsets=2300,
    cex_examined=2,
    cex_positions="1,2,4",
    cex_coeffs="1,2,2",
    words=300,
)
INSTANCES = {"full": FULL, "smoke": SMOKE}

# bounds and reduce have no workload: at their documented inputs their work
# is milliseconds behind the ~0.3 s interpreter start-up, and no roadmap
# item targets their speed.
# A 2-worker certification is not a workload: it would add about 20 s to
# every round of runs, its pool workers cannot be traced, and the roadmap
# plans to retire the process pool.
WORKLOADS = ("build-555", "certify-535", "counterexample-535", "lines-535")

PROBE = Op(("--version",), Expect(prefix="normbch "))


def _qmd(qmd) -> tuple:
    q, m, d = qmd
    return ("--q", str(q), "--m", str(m), "--d", str(d))


def _gencode(qmd, out: str, sha: str, rank: int | None = None, bch_only: bool = False) -> Op:
    fields = {"matrix_sha256": sha}
    if rank is not None:
        fields["rank"] = str(rank)
    args = ("gencode", *_qmd(qmd), "--out", out) + (("--bch-only",) if bch_only else ())
    return Op(args, Expect(fields=fields, files={out: sha}))


def plan(workload: str, inst: Instance) -> tuple[list[Op], Op]:
    """The untimed input builds and the timed command of a workload."""
    d = str(inst.code[2])
    if workload == "build-555":
        return [], _gencode(inst.build, "built.txt", inst.build_sha, rank=inst.build_rank)
    if workload == "lines-535":
        expect = Expect(fields={"words_found": str(inst.words), "on_line": str(inst.words), "violations": "0"})
        return [], Op(("check-lines", *_qmd(inst.code)), expect)
    if workload == "counterexample-535":
        expect = Expect(rc=1, fields={
            "verdict": "counterexample",
            "matrix_sha256": inst.base_sha,
            "subsets_examined": str(inst.cex_examined),
            "counterexample_positions": inst.cex_positions,
            "counterexample_coeffs": inst.cex_coeffs,
        })
        inputs = [_gencode(inst.code, "base.txt", inst.base_sha, bch_only=True)]
        return inputs, Op(("verify-distance", "--matrix", "base.txt", "--d", d, "--threads", "1"), expect)
    expect = Expect(fields={
        "verdict": "certified",
        "matrix_sha256": inst.aug_sha,
        "subset_count": str(inst.subsets),
        "subsets_examined": str(inst.subsets),
    })
    inputs = [_gencode(inst.code, "aug.txt", inst.aug_sha)]
    return inputs, Op(("verify-distance", "--matrix", "aug.txt", "--d", d, "--threads", "1"), expect)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(expect: Expect, rc: int, stdout: str, work: Path) -> str | None:
    """None when the output is correct, else the first mismatch."""
    if rc != expect.rc:
        return f"exit code {rc}, expected {expect.rc}"
    if not stdout.startswith(expect.prefix):
        return f"stdout does not start with {expect.prefix!r}"
    got = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
    for key, want in expect.fields.items():
        if got.get(key) != want:
            return f"{key}={got.get(key)}, expected {want}"
    for name, sha in expect.files.items():
        path = work / name
        if not path.is_file():
            return f"{name} was not written"
        if _sha256(path) != sha:
            return f"{name} has the wrong sha256"
    return None


@dataclass
class Proc:
    rc: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


def run_process(argv: list, work: Path, timeout: float) -> Proc:
    """Run argv to completion in its own session; rusage from os.wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NORMBCH_BUDGET", None)
    with open(work / "op.out", "w+b") as out, open(work / "op.err", "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(timeout, 0.1), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"), wall, usage.ru_maxrss)


class Run:
    """One benchmark run: executes operations, checks them, keeps records."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.deadline = started + RUN_DEADLINE_S
        self.records: list[dict] = []

    def _record(self, kind: str, args, proc: Proc | None, reason: str | None, **extra) -> dict:
        rec = {"kind": kind, "args": list(args), "ok": reason is None, "reason": reason}
        if proc is not None:
            rec.update(rc=proc.rc, wall_s=proc.wall_s, maxrss_kb=proc.maxrss_kb)
        rec.update(extra)
        self.records.append(rec)
        status = "ok" if reason is None else f"FAILED: {reason}"
        wall = f"{proc.wall_s:9.3f}s" if proc is not None else " " * 10
        print(f"[perfbench] {kind:<9} {wall}  {' '.join(args)}  {status}", file=sys.stderr)
        return rec

    def _clear_outputs(self, op: Op) -> None:
        for name in op.expect.files:
            (self.work / name).unlink(missing_ok=True)

    def cli(self, kind: str, op: Op) -> dict:
        self._clear_outputs(op)
        proc = run_process([sys.executable, "-m", "normbch.cli", *op.args], self.work,
                           self.deadline - time.perf_counter())
        reason = check(op.expect, proc.rc, proc.stdout, self.work)
        if reason is not None and proc.stderr.strip():
            reason += " | stderr: " + proc.stderr.strip().splitlines()[-1]
        return self._record(kind, op.args, proc, reason)

    def calibrate(self) -> dict:
        proc = run_process([sys.executable, str(HERE / "calibrate.py")], self.work,
                           self.deadline - time.perf_counter())
        ok = proc.rc == 0 and proc.stdout.strip() == CALIBRATION_OUTPUT
        return self._record("cal", ["calibrate.py"], proc, None if ok else "calibration output is wrong")

    def inproc(self, traced: bool, op: Op) -> dict:
        self._clear_outputs(op)
        argv = [sys.executable, str(HERE / "inproc.py"), "--src", str(SRC)]
        if traced:
            argv += ["--trace", "--spans", str(self.work / "spans.json")]
        proc = run_process(argv + ["--", *op.args], self.work, self.deadline - time.perf_counter())
        kind = "traced" if traced else "inproc"
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return self._record(kind, op.args, proc, f"in-process runner failed: {tail[0]}")
        reason = check(op.expect, result["rc"], result["stdout"], self.work)
        return self._record(kind, op.args, proc, reason, inner_wall_s=result["wall_s"],
                            stats=result.get("stats"), fields=result.get("fields"))


def _median(values: list) -> float | None:
    return statistics.median(values) if values else None


def _walls(records: list[dict], kind: str) -> list[float]:
    return [r["wall_s"] for r in records if r["kind"] == kind and r["ok"]]


def _ok_rate(run: Run) -> dict:
    return {"ok_rate": sum(r["ok"] for r in run.records) / len(run.records)}


def measure(run: Run, inputs: list[Op], command: Op, seconds: float,
            rng: random.Random) -> tuple[dict, dict]:
    """Untraced run: start-up probes and command repetitions between calibrations.

    Returns the metrics and the unscaled medians.  A run of calibrate.py
    follows every probe and command, and three open and close the run.  Each
    operation's time is scaled by CALIBRATION_REF_S over the calibration
    time around it (the mean of the medians of the nearest CAL_NEIGHBOURS
    calibrations before and after), so it reads as seconds at the reference
    speed.  On this shared machine the speed of a CPU changes by up to a
    half within seconds; calibrations next to an operation see the speed it
    ran at.
    """
    run.cli("warmup", PROBE)  # fill the bytecode and page caches; not timed
    run.calibrate()
    for op in inputs:
        run.cli("input", op)
    if not all(r["ok"] for r in run.records):
        return _ok_rate(run), {}
    kinds = ["probe"] * SETUP_PROBES + ["command"]
    rng.shuffle(kinds)
    timeline = [run.calibrate() for _ in range(CAL_NEIGHBOURS)]
    started = time.perf_counter()
    while kinds or time.perf_counter() - started < seconds:
        kind = kinds.pop() if kinds else "command"
        timeline.append(run.cli(kind, PROBE if kind == "probe" else command))
        timeline.append(run.calibrate())
    timeline += [run.calibrate() for _ in range(CAL_NEIGHBOURS - 1)]
    raw = {name: _median(_walls(timeline, kind))
           for name, kind in (("setup_s", "probe"), ("command_s", "command"), ("calibration_s", "cal"))}
    if not all(r["ok"] for r in timeline):
        return _ok_rate(run), raw
    cal_at = [i for i, r in enumerate(timeline) if r["kind"] == "cal"]
    scaled: dict[str, list[float]] = {"probe": [], "command": []}
    for i, rec in enumerate(timeline):
        if rec["kind"] == "cal":
            continue
        before = [timeline[j]["wall_s"] for j in cal_at if j < i][-CAL_NEIGHBOURS:]
        after = [timeline[j]["wall_s"] for j in cal_at if j > i][:CAL_NEIGHBOURS]
        around = (statistics.median(before) + statistics.median(after)) / 2
        rec["scaled_s"] = rec["wall_s"] * CALIBRATION_REF_S / around
        scaled[rec["kind"]].append(rec["scaled_s"])
    return {
        "setup_s": statistics.median(scaled["probe"]),
        "command_s": statistics.median(scaled["command"]),
        "peak_rss_mb": max(r["maxrss_kb"] for r in run.records if r["kind"] != "cal") / 1024,
        **_ok_rate(run),
    }, raw


# Per-layer metric -> (span name, aggregate key).  "self_s" is the span's
# time minus the time of the wrapped calls it made; construct.rank_s is
# inclusive, because ParityCheckMatrix.rank only delegates to linalg.
SPAN_METRICS = {
    "field.make_field_s": ("field.make_field", "self_s"),
    "field.make_field_calls": ("field.make_field", "calls"),
    "field.make_basis_pair_s": ("field.make_basis_pair", "self_s"),
    "field.norm_s": ("field.norm", "self_s"),
    "field.norm_calls": ("field.norm", "calls"),
    "field.embed_hat_s": ("field.embed_hat", "self_s"),
    "construct.build_locators_s": ("construct.build_locators", "self_s"),
    "construct.bch_matrix_s": ("construct.bch_matrix", "self_s"),
    "construct.augmented_matrix_s": ("construct.augmented_matrix", "self_s"),
    "construct.rank_s": ("construct.ParityCheckMatrix.rank", "total_s"),
    "construct.write_matrix_s": ("construct.write_matrix_file", "self_s"),
    "construct.read_matrix_s": ("construct.read_matrix_file", "self_s"),
    "linalg.batch_ranks_s": ("linalg.batch_ranks", "self_s"),
    "linalg.batch_ranks_calls": ("linalg.batch_ranks", "calls"),
    "linalg.matrices_ranked": ("linalg.batch_ranks", "items"),
    "linalg.rref_s": ("linalg.rref", "self_s"),
    "linalg.rref_calls": ("linalg.rref", "calls"),
    "verify.min_distance_at_least_s": ("verify.min_distance_at_least", "self_s"),
    "verify.enumerate_weight_words_s": ("verify.enumerate_weight_words", "self_s"),
    "verify.on_affine_line_s": ("verify.on_affine_line", "self_s"),
    "verify.on_affine_line_calls": ("verify.on_affine_line", "calls"),
}
# A scan's hits are the dependent subsets it returns; each one gets exactly
# one kernel computation from the scanning function.
SCANNERS = ("verify.min_distance_at_least", "verify.enumerate_weight_words")


def moduli_rejected(p: int, modulus: list) -> int:
    """Candidates tested and rejected before this modulus won the search.

    The search walks the coefficient tails (c0, ..., c_{k-1}) in
    lexicographic order, c0 most significant, and skips tails with
    c0 = 0 untested.
    """
    tail = modulus[:-1]
    k = len(tail)
    rank = sum(c * p ** (k - 1 - i) for i, c in enumerate(tail))
    return rank - p ** (k - 1)


def layer_metrics(stats: dict, fields: list, overhead_s: float) -> dict:
    metrics = {name: stats.get(span, {}).get(key, 0) for name, (span, key) in SPAN_METRICS.items()}
    kernel_parents = stats.get("linalg.kernel_basis", {}).get("parents", {})
    hits = sum(kernel_parents.get(name, 0) for name in SCANNERS)
    matrices = metrics["linalg.matrices_ranked"]
    metrics.update({
        "field.builds": len(fields),
        "field.moduli_tried": sum(moduli_rejected(f["p"], f["modulus"]) for f in fields),
        "verify.hits": hits,
        "verify.hit_ratio": hits / matrices if matrices else 0.0,
        "cli.main_s": sum(agg["self_s"] for name, agg in stats.items() if name.startswith("cli.")),
        "trace.overhead_s": overhead_s,
    })
    return metrics


def trace(run: Run, inputs: list[Op], command: Op, rng: random.Random) -> dict:
    """Traced run: the command in-process, plain and traced, in seeded order."""
    for op in inputs:
        run.cli("input", op)
    if not all(r["ok"] for r in run.records):
        return {}
    order = [False, True]
    rng.shuffle(order)
    passes = {traced: run.inproc(traced, command) for traced in order}
    plain, traced = passes[False], passes[True]
    if not (plain["ok"] and traced["ok"]):
        return {}
    return layer_metrics(traced["stats"], traced["fields"], traced["inner_wall_s"] - plain["inner_wall_s"])


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "loadavg_before": os.getloadavg(),
        "limits": LIMITS,
    }


def load_metric_names() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def bench(opts) -> int:
    started = time.perf_counter()
    if not (SRC / "normbch" / "cli.py").is_file():
        print(f"perfbench: no normbch sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_names()
    units = layer_units if opts.trace else e2e_units
    work = ROOT / ".perfbench" / opts.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    rng = random.Random(opts.seed)
    run = Run(work, started)
    inputs, command = plan(opts.workload, INSTANCES[opts.instance])
    if opts.trace:
        values, raw = trace(run, inputs, command, rng), {}
    else:
        values, raw = measure(run, inputs, command, opts.seconds, rng)
    env["loadavg_after"] = os.getloadavg()
    failed = sum(not r["ok"] for r in run.records)
    correct = failed == 0
    if correct and set(values) != set(units):
        print(f"perfbench: computed metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}",
              file=sys.stderr)
        return 2
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    detail = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
              "instance": opts.instance, "environment": env, "operations": run.records, "raw": raw,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:<34} {m['value']!s:>22} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(run.records), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="normbch benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance", choices=sorted(INSTANCES), default="full", help=argparse.SUPPRESS)
    return bench(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
