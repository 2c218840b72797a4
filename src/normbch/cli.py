"""Command line entry point.

Subcommands: gencode, verify-distance, check-lines, bounds, reduce.
Each builds its result once, as a record: a dict whose keys are the
keys of its text output.  A small per-command layout renders the record
as text, one `key=value` line per key in record order unless the layout
gives a key its own str.format line (or none); bools print in lower
case, lists comma-joined and a dict as `name:count,...`.  That text goes
to stdout and to the verify-distance and check-lines --out files, and
--json prints the record itself.
Exit codes: 0 success or certified, 1 mathematical counterexample or
violation, 2 usage, parameter, file or budget error, 70 internal error,
141 (128 + SIGPIPE) stdout closed by its reader, with nothing on stderr.
A budget error is a search over the fixed memory cap, or over the subset
budget that verify-distance --budget sets for its generic engine alone.
Subcommands only compute: each returns its exit code, stdout text and
--out text (with its SHA-256 when it holds one) and raises on bad input.
_run alone writes: it refuses an --out or manifest path that names the
run's input, opens --out and <out>.manifest.json before the work, writes
both after it, hashing the output from memory, and prints stdout last; a
failed run removes the files it created and keeps the bytes of those
that existed.  pipe_safe flushes stdout and turns OSError, from the run
or the flush, into exit 2 with one stderr line (141 for a closed
stdout); main() does the same for BudgetExceededError and ValueError,
and any other exception is a bug, which exits 70 with its traceback.
The `normbch` command and the scripts end with os._exit once stderr is
flushed (exit_process), so atexit handlers and finalizers do not run;
an exception that escapes main ends the process the normal way.  An
in-process caller of main is unaffected.  The manifest records parameters,
input/output hashes, seed and timing; re-running with its parameters
reproduces byte-identical primary outputs.
Each subcommand imports its own engine when it runs, so a process loads
only what its command uses: `--version` and `bounds` never load numpy,
and json loads only where JSON is written.  Digests (matrix_sha256 and
the manifest hashes) come from CPython's built-in SHA-256, so no
command maps OpenSSL's libcrypto.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time

from . import __version__, _sha256_hex
from .errors import DEFAULT_SUBSET_BUDGET, BudgetExceededError

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_ERROR = 2
EXIT_SOFTWARE = 70  # EX_SOFTWARE of sysexits.h: an internal error, never a verdict
EXIT_BROKEN_PIPE = 128 + 13  # as if killed by SIGPIPE, the shell's code for `cmd | head`
MAX_TABLE_CELLS = 100_000  # bounds --table takes about 4 s and prints 3 MB at this size


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by os.path.samefile when both exist, else by resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _manifest(args, inputs: list[str], output_sha256: str, elapsed: float) -> str:
    import json
    from pathlib import Path

    manifest = {
        "tool": "normbch",
        "version": __version__,
        "subcommand": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in ("command", "func", "json")},
        "seed": getattr(args, "seed", None),
        "inputs": {p: _sha256_hex(Path(p).read_bytes()) for p in inputs},
        "outputs": {args.out: output_sha256},
        "elapsed_s": round(elapsed, 6),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _text(value):
    """A record value ready for str.format: bools in lower case, a dict as
    name:count,..., a list comma-joined; anything else as it is."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, dict):
        value = [f"{name}:{count}" for name, count in value.items()]
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value


def _emit(record: dict, layout: dict, as_json: bool) -> tuple[str, str]:
    """The record's text, and what stdout shows: that text, or the record as
    JSON when as_json.  The text has one line per record key, in record
    order: key=value, unless the layout maps the key to its own line, or to
    "" for none."""
    fields = {key: _text(value) for key, value in record.items()}
    lines = (layout.get(key, f"{key}={{{key}}}") for key in record)
    text = "".join(line.format_map(fields) + "\n" for line in lines if line)
    if not as_json:
        return text, text
    import json

    return text, json.dumps(record, indent=2, sort_keys=True) + "\n"


def cmd_gencode(args) -> tuple:
    from .construct import augmented_matrix, bch_matrix, validate_params

    params = validate_params(args.q, args.m, args.d, relaxed=args.relaxed)
    if not params.valid:
        raise ValueError("invalid parameters: " + "; ".join(params.violations))
    matrix = bch_matrix(params) if args.bch_only else augmented_matrix(params)
    text = matrix.to_text()  # rendered once: matrix_sha256 is its one hash, which the manifest reuses
    record = dict(out=args.out, n=matrix.n, rows=matrix.row_count, rank=matrix.rank(),
                  dimension=matrix.dimension(), blocks=dict(matrix.blocks), matrix_sha256=_sha256_hex(text.encode()))
    _, shown = _emit(record, {"out": "wrote {out}", "n": "n={n} rows={rows} rank={rank} dimension={dimension}",
                              "rows": "", "rank": "", "dimension": ""}, args.json)
    return EXIT_OK, shown, (text, record["matrix_sha256"])


def cmd_verify_distance(args) -> tuple:
    from .construct import read_matrix_file
    from .verify import min_distance_at_least

    matrix = read_matrix_file(args.matrix)
    cert = min_distance_at_least(matrix, args.d, budget=args.budget, threads=args.threads)
    record = dict(verdict=cert.verdict, distance_bound=cert.distance_bound, matrix_sha256=cert.matrix_sha256,
                  subset_count=cert.subset_count, subsets_examined=cert.subsets_examined,
                  threads=cert.threads, elapsed_s=round(cert.elapsed_s, 6))
    if cert.counterexample is not None:
        cw = cert.counterexample
        record.update(counterexample_positions=list(cw.support), counterexample_coeffs=list(cw.coeffs),
                      counterexample_weight=cw.weight)
    text, shown = _emit(record, {"elapsed_s": "elapsed_s={elapsed_s:.3f}"}, args.json)
    return (EXIT_OK if cert.certified else EXIT_COUNTEREXAMPLE), shown, (text, None)


def cmd_check_lines(args) -> tuple:
    from .construct import validate_params
    from .lines import verify_lines_theorem

    params = validate_params(args.q, args.m, args.d, relaxed=args.relaxed)
    report = verify_lines_theorem(params, experimental=args.experimental)
    record = dict(q=args.q, m=args.m, d=args.d, weight=report.weight, subset_count=report.subset_count,
                  words_found=report.words_found, on_line=report.on_line,
                  violations=report.violation_count, theorem_applies=report.theorem_applies)
    text, shown = _emit(record, {"q": "q={q} m={m} d={d}", "m": "", "d": ""}, args.json)
    return (EXIT_OK if report.violation_count == 0 else EXIT_COUNTEREXAMPLE), shown, (text, None)


def _bound_record(report) -> dict:
    from .bounds import format_bound

    return {
        "q": report.q, "d": report.d,
        "hamming_lower": report.hamming_lower, "varshamov_upper": report.varshamov_upper,
        "gilbert_upper": report.gilbert_upper, "bch_upper": report.bch_upper,
        "new_upper": format_bound(report.new_upper),
        **{f"special_{label}": format_bound(value) for value, label in report.special},
        "best_upper": format_bound(report.best_upper), "best_source": report.best_source,
        "exact": report.exact, "consistent": report.consistent,
    }


def _table_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not (sep and lo.isdecimal() and hi.isdecimal()):
        raise ValueError("table ranges look like qmin..qmax dmin..dmax")
    if int(lo) > int(hi):
        raise ValueError(f"table range {text} is empty: its lower end exceeds its upper end")
    return range(int(lo), int(hi) + 1)


def cmd_bounds(args) -> tuple:
    from .bounds import best_known, bounds_table

    if args.table:
        q_range, d_range = (_table_range(t) for t in args.table)
        cells = (q_range.stop - q_range.start) * (d_range.stop - d_range.start)  # len() overflows past 2^63
        if cells > MAX_TABLE_CELLS:
            raise BudgetExceededError(cells, MAX_TABLE_CELLS, what="table cells")
        reports = (best_known(q, d) for q in q_range for d in d_range)
        if args.json:
            import json

            table = json.dumps([_bound_record(report) for report in reports], indent=2, sort_keys=True)
        else:
            table = bounds_table(reports)
        return EXIT_OK, table + "\n", None
    if args.q is None or args.d is None:
        raise ValueError("either --q and --d, or --table, is required")
    layout = {"q": "q={q} d={d}", "d": "", "best_source": "", "consistent": "",
              "best_upper": "best_upper={best_upper} [{best_source}]"}
    _, shown = _emit(_bound_record(best_known(args.q, args.d)), layout, args.json)
    return EXIT_OK, shown, None


def cmd_reduce(args) -> tuple:
    from .reduce import read_codeword_list, reduce_alphabet

    try:
        subset = [int(t) for t in args.subset.split(",")]
    except ValueError:
        form = "comma-separated integers such as 0,1,2"
        raise ValueError(f"--subset takes {form}, got {args.subset!r}") from None
    code = read_codeword_list(args.input, args.q2)
    try:
        result = reduce_alphabet(code, subset, trials=args.trials, seed=args.seed)
    except BudgetExceededError as exc:
        if args.trials is None:
            exc.args = (f"{exc}; pass --trials to sample instead",)
        raise
    record = dict(mode=result.mode, shift=list(result.shift), achieved=result.achieved,
                  average=result.average, floor=result.floor, guaranteed=result.guaranteed,
                  subcode_size=len(result.subcode.words))
    _, shown = _emit(record, {"average": "average={average:.4f}"}, args.json)
    return EXIT_OK, shown, (result.subcode.to_text(), None) if args.out else None


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors reported on one stderr line."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    about = ("Build, certify and check norm-augmented extended BCH codes.  Exit codes: 0 success, 1 counterexample, "
             "2 usage, parameter, file or budget error, 70 internal error, 141 stdout closed by its reader.")
    parser = _Parser(prog="normbch", description=about)
    parser.add_argument("--version", action="version", version=f"normbch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, each declared once; a subcommand takes them as parents.
    shared = {name: _Parser(add_help=False) for name in ("params", "out", "json")}
    for flag in ("--q", "--m", "--d"):
        shared["params"].add_argument(flag, type=int, required=True)
    shared["params"].add_argument("--relaxed", action="store_true", help="use the divisor rule for m")
    shared["out"].add_argument("--out", default=None, help="also write the result to this file, with a manifest")
    shared["json"].add_argument("--json", action="store_true")

    def command(name, func, about, *options):
        p = sub.add_parser(name, help=about, parents=[shared[option] for option in (*options, "json")])
        p.set_defaults(func=func)
        return p

    p = command("gencode", cmd_gencode, "build a parity check matrix file", "params")
    p.add_argument("--out", required=True)
    p.add_argument("--bch-only", action="store_true", help="skip the norm rows")

    p = command("verify-distance", cmd_verify_distance, "certify distance >= d by exhaustive word search", "out")
    p.add_argument("--matrix", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--threads", type=int, default=1,
                   help="recorded in the certificate; does not change the work")

    p = command("check-lines", cmd_check_lines, "validate the affine-line structure of minimum words", "params", "out")
    p.add_argument("--experimental", action="store_true",
                   help="run even when the hypotheses fail; results are reported, not asserted")

    p = command("bounds", cmd_bounds, "redundancy-coefficient bounds for (q, d)")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--table", nargs=2, metavar=("QMIN..QMAX", "DMIN..DMAX"), default=None)

    p = command("reduce", cmd_reduce, "shift a code into a sub-alphabet", "out")
    p.add_argument("--input", required=True, help="codeword list, one vector per line")
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--subset", required=True, help="comma separated symbols, e.g. 0,1,2")
    p.add_argument("--trials", type=int, default=None, help="sample this many shifts instead of all")
    p.add_argument("--seed", type=int, default=0)
    return parser


def pipe_safe(run) -> int:
    """run()'s exit code once stdout is flushed.  An OSError from either, such as a full disk or an --out
    path that cannot be written, gives EXIT_ERROR with one `file error:` line; a closed stdout gives
    EXIT_BROKEN_PIPE, quietly, as when its reader exited early (`| head`).  An unbuffered stdout drops what
    a short write leaves, so run writes through a line-buffered one, whose writes complete or raise."""
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.FileIO):
        raw = io.FileIO(stdout.fileno(), "w", closefd=False)
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), stdout.encoding, stdout.errors, line_buffering=True)
    try:
        code = run()
        sys.stdout.flush()  # so a failed stdout shows here, not at a later flush
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    finally:
        try:
            sys.stdout.flush()
        except OSError:  # stdout keeps bytes it cannot write: point it at devnull, so no later flush fails on them
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stdout = stdout
    return code


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help or --version, 2 on a usage error
        return int(exc.code) if exc.code else EXIT_OK
    out = getattr(args, "out", None)
    paths = [] if out is None else [out, out + ".manifest.json"]  # an empty --out is a file error too
    inputs = [getattr(args, key) for key in ("matrix", "input") if hasattr(args, key)]
    for path in paths:
        if any(_same_file(path, source) for source in inputs):
            raise OSError(f"{path} is an input of this run, so the run would overwrite it")
    created = [path for path in paths if not os.path.exists(path)]
    try:
        with contextlib.ExitStack() as stack:
            # Opened first, so an unwritable path fails before the work; "a"
            # keeps what a file held until its bytes are ready.
            files = [stack.enter_context(open(path, "ab")) for path in paths]
            started = time.perf_counter()
            code, stdout, written = args.func(args)
            if files:
                text, sha256 = written
                data = text.encode()
                manifest = _manifest(args, inputs, sha256 or _sha256_hex(data), time.perf_counter() - started)
                for fh, blob in zip(files, (data, manifest.encode())):
                    fh.truncate(0)
                    fh.write(blob)
    except BaseException:
        for path in filter(os.path.exists, created):  # a failed run leaves no file of its own
            os.remove(path)
        raise
    sys.stdout.write(stdout)
    return code


def main(argv=None) -> int:
    try:
        return pipe_safe(lambda: _run(argv))
    except BudgetExceededError as exc:
        message = f"budget exceeded: {exc}"
    except ValueError as exc:
        message = f"parameter error: {exc}"
    except Exception:  # a bug, such as a failed self-check, or memory ran out
        import traceback  # here alone, so start-up loads no more
        traceback.print_exc()
        return EXIT_SOFTWARE
    print(message, file=sys.stderr)
    return EXIT_ERROR


def exit_process(code: int) -> None:
    """End the process with code at once: flush stderr, ignoring a failed flush, then os._exit.  This skips
    interpreter teardown (atexit handlers, finalizers and the collector's passes over what numpy left), so
    only entry points call it, after pipe_safe has flushed stdout or reported why it could not."""
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


def cli_entry() -> None:
    exit_process(main())


if __name__ == "__main__":
    cli_entry()
