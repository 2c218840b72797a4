#!/usr/bin/env python3
"""Run one normbch CLI command in this process, optionally traced.

Usage: python3 perfbench/inproc.py --src SRC [--trace --spans FILE] -- ARGS...

ARGS are passed to normbch.cli.main exactly as they would be typed after
`python -m normbch.cli`.  The command's stdout and stderr are captured so
the caller can check them, and the wall time around cli.main is taken
with the package already imported.

With --trace, wrappers are installed around the public functions of the
layer modules (field, construct, linalg, verify, cli) before the command
runs.  Each wrapped call becomes a span (name, parent, start, end); the
raw spans are written to --spans and an aggregate per span name (calls,
total seconds, self seconds, items, parent names) is returned.  Nothing
under src/ is edited: the wrappers replace module attributes in this
process only, and every module that imported a function by name gets the
wrapper too.  Process-pool workers forked by a traced command record
spans in their own memory, which is lost, so pool work is not traced.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import sys
import time

LAYERS = ("field", "construct", "linalg", "verify", "cli")


def _batch_size(args, kwargs):
    # batch_ranks(slices, p, inv_t): one matrix per leading index.
    return int(args[0].shape[0])


# Span name -> extractor of a work count from the call's arguments.
ITEM_COUNTS = {"linalg.batch_ranks": _batch_size}


class Tracer:
    """In-memory span recorder; one span per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end, items]
        self.fields: list[dict] = []  # one entry per Field object constructed
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        items = ITEM_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, items(args, kwargs) if items else 0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever it is bound."""
        package = [m for n, m in list(sys.modules.items()) if n == "normbch" or n.startswith("normbch.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"normbch.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for m in package:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, key, wrapped)
        construct = sys.modules["normbch.construct"]
        matrix_cls = construct.ParityCheckMatrix
        matrix_cls.rank = self.wrap("construct.ParityCheckMatrix.rank", matrix_cls.rank)
        # Field construction is counted, not spanned, so the modulus search
        # stays in the self time of field.make_field.
        field_cls = sys.modules["normbch.field"].Field
        field_init = field_cls.__init__
        fields = self.fields

        def counting_init(obj, *args, **kwargs):
            field_init(obj, *args, **kwargs)
            fields.append({"p": obj.p, "degree": obj.degree, "modulus": list(obj.modulus)})

        field_cls.__init__ = counting_init

    def aggregate(self) -> dict:
        """Per span name: calls, total_s, self_s, items and calls by parent name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, parent, start, end, items) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0, "parents": {}})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["items"] += items
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            agg["parents"][parent_name] = agg["parents"].get(parent_name, 0) + 1
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the normbch package")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the raw spans here (with --trace)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    sys.path.insert(0, opts.src)
    cli = importlib.import_module("normbch.cli")
    tracer = Tracer() if opts.trace else None
    if tracer is not None:
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        rc = cli.main(cli_args)
        wall = time.perf_counter() - started
    result = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": wall}
    if tracer is not None:
        result["stats"] = tracer.aggregate()
        result["fields"] = tracer.fields
        if opts.spans:
            with open(opts.spans, "w") as fh:
                json.dump({"columns": ["name", "parent", "start", "end", "items"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
