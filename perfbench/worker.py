"""Call ``primeplane.cli.main`` in this process, optionally traced.

Usage::

    python3 perfbench/worker.py CALLS_JSON OUT_JSON [--seconds S] [--trace]

CALLS_JSON holds a list of ``{"id": ..., "argv": [...]}``.  The calls run
in order, as one closed-loop caller, with stdout captured per call.  With
``--seconds S`` the whole list is repeated for about S seconds (at least
once); otherwise it runs once.  OUT_JSON receives one record per call
(id, start and end on the ``time.perf_counter`` clock, which all processes
share, exit code, stdout sha256, stdout bytes) and, with ``--trace``, the
per-span summary of the traced run.

Tracing wraps public functions from outside the package, under the names
their callers resolve (``search.int_support_masks``, ``bounds.min_line_cover``
and so on), so nothing under ``src/`` changes.  Each span records its name,
start, end and parent; spans stay in memory and are written to
``OUT_JSON`` + ``.spans`` when the calls are done.  A span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import sys
import time
import traceback
from array import array
from contextlib import redirect_stdout

from primeplane import bounds, cli, cyclotomic, fourier, plane, search

# (namespace, attribute, span name).  A namespace is patched where callers
# look the name up: `search` imported `int_support_masks` from `fourier`,
# `search` calls `bounds.evaluate` through the module, and so on.  Calls a
# module makes to its own helpers stay inside the caller's span, so
# `plane.min_line_cover` covers its inner `covered_by_lines` search.
WRAPS = [
    (cli, "main", "cli.main"),
    (cli, "sweep", "search.loop"),
    (cli, "hunt", "search.loop"),
    (cli, "frontier", "search.loop"),
    (cli, "construct", "search.construct"),
    (cli, "classify_exception", "bounds.classify_exception"),
    (bounds, "classify_exception", "bounds.classify_exception"),
    (cli, "min_blocking_size", "plane.min_blocking_size"),
    (search, "int_support_masks", "fourier.int_support_masks"),
    (search, "fourier_transform", "fourier.fourier_transform"),
    (bounds, "fourier_transform", "fourier.fourier_transform"),
    (fourier, "fourier_transform", "fourier.fourier_transform"),
    (bounds, "inverse_transform", "fourier.inverse_transform"),
    (bounds, "min_line_cover", "plane.min_line_cover"),
    (bounds, "covered_by_lines", "plane.covered_by_lines"),
    (bounds, "coset_from_id", "plane.coset_from_id"),
    (bounds, "lines_in_direction", "plane.lines_in_direction"),
    (bounds, "support_profile", "bounds.support_profile"),
    (search.SearchSpace, "values_at", "search.decode"),
    (search.SearchSpace, "int_values_at", "search.decode"),
    # witness rendering decodes its candidate again; the span keeps those
    # decodes out of search.candidates
    (search.SearchSpace, "literal_at", "search.render"),
    (cyclotomic.CycNum, "__init__", "cyclotomic.cycnum_new"),
    (cyclotomic.CycNum, "__mul__", "cyclotomic.mul"),
    (cyclotomic.CycNum, "__rmul__", "cyclotomic.mul"),
] + [(bounds, name, "bounds.check") for name, fn in vars(bounds).items()
     if name.startswith("check_") and getattr(fn, "__module__", None) == bounds.__name__]


class Tracer:
    """In-memory span recorder; install() patches WRAPS in place."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: (s_mask, x_mask) pairs returned by int_support_masks in this process
        self.support_pairs: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name_of):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_of(args))
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[i] = clock()

        return wrapper

    def install(self) -> None:
        wrapped: dict = {}
        for owner, attr, span in WRAPS:
            fn = getattr(owner, attr, None)
            if fn is None:
                print(f"worker: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
                continue
            if (id(fn), span) not in wrapped:
                sid = self._id(span)
                wrapped[(id(fn), span)] = self._span(fn, lambda args, sid=sid: sid)
            setattr(owner, attr, wrapped[(id(fn), span)])

        bounds.evaluate = self._span(bounds.evaluate,
                                     lambda args: self._id(f"bounds.evaluate.{args[0]}"))

        masks = search.int_support_masks
        pairs = self.support_pairs

        @functools.wraps(masks)
        def recording_masks(*args, **kwargs):
            result = masks(*args, **kwargs)
            pairs.add(result)
            return result

        search.int_support_masks = recording_masks

    def summary(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            self_s[nid] += dur[i] - child[i]
            calls[nid] += 1
        decode, render = self._ids.get("search.decode"), self._ids.get("search.render")
        return {
            "spans": {name: {"self_s": self_s[k], "calls": calls[k]}
                      for k, name in enumerate(self.names)},
            "span_count": n,
            "support_pairs": sorted(self.support_pairs),
            "rendered_decodes": sum(1 for nid, par in zip(self.name, self.parent)
                                    if nid == decode and par >= 0 and self.name[par] == render),
            "pair_exponents_misses": fourier.pair_exponents.cache_info().misses,
            "tables_misses": plane.tables.cache_info().misses,
        }

    def write_spans(self, path: str) -> None:
        """Write spans as four arrays: name ids, parents, starts, ends."""
        with open(path, "wb") as fh:
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(fh)


def run_calls(calls: list, seconds) -> list:
    records = []
    start = pass_start = time.perf_counter()
    while True:
        for call in calls:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(buf):
                try:
                    code = cli.main(call["argv"])
                except Exception:  # a crash is one failed call, not the end of the run
                    traceback.print_exc()
                    code = -1
            t1 = time.perf_counter()
            data = buf.getvalue().encode("utf-8")
            records.append([call["id"], t0, t1, code, hashlib.sha256(data).hexdigest(),
                            len(data)])
        now = time.perf_counter()
        # stop unless the next pass would end less than half a pass past the window
        if seconds is None or now - start + (now - pass_start) / 2 >= seconds:
            return records
        pass_start = now


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("calls")
    parser.add_argument("out")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    with open(args.calls, encoding="utf-8") as fh:
        calls = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records = run_calls(calls, args.seconds)
    result = {"calls": records, "trace": None}
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["names"] = tracer.names
        tracer.write_spans(args.out + ".spans")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
