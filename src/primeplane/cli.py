"""Batch command-line front end.

Subcommands: verify, sweep, hunt, frontier, geometry, classify,
emit-curves.  Every JSON report is one envelope, {version, config,
<result>}, and identical configurations produce byte-identical output.
The config echoes the subcommand, every flag with a value and `theorems`,
over six fixed values (rank, mode, seed, budget, char_twist, jobs) that
appear even on subcommands without those flags, for byte identity with
the digests recorded in perfbench/expected.json.
Exit codes: 0 on success, 2 when a violation witness was found, 64 on
usage errors (bad flags, malformed literals, exceeded ceilings, an
unreadable --file or unwritable --out) and when memory runs out, 70 when
an internal invariant check fails, 75 when the exact minimum line cover
search runs out of its node budget.  `geometry --query blocking-min`
runs no search: it prints the theorem's 2p - 1 with the two axes as its
witness.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from importlib import import_module
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .cyclotomic import check_prime
from .plane import (
    SearchBudgetExceeded,
    bounded_line_direction,
    directions_determined,
    min_blocking_size,
    parse_pointset,
    pencil_stability,
    rich_direction_search,
)

# The modules that only some subcommands run.  A handler imports its modules
# through _load, so that a launch loads only what its subcommand runs.  The
# functions listed with a module are called by their bare names here, so
# that a caller who patches one on this module (a test, the benchmark's
# tracer) is heard.
_LAZY = {
    "bounds": ("classify_exception",),
    "fourier": (),
    "search": ("construct", "frontier", "hunt", "sweep"),
}


def _load(*modules: str) -> None:
    """Import each named module of the package and bind it and its _LAZY
    functions in this module, keeping any name that is bound already."""
    names = globals()
    for module in modules:
        if module not in names:
            names[module] = import_module(f".{module}", __package__)
        for name in _LAZY[module]:
            names.setdefault(name, getattr(names[module], name))


def __getattr__(name: str):
    """A _LAZY name or module, read from outside before a handler loaded it."""
    for module, lazy in _LAZY.items():
        if name == module or name in lazy:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70
EXIT_BUDGET = 75

CEILING_ENV = "PRIMEPLANE_CEILING"

#: emit-curves' largest p; its output grows as p^3, to 4,986,775 rows (159 MB) at p = 211
EMIT_CURVES_MAX_P = 211

# Every report's config has always carried these six values, whatever the
# subcommand (even "rank": 2 on a rank-1 verify), and the recorded report
# digests depend on them; flags given override them.
_CONFIG_DEFAULTS = {"rank": 2, "mode": "exhaustive", "seed": 0, "budget": 10000,
                    "char_twist": False, "jobs": 1}


def _default_checks(func: GFunc) -> List[str]:
    _load("bounds")
    return [spec.name for spec in bounds.CHECKS.values()
            if spec.param is None and not spec.cover_clause and func.rank in spec.ranks
            and func.p >= spec.min_p and (not spec.rational or func.is_rational_valued())]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(chunks: Iterable[str], args) -> None:
    """Write the chunks to --out, or to stdout, as they come."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_report(args, key: str, body) -> None:
    """Write {version, config, key: body} as sorted JSON.  The config is
    _CONFIG_DEFAULTS overlaid with every parsed value that is set, with the
    --theorem list as `theorems`."""
    config = dict(_CONFIG_DEFAULTS)
    config.update((name, value) for name, value in vars(args).items()
                  if value is not None and name not in ("handler", "theorem"))
    if getattr(args, "theorem", None):
        config["theorems"] = args.theorem
    payload = {"version": __version__, "config": config, key: body}
    _emit((json.dumps(payload, indent=2, sort_keys=True) + "\n",), args)


def _ceiling(args) -> int:
    if getattr(args, "ceiling", None) is not None:
        return args.ceiling
    env = os.environ.get(CEILING_ENV)
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"{CEILING_ENV} must be an integer, got {env!r}") from exc
    return search.DEFAULT_CEILING


def _load_function(args) -> GFunc:
    sources = [s for s in (args.function, args.file, args.family) if s]
    if len(sources) != 1:
        raise ValueError("provide exactly one of --function, --file, --family")
    _load("fourier")
    if args.function:
        return fourier.GFunc.from_literal(args.function)
    if args.file:
        return fourier.GFunc.from_literal(Path(args.file).read_text(encoding="utf-8").strip())
    if args.p is None:
        raise ValueError("--family requires --p")
    params = {}
    if args.family == "sharp1d":
        if args.m is None:
            raise ValueError("sharp1d requires --m")
        params["m"] = args.m
    elif args.family == "sharp2d":
        if args.m is None or args.n is None:
            raise ValueError("sharp2d requires --m and --n")
        params.update(m=args.m, n=args.n)
    _load("search")
    return construct(args.family, args.p, **params).func


def _space_from(args) -> SearchSpace:
    if args.p is None:
        raise ValueError("a candidate space requires --p")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and args.subcommand != "sweep":
        raise ValueError(f"{args.subcommand} runs serially; --jobs must be 1, got {args.jobs}")
    alphabet = [s.strip() for s in (args.alphabet or "-1,0,1").split(",") if s.strip()]
    if not alphabet:
        raise ValueError("alphabet must be nonempty")
    return search.make_space(args.p, alphabet=alphabet, rank=args.rank, mode=args.mode,
                             seed=args.seed, budget=args.budget, char_twist=args.char_twist,
                             ceiling=_ceiling(args))


# -- subcommands --------------------------------------------------------------


def _cmd_verify(args) -> int:
    _load("bounds")
    func = _load_function(args)
    names = list(args.theorem) if args.theorem else _default_checks(func)
    params = {"k": args.k, "eps": args.epsilon}
    reports = bounds.verify(func, [(name, params.get(bounds.CHECKS[name].param))
                                   for name in names])
    _emit_report(args, "reports", [r.to_json() for r in reports])
    return EXIT_VIOLATION if any(r.verdict == bounds.VIOLATED for r in reports) else EXIT_OK


def _cmd_classify(args) -> int:
    _load("bounds")
    desc = classify_exception(_load_function(args))
    _emit_report(args, "classification", None if desc is None else desc.to_json())
    return EXIT_OK


# The --points geometry queries, in --query order.  Each result builder
# looks the plane function up when it runs, so a patched module name is seen.
_POINT_QUERIES = {
    "directions": lambda pts: {"directions": sorted(directions_determined(pts)),
                               "size": pts.size},
    "pencil": lambda pts: pencil_stability(pts)._asdict(),
    "rich-direction": lambda pts: {"direction": rich_direction_search(pts), "size": pts.size},
    "bounded-direction": lambda pts: {"direction": bounded_line_direction(pts),
                                      "size": pts.size},
}


def _cmd_geometry(args) -> int:
    if args.query == "blocking-min":
        if args.p is None:
            raise ValueError("blocking-min requires --p")
        size, witness = min_blocking_size(args.p)
        result = {"minimum": size, "witness": witness.literal()}
    elif not args.points:
        raise ValueError(f"query {args.query!r} requires --points")
    else:
        result = _POINT_QUERIES[args.query](parse_pointset(args.points))
    _emit_report(args, "result", result)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _load("search")
    space = _space_from(args)
    if not args.theorem:
        raise ValueError("sweep requires at least one --theorem")
    result = sweep(space, list(args.theorem), k=args.k, eps=args.epsilon, jobs=args.jobs)
    _emit_report(args, "sweep", result.to_json())
    return EXIT_VIOLATION if result.violations else EXIT_OK


def _cmd_hunt(args) -> int:
    _load("search")
    space = _space_from(args)
    if not args.theorem or len(args.theorem) != 1:
        raise ValueError("hunt requires exactly one --theorem")
    result = hunt(args.theorem[0], space, k=args.k, eps=args.epsilon)
    _emit_report(args, "hunt", result.to_json())
    return EXIT_VIOLATION if result.found else EXIT_OK


def _cmd_frontier(args) -> int:
    _load("search")
    result = frontier(_space_from(args))
    if args.format == "json":
        _emit_report(args, "frontier", result.to_json())
    else:
        _emit((result.to_csv(),), args)
    return EXIT_OK


def _curve_rows(p: int) -> Iterator[Tuple[str, int, str]]:
    """Exact sample rows for every bound curve on the integer min-axis grid,
    one at a time."""
    for spec in bounds.CHECKS.values():
        if spec.curve:
            yield from spec.curve(p)
    for s, x in search.attainable_lattice(p):
        yield "lattice", s, str(x)


def _cmd_emit_curves(args) -> int:
    """Write the CSV a row at a time, as the rows are computed."""
    if args.p is None:
        raise ValueError("emit-curves requires --p")
    check_prime(args.p)
    if args.p > EMIT_CURVES_MAX_P:
        raise ValueError(f"emit-curves takes p <= {EMIT_CURVES_MAX_P}, got {args.p}")
    _load("bounds", "search")
    rows = (f"{name},{s},{x}\n" for name, s, x in _curve_rows(args.p))
    _emit(chain(("curve,s,x\n",), rows), args)
    return EXIT_OK


# -- argument wiring ------------------------------------------------------------


def _choice(value: str, registry) -> str:
    """`value` if the registry holds it; otherwise argparse's own error for
    a value outside `choices`, naming the registry's keys in sorted order."""
    if value not in registry:
        choices = ", ".join(map(repr, sorted(registry)))
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def _check_id(value: str) -> str:
    """A verify --theorem value: an id in bounds.CHECKS as it is now."""
    _load("bounds")
    return _choice(value, bounds.CHECKS)


def _family(value: str) -> str:
    """A --family value: a name in search.GALLERY as it is now."""
    _load("search")
    return _choice(value, search.GALLERY)


def _add_function_args(sub):
    sub.add_argument("--function", help="function literal 'p; rank; v0,v1,...'")
    sub.add_argument("--file", help="path to a file holding a function literal")
    sub.add_argument("--family", type=_family, help="construction family name")
    sub.add_argument("--p", type=int, help="prime order (for --family)")
    sub.add_argument("--m", type=int, help="family parameter m")
    sub.add_argument("--n", type=int, help="family parameter n")


def _add_space_args(sub):
    sub.add_argument("--p", type=int, required=True, help="prime order")
    sub.add_argument("--rank", type=int, default=2, choices=(1, 2))
    sub.add_argument("--alphabet", default="-1,0,1",
                     help="comma-separated value literals (default '-1,0,1')")
    sub.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--budget", type=int, default=10000,
                     help="sample count for random mode")
    sub.add_argument("--char-twist", dest="char_twist", action="store_true",
                     help="multiply the alphabet by every character")
    sub.add_argument("--ceiling", type=int, default=None,
                     help=f"candidate ceiling (or ${CEILING_ENV})")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per CPU (sweep only; hunt and "
                          "frontier run serially and accept only 1)")


def _add_common_output(sub):
    sub.add_argument("--out", help="write output to this path instead of stdout")


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The command's parser, built once per process.  It checks a verify
    --theorem or a --family against the registry when it parses one, so a
    check registered later parses too."""
    parser = _Parser(prog="primeplane",
                     description="Exact support-uncertainty toolkit for prime planes.")
    parser.add_argument("--version", action="version", version=f"primeplane {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("verify", parents=[], help="evaluate bounds on one function")
    _add_function_args(sp)
    sp.add_argument("--theorem", action="append", type=_check_id,
                    help="check id (repeatable)")
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--epsilon", default="1/2")
    _add_common_output(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = subs.add_parser("classify", help="recover the exceptional structure of a function")
    _add_function_args(sp)
    _add_common_output(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = subs.add_parser("geometry", help="plane geometry queries")
    sp.add_argument("--query", required=True, choices=("blocking-min", *_POINT_QUERIES))
    sp.add_argument("--p", type=int, help="prime order (blocking-min)")
    sp.add_argument("--points", help="point-set literal 'p; (x,y),...'")
    _add_common_output(sp)
    sp.set_defaults(handler=_cmd_geometry)

    for name, handler, summary, count in (
            ("sweep", _cmd_sweep, "evaluate checks over a candidate space", "repeatable"),
            ("hunt", _cmd_hunt, "search a space for a violation witness", "exactly one")):
        sp = subs.add_parser(name, help=summary)
        _add_space_args(sp)
        sp.add_argument("--theorem", action="append", help=f"check id ({count})")
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--epsilon", default=None)
        _add_common_output(sp)
        sp.set_defaults(handler=handler)

    sp = subs.add_parser("frontier", help="map attained (|S|, |X|) pairs")
    _add_space_args(sp)
    _add_common_output(sp)
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    sp.set_defaults(handler=_cmd_frontier)

    sp = subs.add_parser("emit-curves", help="emit the bound curves as CSV")
    sp.add_argument("--p", type=int, required=True)
    _add_common_output(sp)
    sp.set_defaults(handler=_cmd_emit_curves)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"primeplane: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"primeplane: error: out of memory in {args.subcommand}; "
              f"try a smaller p or space", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"primeplane: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RuntimeError as exc:
        print(f"primeplane: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
