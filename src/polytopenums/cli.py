"""Command-line interface: sequence tables, decompositions, verification.

`cli` parses, dispatches to `checks` (the `FAMILIES` rows, each coefficient
route, `SUITES`) and `oracle`, renders and exits; it holds no formula, grid
or family name.  `seq` renders each format from its columns (n, value,
interior, match); `checks.formula_columns` and `oracle.oracle_table` each
give theirs for --from..--to in one call.  Every format fills one row
template, `%s` for each cell, so the int columns stay ints and are
converted inside one `%` per block of rows (the bytes one `%` per row
would give): JSON rows the bytes
`json.dumps(indent=2, sort_keys=True)` would give, CSV and b-file rows
their separators, table rows each column but the last left-justified to
its width, which for integers is that of its min or its max (or of its
name).  All output goes through `_write`: each `seq` table and `decompose`
result is built in memory and written in one call, `verify` writes one
suite at a time.  Every suite yields runs; `verify` counts a run's rows
times its checks and decides each check in one C-level pass over its two
sides; it builds records only for a run with a failing row, and prints
their FAIL lines in the suite's order.
Output has no digit limit: `main` lifts the interpreter's limit on
`str(int)` while a command runs.

Exit codes: 0 success, 1 verification failure or route mismatch, 2 usage
error, 3 internal error: any other exception, reported on stderr as
``polytopenums: internal error: <Type>: <message>``, and 141 (128 +
SIGPIPE) when the reader closes stdout early, as ``... | head`` does: the
output just ends, with nothing on stderr.  Output is deterministic; big
integers are emitted as decimal strings in JSON so downstream consumers
never overflow.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys

from . import checks, identities, oracle

FAMILIES = tuple(checks.FAMILIES)
ROUTES = ("formula", "oracle", "both")
FORMATS = ("table", "csv", "json", "bfile")
# Rows `seq` formats with one `%`: one per row pays a call and a tuple each,
# one per table a template that grows with --to.
_BLOCK_ROWS = 256


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at first use and shared by every `main` call.

    Help and usage wrap at a fixed 78 columns, argparse's own width on an
    80-column terminal, so usage errors do not depend on `COLUMNS`.
    """
    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="polytopenums",
        description="Exact polytope number sequences, decompositions and verification.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="emit a sequence as a table, CSV, JSON or b-file",
                         formatter_class=formatter)
    seq.add_argument("--family", choices=FAMILIES, required=True)
    seq.add_argument("-d", type=int, required=True, help="ambient dimension")
    seq.add_argument("-r", type=int, default=None, help="rectification level")
    seq.add_argument("--from", dest="n_from", type=int, default=1, help="first index (default 1)")
    seq.add_argument("--to", dest="n_to", type=int, required=True, help="last index")
    seq.add_argument("--route", choices=ROUTES, default=None,
                     help="evaluation path (default: formula; oracle family always recurses)")
    seq.add_argument("--format", choices=FORMATS, default="table")
    seq.add_argument("--interior", action="store_true", help="also emit interior counts")

    dec = sub.add_parser("decompose", help="simplex-basis coefficients via every route",
                         formatter_class=formatter)
    mode = dec.add_mutually_exclusive_group(required=True)
    mode.add_argument("--lambda", dest="mode_rectified", action="store_true",
                      help="decompose the r-rectified d-simplex sequence")
    mode.add_argument("--shift", dest="mode_shift", action="store_true",
                      help="decompose the stretched sequence with parameters a, b")
    dec.add_argument("-d", type=int, required=True)
    dec.add_argument("-r", type=int, default=None)
    dec.add_argument("-a", type=int, default=None)
    dec.add_argument("-b", type=int, default=None)
    dec.add_argument("--format", choices=("table", "csv", "json"), default="table")

    ver = sub.add_parser("verify", help="run the verification suites", formatter_class=formatter)
    ver.add_argument("--suite", choices=(*checks.SUITES, "all"), default="all")
    ver.add_argument("--grid", default=None, help="identity grid config file")
    ver.add_argument("--d-max", type=int, help="lowers the default grids' d axis; never raises it")
    ver.add_argument("--n-max", type=int, help="lowers the default grids' n axis; never raises it")
    ver.add_argument("--a-max", type=int, help="lowers the default a axis, 1..5; never raises it")
    ver.add_argument("--b-max", type=int, help="lowers the default b axis, 0..5; never raises it")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"seq": _cmd_seq, "decompose": _cmd_decompose, "verify": _cmd_verify}
    # Values run past str()'s 4300-digit limit (Python 3.10.7+): lift it for the command.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = commands[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Later flushes of the unsent rest go to devnull, so the interpreter
        # prints no "Exception ignored" on its way out.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except Exception as exc:  # a bug, not a failed check: never exit 1 for it
        sys.stderr.write(f"polytopenums: internal error: {type(exc).__name__}: {exc}\n")
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write(text: str) -> None:
    """Write text to sys.stdout as it is now (tests swap it).

    Unbuffered stdout (python -u) writes straight to the raw file, whose
    write stops short when the reader closes the pipe mid-write; the text
    layer ignores that count, so the rest is lost and the run exits 0.  A
    stream with a byte buffer therefore gets the encoded text there, after
    its text layer is flushed, each write resumed from the count the last
    one returned: the write after the close raises, and the run exits 141."""
    out = sys.stdout
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]


# --- seq -------------------------------------------------------------------


def _validate_seq(args, error) -> tuple[str, bool]:
    """The route and whether interiors are printed, or a usage error from the family's row."""
    family = checks.FAMILIES[args.family]
    route = args.route or ("formula" if family.values else "oracle")
    want_interior = args.interior or family.values is None
    if family.values is None and route != "oracle":
        error(f"family {args.family} always evaluates by recursion; drop --route")
    if family.r == "required" and args.r is None:
        error(f"family {args.family} requires -r")
    if family.r == "refused" and args.r is not None:
        error(f"family {args.family} takes no -r")
    if args.r is not None and args.r < 0:
        error("-r must be nonnegative")
    if args.d < family.d_min:
        error("-d must be positive" if family.d_min else "-d must be nonnegative")
    if args.r is not None and route != "formula" and not args.r < args.d:
        error("recursive evaluation needs 0 <= r < d")
    if args.n_from < 0 or args.n_to < args.n_from:
        error("need 0 <= --from <= --to")
    if args.format == "bfile" and (route == "both" or want_interior):
        error("bfile output holds a single plain sequence; no match or interior columns")
    if args.interior and family.interiors is None and route != "oracle":
        error(f"family {args.family} has interior counts only via --route oracle")
    return route, want_interior


def _cmd_seq(args, parser) -> int:
    route, want_interior = _validate_seq(args, parser.error)
    family, d, r, n_from, n_to = args.family, args.d, args.r, args.n_from, args.n_to

    if route != "oracle":
        formula = checks.formula_columns(family, d, r, n_from, n_to, want_interior)
    if route != "formula":
        recursion = oracle.oracle_table(checks.family_descriptor(family, d, r), n_from, n_to)
    values, interiors = recursion if route == "oracle" else formula

    columns = {"n": range(n_from, n_to + 1), "value": values}
    if want_interior:
        columns["interior"] = interiors
    if route == "both":  # a row matches when each printed column does
        kept = 2 if want_interior else 1
        columns["match"] = list(map(operator.eq, zip(*formula[:kept]), zip(*recursion[:kept])))
    _emit_rows(args, route, columns)
    return 0 if all(columns.get("match", ())) else 1


def _emit_rows(args, route: str, columns: dict) -> None:
    names = sorted(columns) if args.format == "json" else list(columns)
    # Only match becomes strings; `%s` converts the int columns in each block's one `%`.
    data = [["true" if ok else "false" for ok in columns[name]] if name == "match"
            else columns[name] for name in names]
    if args.format == "json":
        query = {
            "family": args.family,
            "d": args.d,
            "r": args.r,
            "from": args.n_from,
            "to": args.n_to,
            "route": route,
            "interior": "interior" in columns,
        }
        # Each row as json.dumps(indent=2, sort_keys=True) lays it out: keys
        # in sorted order, values and interiors as quoted decimal strings.
        template = "    {\n" + ",\n".join(
            f'      "{name}": ' + ('"%s"' if name in ("value", "interior") else "%s")
            for name in names) + "\n    }"
        head = json.dumps({"query": query}, indent=2, sort_keys=True)[:-2] + ',\n  "rows": [\n'
        sep, tail = ",\n", "\n  ]\n}\n"  # the [:-2] drops the query's closing "\n}"
    elif args.format == "bfile":
        head, template, sep, tail = "", "%s %s", "\n", "\n"
    else:
        if args.format == "csv":
            template = ",".join(["%s"] * len(names))
        else:
            # An integer column's longest decimal is at its min or its max.
            # The last column is never padded, so no line needs an rstrip.
            widths = [max(len(name), len(str(min(column))), len(str(max(column))))
                      for name, column in zip(names[:-1], data)]
            template = "".join(f"%-{width}s  " for width in widths) + "%s"
        head, sep, tail = template % tuple(names) + "\n", "\n", "\n"
    ncols, count = len(data), len(data[0])
    blocks = []
    for start in range(0, count, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, count - start)
        cells = [None] * (ncols * rows)  # the block's cells, row by row
        for i, column in enumerate(data):
            cells[i::ncols] = column[start:start + rows]
        blocks.append(sep.join([template] * rows) % tuple(cells))
    _write(head + sep.join(blocks) + tail)


# --- decompose ---------------------------------------------------------------


def _cmd_decompose(args, parser) -> int:
    if args.d < 1:
        parser.error("-d must be positive")
    if args.mode_rectified:
        if args.r is None:
            parser.error("--lambda requires -r")
        if args.a is not None or args.b is not None:
            parser.error("--lambda takes no -a/-b")
        if not 0 <= args.r < args.d:
            parser.error("--lambda requires 0 <= r < d")
        routes = checks.rectified_routes(args.d, args.r)
        label = f"lambda d={args.d} r={args.r}"
    else:
        if args.a is None or args.b is None:
            parser.error("--shift requires -a and -b")
        if args.r is not None:
            parser.error("--shift takes no -r")
        if args.a < 1 or args.b < 0:
            parser.error("--shift requires a >= 1 and b >= 0")
        routes = checks.shift_routes(args.d, args.a, args.b)
        label = f"shift d={args.d} a={args.a} b={args.b}"

    vectors = list(routes.values())
    agree = all(v == vectors[0] for v in vectors)

    if args.format == "json":
        payload = {
            "decomposition": label,
            "coefficients": [str(c) for c in vectors[0]] if agree else None,
            "routes": {name: [str(c) for c in vec] for name, vec in routes.items()},
            "routes_agree": agree,
        }
        lines = [json.dumps(payload, indent=2, sort_keys=True)]
    elif args.format == "csv":
        lines = ["route," + ",".join(f"c{j}" for j in range(len(vectors[0])))]
        lines += [name + "," + ",".join(str(c) for c in vec) for name, vec in routes.items()]
    else:
        width = max(len(name) for name in routes)
        lines = [f"{name.ljust(width)}  [{', '.join(str(c) for c in vec)}]"
                 for name, vec in routes.items()]
        lines.append(f"routes agree: {'yes' if agree else 'NO'}")
    _write("\n".join(lines) + "\n")
    return 0 if agree else 1


# --- verify ------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    for flag in ("d_max", "n_max", "a_max", "b_max"):
        if (getattr(args, flag) or 0) < 0:
            parser.error(f"--{flag.replace('_', '-')} must be nonnegative")
    names = [name for name in checks.SUITES if args.suite in (name, "all")]
    read = {option for name in names for option in checks.SUITES[name][1]}
    given = {option: getattr(args, option)
             for option in ("grid", "d_max", "n_max", "a_max", "b_max")}
    for option, value in given.items():
        if value is not None and option not in read:
            parser.error(f"--{option.replace('_', '-')} has no effect on --suite {args.suite}")
    if args.a_max == 0:  # the shift index a starts at 1, as in decompose --shift
        parser.error("--a-max must be positive")
    if args.n_max == 0:  # every column and identity check starts at n = 1
        parser.error("--n-max must be positive")
    if "grid" in read:
        try:
            given["grid"] = (identities.load_grid(args.grid) if args.grid is not None
                             else identities.default_grid())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load identity grid: {exc}")

    # Refuse bounds that leave a suite empty, a vacuous pass, before any suite runs.  A run
    # is false when it has no rows, so the first true run holds the first check.
    suites = []
    for name in names:
        body, options = checks.SUITES[name]
        runs = body(*(given[option] for option in options))
        first = next(filter(None, runs), None)
        if first is None:
            parser.error(f"suite {name} has no checks within the given bounds")
        header = f"{len(given['grid'])} identities, " if name == "identities" else ""
        suites.append((name, header, itertools.chain([first], runs)))

    any_failures = False
    for name, header, runs in suites:
        count, failures = 0, []
        for run in runs:  # records built only for a run with a failing row
            count += len(run)
            failures += run.failures()
        _write(f"{name}: {header}{count} checks, {len(failures)} failures\n"
               + "".join(f"  FAIL {check.describe()}\n" for check in failures))
        any_failures = any_failures or bool(failures)

    _write(f"verify: {'FAIL' if any_failures else 'PASS'}\n")
    return 1 if any_failures else 0
