"""Command-line interface: sequence tables, decompositions, verification.

`cli` parses, dispatches to `checks` (each family's closed form and oracle
descriptor, each coefficient route, the verify suites) and `oracle`,
renders and exits; it holds no formula.  `seq` renders each format straight
from its columns (n, value, interior, match); `checks.formula_columns` and
`oracle.oracle_table` each give theirs for --from..--to in one call.

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
import itertools
import json
import operator
import os
import sys

from . import checks, identities, oracle

FAMILIES = ("alpha", "beta", "gamma", "lambda", "oracle")
ROUTES = ("formula", "oracle", "both")
FORMATS = ("table", "csv", "json", "bfile")
# The options each verify suite reads; any other given option would be ignored.
SUITE_OPTIONS = {
    "identities": ("grid",),
    "oracle": ("d_max", "n_max"),
    "decompositions": ("d_max", "n_max", "a_max", "b_max"),
}
SUITES = (*SUITE_OPTIONS, "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytopenums",
        description="Exact polytope number sequences, decompositions and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seq = sub.add_parser("seq", help="emit a sequence as a table, CSV, JSON or b-file")
    seq.add_argument("--family", choices=FAMILIES, required=True)
    seq.add_argument("-d", type=int, required=True, help="ambient dimension")
    seq.add_argument("-r", type=int, default=None, help="rectification level")
    seq.add_argument("--from", dest="n_from", type=int, default=1, help="first index (default 1)")
    seq.add_argument("--to", dest="n_to", type=int, required=True, help="last index")
    seq.add_argument("--route", choices=ROUTES, default=None,
                     help="evaluation path (default: formula; oracle family always recurses)")
    seq.add_argument("--format", choices=FORMATS, default="table")
    seq.add_argument("--interior", action="store_true", help="also emit interior counts")

    dec = sub.add_parser("decompose", help="simplex-basis coefficients via every route")
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

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--grid", default=None, help="identity grid config file")
    ver.add_argument("--d-max", type=int, default=None)
    ver.add_argument("--n-max", type=int, default=None)
    ver.add_argument("--a-max", type=int, default=None)
    ver.add_argument("--b-max", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"seq": _cmd_seq, "decompose": _cmd_decompose, "verify": _cmd_verify}
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


def entry() -> None:
    sys.exit(main())


# --- seq -------------------------------------------------------------------


def _validate_seq(args, error) -> str:
    family = args.family
    route = args.route
    if route is None:
        route = "oracle" if family == "oracle" else "formula"
    if family == "oracle" and route != "oracle":
        error("family oracle always evaluates by recursion; drop --route")
    if family == "lambda" and args.r is None:
        error("family lambda requires -r")
    if family in ("alpha", "beta", "gamma") and args.r is not None:
        error(f"family {family} takes no -r")
    if args.r is not None and args.r < 0:
        error("-r must be nonnegative")
    if family == "alpha" or family == "oracle":
        if args.d < 0:
            error("-d must be nonnegative")
    elif args.d < 1:
        error("-d must be positive")
    if family in ("lambda", "oracle") and args.r is not None and route in ("oracle", "both"):
        if not args.r < args.d:
            error("recursive evaluation needs 0 <= r < d")
    if args.n_from < 0 or args.n_to < args.n_from:
        error("need 0 <= --from <= --to")
    if args.format == "bfile" and (route == "both" or args.interior or family == "oracle"):
        error("bfile output holds a single plain sequence; no match or interior columns")
    if args.interior and family in ("beta", "gamma") and route != "oracle":
        error(f"family {family} has interior counts only via --route oracle")
    return route


def _cmd_seq(args, parser) -> int:
    route = _validate_seq(args, parser.error)
    family, d, r, n_from, n_to = args.family, args.d, args.r, args.n_from, args.n_to
    want_interior = args.interior or family == "oracle"

    if route != "oracle":
        values, interiors = checks.formula_columns(family, d, r, n_from, n_to, want_interior)
    if route != "formula":
        recursion_values, recursion_interiors = oracle.oracle_table(
            checks.family_descriptor(family, d, r), n_from, n_to)
        if route == "oracle":
            values, interiors = recursion_values, recursion_interiors

    columns = {"n": range(n_from, n_to + 1), "value": values}
    if want_interior:
        columns["interior"] = interiors
    if route == "both":
        if want_interior:
            formula_rows = zip(values, interiors)
            recursion_rows = zip(recursion_values, recursion_interiors)
        else:
            formula_rows, recursion_rows = values, recursion_values
        columns["match"] = list(map(operator.eq, formula_rows, recursion_rows))
    _emit_rows(args, route, columns)
    return 0 if all(columns.get("match", ())) else 1


def _emit_rows(args, route: str, columns: dict) -> None:
    out = sys.stdout
    names = list(columns)
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
        cells = [map(str, column) if name in ("value", "interior") else column
                 for name, column in columns.items()]
        rows = [dict(zip(names, row)) for row in zip(*cells)]
        out.write(json.dumps({"query": query, "rows": rows}, indent=2, sort_keys=True) + "\n")
        return
    cells = [["true" if ok else "false" for ok in column] if name == "match"
             else list(map(str, column)) for name, column in columns.items()]
    if args.format == "bfile":
        out.write("".join(f"{n} {value}\n" for n, value in zip(*cells)))
    elif args.format == "csv":
        out.write("".join(",".join(row) + "\n" for row in [names, *zip(*cells)]))
    else:
        widths = [max(len(name), *map(len, column)) for name, column in zip(names, cells)]
        for row in [names, *zip(*cells)]:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


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

    out = sys.stdout
    if args.format == "json":
        payload = {
            "decomposition": label,
            "coefficients": [str(c) for c in vectors[0]] if agree else None,
            "routes": {name: [str(c) for c in vec] for name, vec in routes.items()},
            "routes_agree": agree,
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        lines = ["route," + ",".join(f"c{j}" for j in range(len(vectors[0])))]
        lines += [name + "," + ",".join(str(c) for c in vec) for name, vec in routes.items()]
        out.write("\n".join(lines) + "\n")
    else:
        width = max(len(name) for name in routes)
        for name, vec in routes.items():
            out.write(f"{name.ljust(width)}  [{', '.join(str(c) for c in vec)}]\n")
        out.write(f"routes agree: {'yes' if agree else 'NO'}\n")
    return 0 if agree else 1


# --- verify ------------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    for flag in ("d_max", "n_max", "a_max", "b_max"):
        if (getattr(args, flag) or 0) < 0:
            parser.error(f"--{flag.replace('_', '-')} must be nonnegative")
    names = [name for name in SUITE_OPTIONS if args.suite in (name, "all")]
    read = {option for name in names for option in SUITE_OPTIONS[name]}
    for option in ("grid", "d_max", "n_max", "a_max", "b_max"):
        if getattr(args, option) is not None and option not in read:
            parser.error(f"--{option.replace('_', '-')} has no effect on --suite {args.suite}")

    suites = []
    if "identities" in names:
        try:
            grid = identities.load_grid(args.grid) if args.grid else identities.default_grid()
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load identity grid: {exc}")
        suites.append(("identities", f"{len(grid)} identities, ", checks.identity_checks(grid)))
    if "oracle" in names:
        suites.append(("oracle", "", checks.oracle_checks(args.d_max, args.n_max)))
    if "decompositions" in names:
        suites.append(("decompositions", "", checks.decomposition_checks(
            args.d_max, args.n_max, args.a_max, args.b_max)))
    # A suite with no checks would pass vacuously: take each one's first
    # record before any suite runs, and refuse the bounds if there is none.
    for k, (name, header, records) in enumerate(suites):
        first = next(records, None)
        if first is None:
            parser.error(f"suite {name} has no checks within the given bounds")
        suites[k] = (name, header, itertools.chain([first], records))

    out = sys.stdout
    any_failures = False
    for name, header, records in suites:
        count = 0
        failures = []
        for check in records:
            count += 1
            if not check.ok:
                failures.append(check.describe())
        out.write(f"{name}: {header}{count} checks, {len(failures)} failures\n")
        for line in failures:
            out.write(f"  FAIL {line}\n")
        any_failures = any_failures or bool(failures)

    out.write(f"verify: {'FAIL' if any_failures else 'PASS'}\n")
    return 1 if any_failures else 0
