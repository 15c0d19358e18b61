"""Command-line interface: sequence tables, decompositions, verification.

Exit codes: 0 success, 1 verification failure or route mismatch, 2 usage
error, 3 internal error: any other exception, reported on stderr as
``polytopenums: internal error: <Type>: <message>``.  Output is
deterministic; big integers are emitted as decimal strings in JSON so
downstream consumers never overflow.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import checks, identities, oracle
from .rectified import (
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior,
    rectified_simplex_number,
    shift_decomposition,
    shift_decomposition_gf,
)
from .regular import (
    cross_polytope_number,
    hypercube_number,
    simplex_interior,
    simplex_number,
)

FAMILIES = ("alpha", "beta", "gamma", "lambda", "oracle")
ROUTES = ("formula", "oracle", "both")
FORMATS = ("table", "csv", "json", "bfile")
SUITES = ("identities", "oracle", "decompositions", "all")


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
    try:
        if args.command == "seq":
            return _cmd_seq(args, parser)
        if args.command == "decompose":
            return _cmd_decompose(args, parser)
        return _cmd_verify(args, parser)
    except Exception as exc:  # a bug, not a failed check: never exit 1 for it
        sys.stderr.write(f"polytopenums: internal error: {type(exc).__name__}: {exc}\n")
        return 3


def entry() -> None:
    sys.exit(main())


# --- seq -------------------------------------------------------------------


def _formula_value(family: str, d: int, r: int | None, n: int) -> int:
    if family == "alpha":
        return simplex_number(d, n)
    if family == "beta":
        return cross_polytope_number(d, n)
    if family == "gamma":
        return hypercube_number(d, n)
    return rectified_simplex_number(d, r, n)


def _formula_interior(family: str, d: int, r: int | None, n: int) -> int:
    if family == "alpha":
        return simplex_interior(d, n)
    return rectified_simplex_interior(d, r, n)


def _oracle_descriptor(family: str, d: int, r: int | None) -> oracle.PolytopeDescriptor:
    if family == "beta":
        return oracle.cross_polytope(d)
    if family == "gamma":
        return oracle.hypercube(d)
    if family in ("lambda", "oracle") and r is not None:
        return oracle.rectified_simplex_descriptor(d, r)
    return oracle.simplex(d)


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
    family, d, r = args.family, args.d, args.r
    want_interior = args.interior or family == "oracle"

    rows = []
    mismatch = False
    descriptor = None
    if route in ("oracle", "both"):
        descriptor = _oracle_descriptor(family, d, r)
        # One fill up to --to; every row below then reads a filled table.
        oracle.polytope_number(descriptor, args.n_to)
    for n in range(args.n_from, args.n_to + 1):
        row: dict[str, object] = {"n": n}
        if route in ("formula", "both"):
            row["value"] = _formula_value(family, d, r, n)
            if want_interior:
                row["interior"] = _formula_interior(family, d, r, n)
        if route in ("oracle", "both"):
            value = oracle.polytope_number(descriptor, n)
            interior = oracle.interior_number(descriptor, n) if want_interior else None
            if route == "both":
                ok = row["value"] == value
                if want_interior:
                    ok = ok and row["interior"] == interior
                row["match"] = ok
                mismatch = mismatch or not ok
            else:
                row["value"] = value
                if want_interior:
                    row["interior"] = interior
        rows.append(row)

    columns = ["n", "value"] + (["interior"] if want_interior else [])
    if route == "both":
        columns.append("match")
    _emit_rows(args, route, rows, columns)
    return 1 if mismatch else 0


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_rows(args, route: str, rows, columns) -> None:
    out = sys.stdout
    if args.format == "bfile":
        out.write("".join(f"{row['n']} {row['value']}\n" for row in rows))
        return
    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        out.write("\n".join(lines) + "\n")
        return
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
        payload_rows = []
        for row in rows:
            item: dict[str, object] = {"n": row["n"], "value": str(row["value"])}
            if "interior" in columns:
                item["interior"] = str(row["interior"])
            if "match" in columns:
                item["match"] = row["match"]
            payload_rows.append(item)
        out.write(json.dumps({"query": query, "rows": payload_rows},
                             indent=2, sort_keys=True) + "\n")
        return
    table = [columns] + [[_cell(row[c]) for c in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    for line in table:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n")


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
        routes = {
            "shift-composition": rectified_decomposition(args.d, args.r),
            "gbinomial": rectified_decomposition_gbinom(args.d, args.r),
        }
        label = f"lambda d={args.d} r={args.r}"
    else:
        if args.a is None or args.b is None:
            parser.error("--shift requires -a and -b")
        if args.r is not None:
            parser.error("--shift takes no -r")
        if args.a < 1 or args.b < 0:
            parser.error("--shift requires a >= 1 and b >= 0")
        routes = {
            "double-sum": shift_decomposition(args.d, args.a, args.b),
            "generating-function": shift_decomposition_gf(args.d, args.a, args.b),
        }
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
    suites = []
    if args.suite in ("identities", "all"):
        try:
            grid = identities.load_grid(args.grid) if args.grid else identities.default_grid()
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load identity grid: {exc}")
        suites.append(("identities", f"{len(grid)} identities, ", checks.identity_checks(grid)))
    if args.suite in ("oracle", "all"):
        suites.append(("oracle", "", checks.oracle_checks(args.d_max, args.n_max)))
    if args.suite in ("decompositions", "all"):
        suites.append(("decompositions", "", checks.decomposition_checks(
            args.d_max, args.n_max, args.a_max, args.b_max)))

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
