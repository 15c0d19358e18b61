"""Correctness checks on what each op prints, and its work units.

Checks run outside every timed region.  They parse the CLI output in each
format and compare it with routes that did not produce it: the oracle
recursion for closed-form rows, plain binomials and powers for oracle rows,
and recombination over simplex shifts for decomposition coefficients.
``check_output`` returns None when the output is right, else a reason.
"""
from __future__ import annotations

import json
import math

from polytopenums import oracle
from polytopenums.rectified import rectified_simplex_interior, rectified_simplex_number
from polytopenums.regular import cross_polytope_number

from workloads import VERIFY_CHECKS

# Rows compared against the oracle route lie at n <= ORACLE_N, evaluated in
# ascending order so the recursion stays shallow.
ORACLE_N = 40

SEQ_COLUMNS = ["n", "value", "interior", "match"]


def work_units(op: dict, text: str) -> int:
    """Table rows for seq, printed coefficients for decompose, checks for verify.

    Output that does not parse counts no units; the checks report it.
    """
    if op["kind"] == "seq":
        return op["to"] - op["from"] + 1
    try:
        if op["kind"] == "decompose":
            return sum(len(vec) for vec in parse_decompose(op["format"], text)[0].values())
        return sum(parse_verify(text).values())
    except (ValueError, KeyError, IndexError):
        return 0


def parse_verify(text: str) -> dict[str, int]:
    counts = {}
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and " checks, " in rest:
            counts[name] = int(rest.split(" checks, ")[0].split()[-1])
    return counts


def parse_rows(fmt: str, text: str) -> tuple[list[str], list[dict]]:
    """(columns, rows) of a seq table in any output format."""
    lines = text.splitlines()
    if fmt == "json":
        payload = json.loads(text)
        rows = payload["rows"]
        # JSON keys are sorted; report them in the order the other formats use.
        columns = sorted(rows[0], key=SEQ_COLUMNS.index) if rows else []
        return columns, [_typed(row) for row in rows]
    if fmt == "bfile":
        columns = ["n", "value"]
        return columns, [_typed(dict(zip(columns, line.split()))) for line in lines]
    split = (lambda line: line.split(",")) if fmt == "csv" else str.split
    columns = split(lines[0])
    return columns, [_typed(dict(zip(columns, split(line)))) for line in lines[1:]]


def _typed(row: dict) -> dict:
    return {key: (value if isinstance(value, bool) else
                  value == "true" if key == "match" else int(value))
            for key, value in row.items()}


def parse_decompose(fmt: str, text: str) -> tuple[dict[str, list[int]], bool]:
    """(coefficient vector per route, whether the CLI says they agree)."""
    if fmt == "json":
        payload = json.loads(text)
        routes = {name: [int(c) for c in vec] for name, vec in payload["routes"].items()}
        return routes, payload["routes_agree"] is True
    lines = text.splitlines()
    if fmt == "csv":
        routes = {}
        for line in lines[1:]:
            name, *cells = line.split(",")
            routes[name] = [int(c) for c in cells]
        vectors = list(routes.values())
        return routes, all(v == vectors[0] for v in vectors)
    routes = {}
    for line in lines[:-1]:
        name, _, vec = line.partition("  [")
        routes[name.strip()] = [int(c) for c in vec.rstrip("]").split(", ") if c]
    return routes, lines[-1] == "routes agree: yes"


def check_output(op: dict, text: str) -> str | None:
    try:
        if op["kind"] == "seq":
            return _check_seq(op, text)
        if op["kind"] == "decompose":
            return _check_decompose(op, text)
        return _check_verify(text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


def _check_verify(text: str) -> str | None:
    expected = [f"identities: 6 identities, {VERIFY_CHECKS['identities']} checks, 0 failures",
                f"oracle: {VERIFY_CHECKS['oracle']} checks, 0 failures",
                f"decompositions: {VERIFY_CHECKS['decompositions']} checks, 0 failures",
                "verify: PASS"]
    lines = text.splitlines()
    return None if lines == expected else f"verify printed {lines!r}"


def _simplex(d: int, n: int) -> int:
    return math.comb(n + d - 1, d) if n >= 1 else 0


def _descriptor(op: dict):
    family, d, r = op["family"], op["d"], op["r"]
    if family == "beta":
        return oracle.cross_polytope(d)
    if family == "gamma":
        return oracle.hypercube(d)
    if r is not None:
        return oracle.rectified_simplex_descriptor(d, r)
    return oracle.simplex(d)


def _sample(rows: list[dict]) -> list[dict]:
    return [rows[0], rows[len(rows) // 2], rows[-1]]


def _check_seq(op: dict, text: str) -> str | None:
    columns, rows = parse_rows(op["format"], text)
    with_interior = op["interior"] or op["family"] == "oracle"
    want = ["n", "value"] + ["interior"] * with_interior + ["match"] * (op["route"] == "both")
    if columns != want:
        return f"columns {columns}, expected {want}"
    if [row["n"] for row in rows] != list(range(op["from"], op["to"] + 1)):
        return "rows do not cover --from..--to in order"
    if op["route"] == "both":
        bad = [row["n"] for row in rows if not row["match"]]
        return f"route mismatch at n={bad[:5]}" if bad else None
    if op["route"] == "formula":
        return _against_oracle(op, [row for row in rows if row["n"] <= ORACLE_N])
    return _against_closed_forms(op, _sample(rows))


def _against_oracle(op: dict, rows: list[dict]) -> str | None:
    """Closed-form rows against the face-lattice recursion."""
    if not rows:
        return None
    p = _descriptor(op)
    for n in range(1, rows[-1]["n"] + 1):
        oracle.polytope_number(p, n)
        oracle.interior_number(p, n)
    for row in _sample(rows):
        n = row["n"]
        if row["value"] != oracle.polytope_number(p, n):
            return f"value at n={n} differs from the oracle route"
        if "interior" in row and row["interior"] != oracle.interior_number(p, n):
            return f"interior at n={n} differs from the oracle route"
    return None


def _against_closed_forms(op: dict, rows: list[dict]) -> str | None:
    """Oracle rows against closed forms the oracle does not use."""
    family, d, r = op["family"], op["d"], op["r"]
    for row in rows:
        n = row["n"]
        if family == "gamma":
            value, interior = n**d if n >= 1 else 0, (n - 2) ** d if n >= 2 else 0
        elif family == "beta":
            value, interior = cross_polytope_number(d, n), None
        elif r is not None:
            value = rectified_simplex_number(d, r, n)
            interior = rectified_simplex_interior(d, r, n)
        else:
            value, interior = _simplex(d, n), math.comb(n - 2, d) if n >= 2 else 0
        if row["value"] != value:
            return f"value at n={n} differs from the closed form"
        if interior is not None and "interior" in row and row["interior"] != interior:
            return f"interior at n={n} differs from the closed form"
    return None


def _check_decompose(op: dict, text: str) -> str | None:
    routes, agree = parse_decompose(op["format"], text)
    vectors = list(routes.values())
    if len(vectors) != 2 or not agree or vectors[0] != vectors[1]:
        return "routes do not agree"
    coeffs, d = vectors[0], op["d"]
    if op["mode"] == "lambda":
        if len(coeffs) != d:
            return f"{len(coeffs)} coefficients, expected {d}"
        for n in (1, 2, 5, 50):
            if sum(c * _simplex(d, n - j) for j, c in enumerate(coeffs)) \
                    != rectified_simplex_number(d, op["r"], n):
                return f"coefficients do not recombine at n={n}"
        return None
    a, b = op["a"], op["b"]
    first = max(1, -(-(b + a) // a))
    for n in (first, first + 1, first + 7):
        if sum(c * _simplex(d, n - j) for j, c in enumerate(coeffs)) \
                != _simplex(d, a * n - (a - 1) - b):
            return f"coefficients do not recombine at n={n}"
    return None
