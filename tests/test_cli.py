"""Tests for the command-line interface."""
import inspect
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import output_pins
from polytopenums import checks, cli, exact, identities, oracle, rectified, regular
from polytopenums.identities import IdentityCheck
from polytopenums.rectified import (
    rectified_simplex_interior,
    rectified_simplex_number,
    rectified_simplex_table,
)
from polytopenums.regular import hypercube_table

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def off_columns(family, d, r, n_from, n_to, want_interior):
    """A closed form that is wrong everywhere: 999 in every row."""
    rows = n_to - n_from + 1
    return [999] * rows, [999] * rows if want_interior else None


def scalar_columns(family, d, r, n_from, n_to, want_interior):
    """The formula columns of `seq`, row by row from references that read no table.

    The recursion for every polytope, and for the formal family with
    0 < d < r its pinned values: 1 then 0, interior (-1)**(d+1) then 0.
    """
    ns = range(n_from, n_to + 1)
    if family == "lambda" and r >= d:
        values = [int(n == 1) for n in ns]
        interiors = [(-1) ** (d + 1) if n == 1 else 0 for n in ns]
    else:
        if family == "lambda":
            p = oracle.rectified_simplex_descriptor(d, r)
        else:
            p = {"alpha": oracle.simplex, "beta": oracle.cross_polytope,
                 "gamma": oracle.hypercube}[family](d)
        values = [oracle.polytope_number(p, n) for n in ns]
        interiors = [oracle.interior_number(p, n) for n in ns]
    return values, interiors if want_interior else None


# Every family x format, with and without interiors, formula and both routes,
# from 0 and from 1: each combination `seq` accepts.
SEQ_CASES = [
    (family, d, r, fmt, interior, route, n_from)
    for family, d, r in (("alpha", 0, None), ("alpha", 3, None), ("beta", 4, None),
                         ("gamma", 3, None), ("lambda", 5, 2), ("lambda", 2, 3))
    for fmt in cli.FORMATS
    for interior in (False, True)
    for route in ("formula", "both")
    for n_from in (0, 1)
    if not (interior and family in ("beta", "gamma"))
    and not (fmt == "bfile" and (interior or route == "both"))
    and not (route == "both" and r is not None and r >= d)
]

# Every family with both a formula and an oracle route, in every format, with
# and without interiors where the formula route has them.
CROSS_ROUTE_CASES = [
    (family, d, r, fmt, interior, n_from, n_to)
    for family, d, r in (("alpha", 0, None), ("alpha", 3, None), ("beta", 4, None),
                         ("gamma", 3, None), ("lambda", 5, 2))
    for fmt in cli.FORMATS
    for interior in (False, True)
    for n_from, n_to in ((0, 0), (0, 1), (1, 30))
    if not (interior and (family in ("beta", "gamma") or fmt == "bfile"))
]


# (family, d, r, from, to, route, --interior): `"r": null` and a set r, a
# run from 0 to 0 and one-row runs, interiors (negative ones for the formal
# family r >= d), --route both, and the oracle family.
JSON_CASES = [
    ("beta", 3, None, 1, 3, "formula", False),
    ("alpha", 3, None, 0, 0, "formula", True),
    ("gamma", 4, None, 7, 7, "formula", False),
    ("lambda", 5, 2, 0, 30, "formula", True),
    ("lambda", 2, 3, 0, 4, "formula", True),
    ("alpha", 4, None, 0, 20, "both", True),
    ("lambda", 4, 1, 1, 10, "both", False),
    ("gamma", 3, None, 5, 5, "both", False),
    ("oracle", 3, None, 1, 6, "oracle", False),
    ("oracle", 5, 2, 0, 12, "oracle", True),
]


def seq_json_reference(family, d, r, n_from, n_to, route, interior):
    """`seq --format json` as json.dumps lays it out, from the routes' own columns."""
    want_interior = interior or family == "oracle"
    if route != "oracle":
        formula = checks.formula_columns(family, d, r, n_from, n_to, want_interior)
    if route != "formula":
        recursion = oracle.oracle_table(checks.family_descriptor(family, d, r), n_from, n_to)
    values, interiors = recursion if route == "oracle" else formula
    rows = []
    for k, n in enumerate(range(n_from, n_to + 1)):
        row = {"n": n, "value": str(values[k])}
        if want_interior:
            row["interior"] = str(interiors[k])
        if route == "both":
            columns = 2 if want_interior else 1
            row["match"] = all(formula[c][k] == recursion[c][k] for c in range(columns))
        rows.append(row)
    query = {"family": family, "d": d, "r": r, "from": n_from, "to": n_to, "route": route,
             "interior": want_interior}
    return json.dumps({"query": query, "rows": rows}, indent=2, sort_keys=True) + "\n"


def seq_json_argv(family, d, r, n_from, n_to, route, interior):
    argv = ["seq", "--family", family, "-d", str(d), "--from", str(n_from), "--to", str(n_to),
            "--format", "json"]
    argv += ["-r", str(r)] if r is not None else []
    argv += ["--route", route] if family != "oracle" else []
    return argv + (["--interior"] if interior else [])


def expect_usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


class TestSeq:
    def test_bfile_is_byte_exact(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "lambda", "-d", "3", "-r", "1", "--to", "5",
            "--format", "bfile",
        )
        assert code == 0
        assert out == "1 1\n2 6\n3 19\n4 44\n5 85\n"

    def test_bfile_respects_from(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "alpha", "-d", "2", "--from", "3", "--to", "5",
            "--format", "bfile",
        )
        assert code == 0
        assert out == "3 6\n4 10\n5 15\n"

    def test_table_default(self, capsys):
        code, out = run_cli(capsys, "seq", "--family", "alpha", "-d", "2", "--to", "3")
        assert code == 0
        assert out.splitlines() == ["n  value", "1  1", "2  3", "3  6"]

    def test_csv_with_interior(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "alpha", "-d", "2", "--to", "4",
            "--format", "csv", "--interior",
        )
        assert code == 0
        assert out == "n,value,interior\n1,1,0\n2,3,0\n3,6,0\n4,10,1\n"

    def test_json_values_are_decimal_strings(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "beta", "-d", "3", "--to", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["query"]["family"] == "beta"
        assert payload["rows"] == [
            {"n": 1, "value": "1"},
            {"n": 2, "value": "6"},
            {"n": 3, "value": "19"},
        ]

    def test_route_both_emits_match(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "lambda", "-d", "4", "-r", "1", "--to", "2",
            "--route", "both",
        )
        assert code == 0
        assert out.splitlines() == ["n  value  match", "1  1      true", "2  10     true"]

    def test_route_both_mismatch_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "formula_columns", off_columns)
        code, out = run_cli(
            capsys, "seq", "--family", "alpha", "-d", "2", "--to", "3", "--route", "both",
        )
        assert code == 1
        assert "false" in out

    @pytest.mark.parametrize("family, d, r, fmt, interior, route, n_from", SEQ_CASES)
    def test_columns_print_what_scalar_rows_print(self, capsys, monkeypatch, family, d, r,
                                                  fmt, interior, route, n_from):
        argv = ["seq", "--family", family, "-d", str(d), "--from", str(n_from), "--to", "30",
                "--route", route, "--format", fmt]
        argv += ["-r", str(r)] if r is not None else []
        argv += ["--interior"] if interior else []
        code, out = run_cli(capsys, *argv)
        monkeypatch.setattr(checks, "formula_columns", scalar_columns)
        assert (code, out) == run_cli(capsys, *argv)
        assert code == 0

    @pytest.mark.parametrize("family, d, r, fmt, interior, n_from, n_to", CROSS_ROUTE_CASES)
    def test_oracle_route_prints_what_formula_route_prints(self, capsys, family, d, r, fmt,
                                                           interior, n_from, n_to):
        argv = ["seq", "--family", family, "-d", str(d), "--from", str(n_from),
                "--to", str(n_to), "--format", fmt]
        argv += ["-r", str(r)] if r is not None else []
        argv += ["--interior"] if interior else []
        formula = run_cli(capsys, *argv, "--route", "formula")
        recursion = run_cli(capsys, *argv, "--route", "oracle")
        assert formula[0] == recursion[0] == 0
        if fmt != "json":
            assert recursion[1] == formula[1]
            return
        formula_payload, recursion_payload = json.loads(formula[1]), json.loads(recursion[1])
        assert formula_payload["query"].pop("route") == "formula"
        assert recursion_payload["query"].pop("route") == "oracle"
        assert recursion_payload == formula_payload

    def test_deep_hypercube_needs_no_recursion(self, capsys):
        code, out = run_cli(capsys, "seq", "--family", "gamma", "-d", "600", "--to", "3",
                            "--format", "csv")
        assert code == 0
        assert out == f"n,value\n1,1\n2,{2**600}\n3,{3**600}\n"

    def test_cold_deep_oracle_rows_match(self, capsys):
        oracle.clear_tables()
        code, out = run_cli(
            capsys, "seq", "--family", "lambda", "-d", "3", "-r", "1", "--from", "1500",
            "--to", "1501", "--route", "both",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["1500", "1501"]
        assert [row.split()[-1] for row in rows] == ["true", "true"]

    def test_cold_oracle_table_is_filled_once(self, capsys, monkeypatch):
        fills = []

        def counted(p, n, fill=oracle._filled):
            fills.append(n)
            return fill(p, n)

        oracle.clear_tables()
        monkeypatch.setattr(oracle, "_filled", counted)
        code, out = run_cli(
            capsys, "seq", "--family", "lambda", "-d", "4", "-r", "1", "--to", "300",
            "--route", "oracle", "--interior", "--format", "csv",
        )
        assert code == 0
        assert len(out.splitlines()) == 301
        assert fills == [40]  # the head, max(40, dim + 3); rows past it are extended

    @pytest.mark.parametrize("route", ["oracle", "both"])
    def test_failed_degree_check_is_an_internal_error(self, capsys, monkeypatch, route):
        p = oracle.rectified_simplex_descriptor(4, 1)
        values, interiors = oracle.oracle_table(p, 0, 40)
        monkeypatch.setitem(oracle._tables, p, (values[:40] + [values[40] + 1], interiors))
        code = cli.main(["seq", "--family", "lambda", "-d", "4", "-r", "1", "--from", "38",
                         "--to", "45", "--route", route])
        captured = capsys.readouterr()
        assert code == 3  # never 1: a broken oracle is not a route mismatch
        assert captured.out == ""
        assert captured.err.startswith("polytopenums: internal error: ArithmeticError: ")

    def test_one_patched_oracle_reaches_seq_and_verify(self, capsys, monkeypatch):
        # `seq` and the oracle suite read the recursion through one function.
        real = oracle.oracle_table

        def corrupted(p, n_from, n_to):
            values, interiors = real(p, n_from, n_to)
            if p == oracle.hypercube(3) and n_from <= 2 <= n_to:
                values[2 - n_from] += 1
            return values, interiors

        monkeypatch.setattr(oracle, "oracle_table", corrupted)
        code, out = run_cli(capsys, "seq", "--family", "gamma", "-d", "3", "--to", "3",
                            "--route", "both", "--format", "csv")
        assert code == 1
        assert out == "n,value,match\n1,1,true\n2,8,false\n3,27,true\n"
        failed = [check.describe() for check in checks.oracle_checks(3, 3) if not check.ok]
        assert failed == ["hypercube [d=3 n=2] lhs=9 rhs=8"]

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(p, n_from, n_to):
            raise RuntimeError("table lost")

        argv = ["seq", "--family", "alpha", "-d", "2", "--to", "3", "--route", "both"]
        monkeypatch.setattr(cli.oracle, "oracle_table", broken)
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == "polytopenums: internal error: RuntimeError: table lost\n"
        monkeypatch.undo()
        monkeypatch.setattr(checks, "formula_columns", off_columns)
        assert cli.main(argv) == 1  # a real mismatch still exits 1
        assert capsys.readouterr().err == ""

    def test_oracle_family_reports_interiors(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "oracle", "-d", "3", "-r", "1", "--from", "0",
            "--to", "3", "--format", "csv",
        )
        assert code == 0
        assert out == "n,value,interior\n0,0,0\n1,1,0\n2,6,0\n3,19,1\n"

    def test_oracle_route_for_gamma(self, capsys):
        code, out = run_cli(
            capsys, "seq", "--family", "gamma", "-d", "3", "--to", "4",
            "--route", "oracle", "--format", "csv",
        )
        assert code == 0
        assert out == "n,value\n1,1\n2,8\n3,27\n4,64\n"

    @pytest.mark.parametrize("case", JSON_CASES)
    def test_json_is_what_json_dumps_prints(self, capsys, case):
        code, out = run_cli(capsys, *seq_json_argv(*case))
        assert code == 0
        assert out == seq_json_reference(*case)

    @pytest.mark.parametrize("interior", [False, True])
    def test_json_mismatch_is_what_json_dumps_prints(self, capsys, monkeypatch, interior):
        monkeypatch.setattr(checks, "formula_columns", off_columns)
        case = ("alpha", 2, None, 0, 3, "both", interior)
        code, out = run_cli(capsys, *seq_json_argv(*case))
        assert code == 1
        assert out == seq_json_reference(*case)
        assert '"match": true' not in out

    def test_identical_runs_are_byte_identical(self, capsys):
        argv = ("seq", "--family", "lambda", "-d", "5", "-r", "2", "--to", "8",
                "--format", "json")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_usage_errors(self, capsys):
        # Each case names the rule it breaks: the message shows which one fired.
        for argv, message in [
            (("--family", "lambda", "-d", "3", "--to", "5"),
             "polytopenums: error: family lambda requires -r"),
            (("--family", "alpha", "-d", "2", "-r", "1", "--to", "5"),
             "polytopenums: error: family alpha takes no -r"),
            (("--family", "lambda", "-d", "3", "-r", "-1", "--to", "5"),
             "polytopenums: error: -r must be nonnegative"),
            (("--family", "alpha", "-d", "-1", "--to", "5"),
             "polytopenums: error: -d must be nonnegative"),
            (("--family", "beta", "-d", "0", "--to", "5"),
             "polytopenums: error: -d must be positive"),
            (("--family", "alpha", "-d", "2", "--from", "4", "--to", "2"),
             "polytopenums: error: need 0 <= --from <= --to"),
            (("--family", "nope", "-d", "2", "--to", "5"),
             "polytopenums seq: error: argument --family: invalid choice: 'nope'"),
            (("--family", "alpha", "-d", "2", "--to", "5", "--route", "both", "--format", "bfile"),
             "polytopenums: error: bfile output holds a single plain sequence"),
            (("--family", "beta", "-d", "2", "--to", "5", "--interior"),
             "polytopenums: error: family beta has interior counts only via --route oracle"),
            (("--family", "lambda", "-d", "3", "-r", "4", "--to", "5", "--route", "oracle"),
             "polytopenums: error: recursive evaluation needs 0 <= r < d"),
            (("--family", "oracle", "-d", "3", "--to", "5", "--route", "formula"),
             "polytopenums: error: family oracle always evaluates by recursion; drop --route"),
        ]:
            expect_usage_error("seq", *argv)
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert message in captured.err, argv


@st.composite
def seq_argvs(draw):
    """A `seq` argv that passes every usage rule, as (family, d, r, from, to, route, fmt, interior).

    The rules come from the family's `checks.FAMILIES` row: its smallest d,
    its -r rule, its interior table, and no value table for recursion only.
    """
    family = draw(st.sampled_from(cli.FAMILIES))
    row = checks.FAMILIES[family]
    d = draw(st.integers(row.d_min, 12))
    r = None
    if row.r == "required":
        r = draw(st.integers(0, 14))  # r >= d: the formal family, negative interiors
    elif row.r == "optional" and d >= 1:
        r = draw(st.none() | st.integers(0, d - 1))
    if row.values is None:
        route = None
    else:
        routes = ["formula", "both", "oracle"] if r is None or r < d else ["formula"]
        route = draw(st.sampled_from(routes))
    interior = draw(st.booleans()) and (row.interiors is not None or route in (None, "oracle"))
    formats = list(cli.FORMATS)
    if route == "both" or interior or row.values is None:
        formats.remove("bfile")
    fmt = draw(st.sampled_from(formats))
    n_from = draw(st.integers(0, 200))
    n_to = draw(st.integers(n_from, 200))
    return family, d, r, n_from, n_to, route, fmt, interior


def expected_columns(family, d, r, n_from, n_to, route, interior):
    """The columns `seq` prints, as ints and bools, from the closed forms or the recursion."""
    recursion_only = checks.FAMILIES[family].values is None
    want_interior = interior or recursion_only
    if recursion_only or route == "oracle":
        values, interiors = oracle.oracle_table(checks.family_descriptor(family, d, r),
                                                n_from, n_to)
    else:
        values, interiors = checks.formula_columns(family, d, r, n_from, n_to, want_interior)
    columns = {"n": list(range(n_from, n_to + 1)), "value": values}
    if want_interior:
        columns["interior"] = interiors
    if route == "both":
        columns["match"] = [True] * len(values)
    return columns


def parsed(cell):
    """A printed text cell back as the int or bool it renders."""
    return cell == "true" if cell in ("true", "false") else int(cell)


class TestSeqLayouts:
    """Each format held to a reference layout of its own parsed cells."""

    @given(seq_argvs())
    @example(("lambda", 9, 12, 0, 200, "formula", "table", True))  # negative interiors
    @example(("alpha", 12, None, 0, 200, "both", "table", True))  # widths grow row by row
    @example(("oracle", 0, None, 0, 0, None, "table", False))  # one row of zeros
    @example(("beta", 1, None, 0, 3, "oracle", "csv", True))  # interiors only by recursion
    # One block of rows formatted in one `%`, and a second block of one row.
    @example(("lambda", 9, 12, 1, output_pins.SEQ_BLOCK, "formula", "table", True))
    @example(("alpha", 12, None, 0, output_pins.SEQ_BLOCK, "both", "json", True))
    def test_every_format_lays_out_the_columns(self, case):
        family, d, r, n_from, n_to, route, fmt, interior = case
        code, out, err = output_pins.run(
            output_pins.seq_argv(family, d, r, n_from, n_to, route, fmt, interior))
        assert (code, err) == (0, "")
        columns = expected_columns(family, d, r, n_from, n_to, route, interior)
        rows = [list(row) for row in zip(*columns.values())]
        if fmt == "json":
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
            strings = [[cell if name in ("n", "match") else str(cell)
                        for name, cell in zip(columns, row)] for row in rows]
            assert [[row[name] for name in columns] for row in json.loads(out)["rows"]] == strings
            return
        lines = out.split("\n")
        assert lines.pop() == ""  # every line ends in a newline
        if fmt == "bfile":
            assert [list(map(int, line.split(" "))) for line in lines] == rows
            return
        cells = [line.split("," if fmt == "csv" else None) for line in lines]
        if fmt == "table":
            widths = [max(map(len, column)) for column in zip(*cells)]
            assert lines == ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
                             for row in cells]
        assert cells[0] == list(columns)
        assert [list(map(parsed, row)) for row in cells[1:]] == rows


class TestParser:
    SEQ = ["seq", "--family", "lambda", "-d", "4", "-r", "1", "--to", "45", "--route", "both",
           "--format", "json"]

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []

        def recorded(args, parser, command=cli._cmd_seq):
            parsers.append(parser)
            return command(args, parser)

        monkeypatch.setattr(cli, "_cmd_seq", recorded)
        assert run_cli(capsys, *self.SEQ) == run_cli(capsys, *self.SEQ)
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["decompose", "-d", "3", "-r", "1"],
        ["seq", "--family", "lambda", "-d", "3", "--to", "5"],
    ], ids=["decompose", "seq"])
    def test_usage_errors_do_not_wrap_to_the_terminal(self, monkeypatch, argv):
        errors = set()
        for columns in ("40", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = output_pins.run(argv)
            assert (code, out) == (2, "")
            errors.add(err)
        assert len(errors) == 1

    @pytest.mark.parametrize("bad", [
        ["seq", "--family", "beta", "-d", "3", "--to", "x"],
        ["seq", "--family", "beta", "-d", "3", "-r", "1", "--from", "7", "--to", "5"],
        ["verify", "--suite", "oracle", "--grid", "grid.cfg"],
    ], ids=["parse", "seq-check", "verify-check"])
    def test_usage_error_leaves_the_next_call_unchanged(self, capsys, bad):
        cli.build_parser.cache_clear()
        fresh = run_cli(capsys, *self.SEQ)
        cli.build_parser.cache_clear()
        expect_usage_error(*bad)
        assert capsys.readouterr().out == ""
        assert run_cli(capsys, *self.SEQ) == fresh


class TestClosedStdout:
    def run(self, argv, stdout):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.Popen([sys.executable, "-m", "polytopenums", *argv], stdout=stdout,
                                stderr=subprocess.PIPE, env=env)

    def test_reader_closing_mid_table_ends_output(self):
        proc = self.run(["seq", "--family", "alpha", "-d", "2", "--to", "200000"],
                        subprocess.PIPE)
        assert proc.stdout.readline() == b"n       value\n"
        proc.stdout.close()  # as `| head -1` does
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    # Each output leaves bytes unwritten when the reader closes.  The lambda
    # table at d = 150 (64,854 bytes) fits in a 64 KiB pipe and rightly exits
    # 0, and a decompose table's first line is half its bytes, so the table
    # cases are shift decompositions of 389 KB and of 173 KB.  In the second
    # the close cuts a write short, and only the write after it can tell.
    @pytest.mark.parametrize("argv", [
        *(["seq", "--family", "alpha", "-d", "2", "--to", "200000", "--format", fmt]
          for fmt in cli.FORMATS),
        ["decompose", "--lambda", "-d", "150", "-r", "75", "--format", "json"],
        ["decompose", "--shift", "-d", "300", "-a", "300", "-b", "200", "--format", "table"],
        ["decompose", "--shift", "-d", "200", "-a", "300", "-b", "200", "--format", "table"],
    ], ids=[*cli.FORMATS, "decompose-lambda-json", "decompose-shift-table",
            "decompose-shift-table-short-write"])
    def test_reader_closing_early_ends_unbuffered_output(self, monkeypatch, argv):
        # Unbuffered stdout returns a write that a closed pipe cut short as if
        # it were whole; the next write must still see the pipe gone.
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        proc = self.run(argv, subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    def test_reader_gone_before_any_output(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.run(["verify", "--suite", "identities"], write_end)
        os.close(write_end)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no str() digit limit")
class TestDigitLimit:
    # (d, --from, --to): one row of 4814 digits, and 257 rows of which only
    # the last, the first row of the second block, has more than 4300.
    @pytest.mark.parametrize("d, n_from, n_to", [(8000, 8000, 8000), (1000, 7371573, 7371829)])
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_values_past_the_str_digit_limit_print(self, capsys, fmt, d, n_from, n_to):
        code, out = run_cli(capsys, "seq", "--family", "alpha", "-d", str(d), "--from",
                            str(n_from), "--to", str(n_to), "--format", fmt)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            rows = [(n, str(math.comb(n + d - 1, d))) for n in range(n_from, n_to + 1)]
        finally:
            sys.set_int_max_str_digits(limit)
        long_rows = [k for k, (_, value) in enumerate(rows) if len(value) > limit]
        assert long_rows == [len(rows) - 1] and len(rows) in (1, output_pins.SEQ_BLOCK + 1)
        if fmt == "json":
            query = {"family": "alpha", "d": d, "r": None, "from": n_from, "to": n_to,
                     "route": "formula", "interior": False}
            expected = json.dumps({"query": query,
                                   "rows": [{"n": n, "value": value} for n, value in rows]},
                                  indent=2, sort_keys=True) + "\n"
        else:
            line = {"bfile": "{} {}\n", "csv": "{},{}\n",
                    "table": f"{{:<{len(str(n_to))}}}  {{}}\n"}[fmt]
            header = [] if fmt == "bfile" else [("n", "value")]
            expected = "".join(line.format(*row) for row in header + rows)
        assert (code, out) == (0, expected)

    def test_main_gives_the_caller_back_its_digit_limit(self, monkeypatch):
        def broken(d, a, b):
            raise RuntimeError("route lost")

        monkeypatch.setattr(checks, "shift_routes", broken)
        cases = [(["seq", "--family", "alpha", "-d", "2", "--to", "3"], 0),
                 (["seq", "--family", "alpha", "-d", "2", "--from", "4", "--to", "3"], 2),
                 (["decompose", "--shift", "-d", "2", "-a", "2", "-b", "0"], 3)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            for argv, code in cases:
                try:
                    got = cli.main(argv)
                except SystemExit as exc:
                    got = exc.code
                assert (got, sys.get_int_max_str_digits()) == (code, 5000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestOracleMemory:
    # The child prints its own peak RSS; RLIMIT_AS stops a table that grows
    # with --to long before it could strain the machine.
    CHILD = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from polytopenums.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))\n"
        "sys.exit(code)\n"
    )

    def peak_kb(self, n_from, n_to):
        """The child's exit code, stdout and own peak RSS in KB."""
        argv = ["seq", "--family", "oracle", "-d", "7", "-r", "3", "--from", str(n_from),
                "--to", str(n_to)]
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", self.CHILD, *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout, int(done.stderr)

    def test_one_row_far_past_the_head_keeps_peak_rss_flat(self):
        _, shallow_kb = self.peak_kb(1, 50)
        out, deep_kb = self.peak_kb(10**7, 10**7)
        n = 10**7
        assert out.split()[3:] == [str(n), str(rectified_simplex_number(7, 3, n)),
                                   str(rectified_simplex_interior(7, 3, n))]
        assert deep_kb <= shallow_kb + 4096


# The complete stdout of one decomposition per mode in every format: the
# route names, their order and the vectors.  The shift case has b > d, so
# its vector runs past index d.
LAMBDA_JSON = """\
{
  "coefficients": [
    "1",
    "5",
    "5",
    "0"
  ],
  "decomposition": "lambda d=4 r=1",
  "routes": {
    "gbinomial": [
      "1",
      "5",
      "5",
      "0"
    ],
    "shift-composition": [
      "1",
      "5",
      "5",
      "0"
    ]
  },
  "routes_agree": true
}
"""
SHIFT_JSON = """\
{
  "coefficients": [
    "0",
    "0",
    "6",
    "3"
  ],
  "decomposition": "shift d=2 a=3 b=4",
  "routes": {
    "double-sum": [
      "0",
      "0",
      "6",
      "3"
    ],
    "generating-function": [
      "0",
      "0",
      "6",
      "3"
    ]
  },
  "routes_agree": true
}
"""
DECOMPOSE_GOLDEN = {
    ("--lambda", "-d", "4", "-r", "1", "--format", "table"):
        "shift-composition  [1, 5, 5, 0]\n"
        "gbinomial          [1, 5, 5, 0]\n"
        "routes agree: yes\n",
    ("--lambda", "-d", "4", "-r", "1", "--format", "csv"):
        "route,c0,c1,c2,c3\nshift-composition,1,5,5,0\ngbinomial,1,5,5,0\n",
    ("--lambda", "-d", "4", "-r", "1", "--format", "json"):
        LAMBDA_JSON,
    ("--shift", "-d", "2", "-a", "3", "-b", "4", "--format", "table"):
        "double-sum           [0, 0, 6, 3]\n"
        "generating-function  [0, 0, 6, 3]\n"
        "routes agree: yes\n",
    ("--shift", "-d", "2", "-a", "3", "-b", "4", "--format", "csv"):
        "route,c0,c1,c2,c3\ndouble-sum,0,0,6,3\ngenerating-function,0,0,6,3\n",
    ("--shift", "-d", "2", "-a", "3", "-b", "4", "--format", "json"):
        SHIFT_JSON,
}


class TestDecompose:
    @pytest.mark.parametrize("argv", DECOMPOSE_GOLDEN)
    def test_full_stdout_is_pinned(self, capsys, argv):
        assert run_cli(capsys, "decompose", *argv) == (0, DECOMPOSE_GOLDEN[argv])

    def test_rectified_table(self, capsys):
        code, out = run_cli(capsys, "decompose", "--lambda", "-d", "3", "-r", "1")
        assert code == 0
        assert "[1, 2, 1]" in out
        assert "routes agree: yes" in out

    def test_trivial_rectification(self, capsys):
        code, out = run_cli(capsys, "decompose", "--lambda", "-d", "2", "-r", "0")
        assert code == 0
        assert "[1, 0]" in out

    def test_shift_table(self, capsys):
        code, out = run_cli(capsys, "decompose", "--shift", "-d", "1", "-a", "2", "-b", "0")
        assert code == 0
        assert "[1, 1]" in out

    def test_json_payload(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--lambda", "-d", "4", "-r", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["routes_agree"] is True
        assert payload["coefficients"] == ["1", "5", "5", "0"]

    def test_csv_rows(self, capsys):
        code, out = run_cli(
            capsys, "decompose", "--shift", "-d", "2", "-a", "2", "-b", "0",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "route,c0,c1,c2"
        assert "double-sum,1,3,0" in out

    def test_wide_shift_work_follows_the_support(self, capsys, monkeypatch):
        # 61 coefficients at a = 10**5: each route's reads are bounded by a
        # polynomial in d alone, where a column to the largest reflected read
        # would have (d+1)(a-1)/2, about 3 million, entries.
        d, column, reads, asked = 60, exact._column, rectified._reads, []
        monkeypatch.setattr(exact, "_column", lambda d, start, stop: asked.append(
            stop - start) or column(d, start, stop))
        monkeypatch.setattr(rectified, "_reads", lambda d, terms, n_from, n_to: asked.append(
            n_to - n_from + 1) or reads(d, terms, n_from, n_to))
        code, out = run_cli(capsys, "decompose", "--shift", "-d", str(d), "-a", "100000", "-b",
                            "0", "--format", "json")
        payload = json.loads(out)
        assert (code, payload["routes_agree"], len(payload["coefficients"])) == (0, True, d + 1)
        assert sum(asked) <= (d + 2) ** 2

    def test_route_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "rectified_decomposition_gbinom", lambda d, r: [1, 99, 1])
        code, out = run_cli(capsys, "decompose", "--lambda", "-d", "3", "-r", "1")
        assert code == 1
        assert "routes agree: NO" in out

    def test_a_dense_slice_read_one_index_low_fails_the_route_check(self, capsys, monkeypatch):
        # At d = 24 the difference route reads its summed column as slices of
        # one run.  Stretch (a, b) = (2, 7)'s slice read one index low gives
        # the vector of (2, 8): inside the support, so the trim passes it,
        # but the gbinomial route sums its own expansion and disagrees.
        column, sliced = regular._column, []

        class OneIndexLow(list):
            def __getitem__(self, index):
                if isinstance(index, slice) and index.step == 2:
                    sliced.append(index)
                    index = slice(index.start - 1, index.stop - 1, 2)
                return list.__getitem__(self, index)

        monkeypatch.setattr(regular, "_column", lambda *args: OneIndexLow(column(*args)))
        code, out = run_cli(capsys, "decompose", "--lambda", "-d", "24", "-r", "8")
        assert (code, len(sliced)) == (1, 1)
        assert "routes agree: NO" in out

    def test_one_patched_route_reaches_decompose_and_verify(self, capsys, monkeypatch):
        # `decompose` and the decompositions suite read the same route table;
        # `cli` binds no route of its own.
        assert not [name for name in vars(cli)
                    if name.startswith(("shift_decomposition", "rectified_decomposition"))]
        monkeypatch.setattr(checks, "rectified_decomposition_gbinom", lambda d, r: [1, 99, 1])
        assert run_cli(capsys, "decompose", "--lambda", "-d", "3", "-r", "1")[0] == 1
        failed = [check.describe() for check in checks.decomposition_checks(3, 3)
                  if not check.ok]
        assert "route-agreement [d=3 r=1] lhs=[1, 2, 1] rhs=[1, 99, 1]" in failed

    def test_usage_errors(self, capsys):
        for argv, message in [
            (("--lambda", "-d", "3"), "polytopenums: error: --lambda requires -r"),
            (("--lambda", "-d", "3", "-r", "3"),
             "polytopenums: error: --lambda requires 0 <= r < d"),
            (("--lambda", "-d", "0", "-r", "0"), "polytopenums: error: -d must be positive"),
            (("--lambda", "-d", "3", "-r", "1", "-a", "1"),
             "polytopenums: error: --lambda takes no -a/-b"),
            (("--shift", "-d", "3", "-a", "2"), "polytopenums: error: --shift requires -a and -b"),
            (("--shift", "-d", "3", "-a", "0", "-b", "1"),
             "polytopenums: error: --shift requires a >= 1 and b >= 0"),
            (("--shift", "-d", "3", "-a", "1", "-b", "0", "-r", "1"),
             "polytopenums: error: --shift takes no -r"),
            (("--lambda", "--shift", "-d", "3", "-r", "1"),
             "polytopenums decompose: error: argument --shift: not allowed with argument --lambda"),
            (("-d", "3", "-r", "1"),
             "polytopenums decompose: error: one of the arguments --lambda --shift is required"),
        ]:
            expect_usage_error("decompose", *argv)
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert message in captured.err, argv


def _pad_shift_routes(monkeypatch):
    """Every shift route's vector at (d, a, b) = (2, 2, 1) with a zero past its support."""
    real = checks._shift_route_runs

    def padded(d, a, bs):
        return [{name: vector + [0] for name, vector in routes.items()} if (
            (d, a, b) == (2, 2, 1)) else routes for b, routes in zip(bs, real(d, a, bs))]
    monkeypatch.setattr(checks, "_shift_route_runs", padded)


def _split_census_entry(monkeypatch):
    """The hypercube(3) census with its first entry split in two, one out of range.

    The rows still sum to the true census, so every table and f-vector is unchanged.
    """
    real, cube = oracle.faces_of, oracle.hypercube(3)

    def split(p):
        census = real(p)
        if p != cube:
            return census
        first, *rest = census.entries
        return census._replace(entries=(first._replace(not_containing=first.not_containing + 1),
                                        oracle.FaceEntry(first.face, 0, -1), *rest))
    monkeypatch.setattr(oracle, "faces_of", split)


def _negate_shift_composition(monkeypatch):
    """The shift-composition route with its coefficient 1 negated at (d, r) = (3, 1)."""
    real = checks.rectified_decomposition

    def negated(d, r):
        coeffs = real(d, r)
        return [coeffs[0], -coeffs[1], *coeffs[2:]] if (d, r) == (3, 1) else coeffs
    monkeypatch.setattr(checks, "rectified_decomposition", negated)


def _extra_vertex(p):
    """f-vectors with one vertex too many for the polytope p."""
    def fault(monkeypatch):
        real = oracle.FaceCensus.f_vector

        def miscounted(census):
            f_vector = real(census)
            return (f_vector[0] + 1, *f_vector[1:]) if census.polytope == p else f_vector
        monkeypatch.setattr(oracle.FaceCensus, "f_vector", miscounted)
    return fault


def _row_off(table, *args_and_n):
    """checks.<table> with 1 added to its row n when called with the leading args.

    `_row_off("simplex_table", 3, 5)` adds 1 to simplex_table(3, ...)'s row n = 5.
    """
    *head, n = args_and_n

    def fault(monkeypatch):
        real = getattr(checks, table)

        def off(*args):
            *args_head, n_from, n_to = args
            return [v + (args_head == head and m == n)
                    for m, v in enumerate(real(*args), n_from)]
        monkeypatch.setattr(checks, table, off)
    return fault


def _summand_off(name, args):
    """identities.<name> with 1 added to its value at args."""
    def fault(monkeypatch):
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *at: real(*at) + (at == args))
    return fault


def _raise_generating_function_tail(monkeypatch):
    """The generating-function route with its last coefficient 1 too high at (2, 2, 1)."""
    real = checks._shift_decompositions_gbinom

    def raised(d, a, bs):
        return [[*coeffs[:-1], coeffs[-1] + 1] if (d, a, b) == (2, 2, 1) else coeffs
                for b, coeffs in zip(bs, real(d, a, bs))]
    monkeypatch.setattr(checks, "_shift_decompositions_gbinom", raised)


def suite_records(suite):
    """Every record one verify suite yields at its default bounds, in order."""
    given = {"grid": identities.default_grid(), "d_max": None, "n_max": None,
             "a_max": None, "b_max": None}
    body, options = checks.SUITES[suite]
    return identities._records(body(*(given[option] for option in options)))


# (verify suite, fault, the FAIL line it must print): each record's own
# fault, injected through the globals `checks`, `oracle` and `identities`
# resolve at call time.  Each row's id is its record's name.
RECORD_FAULTS = [
    pytest.param("decompositions", _pad_shift_routes,
                 "  FAIL shift-support [d=2 a=2 b=1] lhs=4 rhs=3\n", id="shift-support"),
    pytest.param("oracle", _split_census_entry,
                 "  FAIL census-counts [polytope=Hypercube(d=3)] "
                 "lhs=[FaceEntry(face=Point(), total=0, not_containing=-1)] rhs=[]\n",
                 id="census-counts"),
    pytest.param("decompositions", _negate_shift_composition,
                 "  FAIL coefficient-signs [d=3 r=1] lhs=(1, [-2]) rhs=(1, [])\n",
                 id="coefficient-signs"),
    pytest.param("oracle", _extra_vertex(oracle.hypercube(3)),
                 "  FAIL euler-relation [polytope=Hypercube(d=3)] lhs=3 rhs=2\n",
                 id="euler-relation"),
    pytest.param("oracle", _row_off("rectified_simplex_table", 3, 1, 2),
                 "  FAIL vertex-count [d=3 r=1] lhs=7 rhs=6\n", id="vertex-count"),
    pytest.param("oracle", _row_off("rectified_simplex_table", 3, 2, 4),
                 "  FAIL dual-rectification [d=3 n=4] lhs=21 rhs=20\n", id="dual-rectification"),
    pytest.param("oracle", _row_off("simplex_table", 3, 5),
                 "  FAIL simplex-value [d=3 n=5] lhs=35 rhs=36\n", id="simplex-value"),
    pytest.param("oracle", _row_off("simplex_interior_table", 3, 5),
                 "  FAIL simplex-interior [d=3 n=5] lhs=1 rhs=2\n", id="simplex-interior"),
    pytest.param("oracle", _row_off("cross_polytope_table", 2, 3),
                 "  FAIL cross-polytope [d=2 n=3] lhs=9 rhs=10\n", id="cross-polytope"),
    pytest.param("oracle", _row_off("rectified_simplex_table", 4, 2, 3),
                 "  FAIL rectified-value [d=4 r=2 n=3] lhs=45 rhs=46\n", id="rectified-value"),
    pytest.param("oracle", _row_off("rectified_simplex_interior_table", 4, 2, 3),
                 "  FAIL rectified-interior [d=4 r=2 n=3] lhs=0 rhs=1\n",
                 id="rectified-interior"),
    # Only the bridge reads the octahedral column past the other columns' 40 rows.
    pytest.param("oracle", _row_off("rectified_simplex_table", 3, 1, 100),
                 "  FAIL octahedral-bridge [n=100] lhs=2000103 rhs=2000100\n",
                 id="octahedral-bridge"),
    pytest.param("oracle", _row_off("rectified_simplex_table", 3, 0, 4),
                 "  FAIL zero-rectification [d=3 n=4] lhs=21 rhs=20\n", id="zero-rectification"),
    pytest.param("oracle", _row_off("rectified_simplex_table", 2, 2, 5),
                 "  FAIL constant-family [r=2 n=5] lhs=2 rhs=1\n", id="constant-family"),
    pytest.param("oracle", _row_off("rectified_simplex_interior_table", 2, 2, 5),
                 "  FAIL interior-sign [r=2 n=5] lhs=2 rhs=1\n", id="interior-sign"),
    pytest.param("oracle", _row_off("rectified_simplex_interior_table", 1, 3, 5),
                 "  FAIL vanishing-interior [d=1 r=3 n=5] lhs=1 rhs=0\n",
                 id="vanishing-interior"),
    pytest.param("oracle", _extra_vertex(oracle.hypersimplex(4, 2)),
                 "  FAIL f-vector [polytope=Hypersimplex(m=4, s=2)] lhs=(7, 12, 8) "
                 "rhs=(6, 12, 8)\n", id="f-vector"),
    pytest.param("decompositions", _raise_generating_function_tail,
                 "  FAIL shift-routes [d=2 a=2 b=1] lhs=[0, 3, 1] rhs=[0, 3, 2]\n",
                 id="shift-routes"),
    # The stretched simplex column: row 9 of d = 2 is read at a*n - (a-1) - b = 9.
    pytest.param("decompositions", _row_off("simplex_table", 2, 9),
                 "  FAIL shift-identity [d=2 a=1 b=0 n=9] lhs=46 rhs=45\n", id="shift-identity"),
    # A wrong C(5, 2) = 11 reaches both sides of several identities; at
    # these points only the left.
    pytest.param("identities", _summand_off("binomial", (5, 2)),
                 "  FAIL alt-vandermonde [b=2 c=4 n=5] lhs=2 rhs=1\n", id="alt-vandermonde"),
    pytest.param("identities", _summand_off("binomial", (5, 2)),
                 "  FAIL pascal-alternating-row [r=4] lhs=2 rhs=1\n",
                 id="pascal-alternating-row"),
    pytest.param("identities", _summand_off("_interior", (2, 6)),
                 "  FAIL interior-sum [d=2 k=0 j=2 n=6] lhs=11 rhs=10\n", id="interior-sum"),
]


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 0
        assert "identities: 6 identities," in out
        assert "0 failures" in out
        assert out.rstrip().endswith("verify: PASS")

    def test_all_suites_text(self, capsys):
        code, out = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        assert out == (
            "identities: 6 identities, 3872 checks, 0 failures\n"
            "oracle: 5509 checks, 0 failures\n"
            "decompositions: 6970 checks, 0 failures\n"
            "verify: PASS\n"
        )

    def test_reduced_oracle_suite(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "oracle", "--d-max", "4", "--n-max", "12",
        )
        assert code == 0
        assert out == "oracle: 648 checks, 0 failures\nverify: PASS\n"

    def test_reduced_decomposition_suite(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--suite", "decompositions", "--d-max", "4",
            "--n-max", "12", "--a-max", "3", "--b-max", "3",
        )
        assert code == 0
        assert out == "decompositions: 751 checks, 0 failures\nverify: PASS\n"

    def test_bounds_above_the_default_grid_run_the_default_grid(self, capsys):
        # A bound lowers its axis and never raises it.
        _, default = run_cli(capsys, "verify", "--suite", "all")
        huge = str(10**9)
        code, out = run_cli(capsys, "verify", "--suite", "all", "--d-max", huge,
                            "--n-max", huge, "--a-max", huge, "--b-max", huge)
        assert code == 0
        assert out == default

    def test_row_bound_past_the_columns_lowers_only_the_bridge(self, capsys):
        # --n-max 41 keeps the 40-row columns and cuts the 200-row
        # octahedral bridge to 41 rows: 5509 - 159 checks.
        code, out = run_cli(capsys, "verify", "--suite", "oracle", "--n-max", "41")
        assert code == 0
        assert out == "oracle: 5350 checks, 0 failures\nverify: PASS\n"

    def test_each_suite_declares_its_generators_parameters(self):
        # `verify` passes each suite the bounds SUITES names, positionally.
        for name, (generator, options) in checks.SUITES.items():
            assert tuple(inspect.signature(generator).parameters) == options, name
        assert list(checks.SUITES) == ["identities", "oracle", "decompositions"]

    @pytest.mark.parametrize("suite, name, table, fail_line", [
        ("oracle", "hypercube_table", hypercube_table,
         "  FAIL hypercube [d=2 n=3] lhs=9 rhs=10\n"),
        ("decompositions", "rectified_simplex_table", rectified_simplex_table,
         "  FAIL recombination [d=2 r=1 n=3] lhs=6 rhs=7\n"),
    ])
    def test_broken_closed_form_is_reported(self, capsys, monkeypatch, suite, name, table,
                                            fail_line):
        monkeypatch.setattr(checks, name, lambda *args: [v + 1 for v in table(*args)])
        shift_bounds = ["--a-max", "1", "--b-max", "0"] if suite == "decompositions" else []
        code, out = run_cli(
            capsys, "verify", "--suite", suite, "--d-max", "2", "--n-max", "3", *shift_bounds,
        )
        assert code == 1
        assert fail_line in out
        assert out.endswith("verify: FAIL\n")

    @pytest.mark.parametrize("suite, fault, fail_line", RECORD_FAULTS)
    def test_each_record_reports_its_own_fault(self, capsys, monkeypatch, suite, fault,
                                               fail_line):
        # `verify` prints a FAIL line for exactly the records whose `.ok` is
        # False, under the fault, in the order the suite yields them.
        oracle.clear_tables()  # no table or census filled under a fault outlives the test
        try:
            with monkeypatch.context() as patch:
                fault(patch)
                code, out = run_cli(capsys, "verify", "--suite", suite)
                not_ok = [f"  FAIL {check.describe()}\n" for check in suite_records(suite)
                          if not check.ok]
        finally:
            oracle.clear_tables()
        assert code == 1
        assert fail_line in out
        assert [line for line in out.splitlines(keepends=True)
                if line.startswith("  FAIL ")] == not_ok
        assert out.endswith("verify: FAIL\n")

    def test_a_record_fails_when_its_sides_differ_as_ok_says(self):
        # `verify` decides each record by lhs != rhs, not through `.ok`; over
        # every record of `verify --suite all` the two verdicts agree.
        verdicts = {(check[2] != check[3], not check.ok)
                    for suite in checks.SUITES for check in suite_records(suite)}
        assert verdicts == {(False, False)}
        missing = identities._MISSING  # a side its column did not give fails either way
        for lhs, rhs in [(missing, 1), (1, missing), ([1], missing), (missing, missing),
                         ((1, []), (1, [])), ([1], [2])]:
            check = IdentityCheck("x", (), lhs, rhs)
            assert (check[2] != check[3]) == (not check.ok), (lhs, rhs)

    def test_column_comparisons_reach_verify_as_runs(self):
        # Every item of every suite body is a run, which `verify` counts and
        # decides without building its records: 16,351 checks in 1,046 runs.
        given = {"grid": identities.default_grid(), "d_max": None, "n_max": None,
                 "a_max": None, "b_max": None}
        shapes = {}
        for suite, (body, options) in checks.SUITES.items():
            items = list(body(*(given[option] for option in options)))
            assert {type(item) for item in items} == {identities._Run}, suite
            shapes[suite] = (len(items), sum(map(len, items)))
        assert shapes == {"identities": (341, 3872), "oracle": (107, 5509),
                          "decompositions": (598, 6970)}

    def test_every_record_name_has_a_fault_that_fails_it(self):
        # A record no test sees fail could be disabled unnoticed: each name
        # the suites yield has a RECORD_FAULTS row, or a test named here fails it.
        failed_elsewhere = {
            "hypercube": TestVerify.test_broken_closed_form_is_reported,
            "recombination": TestVerify.test_broken_closed_form_is_reported,
            "route-agreement": TestDecompose.test_one_patched_route_reaches_decompose_and_verify,
            "face-interior-sum":
                TestVerify.test_one_patched_census_interior_reaches_both_census_identities,
            "vertex-star-sum":
                TestVerify.test_one_patched_census_interior_reaches_both_census_identities,
            "subset-convolution": TestVerify.test_broken_identity_is_reported,
        }
        rows = {param.id: param.values[2] for param in RECORD_FAULTS}
        assert all(line.split()[1] == name for name, line in rows.items())
        assert not set(rows) & set(failed_elsewhere)
        names = {check.identity for suite in checks.SUITES for check in suite_records(suite)}
        assert names == set(rows) | set(failed_elsewhere)

    @pytest.mark.parametrize("module, table, fail_line", [
        (checks, "recombine_table", "  FAIL recombination [d=1 r=0 n=40] lhs=missing rhs=40\n"),
        (oracle, "oracle_table", "  FAIL simplex-value [d=0 n=40] lhs=missing rhs=1\n"),
        (checks, "simplex_table", "  FAIL simplex-value [d=0 n=40] lhs=1 rhs=missing\n"),
        # The value column's rows, read beside it, stay in.
        (checks, "simplex_interior_table",
         "  FAIL simplex-interior [d=0 n=40] lhs=1 rhs=missing\n"),
        (checks, "cross_polytope_table", "  FAIL cross-polytope [d=1 n=40] lhs=40 rhs=missing\n"),
        (checks, "rectified_simplex_interior_table",
         "  FAIL rectified-interior [d=2 r=1 n=40] lhs=703 rhs=missing\n"),
        # Its one-row vertex-count read comes back empty: a failed record, not a raise.
        (checks, "rectified_simplex_table", "  FAIL vertex-count [d=3 r=1] lhs=missing rhs=6\n"),
    ], ids=["recombine_table", "oracle_table", "simplex_table", "simplex_interior_table",
            "cross_polytope_table", "rectified_simplex_interior_table",
            "rectified_simplex_table"])
    def test_a_column_one_row_short_fails_the_missing_row(self, capsys, monkeypatch, module,
                                                          table, fail_line):
        # A column missing its last row fails that row: the counts stay.
        real = getattr(module, table)
        short = ((lambda *args: tuple(column[:-1] for column in real(*args)))
                 if module is oracle else (lambda *args: real(*args)[:-1]))
        monkeypatch.setattr(module, table, short)
        code, out = run_cli(capsys, "verify", "--suite", "all")
        assert code == 1
        assert fail_line in out
        assert [line.partition(" checks, ")[0] for line in out.splitlines()
                if " checks, " in line] == ["identities: 6 identities, 3872", "oracle: 5509",
                                            "decompositions: 6970"]
        assert out.endswith("verify: FAIL\n")

    def test_decompositions_pass_with_every_read_forced_dense(self, capsys, monkeypatch):
        # verify's grid stays below 2**64, where the rule reads by math.comb.
        # Forced dense, both callers read from column runs, and every
        # record still holds.
        column, built = regular._column, []
        monkeypatch.setattr(regular, "_column", lambda *args: built.append(args) or column(*args))
        for module in (exact, regular):
            monkeypatch.setattr(module, "_dense", lambda d, stop, reads: True)
        code, out = run_cli(capsys, "verify", "--suite", "decompositions", "--d-max", "4")
        assert (code, out) == (0, "decompositions: 4042 checks, 0 failures\nverify: PASS\n")
        assert built

    def test_one_patched_census_interior_reaches_both_census_identities(self, capsys,
                                                                         monkeypatch):
        # The census iterators store the interiors they read, but look up
        # `_rectified_interior` when the suite runs: one wrong interior, at
        # (k, m, n) = (1, 2, 3), fails both identities at n = 3 and nothing else.
        real = identities._rectified_interior
        monkeypatch.setattr(identities, "_rectified_interior",
                            lambda k, m, n: real(k, m, n) + ((k, m, n) == (1, 2, 3)))
        code, out = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert "  FAIL face-interior-sum [r=1 d=2 n=3] lhs=7 rhs=6\n" in out
        assert "  FAIL vertex-star-sum [r=1 d=2 n=3] lhs=4 rhs=3\n" in out
        failed = [line.split()[1:5:3] for line in out.splitlines() if "FAIL " in line]
        assert {name for name, _ in failed} == {"face-interior-sum", "vertex-star-sum"}
        assert {n for _, n in failed} == {"n=3]"}
        assert out.endswith("verify: FAIL\n")

    def test_oracle_suite_checks_the_tables_seq_prints_from(self, monkeypatch):
        # The closed forms `seq` prints are the globals the FAMILIES rows
        # name, and `cli` binds none of them itself.
        names = sorted({name for row in checks.FAMILIES.values()
                        for name in (row.values, row.interiors) if name})
        assert len(names) == 6
        called = set()

        def recording(name, table):
            def wrapper(*args):
                called.add(name)
                return table(*args)
            return wrapper

        for name in names:
            assert not hasattr(cli, name), name
            monkeypatch.setattr(checks, name, recording(name, getattr(checks, name)))
        assert all(check.ok for check in checks.oracle_checks(3, 3))
        assert called == set(names)

    def test_custom_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.cfg"
        grid.write_text("[pascal-alternating-row]\nr = 0..5\n", encoding="utf-8")
        code, out = run_cli(capsys, "verify", "--suite", "identities", "--grid", str(grid))
        assert code == 0
        assert "1 identities, 6 checks, 0 failures" in out

    def test_broken_identity_is_reported(self, capsys, monkeypatch):
        # Same mutation a transcription slip would make: the near-miss right
        # side C(d+1, r) instead of C(d+1, r+1).
        from polytopenums.exact import binomial

        def broken(d, rs):
            lhs = [sum((-1) ** k * binomial(d + 1, r - k) * binomial(d + 1 - r + k, k + 1)
                       for k in range(r + 1)) for r in rs]
            return identities._Run((("d", d),), rs, ("subset-convolution", lhs,
                                                     [binomial(d + 1, r) for r in rs]), key="r")

        monkeypatch.setattr(identities, "_subset_convolution_rows", broken)
        code, out = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert "  FAIL subset-convolution [d=4 r=1] lhs=10 rhs=5\n" in out
        assert out.rstrip().endswith("verify: FAIL")

    @pytest.mark.parametrize("flag", ["--d-max", "--n-max", "--a-max", "--b-max"])
    def test_negative_bound_is_usage_error(self, capsys, flag):
        expect_usage_error("verify", "--suite", "all", flag, "-1")
        assert f"{flag} must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["decompositions", "all"])
    def test_zero_shift_index_bound_is_usage_error(self, capsys, suite):
        # The shift index a starts at 1: --a-max 0 would leave out every
        # shift check and still print PASS.
        expect_usage_error("verify", "--suite", suite, "--a-max", "0")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--a-max must be positive" in captured.err

    def test_one_row_bound_keeps_every_first_row(self, capsys):
        # --n-max 1 leaves the columns from n = 2 (interior-sign and
        # vanishing-interior) as runs of no rows: they add no check.
        code, out = run_cli(capsys, "verify", "--suite", "oracle", "--n-max", "1")
        assert (code, out) == (0, "oracle: 201 checks, 0 failures\nverify: PASS\n")

    def test_a_suite_of_runs_with_no_rows_is_refused(self, capsys, monkeypatch):
        # The refusal counts rows, not items: runs with no rows leave a suite empty.
        empty = identities._Run((), range(0), ("x", [], []))
        monkeypatch.setitem(checks.SUITES, "oracle",
                            (lambda d_max, n_max: iter([empty, empty]), ("d_max", "n_max")))
        expect_usage_error("verify", "--suite", "oracle")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "suite oracle has no checks within the given bounds" in captured.err
        one = identities._Run((), range(1, 2), ("x", [1], [1]))
        monkeypatch.setitem(checks.SUITES, "oracle",
                            (lambda d_max, n_max: iter([empty, one, empty]), ("d_max", "n_max")))
        assert run_cli(capsys, "verify", "--suite", "oracle") == (
            0, "oracle: 1 checks, 0 failures\nverify: PASS\n")

    def test_bounds_leaving_a_suite_without_checks_are_usage_error(self, capsys):
        for suite in ("decompositions", "all"):
            expect_usage_error("verify", "--suite", suite, "--d-max", "0")
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "suite decompositions has no checks within the given bounds" in captured.err

    @pytest.mark.parametrize("suite, bounds", [
        ("oracle", ()), ("decompositions", ()), ("all", ()),
        # Below the pinned f-vectors (of 3- and 4-dimensional polytopes):
        # refused for its row bound before any suite is built.
        ("oracle", ("--d-max", "0")),
    ])
    def test_zero_row_bound_is_usage_error(self, capsys, suite, bounds):
        # Every column, recombination and shift-identity check starts at
        # n = 1: --n-max 0 would leave them all out and still print PASS.
        expect_usage_error("verify", "--suite", suite, *bounds, "--n-max", "0")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--n-max must be positive" in captured.err

    @pytest.mark.parametrize("d_max, f_vectors", [
        (2, []), (3, [(6, 12, 8)]), (4, [(6, 12, 8), (10, 30, 30, 10)]),
        (None, [(6, 12, 8), (10, 30, 30, 10)]),
    ])
    def test_pinned_f_vectors_follow_the_dimension_bound(self, d_max, f_vectors):
        # The two pinned f-vectors are of 3- and 4-dimensional hypersimplices:
        # --d-max below a polytope's dimension leaves its f-vector out.
        pinned = [check.rhs for check in checks.oracle_checks(d_max, 1)
                  if check.identity == "f-vector"]
        assert pinned == f_vectors

    @pytest.mark.parametrize("suite, option", [
        ("identities", "--d-max"), ("identities", "--n-max"), ("identities", "--a-max"),
        ("identities", "--b-max"), ("oracle", "--a-max"), ("oracle", "--b-max"),
        ("oracle", "--grid"), ("decompositions", "--grid"),
    ])
    def test_option_the_suite_ignores_is_usage_error(self, capsys, suite, option):
        value = identities.__file__ if option == "--grid" else "2"
        expect_usage_error("verify", "--suite", suite, option, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} has no effect on --suite {suite}" in captured.err

    def test_unknown_suite_is_usage_error(self):
        expect_usage_error("verify", "--suite", "everything")

    @pytest.mark.parametrize("text, message", [
        ("[alt-vandermonde]\nb = 1..2\nc = 1..2\nnn = 1..2\n",
         "identity section 'alt-vandermonde' is missing key(s) n"),
        ("[alt-vandermonde]\nb = 1..2\nc = 1..2\nn = 1..2\nextra = 1..2\n",
         "identity section 'alt-vandermonde' has unknown key(s) extra; it takes b, c, n"),
        ("[pascal-alternating-row]\nr = 5..2\n", "empty range '5..2': 5 > 2"),
        ("[pascal-alternating-row]\nr = -2..3\n",
         "negative bound in '-2..3': the identities hold from 0 up"),
        ("[pascal-alternating-row]\nr = 1..2\n[pascal-alternating-row]\nr = 1..2\n",
         "While reading from '<string>' [line  3]: section 'pascal-alternating-row' "
         "already exists"),
    ], ids=["missing-key", "unknown-key", "empty-range", "negative-bound",
            "duplicate-section"])
    def test_grid_with_bad_keys_or_ranges_is_usage_error(self, capsys, tmp_path, text,
                                                          message):
        grid = tmp_path / "grid.cfg"
        grid.write_text(text, encoding="utf-8")
        expect_usage_error("verify", "--suite", "identities", "--grid", str(grid))
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"polytopenums: error: cannot load identity grid: {message}\n" in captured.err

    def test_missing_or_malformed_grid_is_usage_error(self, capsys, tmp_path):
        expect_usage_error("verify", "--suite", "identities", "--grid", "/no/such/file.cfg")
        expect_usage_error("verify", "--suite", "identities", "--grid", "")
        assert capsys.readouterr().err.endswith(
            "cannot load identity grid: [Errno 2] No such file or directory: ''\n")
        bad = tmp_path / "bad.cfg"
        bad.write_text("[no-such-identity]\nr = 1..2\n", encoding="utf-8")
        expect_usage_error("verify", "--suite", "identities", "--grid", str(bad))
