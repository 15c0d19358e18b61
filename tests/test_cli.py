"""Tests for the command-line interface."""
import json
import os
import subprocess
import sys

import pytest

from polytopenums import checks, cli, identities, oracle
from polytopenums.identities import IdentityCheck
from polytopenums.rectified import rectified_simplex_table
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
        assert fills == [300]

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

    def test_identical_runs_are_byte_identical(self, capsys):
        argv = ("seq", "--family", "lambda", "-d", "5", "-r", "2", "--to", "8",
                "--format", "json")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_usage_errors(self):
        expect_usage_error("seq", "--family", "lambda", "-d", "3", "--to", "5")
        expect_usage_error("seq", "--family", "alpha", "-d", "2", "-r", "1", "--to", "5")
        expect_usage_error("seq", "--family", "beta", "-d", "0", "--to", "5")
        expect_usage_error("seq", "--family", "alpha", "-d", "2", "--from", "4", "--to", "2")
        expect_usage_error("seq", "--family", "nope", "-d", "2", "--to", "5")
        expect_usage_error(
            "seq", "--family", "alpha", "-d", "2", "--to", "5",
            "--route", "both", "--format", "bfile",
        )
        expect_usage_error(
            "seq", "--family", "beta", "-d", "2", "--to", "5", "--interior",
        )
        expect_usage_error(
            "seq", "--family", "lambda", "-d", "3", "-r", "4", "--to", "5",
            "--route", "oracle",
        )
        expect_usage_error(
            "seq", "--family", "oracle", "-d", "3", "--to", "5", "--route", "formula",
        )


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

    def test_reader_gone_before_any_output(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = self.run(["verify", "--suite", "identities"], write_end)
        os.close(write_end)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")


class TestDecompose:
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

    def test_route_disagreement_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "rectified_decomposition_gbinom", lambda d, r: [1, 99, 1])
        code, out = run_cli(capsys, "decompose", "--lambda", "-d", "3", "-r", "1")
        assert code == 1
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

    def test_usage_errors(self):
        expect_usage_error("decompose", "--lambda", "-d", "3")
        expect_usage_error("decompose", "--lambda", "-d", "3", "-r", "3")
        expect_usage_error("decompose", "--shift", "-d", "3", "-a", "2")
        expect_usage_error("decompose", "--shift", "-d", "3", "-a", "0", "-b", "1")
        expect_usage_error("decompose", "--lambda", "--shift", "-d", "3", "-r", "1")
        expect_usage_error("decompose", "-d", "3", "-r", "1")


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

    def test_oracle_suite_checks_the_tables_seq_prints_from(self, monkeypatch):
        # The closed forms `seq` prints are the globals checks.formula_columns
        # reads, and `cli` binds none of them itself.
        names = sorted(name for name in checks.formula_columns.__code__.co_names
                       if name.endswith("_table"))
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

        def broken(d, r):
            lhs = sum(
                (-1) ** k * binomial(d + 1, r - k) * binomial(d + 1 - r + k, k + 1)
                for k in range(r + 1)
            )
            return IdentityCheck(
                "subset-convolution", (("d", d), ("r", r)), lhs, binomial(d + 1, r)
            )

        monkeypatch.setattr(identities, "check_subset_convolution", broken)
        code, out = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert "FAIL subset-convolution [d=4 r=1]" in out
        assert out.rstrip().endswith("verify: FAIL")

    @pytest.mark.parametrize("flag", ["--d-max", "--n-max", "--a-max", "--b-max"])
    def test_negative_bound_is_usage_error(self, capsys, flag):
        expect_usage_error("verify", "--suite", "all", flag, "-1")
        assert f"{flag} must be nonnegative" in capsys.readouterr().err

    def test_bounds_leaving_a_suite_without_checks_are_usage_error(self, capsys):
        for suite in ("decompositions", "all"):
            expect_usage_error("verify", "--suite", suite, "--d-max", "0")
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "suite decompositions has no checks within the given bounds" in captured.err

    def test_oracle_bounds_below_the_pinned_f_vectors_are_usage_error(self, capsys):
        # The two pinned f-vectors are of 3- and 4-dimensional polytopes, so
        # --d-max 0 leaves them out and nothing else is left to check.
        expect_usage_error("verify", "--suite", "oracle", "--d-max", "0", "--n-max", "0")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "suite oracle has no checks within the given bounds" in captured.err

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

    def test_missing_or_malformed_grid_is_usage_error(self, tmp_path):
        expect_usage_error("verify", "--suite", "identities", "--grid", "/no/such/file.cfg")
        bad = tmp_path / "bad.cfg"
        bad.write_text("[no-such-identity]\nr = 1..2\n", encoding="utf-8")
        expect_usage_error("verify", "--suite", "identities", "--grid", str(bad))
