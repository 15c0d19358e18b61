"""Acceptance suite: one test per exit criterion, all exact (zero tolerance).

Run with `pytest -s tests/test_acceptance.py` to see one pass line per
criterion; any failure reports the offending parameters.
"""
import pytest

from polytopenums import cli, oracle
from polytopenums.checks import decomposition_checks, identity_checks, oracle_checks
from polytopenums.identities import REGISTRY, default_grid
from polytopenums.rectified import rectified_simplex_interior, rectified_simplex_number
from polytopenums.regular import simplex_number


@pytest.fixture(scope="module")
def oracle_suite():
    return list(oracle_checks())


@pytest.fixture(scope="module")
def decomposition_suite():
    return list(decomposition_checks())


def report(criterion, text):
    print(f"criterion {criterion}: PASS - {text}")


def assert_all_hold(records, *names):
    """Every record of the named checks holds; returns how many there were."""
    selected = [check for check in records if check.identity in names]
    assert {check.identity for check in selected} == set(names)
    assert [check.describe() for check in selected if not check.ok] == []
    return len(selected)


def test_criterion_1_recursion_matches_rectified_formulas(oracle_suite):
    assert_all_hold(oracle_suite, "rectified-value", "rectified-interior")
    report(1, "recursion equals rectified formulas, values and interiors, r<d<=7, n<=40")


def test_criterion_2_recursion_matches_regular_formulas(oracle_suite):
    assert_all_hold(oracle_suite, "simplex-value", "simplex-interior", "cross-polytope",
                    "hypercube")
    report(2, "recursion equals simplex (d<=8), cross-polytope and hypercube (d<=6) formulas")


def test_criterion_3_known_sequence_bridges(oracle_suite):
    assert_all_hold(oracle_suite, "octahedral-bridge", "zero-rectification",
                    "dual-rectification", "vertex-count")
    # The suite stops at n = 40; the rectified triangle and dual
    # rectification are pinned further out.
    for d in range(2, 9):
        for n in range(41, 61):
            assert rectified_simplex_number(d, d - 1, n) == simplex_number(d, n), (d, n)
    report(3, "octahedral numbers, rectified triangle, dual rectification, vertex counts")


def test_criterion_4_shift_identity_and_coefficient_routes(decomposition_suite):
    assert_all_hold(decomposition_suite, "shift-routes", "shift-support", "shift-identity")
    report(4, "shift identity holds and both coefficient routes agree, d<=6, a<=5, b<=5")


def test_criterion_5_combined_decomposition(decomposition_suite):
    assert_all_hold(decomposition_suite, "route-agreement", "coefficient-signs", "recombination")
    report(5, "decomposition routes agree, coefficients valid, sequence reproduced, r<d<=8")


def test_criterion_6_identity_suite_default_grids():
    assert len(REGISTRY) == 6
    checks = assert_all_hold(list(identity_checks(default_grid())), *REGISTRY)
    report(6, f"all 6 identities hold on the default grids ({checks} checks)")


def test_criterion_7_degenerate_family_conventions(oracle_suite):
    assert_all_hold(oracle_suite, "constant-family", "interior-sign", "vanishing-interior")
    # The sign convention for the interiors holds from n = 2 on.  At n = 1
    # the interior is 0 for d == r, and (-1)**(d+1) for 0 < d < r, where
    # the value is 1 at n = 1 and both are 0 from n = 2 on.
    for r in range(1, 9):
        assert rectified_simplex_interior(r, r, 1) == 0, r
        for d in range(1, r):
            assert rectified_simplex_number(d, r, 1) == 1, (d, r)
            assert rectified_simplex_interior(d, r, 1) == (-1) ** (d + 1), (d, r)
    report(7, "degenerate families: constant 1, interior sign (-1)**r, vanishing interiors below r")


def test_criterion_8_face_census_structure(oracle_suite):
    censuses = assert_all_hold(oracle_suite, "euler-relation")
    assert_all_hold(oracle_suite, "census-counts", "f-vector")
    rect4 = oracle.faces_of(oracle.hypersimplex(5, 2))
    cells = {entry.face: entry.total for entry in rect4.entries
             if entry.face.dimension == 3}
    assert cells == {oracle.simplex(3): 5, oracle.hypersimplex(4, 2): 5}
    report(8, f"Euler relation on {censuses} censuses; pinned f-vectors and 3-face split")


def test_criterion_9_cli_contract(capsys):
    code = cli.main(["seq", "--family", "lambda", "-d", "3", "-r", "1", "--to", "5",
                     "--format", "bfile"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "1 1\n2 6\n3 19\n4 44\n5 85\n"
    code = cli.main(["verify", "--suite", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("verify: PASS")
    with capsys.disabled():
        report(9, "bfile output byte-exact; verify --suite all exits 0")
