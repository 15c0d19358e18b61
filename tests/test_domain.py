"""The out-of-domain message of every library entry point with a domain rule.

Each case is one call and the exact `ValueError` text it raises.  A call
that breaks two rules at once pins the order the rules are checked in:
d first, then r >= 0 (or a, then b), then r < d.
"""
import pytest

from polytopenums import exact, identities, oracle, rectified, regular

NONNEGATIVE = "dimension must be nonnegative, got d=-1"
POSITIVE = "dimension must be positive, got d=0"
LEVEL = "rectification level must be nonnegative, got r=-1"

CASES = [
    (regular.simplex_table, (-1, 1, 3), NONNEGATIVE),
    (regular.simplex_number, (-1, 2), NONNEGATIVE),
    (regular.simplex_interior_table, (-1, 1, 3), NONNEGATIVE),
    (regular.simplex_interior, (-1, 2), NONNEGATIVE),
    (regular.cross_polytope_table, (0, 1, 3), POSITIVE),
    (regular.cross_polytope_number, (0, 2), POSITIVE),
    (regular.hypercube_table, (0, 1, 3), POSITIVE),
    (regular.hypercube_number, (0, 2), POSITIVE),
    (regular.facet_cut, (-1, 3, 0), "dimension and cut count must be nonnegative, got d=-1 k=0"),
    (regular.facet_cut, (2, 3, -1), "dimension and cut count must be nonnegative, got d=2 k=-1"),
    (regular.recombine_table, ([1, 2], -1, 1, 3), NONNEGATIVE),
    (rectified.recombine, ([1, 2], -1, 2), NONNEGATIVE),
    (exact.eulerian, (-1, 0), NONNEGATIVE),
    (rectified.rectified_simplex_table, (0, 0, 1, 3), POSITIVE),
    (rectified.rectified_simplex_table, (3, -1, 1, 3), LEVEL),
    (rectified.rectified_simplex_table, (0, -1, 1, 3), POSITIVE),
    (rectified.rectified_simplex_interior_table, (0, 0, 1, 3), POSITIVE),
    (rectified.rectified_simplex_interior_table, (3, -1, 1, 3), LEVEL),
    (rectified.rectified_simplex_number, (0, 0, 2), POSITIVE),
    (rectified.rectified_simplex_number, (3, -1, 2), LEVEL),
    (rectified.rectified_simplex_interior, (0, 0, 2), POSITIVE),
    (rectified.rectified_simplex_interior, (3, -1, 2), LEVEL),
    *[case for decomposition in (rectified.rectified_decomposition,
                                 rectified.rectified_decomposition_gbinom) for case in [
        (decomposition, (0, 0), POSITIVE),
        (decomposition, (0, 5), POSITIVE),
        (decomposition, (0, -1), POSITIVE),
        (decomposition, (3, -1), LEVEL),
        (decomposition, (3, 3), "decomposition requires 0 <= r < d, got d=3 r=3"),
        (decomposition, (1, 5), "decomposition requires 0 <= r < d, got d=1 r=5"),
    ]],
    *[case for decomposition in (rectified.shift_decomposition,
                                 rectified.shift_decomposition_gbinom) for case in [
        (decomposition, (0, 1, 0), POSITIVE),
        (decomposition, (0, 0, -1), POSITIVE),
        (decomposition, (2, 0, 0), "stretch factor must be positive, got a=0"),
        (decomposition, (2, 0, -1), "stretch factor must be positive, got a=0"),
        (decomposition, (2, 1, -1), "offset must be nonnegative, got b=-1"),
    ]],
    (oracle.simplex, (-1,), NONNEGATIVE),
    (oracle.cross_polytope, (-1,), NONNEGATIVE),
    (oracle.hypercube, (-1,), NONNEGATIVE),
    (identities.check_interior_sum, (3, -1, 0, 2), "k and j must be nonnegative, got k=-1 j=0"),
    (identities.check_interior_sum, (3, 0, -1, 2), "k and j must be nonnegative, got k=0 j=-1"),
    (identities.check_interior_sum, (1, -3, -2, 2), "k and j must be nonnegative, got k=-3 j=-2"),
]


@pytest.mark.parametrize("call, args, message", CASES,
                         ids=[f"{call.__name__}{args}" for call, args, _ in CASES])
def test_out_of_domain_message(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert str(raised.value) == message
