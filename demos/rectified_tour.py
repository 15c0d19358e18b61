#!/usr/bin/env python3
"""Rectified simplices and their simplex-basis decompositions.

Rectifying the d-simplex at level r cuts every vertex back to the centers of
the incident r-faces; the resulting point-count sequences decompose over
shifted simplex sequences with small nonnegative coefficients.  Two routes,
difference passes and generalized binomials, expand the same generating
function in different ways and produce the same coefficient vectors: they
cross-check the code, not the formula.  Each rectified vector is also the
alternating sum of the shift vectors of its stretched simplex sequences.
"""
from polytopenums import (
    binomial,
    recombine,
    rectified_decomposition,
    rectified_decomposition_gbinom,
    rectified_simplex_interior,
    rectified_simplex_number,
    shift_decomposition,
    simplex_number,
)

print("Rectified tetrahedron (the octahedron) and friends:")
for d, r in [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)]:
    values = [rectified_simplex_number(d, r, n) for n in range(1, 9)]
    print(f"  d={d} r={r}: {values}")

print("\nInterior counts for the octahedron (first interior point shows at n=3):")
print("  ", [rectified_simplex_interior(3, 1, n) for n in range(1, 9)])

print("\nDecomposition coefficients over simplex shifts, rows (d, r):")
for d in range(2, 7):
    for r in range(d):
        print(f"  d={d} r={r}: {rectified_decomposition(d, r)}")

print("\nThe generalized-binomial route reproduces the same vectors:")
agree = all(
    rectified_decomposition(d, r) == rectified_decomposition_gbinom(d, r)
    for d in range(1, 9)
    for r in range(d)
)
print("  all pairs with r < d <= 8 agree:", agree)

print("\nThe raw material: stretched sequences rewritten over unit shifts.")
print("Coefficients for index maps n -> a*n-(a-1)-b in dimension d=3:")
for a, b in [(1, 0), (2, 0), (3, 0), (2, 1), (2, 2)]:
    print(f"  a={a} b={b}: {shift_decomposition(3, a, b)}")

print("\nSpot check of the stretch identity at d=3, a=2, b=0, n=4:")
lhs = simplex_number(3, 2 * 4 - 1)
rhs = recombine(shift_decomposition(3, 2, 0), 3, 4)
print(f"  direct value {lhs} vs recombined value {rhs}")

print("\nA rectified vector is the alternating sum of its stretches' shift vectors.")
print("Stretch i = 0..r reads A(d, a*n-(a-1)-b) with a = i+1, b = r-i, weight")
print("(-1)**(r-i) C(d+1, r-i).  The sum is 0 at index d, where the vector stops:")
d, r = 3, 1
total = [0] * (d + 1)
for i in range(r + 1):
    a, b, w = i + 1, r - i, (-1) ** (r - i) * binomial(d + 1, r - i)
    shifts = shift_decomposition(d, a, b)
    print(f"  a={a} b={b} weight {w:+d}: {shifts}")
    total = [t + w * c for t, c in zip(total, shifts)]
print(f"  sum {total} vs rectified_decomposition({d}, {r}) = {rectified_decomposition(d, r)}")
