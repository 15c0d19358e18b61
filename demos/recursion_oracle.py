#!/usr/bin/env python3
"""The face-lattice recursion as a ground truth for every closed formula.

Builds face censuses for a few polytopes and compares recursion values
against the closed forms they must reproduce.
"""
from polytopenums import (
    cross_polytope,
    cross_polytope_number,
    faces_of,
    hypercube,
    hypercube_number,
    hypersimplex,
    interior_number,
    oracle_table,
    polytope_number,
    rectified_simplex_descriptor,
    rectified_simplex_number,
    simplex,
)

print("Descriptors canonicalize on construction, so equal shapes compare equal:")
print("  hypersimplex(4, 3) ==", hypersimplex(4, 3))
print("  hypersimplex(4, 2) ==", hypersimplex(4, 2), " (the octahedron)")
print("  rectified_simplex_descriptor(4, 3) ==", rectified_simplex_descriptor(4, 3))

print("\nFace censuses (type, dimension, total, avoiding the base vertex):")
for p in [simplex(3), cross_polytope(3), hypercube(3), hypersimplex(5, 2)]:
    census = faces_of(p)
    print(f"  {p}: f-vector {census.f_vector()}")
    for entry in census.entries:
        print(f"    dim {entry.face.dimension}: {entry.total} x {entry.face}, "
              f"{entry.not_containing} avoid the base vertex")

print("\nRecursion table for the octahedron, n = 0..6, as two columns:")
values, interiors = oracle_table(hypersimplex(4, 2), 0, 6)
print("  total:   ", values)
print("  interior:", interiors)

print("\nThe recursion reproduces every closed form. Spot checks at n=1..8:")
print("  cross-polytope d=4: recursion",
      [polytope_number(cross_polytope(4), n) for n in range(1, 9)])
print("                      formula  ",
      [cross_polytope_number(4, n) for n in range(1, 9)])
print("  hypercube d=4:      recursion",
      [polytope_number(hypercube(4), n) for n in range(1, 9)])
print("                      formula  ",
      [hypercube_number(4, n) for n in range(1, 9)])
p = rectified_simplex_descriptor(5, 2)
print("  rectified d=5 r=2:  recursion",
      [polytope_number(p, n) for n in range(1, 9)])
print("                      formula  ",
      [rectified_simplex_number(5, 2, n) for n in range(1, 9)])
print("  interior of that:   recursion",
      [interior_number(p, n) for n in range(1, 9)])
