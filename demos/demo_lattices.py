#!/usr/bin/env python3
"""Walk through the exact-lattice layer.

Builds the classical rank-22 lattice of signature (3, 19), scans small
lattices for isotropic vectors, and constructs a seed lattice whose cusp
provably has no short negative vectors orthogonal to it.
"""

from parabolic_lab import (
    build_parabolic_seed_lattice,
    diagonal_lattice,
    find_isotropic,
    hyperbolic_plane,
    k3_lattice,
    represents_in_range,
    scan_orthogonal_negatives,
)
from parabolic_lab.linalg_exact import det_exact

U = hyperbolic_plane()
print("hyperbolic plane U:", U.gram, "signature", U.signature)

K3 = k3_lattice()
print("U^3 + E8(-1)^2: rank", K3.rank, "signature", K3.signature,
      "determinant", det_exact(K3.gram))

print("\nisotropic vectors of U in the unit box:", find_isotropic(U, 1))
print("diag(1,-3) represents 0 only trivially:", find_isotropic(diagonal_lattice(1, -3), 10))

print("\nvalues of q on primitive vectors of U in [-4,-1], box 5:")
for value, witness in represents_in_range(U, -4, -1, 5):
    print(f"  q{witness} = {value}")

# The seed lattice: q(y) = 0, q(x) = -2N, x orthogonal to y, and every
# eta orthogonal to y with q(eta) < 0 already satisfies q(eta) <= -2N.
# That is exactly the hypothesis needed for a parabolic automorphism to
# exist on a deformation with this Neron-Severi lattice.
marked = build_parabolic_seed_lattice(2, 5)
lat = marked.lattice
print("\nseed lattice for (a_sq, N) = (2, 5):")
for row in lat.gram:
    print("   ", row)
print("signature:", lat.signature)
print("q(y) =", lat.q(marked.y), " q(x) =", lat.q(marked.x),
      " q(x, y) =", lat.bbf(marked.x, marked.y))

negatives = scan_orthogonal_negatives(marked, box_bound=10)
worst = max(q for _, q in negatives)
print(f"exhaustive |coeff| <= 10 scan: {len(negatives)} negative vectors "
      f"orthogonal to y, all with q <= {worst} (= -2N)")
