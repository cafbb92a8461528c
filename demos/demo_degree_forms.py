#!/usr/bin/env python3
"""Degree-form identities and Hermitian rigidity.

The top intersection form c q(eta)^n and its polarized version (a sum
over all (2n)! permutations of paired q-values) are tied together by the
hafnian: the permutation sum equals 2^n n! times the sum over perfect
matchings, which is how the library computes it.  The AM-GM rigidity check is the computational core of the
fact that a rank-one restriction forces proportional Kaehler classes.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from parabolic_lab import (
    FujikiStructure,
    HermitianForm,
    amgm_mixed_ratios,
    amgm_rigidity_check,
    fujiki_polarized,
    fujiki_top,
    hafnian,
    hyperbolic_plane,
)

U = hyperbolic_plane()
structure = FujikiStructure(U, n=2, c=Fraction(1), k=Fraction(1))
eta = (1, 1)
print("q(eta) =", U.q(eta))
print("top form c q(eta)^n =", fujiki_top(structure, eta))
pol = fujiki_polarized(structure, [eta] * 4)
print("polarized sum over S_4 =", pol, "=", math.factorial(4), "* q^2  (constant (2n)! when c = K = 1)")

print("\nhafnian collapses the permutation sum to perfect matchings:")
vecs = [(1, 0), (0, 1), (1, 1), (1, -1)]
q = [[U.bbf(a, b) for b in vecs] for a in vecs]
perm_sum = sum(q[s[0]][s[1]] * q[s[2]][s[3]] for s in itertools.permutations(range(4)))
print("  pairing matrix:", q)
print("  sum over S_4 =", perm_sum, " = 2^2 2! hafnian =", 8 * hafnian(q))

print("\nHermitian rigidity: mean 1 and det 1 force equality")
h2 = HermitianForm(np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]]))
print("  equal pair:", amgm_rigidity_check(h2, h2).value)
h1 = HermitianForm(np.diag([2.0, 0.5]))
eye = HermitianForm(np.eye(2))
mean, det = amgm_mixed_ratios(h1, eye)
print(f"  diag(2, 1/2) vs I: mean {mean}, det {det} ->",
      amgm_rigidity_check(h1, eye).value)
