#!/usr/bin/env python3
"""Dynamics on the (2,2,2) surface: involutions, fiber orbits, ergodicity.

The reference surface carries three Vieta involutions; composing two of
them gives a map preserving the remaining coordinate, acting fiberwise
as a translation of an elliptic curve.  The diagnostics below show the
three layers: the exact-identity layer (involution properties), the
fiberwise layer (1-form preservation, orbit density), and the global
layer (random-word time averages vs the invariant volume).
"""

import numpy as np

from parabolic_lab import surface222 as s2

S = s2.reference_surface()
rng = np.random.default_rng(0)
p = s2.sample_point(S, rng)
print("sampled point residual:", p.residual)

q = s2.involution(S, "z", p)
back = s2.involution(S, "z", q)
print("involution residual:", q.residual, " sigma^2 distance:", s2.point_distance(back, p))
fp, fq = s2.axis_partial(S, p, "z"), s2.axis_partial(S, q, "z")
print("anti-symplectic: dF/dz at the two roots sum to", abs(fp + fq))

pm = s2.parabolic_map(S, ("y", "z"), p)
print("\nparabolic pair (y,z): x coordinate untouched:", pm.x is p.x)
print("1-form preserved on the fiber:",
      s2.translation_check(S, ("y", "z"), p.x, p))

print("\nfiber orbit coverage (N = 2e4, G = 12):")
base = s2._fs_pair(np.random.default_rng(1))
start = s2.sample_fiber_point(S, ("y", "z"), base, np.random.default_rng(2))
for n in (2000, 20000):
    rep = s2.fiber_orbit(S, ("y", "z"), base, start, n, grid=12,
                         rng=np.random.default_rng(3))
    print(f"  N = {n}: coverage {rep.coverage:.3f} "
          f"({rep.cells_visited}/{rep.cells_fiber} fiber cells)")

print("\nrandom-word Birkhoff diagnostic (heuristic, small sizes for the demo):")
rep = s2.birkhoff_ergodicity_test(S, "x_abs2", word_length=2000, trials=8,
                                  mc_samples=200000, seed=3)
print(f"  time average  {rep['time_average']:.5f} +- {rep['time_se']:.5f}")
print(f"  space average {rep['space_average']:.5f} +- {rep['space_se']:.5f}")
print(f"  z-score {rep['z_score']:.2f}   ({rep['note']})")

print("\nsingle-map contrast: trajectories remember their fiber")
con = s2.ergodicity_contrast(S, ("y", "z"), "y_abs2", n_fibers=4,
                             trials_per_fiber=3, word_length=3000, seed=5)
print(f"  cross-fiber variance  {con['cross_fiber_variance']:.2e}")
print(f"  within-fiber variance {con['within_fiber_variance']:.2e}")
print(f"  ratio {con['variance_ratio']:.0f}x")
