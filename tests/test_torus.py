import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from helpers import (
    frozen_box_coverage,
    frozen_det,
    frozen_project_to_hull,
    planted_relation_instance,
)
from parabolic_lab.errors import PrecisionError, PreconditionError
from parabolic_lab.exact import QuadExpr, parse_real
from parabolic_lab.torus import (
    TranslationVector,
    circle_gaps,
    evaluate_family,
    iterate,
    orbit_closure_dim,
    rational_hull,
    semicontinuity_scan,
    weyl_sum,
)

GOLDEN = parse_real("(sqrt5-1)/2")


def test_translation_vector_reduces():
    tv = TranslationVector((parse_real("sqrt2"), Fraction(7, 2)))
    vals = tv.mpf_values()
    assert all(0 <= float(v) < 1 for v in vals)
    with mp.workprec(160):
        assert abs(vals[0] - (mp.sqrt(2) - 1)) < mp.mpf(2) ** -120
    assert float(vals[1]) == 0.5
    assert tv.is_exact


def test_iterate_examples():
    orb = iterate((Fraction(1, 2),), (0,), 4)
    assert [float(p[0]) for p in orb] == [0.5, 0.0, 0.5, 0.0]
    orb = iterate((Fraction(1, 3), Fraction(1, 3)), (0, 0), 3)
    assert all(float(c) == 0.0 for c in orb[-1])


def test_golden_orbit_gap():
    orb = iterate((GOLDEN,), (0,), 10**4)
    max_gap, _ = circle_gaps([p[0] for p in orb])
    assert max_gap < 3 / 10**4


def test_rational_hull_examples():
    h = rational_hull((Fraction(1, 2),))
    assert h.dimension == 0 and h.relation_basis == ((2, -1),)
    h = rational_hull((parse_real("sqrt2"), parse_real("2*sqrt2")))
    assert h.dimension == 1 and h.relation_basis == ((2, -1, 0),)
    h = rational_hull((parse_real("sqrt2"), parse_real("sqrt3")))
    assert h.dimension == 2 and h.relation_basis == ()
    assert h.subspace_basis and len(h.subspace_basis) == 2


def test_rational_hull_affine_relation():
    # (sqrt2, 1+sqrt2) reduces to equal coordinates; the planted affine
    # relation appears in its sheared, reduced-representative form
    h = rational_hull((parse_real("sqrt2"), parse_real("1+sqrt2")))
    assert h.dimension == 1 and h.relation_basis == ((1, -1, 0),)


def test_orbit_closure_dims():
    assert orbit_closure_dim((GOLDEN,)) == 1
    assert orbit_closure_dim((Fraction(1, 3), Fraction(1, 7))) == 0
    assert orbit_closure_dim((parse_real("sqrt2"), parse_real("1+sqrt2"))) == 1


def test_precision_guard():
    with pytest.raises(PrecisionError):
        rational_hull((0.5,), tol=1e-60)
    for tol in (-1, math.nan, math.inf):
        with pytest.raises(PreconditionError):
            rational_hull((0.5,), tol=tol)


def test_hull_idempotent_after_projection():
    rng = random.Random(4)
    for _ in range(5):
        x, prec, want = planted_relation_instance(rng, max_n=5)
        tv = TranslationVector(x, prec)
        h = rational_hull(tv)
        assert [list(r) for r in h.relation_basis] == want
        h2 = rational_hull(frozen_project_to_hull(tv, h))
        assert h2.relation_basis == h.relation_basis


def test_planted_recovery_sample():
    rng = random.Random(99)
    for _ in range(20):
        x, prec, want = planted_relation_instance(rng)
        got = rational_hull(TranslationVector(x, prec))
        assert [list(r) for r in got.relation_basis] == want
        assert got.dimension == len(x) - len(want)


def test_planted_relation_bases_are_saturated():
    # the maximal minors of a relation basis have gcd 1 exactly when it spans a
    # saturated lattice, so no row of the HNF of the accepted LLL rows needs dividing
    rng = random.Random(2024)
    for _ in range(40):
        x, prec, _ = planted_relation_instance(rng)
        basis = rational_hull(TranslationVector(x, prec)).relation_basis
        minors = [frozen_det([[row[c] for c in cols] for row in basis])
                  for cols in itertools.combinations(range(len(x) + 1), len(basis))]
        assert math.gcd(*(int(m) for m in minors)) == 1


def test_weyl_sum_examples():
    assert abs(weyl_sum((Fraction(1, 3),), (3,), 100) - 1) < 1e-12
    assert weyl_sum((Fraction(1, 2),), (1,), 100) <= 1 / 100 + 1e-12
    mag = weyl_sum((GOLDEN,), (1,), 10**4)
    alpha = float(GOLDEN.to_mpf(64))
    geo_bound = 2 / abs(1 - complex(math.cos(2 * math.pi * alpha), math.sin(2 * math.pi * alpha))) / 10**4
    assert mag < 1e-2 and mag <= geo_bound * 1.01
    with pytest.raises(PreconditionError):
        weyl_sum((GOLDEN,), (0,), 10)


def test_box_coverage_monotone_when_dense():
    x = (GOLDEN, parse_real("sqrt2-1"))
    assert orbit_closure_dim(x) == 2
    orb1 = iterate(x, (0.1, 0.2), 1000)
    orb2 = iterate(x, (0.1, 0.2), 8000)
    for m in (2, 3, 4):
        c1, c2 = frozen_box_coverage(orb1, m), frozen_box_coverage(orb2, m)
        assert c1 <= c2
    assert frozen_box_coverage(orb2, 4) > 0.95


def test_semicontinuity_scan_planted_family():
    # x(t) = (t sqrt2, sqrt2): dimension 2 off the drop locus, 1 at t = 1
    fam = [[QuadExpr.rational(0), QuadExpr.sqrt(2)], [QuadExpr.sqrt(2)]]
    grid = [QuadExpr.sqrt(3) * Fraction(k, 7) for k in range(1, 5)] + [QuadExpr.rational(1)]
    rep = semicontinuity_scan(fam, grid)
    assert [d for _, d in rep.points] == [2, 2, 2, 2, 1]
    assert rep.max_dim == 2 and list(rep.exceptional) == [QuadExpr.rational(1)]


def test_semicontinuity_scan_constant_and_rational_families():
    rep = semicontinuity_scan(
        [[QuadExpr.sqrt(2)], [QuadExpr.sqrt(3)]], [Fraction(k, 3) for k in range(3)]
    )
    assert [d for _, d in rep.points] == [2, 2, 2] and not rep.exceptional
    rep = semicontinuity_scan([[0, 1], [0, 2]], [Fraction(1, 3), Fraction(2, 5)])
    assert [d for _, d in rep.points] == [0, 0]


def test_evaluate_family_exact():
    fam = [[QuadExpr.rational(1), QuadExpr.sqrt(2)]]
    (val,) = evaluate_family(fam, Fraction(1, 2))
    assert val == QuadExpr.rational(1) + QuadExpr.sqrt(2) / 2
