import itertools
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from parabolic_lab.errors import DegenerateLatticeError, DimensionMismatchError, PreconditionError
from parabolic_lab.exact import ParseError
from parabolic_lab import lattice as lattice_module
from parabolic_lab.linalg_exact import det_exact
from parabolic_lab.lattice import (
    MarkedLattice,
    QuadLattice,
    build_parabolic_seed_lattice,
    diagonal_lattice,
    e8_lattice,
    find_isotropic,
    hyperbolic_plane,
    k3_lattice,
    represents_in_range,
    scan_orthogonal_negatives,
)

from helpers import (
    frozen_find_isotropic,
    frozen_represents_in_range,
    frozen_scan_orthogonal_negatives,
)

U = hyperbolic_plane()


def test_bbf_examples():
    assert U.bbf((1, 0), (1, 0)) == 0
    assert U.bbf((1, 1), (1, 1)) == 2
    assert diagonal_lattice(2, -10).bbf((0, 1), (0, 1)) == -10
    with pytest.raises(DimensionMismatchError):
        U.bbf((1, 0, 0), (1, 0))


def test_vector_entries_must_be_integral():
    # fractional entries are refused, not truncated to (1, 0) or (0, 0)
    with pytest.raises(PreconditionError):
        U.bbf((1.5, 0), (0, 1))
    with pytest.raises(PreconditionError):
        U.q((0.9, 0.9))
    with pytest.raises(ParseError):
        U.q(("a", 1))
    assert U.check_vector((2.0, Fraction(3, 1))) == (2, 3)


def test_bbf_bilinear_symmetric():
    rng = random.Random(0)
    lat = QuadLattice(((2, 1, 0), (1, -4, 3), (0, 3, -1)))
    for _ in range(50):
        u, v, w = (tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert lat.bbf(u, v) == lat.bbf(v, u)
        au_bv = tuple(a * x + b * y for x, y in zip(u, v))
        assert lat.bbf(au_bv, w) == a * lat.bbf(u, w) + b * lat.bbf(v, w)


def test_signatures():
    assert U.signature == (1, 1)
    assert diagonal_lattice(1, -1, -1).signature == (1, 2)
    assert e8_lattice().signature == (0, 8)
    assert k3_lattice().signature == (3, 19)
    assert k3_lattice().rank == 22


def test_signature_additive_on_direct_sums():
    rng = random.Random(1)
    pool = [U, diagonal_lattice(2, -1), diagonal_lattice(-2), e8_lattice()]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        sa, sb = a.signature, b.signature
        ssum = a.direct_sum(b).signature
        assert ssum == (sa[0] + sb[0], sa[1] + sb[1])


def test_degenerate_detection():
    with pytest.raises(DegenerateLatticeError):
        QuadLattice(((1, 0), (0, 0)))
    with pytest.raises(DegenerateLatticeError):
        QuadLattice(((1, 0, 0), (0, 0, 0), (0, 0, -1)))


def test_isotropic_primitive_predicates():
    assert U.q((1, 0)) == 0
    assert U.q((1, 1)) != 0


def test_find_isotropic():
    assert find_isotropic(U, 1) == [(0, 1), (1, 0)]
    seed = build_parabolic_seed_lattice(2, 5)
    assert (0, 0, 1) in find_isotropic(seed.lattice, 1)
    assert find_isotropic(diagonal_lattice(1, -3), 10) == []


def test_find_isotropic_against_bruteforce():
    lat = QuadLattice(((2, 0, 1), (0, -10, 0), (1, 0, 0)))
    got = set(find_isotropic(lat, 3))
    brute = set()
    for v in itertools.product(range(-3, 4), repeat=3):
        if any(v) and lat.q(v) == 0:
            g = 0
            for x in v:
                g = __import__("math").gcd(g, abs(x))
            if g == 1:
                vv = v if next(x for x in v if x) > 0 else tuple(-x for x in v)
                brute.add(vv)
    assert got == brute


def test_represents_in_range():
    # brute force (spec defers to it): U attains -4 and -2 on this range/box
    assert represents_in_range(U, -4, -1, 5) == [(-4, (1, -2)), (-2, (1, -1))]
    # diag(2,-10) attains -8 and -2; witnesses are the lex-first vectors
    # with positive leading coordinate (confirmed exhaustively below)
    assert represents_in_range(diagonal_lattice(2, -10), -9, -1, 10) == [
        (-8, (1, -1)),
        (-2, (2, -1)),
    ]
    lat = diagonal_lattice(2, -10)
    attained = sorted(
        {
            2 * a * a - 10 * b * b
            for a in range(-10, 11)
            for b in range(-10, 11)
            if (a or b) and __import__("math").gcd(abs(a), abs(b)) == 1
            and -9 <= 2 * a * a - 10 * b * b <= -1
        }
    )
    assert attained == [-8, -2]
    assert represents_in_range(diagonal_lattice(1), 1, 1, 1) == [(1, (1,))]
    for bound in (0, -2):  # an empty box represents nothing
        with pytest.raises(PreconditionError, match="coeff_bound"):
            represents_in_range(U, -5, 5, bound)


def test_seed_lattice_guarantees():
    marked = build_parabolic_seed_lattice(2, 5)
    lat = marked.lattice
    assert lat.gram == ((2, 0, 1), (0, -10, 0), (1, 0, 0))
    assert lat.signature == (1, 2)
    assert lat.q(marked.y) == 0
    assert lat.bbf(marked.x, marked.y) == 0
    assert lat.q(marked.x) == -10
    assert gcd(*marked.y) == 1 and lat.q(marked.y) == 0
    small = build_parabolic_seed_lattice(2, 1)
    assert small.lattice.q(small.x) == -2 <= -1


def test_seed_lattice_no_short_orthogonal_negatives():
    marked = build_parabolic_seed_lattice(4, 3)
    found = scan_orthogonal_negatives(marked, 10)
    assert found and all(q <= -6 for _, q in found)
    for bound in (0, -1):  # an empty scan certifies nothing
        with pytest.raises(PreconditionError, match="box_bound"):
            scan_orthogonal_negatives(marked, bound)
    # independent exhaustive re-scan with a different loop structure
    lat = marked.lattice
    for a in range(-10, 11):
        for b in range(-10, 11):
            for c in range(-10, 11):
                v = (a, b, c)
                if any(v) and lat.bbf(v, marked.y) == 0:
                    q = lat.q(v)
                    assert not (-6 < q < 0), v


def _assert_scans_match_frozen(marked, b, lo=-30, hi=30):
    lat = marked.lattice
    assert scan_orthogonal_negatives(marked, b) == frozen_scan_orthogonal_negatives(marked, b)
    assert find_isotropic(lat, b) == frozen_find_isotropic(lat, b)
    assert represents_in_range(lat, lo, hi, b) == frozen_represents_in_range(lat, lo, hi, b)


def test_scans_match_frozen_on_seed_grid():
    for a_sq in (2, 4, 6, 8, 10):
        for big_n in (1, 2, 3, 4, 5):
            marked = build_parabolic_seed_lattice(a_sq, big_n)
            for bound in (1, 2, 10):
                _assert_scans_match_frozen(marked, bound)


def test_scans_match_frozen_on_random_lattices():
    rng = random.Random(14)
    inner_solves = checked = 0
    while checked < 150:
        rank = rng.randint(2, 4)
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                g[i][j] = g[j][i] = rng.randint(-6, 6)
        if det_exact(g) == 0:
            continue
        lat = QuadLattice(tuple(map(tuple, g)))
        y = tuple(rng.randint(-3, 3) for _ in range(rank))
        if not any(y):
            continue
        gy = [sum(r * x for r, x in zip(row, y)) for row in g]
        inner_solves += gy[-1] == 0  # the solved coordinate is not the last one
        lo = rng.randint(-25, 5)
        _assert_scans_match_frozen(MarkedLattice(lat, y, y, y), rng.choice((1, 2, 3)), lo, lo + 20)
        checked += 1
    assert inner_solves
    # (Gy) = (1, -1, 0): v_1 is solved and v_2 runs freely after it
    lat = diagonal_lattice(1, -1, -3)
    _assert_scans_match_frozen(MarkedLattice(lat, (1, 0, 0), (0, 0, 1), (1, 1, 0)), 4)


def test_scan_orthogonal_negatives_non_integral_solve():
    # (Gy) = (2, 3): v_1 = -2 v_0 / 3 is a fraction unless 3 | v_0
    marked = MarkedLattice(diagonal_lattice(1, -3), (1, 0), (0, 1), (2, -1))
    assert scan_orthogonal_negatives(marked, 5) == [((-3, 2), -3), ((3, -2), -3)]
    _assert_scans_match_frozen(marked, 5)


def test_scan_orthogonal_negatives_degenerate_y():
    # Gy = 0 puts the whole box in y^perp; on a nondegenerate lattice only y = 0 does
    marked = MarkedLattice(build_parabolic_seed_lattice(2, 5).lattice, (1, 0, 0), (0, 1, 0), (0, 0, 0))
    for bound in (1, 3):
        _assert_scans_match_frozen(marked, bound)
        box = itertools.product(range(-bound, bound + 1), repeat=3)
        found = scan_orthogonal_negatives(marked, bound)
        assert len(found) == sum(marked.lattice.q(v) < 0 for v in box)


def test_oversized_boxes_are_refused_before_the_scan():
    t0 = time.perf_counter()
    for call in (lambda: find_isotropic(k3_lattice(), 1),  # about 1.6e10 half-box vectors
                 lambda: represents_in_range(k3_lattice(), -2, 2, 1),
                 lambda: scan_orthogonal_negatives(build_parabolic_seed_lattice(2, 1), 10**6)):
        with pytest.raises(PreconditionError, match="MAX_SCAN"):
            call()
    assert time.perf_counter() - t0 < 1.0


def test_scan_cap_counts_visited_vectors(monkeypatch):
    # half boxes ((2B+1)^n - 1) / 2, y^perp (2B+1)^(n-1), the whole box when Gy = 0
    seed = build_parabolic_seed_lattice(2, 5)
    zero_y = MarkedLattice(seed.lattice, (1, 0, 0), (0, 1, 0), (0, 0, 0))
    for cap, calls in ((220, [lambda: find_isotropic(diagonal_lattice(1, -3), 10),
                              lambda: represents_in_range(diagonal_lattice(1, -3), -5, 5, 10)]),
                       (441, [lambda: scan_orthogonal_negatives(seed, 10)]),
                       (9261, [lambda: scan_orthogonal_negatives(zero_y, 10)])):
        for call in calls:
            monkeypatch.setattr(lattice_module, "MAX_SCAN", cap)
            call()
            monkeypatch.setattr(lattice_module, "MAX_SCAN", cap - 1)
            with pytest.raises(PreconditionError, match="MAX_SCAN"):
                call()


def test_seed_lattice_preconditions():
    with pytest.raises(PreconditionError):
        build_parabolic_seed_lattice(3, 5)  # odd
    with pytest.raises(PreconditionError):
        build_parabolic_seed_lattice(2, 0)


def test_json_roundtrip_big_ints():
    lat = QuadLattice(((2**60, 1), (1, 0)))
    d = json.loads(json.dumps(lat.to_json_dict({"y": (0, 1)})))
    assert d["gram"][0][0] == str(2**60) and d["marks"] == {"y": [0, 1]}
    assert QuadLattice.from_json_dict(d).gram == lat.gram


def test_gram_entries_must_be_integral():
    for bad in (1.5, Fraction(3, 2), float("nan"), float("inf")):
        with pytest.raises(PreconditionError):
            QuadLattice(((bad, 0), (0, -1)))
    for bad in ("a", "1_000", " 7", "7\n", "+7", "", None, [1], True):
        with pytest.raises(ParseError):
            QuadLattice(((bad, 0), (0, -1)))
    # integral values of any numeric type, and decimal strings, are kept exactly
    lat = QuadLattice(((2.0, Fraction(4, 4)), ("1", -3)))
    assert lat.gram == ((2, 1), (1, -3)) and all(type(x) is int for r in lat.gram for x in r)
    assert QuadLattice.from_json_dict({"gram": [[1.0, 0], [0, "-1"]]}).gram == ((1, 0), (0, -1))
    with pytest.raises(PreconditionError):
        QuadLattice.from_json_dict({"gram": [[1.5, 0], [0, -1]]})
