import random
from fractions import Fraction

from parabolic_lab import polynomials
from parabolic_lab.isometry import eichler_transvection
from parabolic_lab.lattice import e8_lattice, hyperbolic_plane
from parabolic_lab.linalg_exact import det_exact, mat_mul
from parabolic_lab.polynomials import (
    cauchy_root_bound,
    charpoly,
    cyclotomic_indices,
    degree,
    _cyclotomic_ints,
    _squarefree_ints,
    euler_phi,
    isolate_largest_root_above,
    minimal_polynomial,
    strip_cyclotomic_factors,
)

from helpers import (
    _frozen_evaluate,
    _frozen_divmod,
    _frozen_poly,
    frozen_charpoly,
    frozen_cyclotomic,
    frozen_evaluate_matrix,
    frozen_inverse,
    frozen_isolate,
    frozen_minimal_polynomial,
    frozen_poly_mul,
    frozen_squarefree_part,
    frozen_strip,
)


def test_charpoly_matches_determinant():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        p = charpoly(m)
        assert p[-1] == 1 and degree(p) == n
        for x in (0, 1, -2, 3):
            shifted = [[x * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
            assert _frozen_evaluate(p, x) == det_exact(shifted)


def _transvection_words(copies: int, rng: random.Random, count: int):
    """Words of 1-3 Eichler transvections on U + E8(-1)^copies, along both axes of U."""
    lat = hyperbolic_plane()
    for _ in range(copies):
        lat = lat.direct_sum(e8_lattice())
    n = lat.rank
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    words = []
    for _ in range(count):
        m = [list(r) for r in unit]
        for _ in range(rng.randint(1, 3)):
            t = eichler_transvection(lat, unit[rng.randrange(2)], unit[rng.randrange(2, n)])
            m = mat_mul(m, [list(r) for r in t.matrix])
        words.append(m)
    return words


def test_charpoly_matches_frozen_fraction_version():
    rng = random.Random(12)
    mats = [
        [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for n in range(2, 19)
    ]
    mats += _transvection_words(1, rng, 4) + _transvection_words(2, rng, 2)
    for m in mats:
        p = charpoly(m)
        assert p == frozen_charpoly(m)
        assert all(type(c) is int for c in p)


def test_isolate_matches_frozen_bisection():
    rng = random.Random(13)
    cases = []
    for _ in range(60):  # random integer polynomials, most with no root above 1
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        cases.append((_frozen_poly(coeffs), Fraction(1)))
    for m in _transvection_words(1, rng, 6):
        cases.append((charpoly(m), Fraction(1)))
    # non-squarefree, and several roots above 1
    cases.append((frozen_poly_mul(_frozen_poly([-3, 0, 1]), _frozen_poly([-3, 0, 1])), Fraction(1)))
    p = frozen_poly_mul(_frozen_poly([-2, 1]),
                        frozen_poly_mul(_frozen_poly([-2, 1]), _frozen_poly([-5, 0, 1])))
    cases.append((p, Fraction(1)))
    cases.append((frozen_poly_mul(_frozen_poly([-6, 11, -6, 1]), _frozen_poly([-7, 0, 1])),
                  Fraction(1)))
    # a root r = 1 + m 2^-k at a bisection midpoint: with lower = (r - t B) / (1 - t)
    # for a dyadic t, r is a dyadic point of (lower, B], B the Cauchy bound
    for k, m, extra, t in ((1, 1, (1, 0, 1), Fraction(1, 2)), (3, 5, (-1, 1), Fraction(3, 4)),
                           (4, 9, (2, 0, 1), Fraction(5, 8)), (2, 7, (3, 1), Fraction(1, 4)),
                           (5, 1, (-1, 0, 1), Fraction(13, 16))):
        r = 1 + Fraction(m, 2**k)
        p = frozen_poly_mul(_frozen_poly([-r, 1]), _frozen_poly(extra))
        lower = (r - t * cauchy_root_bound(p)) / (1 - t)
        got = isolate_largest_root_above(p, lower)
        assert got[1] == r  # the root ended at hi exactly
        cases.append((p, lower))
    assert isolate_largest_root_above((-2, 1), Fraction(1))[1] == 2  # first midpoint
    for p, lower in cases:
        assert isolate_largest_root_above(p, lower) == frozen_isolate(p, lower, bits=200), (p, lower)


def _integer_kernel_cases():
    """Nonconstant polynomials for the integer remainder kernels and their oracles.

    Charpolys of rank-10 and rank-18 transvection words, Fraction and
    non-monic coefficients (some leads negative), linear polynomials, and
    squares and cubes for repeated roots.
    """
    rng = random.Random(15)
    words = _transvection_words(1, rng, 3) + _transvection_words(2, rng, 2)
    cases = [charpoly(m) for m in words]
    for _ in range(10):
        lead = Fraction(rng.choice((-7, -2, -1, 3, 5)), rng.randint(1, 4))
        cases.append(_frozen_poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(rng.randint(1, 5))] + [lead]))
    cases += [_frozen_poly([-2, 1]), _frozen_poly([3, -1]),
              _frozen_poly([Fraction(-5, 2), Fraction(3, 4)]), _frozen_poly([0, -4])]
    for _ in range(5):
        base = _frozen_poly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                    + [rng.choice((-2, 1, 3))])
        cases += [frozen_poly_mul(base, base), frozen_poly_mul(base, frozen_poly_mul(base, base))]
    cases.append(frozen_poly_mul(_frozen_poly([Fraction(-3, 2), 1]),
                                 _frozen_poly([Fraction(-3, 2), 1])))
    cases.append(frozen_poly_mul(charpoly(words[-1]), _frozen_poly([-5, 0, 1])))
    return cases


LOWERS = (Fraction(1), Fraction(0), Fraction(-3, 2))


def test_integer_isolation_matches_frozen_on_kernel_cases():
    found = 0
    for p in _integer_kernel_cases():
        for lower in LOWERS:
            got = isolate_largest_root_above(p, lower)
            assert got == frozen_isolate(p, lower, bits=200), (p, lower)
            found += got is not None
    assert found > 40  # most cases do have a root to isolate
    # constants have no roots (the frozen oracle's Cauchy bound needs degree >= 1)
    for p in ((), _frozen_poly([5]), _frozen_poly([Fraction(-2, 3)])):
        for lower in LOWERS:
            assert isolate_largest_root_above(p, lower) is None


def test_isolation_refines_quadratically(monkeypatch):
    # halving alone takes 209 and 212 sign evaluations on these two (a quadratic unit and a
    # Salem quartic); the secant-guided refinement needs a few dozen, so plain bisection fails here
    homogeneous, calls = polynomials._homogeneous, [0]

    def counting(*args):
        calls[0] += 1
        return homogeneous(*args)

    monkeypatch.setattr(polynomials, "_homogeneous", counting)
    for p in ((1, -6, 1), (1, -4, -2, -4, 1)):
        calls[0] = 0
        lo, hi = isolate_largest_root_above(p, Fraction(1))
        assert hi - lo <= Fraction(1, 2**200) and calls[0] <= 64, (p, calls[0])


def test_squarefree_and_gcd_match_frozen_euclid():
    # the gcd with p' is the integer Euclid inside _squarefree_ints, checked through its quotient
    cases = _integer_kernel_cases() + [_frozen_poly([5]), _frozen_poly([Fraction(-2, 3)])]
    for p in cases:
        sqf = _squarefree_ints(p)
        assert all(type(c) is int for c in sqf) and sqf[-1] > 0, p
        assert tuple(Fraction(c, sqf[-1]) for c in sqf) == frozen_squarefree_part(p), p
    assert _squarefree_ints(()) == []


def test_minimal_polynomial():
    assert minimal_polynomial([[1, 1], [0, 1]]) == (1, -2, 1)
    assert minimal_polynomial([[2, 0], [0, 2]]) == (-2, 1)
    assert minimal_polynomial([[0, 1], [1, 0]]) == (-1, 0, 1)
    # minimal polynomial divides characteristic polynomial, annihilates M
    rng = random.Random(2)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        mp_ = minimal_polynomial(m)
        assert all(type(c) is int for c in mp_) and mp_[-1] == 1
        assert not _frozen_divmod(charpoly(m), mp_)[1]
        assert all(x == 0 for row in frozen_evaluate_matrix(mp_, m) for x in row)
    # against the frozen Krylov route: int entries, Jordan blocks hidden by a
    # unimodular change of basis, and the 0x0 matrix
    assert minimal_polynomial([]) == frozen_minimal_polynomial([]) == (1,)
    mats = [[[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)] for n in range(1, 9)]
    for blocks in (((2, 3), (2, 1), (-1, 2)), ((1, 2), (1, 2)), ((0, 4), (3, 1)),
                   ((1, 1), (1, 1), (1, 1)), ((-2, 2), (5, 2), (-2, 1))):
        n = sum(size for _, size in blocks)
        j = [[0] * n for _ in range(n)]
        k = 0
        for lam, size in blocks:
            for i in range(k, k + size):
                j[i][i] = lam
                if i + 1 < k + size:
                    j[i][i + 1] = 1
            k += size
        u = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(2 * n):  # one sign per row operation, so u stays unimodular
            r, c = rng.sample(range(n), 2)
            sign = rng.choice((-1, 1))
            u[r] = [x + sign * y for x, y in zip(u[r], u[c])]
        mats.append(mat_mul(mat_mul(u, j), frozen_inverse(u)))
    for m in mats:
        assert minimal_polynomial(m) == frozen_minimal_polynomial(m), m


def test_cyclotomics():
    assert _cyclotomic_ints(1) == (-1, 1)
    assert _cyclotomic_ints(2) == (1, 1)
    assert _cyclotomic_ints(4) == (1, 0, 1)
    assert _cyclotomic_ints(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4
    assert set(cyclotomic_indices(2)) == {1, 2, 3, 4, 6}


def test_cyclotomic_matches_frozen_and_divides_x_to_the_d_minus_1():
    for d in range(1, 121):
        assert _cyclotomic_ints(d) == frozen_cyclotomic(d), d
    # d = 630 has 48 divisors; the product of their Phi_e is x^630 - 1
    d = 630
    assert len(_cyclotomic_ints(d)) - 1 == euler_phi(d) == 144
    prod_ = (1,)
    for e in range(1, d + 1):
        if d % e == 0:
            prod_ = frozen_poly_mul(prod_, _cyclotomic_ints(e))
    assert prod_ == tuple([-1] + [0] * (d - 1) + [1])


def test_strip_matches_frozen_fraction_strip():
    rng = random.Random(7)
    indices = [d for d in range(1, 31) if euler_phi(d) <= 8]
    for trial in range(240):
        # a random factor, seldom cyclotomic, times up to three cyclotomics
        p = _frozen_poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 4))]
                         + [rng.choice((1, 2, 3))])
        for _ in range(rng.randint(0, 3)):
            p = frozen_poly_mul(p, frozen_cyclotomic(rng.choice(indices)))
        if trial % 3 == 1:
            root = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            p = frozen_poly_mul(p, _frozen_poly([root, 1]))
        if trial % 4 == 2:
            p = _frozen_poly([c * Fraction(rng.randint(1, 7), rng.randint(1, 7)) for c in p])
        if any(c.denominator > 1 for c in p):
            continue  # a rational p: classify strips only the integer charpoly
        rem, found = strip_cyclotomic_factors(tuple(map(int, p)))
        # the integer remainder is p's quotient in Z[x], so monic once divided by p's lead
        assert (tuple(Fraction(c, rem[-1]) for c in rem), found) == frozen_strip(p), p
        assert all(type(c) is int for c in rem) and rem[-1] == p[-1]
    for p in ((), (1,), (-1, 1), (-1, 0, 1)):
        assert strip_cyclotomic_factors(p) == frozen_strip(p), p


def test_strip_cyclotomic_factors():
    phi1 = frozen_cyclotomic(1)
    p = frozen_poly_mul(frozen_cyclotomic(4), frozen_poly_mul(phi1, phi1))
    rem, found = strip_cyclotomic_factors(p)
    assert degree(rem) == 0 and found == {1: 2, 4: 1}
    rem, found = strip_cyclotomic_factors((1, -6, 1))  # Pell: x^2-6x+1
    assert degree(rem) == 2 and not found


def test_squarefree():
    p = frozen_poly_mul(_frozen_poly([-1, 1]), _frozen_poly([-1, 1]))
    assert _squarefree_ints(p) == [-1, 1]
    assert _squarefree_ints((-1, 0, 1)) == [-1, 0, 1]


def test_isolate_largest_root():
    p = (1, -6, 1)
    lo, hi = isolate_largest_root_above(p, Fraction(1))
    lam = 3 + 2 * 2**0.5
    assert float(lo) <= lam <= float(hi) + 1e-15
    assert isolate_largest_root_above((1, 0, 1), Fraction(1)) is None
    assert cauchy_root_bound(p) == 7
