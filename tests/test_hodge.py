import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from parabolic_lab.errors import PreconditionError
from parabolic_lab.hodge import (
    MAX_HAFNIAN,
    FujikiStructure,
    HermitianForm,
    RigidityVerdict,
    amgm_mixed_ratios,
    amgm_rigidity_check,
    fujiki_polarized,
    fujiki_top,
    hafnian,
)
from parabolic_lab.lattice import diagonal_lattice, hyperbolic_plane

from helpers import frozen_hafnian, fujiki_polarized_bruteforce, matching_sum

U = hyperbolic_plane()


def test_fujiki_top_examples():
    f = FujikiStructure(U, n=2)
    assert fujiki_top(f, (1, 0)) == 0  # isotropic class
    f2 = FujikiStructure(diagonal_lattice(3), n=2)
    assert fujiki_top(f2, (1,)) == 9
    eta = (1, 1)
    doubled = tuple(2 * x for x in eta)
    assert fujiki_top(f, doubled) == 2**4 * fujiki_top(f, eta)


def test_polarized_examples():
    f1 = FujikiStructure(U, n=1)
    assert fujiki_polarized(f1, [(1, 0), (0, 1)]) == 2 * U.bbf((1, 0), (0, 1))
    # any argument isotropic and orthogonal to the others kills every term
    assert fujiki_polarized(f1, [(1, 0), (1, 0)]) == 0
    # all arguments equal: the combinatorial constant is (2n)!
    for n in (1, 2):
        f = FujikiStructure(U, n=n)
        val = fujiki_polarized(f, [(1, 1)] * (2 * n))
        assert val == math.factorial(2 * n) * U.q((1, 1)) ** n
    # the hafnian form equals the literal permutation sum, Fraction vectors included
    rng = random.Random(9)
    lat = diagonal_lattice(2, -3, 5)
    for n in (1, 2, 3, 4):
        f = FujikiStructure(lat, n=n, k=Fraction(3, 7))
        etas = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                for _ in range(2 * n)]
        assert fujiki_polarized(f, etas) == fujiki_polarized_bruteforce(f, etas)
    # beyond the permutation sum's reach, against the frozen matching recursion
    for n in (5, 6):
        f = FujikiStructure(lat, n=n, k=Fraction(3, 7))
        etas = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
                for _ in range(2 * n)]
        q = [[sum(u[i] * lat.gram[i][i] * v[i] for i in range(3)) for v in etas]
             for u in etas]  # lat is diagonal
        want = f.k * 2**n * math.factorial(n) * frozen_hafnian(q)
        assert fujiki_polarized(f, etas) == want
    with pytest.raises(PreconditionError):
        fujiki_polarized(f1, [(1, 0)])
    with pytest.raises(PreconditionError, match="MAX_HAFNIAN"):  # 26 vectors > 24
        fujiki_polarized(FujikiStructure(U, n=13), [(1, 0)] * 26)


def test_fujiki_top_refuses_powers_outside_the_float_range():
    # q(eta, eta) = 30 on U: 30^600 is past 2^1024, and is refused before it is formed
    for n in (600, 10**5, 10**12):
        with pytest.raises(PreconditionError, match="float range"):
            fujiki_top(FujikiStructure(U, n=n), (3, 5))
    two = FujikiStructure(diagonal_lattice(2), n=1024)
    assert fujiki_top(two, (1,)) == 2**1024  # log2 q^n = 1024 exactly: still formed
    with pytest.raises(PreconditionError, match="float range"):
        fujiki_top(FujikiStructure(diagonal_lattice(2), n=1025), (1,))
    # 1/9^n below the smallest float, from a Fraction eta
    with pytest.raises(PreconditionError, match="float range"):
        fujiki_top(FujikiStructure(diagonal_lattice(1), n=10**6), (Fraction(1, 3),))
    # q = 0 and q = 1 are cheap for any n
    assert fujiki_top(FujikiStructure(U, n=10**12), (1, 0)) == 0
    assert fujiki_top(FujikiStructure(diagonal_lattice(1), n=10**12), (1,)) == 1


def test_hafnian_small():
    assert hafnian([[0, 5], [5, 0]]) == 5
    assert hafnian([[1] * 4] * 4) == 3  # K4 has three perfect matchings
    with pytest.raises(PreconditionError):
        hafnian([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _same(a, b) -> bool:
    return a == b and type(a) is type(b)


def test_hafnian_matches_frozen_recursion():
    rng = random.Random(21)
    draws = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        lambda: rng.uniform(-2.0, 2.0),
    )
    for draw in draws:
        for m in range(0, 13, 2):
            q = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    q[i][j] = q[j][i] = draw()
            assert _same(hafnian(q), frozen_hafnian(q))  # floats too: same summation order
    ints = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
    ints = [[ints[min(i, j)][max(i, j)] for j in range(6)] for i in range(6)]
    fractions_on_diagonal = [[Fraction(x, 7) if i == j else x for j, x in enumerate(r)]
                             for i, r in enumerate(ints)]
    mixed = [[Fraction(x, 3) if (i + j) % 3 == 0 else x for j, x in enumerate(r)]
             for i, r in enumerate(ints)]
    integer_valued = [[Fraction(x) for x in r] for r in ints]
    for q, kind in ((fractions_on_diagonal, int), (mixed, Fraction), (integer_valued, Fraction)):
        assert _same(hafnian(q), frozen_hafnian(q)) and type(hafnian(q)) is kind, q
    # finite floats whose products overflow: the result is inf, or nan from inf - inf
    big = 1e200
    overflow = [[big] * 4 for _ in range(4)]
    cancel = [[0.0, big, big, 1.0], [big, 0.0, 1.0, -big], [big, 1.0, 0.0, big],
              [1.0, -big, big, 0.0]]
    # a 0.0 entry is kept on floats: 0.0 times the overflowed 4 x 4 minor is NaN
    zero_times_inf = [[big] * 6 for _ in range(6)]
    zero_times_inf[0][1] = zero_times_inf[1][0] = 0.0
    for q, text in ((overflow, "inf"), (cancel, "nan"), (zero_times_inf, "nan")):
        assert repr(hafnian(q)) == repr(frozen_hafnian(q)) == text
    # sparse integer matrices skip their zero entries: still == and int
    for density in (0.1, 0.3, 0.6):
        q = [[0] * 12 for _ in range(12)]
        for i in range(12):
            for j in range(i, 12):
                if rng.random() < density:
                    q[i][j] = q[j][i] = rng.randint(-9, 9)
        assert _same(hafnian(q), frozen_hafnian(q))
        half = [[Fraction(x, 2) for x in r] for r in q]
        assert _same(hafnian(half), frozen_hafnian(half))
    # a numpy array is read through tolist(), so it matches the recursion on the list
    for arr in (np.array(ints), np.array(ints, dtype=float) / 4):
        assert _same(hafnian(arr), frozen_hafnian(arr.tolist()))
    # the bench's largest: 14 x 14, ints and Fractions
    for draw in draws[:2]:
        q = [[0] * 14 for _ in range(14)]
        for i in range(14):
            for j in range(i, 14):
                q[i][j] = q[j][i] = draw()
        assert _same(hafnian(q), frozen_hafnian(q))


def test_hafnian_refuses_nonfinite_entries_and_sizes_past_the_cap():
    for bad in (math.nan, math.inf, -math.inf, complex(1, math.nan), np.float64("nan")):
        with pytest.raises(PreconditionError, match="finite"):
            hafnian([[0, bad], [bad, 0]])
        with pytest.raises(PreconditionError, match="finite"):
            hafnian([[bad, 1], [1, 0]])  # the diagonal too, though the sum never reads it
    with pytest.raises(PreconditionError, match="finite"):
        hafnian(np.array([[0.0, math.nan], [math.nan, 0.0]]))
    # the cap is inclusive: K_24 has 23!! perfect matchings
    assert hafnian([[1] * MAX_HAFNIAN] * MAX_HAFNIAN) == math.prod(range(1, MAX_HAFNIAN, 2))
    with pytest.raises(PreconditionError, match="MAX_HAFNIAN"):
        hafnian([[1] * (MAX_HAFNIAN + 2)] * (MAX_HAFNIAN + 2))


def test_hafnian_vs_explicit_matchings_4x4():
    rng = random.Random(7)
    for _ in range(10):
        q = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                q[i][j] = q[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        explicit = (
            q[0][1] * q[2][3] + q[0][2] * q[1][3] + q[0][3] * q[1][2]
        )
        assert hafnian(q) == explicit


def test_matching_sum_identity():
    rng = random.Random(8)
    for m in (2, 4, 6):
        for _ in range(5):
            q = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    q[i][j] = q[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert matching_sum(q) == 2 ** (m // 2) * math.factorial(m // 2) * hafnian(q)


def test_amgm_ratios():
    eye = HermitianForm(np.eye(2))
    mean, det = amgm_mixed_ratios(eye, eye)
    assert mean == pytest.approx(1) and det == pytest.approx(1)
    h = HermitianForm(np.diag([2.0, 0.5]))
    mean, det = amgm_mixed_ratios(h, eye)
    assert mean == pytest.approx(1.25) and det == pytest.approx(1)
    mean, det = amgm_mixed_ratios(HermitianForm(2 * np.eye(2)), eye)
    assert mean == pytest.approx(2) and det == pytest.approx(4)
    with pytest.raises(PreconditionError):
        amgm_mixed_ratios(eye, HermitianForm(np.eye(3)))


def test_hermitian_validation():
    with pytest.raises(PreconditionError):
        HermitianForm(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        HermitianForm(np.diag([1.0, -1.0]))
    # a form the ratios cannot be computed with: a NaN entry, or a determinant
    # that underflows to 0 or overflows to inf as a float
    with pytest.raises(PreconditionError, match="finite"):
        HermitianForm(np.array([[math.nan]]))
    with pytest.raises(PreconditionError, match="finite"):
        HermitianForm(np.array([[math.inf, 0.0], [0.0, 1.0]]))
    for scale in (1e-200, 1e200):
        with pytest.raises(PreconditionError, match="determinant"):
            HermitianForm(scale * np.eye(2))
    assert HermitianForm(1e-100 * np.eye(2)).det() > 0


def test_rigidity_verdicts():
    eye = HermitianForm(np.eye(2))
    assert amgm_rigidity_check(eye, eye) == RigidityVerdict.EQUAL
    h = HermitianForm(np.diag([2.0, 0.5]))
    assert amgm_rigidity_check(h, eye) == RigidityVerdict.PREMISE_VIOLATED
    # a tolerance that is not positive and finite would decide the verdict by itself
    for tol in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(PreconditionError, match="tol must be positive and finite"):
            amgm_rigidity_check(eye, eye, tol)
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h1 = HermitianForm(a @ a.conj().T + 0.1 * np.eye(n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h2 = HermitianForm(b @ b.conj().T + 0.1 * np.eye(n))
        assert amgm_rigidity_check(h1, h2) != RigidityVerdict.COUNTEREXAMPLE
        assert amgm_rigidity_check(h1, h1) == RigidityVerdict.EQUAL


def test_rigidity_near_equal_perturbation():
    rng = np.random.default_rng(3)
    tol = 1e-9
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h2m = a @ a.conj().T + 0.5 * np.eye(n)
        # multiplicative perturbation small enough to keep both premises
        pert = rng.normal(size=(n, n)) * 1e-11
        h1m = h2m + (pert + pert.T)
        h1, h2 = HermitianForm(h1m), HermitianForm(h2m)
        mean, det = amgm_mixed_ratios(h1, h2)
        if abs(mean - 1) < tol and abs(det - 1) < tol:
            assert amgm_rigidity_check(h1, h2, tol) == RigidityVerdict.EQUAL
            bound = 4 * n * math.sqrt(tol) * max(1.0, float(np.max(np.abs(h2m))))
            assert float(np.max(np.abs(h1m - h2m))) < bound


def test_amgm_inequality_lemma():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        alphas = rng.uniform(0.1, 10.0, size=n)
        arith = float(np.mean(alphas))
        geom = float(np.prod(alphas) ** (1 / n))
        assert arith >= geom - 1e-12
        if arith - geom < 1e-12:
            assert float(np.max(alphas) / np.min(alphas)) - 1 < 1e-5
    equal = np.full(5, 3.7)
    assert float(np.mean(equal)) == pytest.approx(float(np.prod(equal) ** 0.2))
