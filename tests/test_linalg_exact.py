import collections
import random
from fractions import Fraction
from math import floor, gcd

import pytest

from parabolic_lab.errors import PreconditionError
from parabolic_lab.exact import ParseError
from parabolic_lab.linalg_exact import (
    _primitive,
    det_exact,
    hnf,
    identity_matrix,
    kernel_basis,
    lll_reduce,
    mat_mul,
    mat_pow,
    mat_vec,
    primitive_vector,
    rank_exact,
    scaled_inverse,
    scaled_ints,
    solve_exact,
)
from parabolic_lab.polynomials import charpoly, minimal_polynomial

from helpers import (
    frozen_det,
    frozen_inverse,
    frozen_kernel,
    frozen_lll,
    frozen_mat_mul,
    frozen_mat_pow,
    frozen_mat_vec,
    frozen_rank,
    frozen_solve,
)


def _inverse(a):
    """a^-1 as Fractions, read off the integer pair (d a^-1, d)."""
    scaled, d = scaled_inverse(a)
    return [[Fraction(x, d) for x in row] for row in scaled]


def test_det_and_inverse():
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [2, 4]]) == 0
    m = [[2, 1], [1, 1]]
    assert scaled_inverse(m) == ([[1, -1], [-1, 2]], 1)  # unimodular: d = det = 1
    scaled, d = scaled_inverse([[2, 0], [0, 4]])
    assert all(type(x) is int for row in scaled for x in row) and type(d) is int
    assert _inverse([[2, 0], [0, 4]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    with pytest.raises(ZeroDivisionError):
        scaled_inverse([[1, 1], [1, 1]])


def test_mat_pow():
    m = [[1, 1], [0, 1]]
    assert mat_pow(m, 5) == [[1, 5], [0, 1]]
    assert mat_pow(m, 0) == identity_matrix(2)
    with pytest.raises(ValueError, match="scaled_inverse"):
        mat_pow(m, -1)


def _entries(rng, kind, rows, cols):
    def pick():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            return rng.randint(-6, 6)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return [[pick() for _ in range(cols)] for _ in range(rows)]


def test_matrix_products_match_frozen():
    rng = random.Random(15)
    for kind in ("int", "fraction", "mixed"):
        for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 2, 1), (3, 3, 3), (5, 5, 5), (0, 0, 0)):
            a, b = _entries(rng, kind, rows, inner), _entries(rng, kind, inner, cols)
            v = [row[0] for row in _entries(rng, kind, inner, 1)]
            assert mat_mul(a, b) == frozen_mat_mul(a, b)
            assert mat_vec(a, v) == frozen_mat_vec(a, v)
        for n in (0, 1, 2, 3, 5):
            a = _entries(rng, kind, n, n)
            for k in (0, 1, 2, 5):
                assert mat_pow(a, k) == frozen_mat_pow(a, k), (a, k)
                assert mat_pow(tuple(map(tuple, a)), k) == frozen_mat_pow(a, k)
    a = [[2, 1], [1, 1]]
    assert mat_pow(a, 1) == a and mat_pow(a, 1)[0] is not a[0]  # a copy, not the argument


def _sparse_ints(rng, rows, cols, zero_share):
    return [[0 if rng.random() < zero_share else rng.randint(-(2**80), 2**80) for _ in range(cols)]
            for _ in range(rows)]


def test_row_form_product_matches_frozen():
    """mat_mul skips the zeros of its left factor; the product stays == the full sum."""
    rng = random.Random(28)
    for zero_share in (0.0, 0.4, 0.8, 1.0):
        for n in range(1, 19):
            a, b = _sparse_ints(rng, n, n, zero_share), _sparse_ints(rng, n, n, zero_share)
            assert mat_mul(a, b) == frozen_mat_mul(a, b), (zero_share, n)
    # Fraction(0) entries are skipped like int 0; an all-zero row gives a zero row
    a = [[Fraction(0), 2, Fraction(0)], [0, 0, 0], [Fraction(1, 3), Fraction(0), -1],
         [Fraction(0)] * 3]
    b = [[Fraction(5, 2), 0], [1, Fraction(0)], [Fraction(0), 7]]
    out = mat_mul(a, b)
    assert out == frozen_mat_mul(a, b) and out[1] == out[3] == [0, 0]
    # every output row is a fresh list: mutating one leaves b (and the other rows) unchanged
    b = _sparse_ints(rng, 5, 5, 0.4)
    saved = [row[:] for row in b]
    perm = [[int(j == (i + 2) % 5) for j in range(5)] for i in range(5)]
    for a in (identity_matrix(5), perm, [[0] * 5] * 5):
        out = mat_mul(a, b)
        assert out == frozen_mat_mul(a, b)
        for row in out:
            row[0] += 1
        assert b == saved
        assert len({id(row) for row in out}) == 5
    a, b = _sparse_ints(rng, 2, 3, 0.4), _sparse_ints(rng, 3, 4, 0.4)
    out = mat_mul(a, b)
    assert out == frozen_mat_mul(a, b) and [len(row) for row in out] == [4, 4]
    assert mat_mul([], []) == frozen_mat_mul([], []) == []


def test_kernel_and_rank():
    assert kernel_basis([[1, 2, 3]]) == [[2, -1, 0], [3, 0, -1]]
    assert rank_exact([[1, 2], [2, 4], [0, 1]]) == 2
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_solve():
    assert solve_exact([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
    assert solve_exact([[1, 1], [1, 1]], [0, 1]) is None


def _random_matrix(rng, rows, cols, rank):
    """rows x cols with rank <= `rank`: integer combinations of `rank` random rows."""
    base = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    m = []
    for _ in range(rows):
        c = [rng.randint(-3, 3) for _ in range(rank)]
        m.append([sum((ci * b[j] for ci, b in zip(c, base)), 0) for j in range(cols)])
    if rows > 1 and rng.random() < 0.2:
        m[rng.randrange(rows)] = [0] * cols
    return m


def test_elimination_matches_fraction_oracle():
    """All five elimination routines against the frozen Fraction Gauss-Jordan."""
    rng = random.Random(2024)
    seen = dict.fromkeys(
        ("non_square", "rank_deficient", "zero_row", "no_free_column",
         "singular_inverse", "inconsistent", "swap"), 0)
    for trial in range(400):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            cols = rows
        a = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols) + 1))
        rank = rank_exact(a)
        assert rank == frozen_rank(a)
        kernel = kernel_basis(a)
        assert kernel == frozen_kernel(a)
        assert len(kernel) == cols - rank
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for v in kernel for row in a)
        x = [rng.randint(-5, 5) for _ in range(cols)]
        for b in ([sum(r * xi for r, xi in zip(row, x)) for row in a],
                  [rng.randint(-5, 5) for _ in range(rows)]):
            sol = solve_exact(a, b)
            assert sol == frozen_solve(a, b)
            if sol is None:
                seen["inconsistent"] += 1
            else:
                assert [sum(r * xi for r, xi in zip(row, sol)) for row in a] == b
        seen["non_square"] += rows != cols
        seen["rank_deficient"] += rank < min(rows, cols)
        seen["zero_row"] += any(not any(row) for row in a)
        seen["no_free_column"] += not kernel
        if rows != cols:
            continue
        det = det_exact(a)
        assert det == frozen_det(a)
        assert type(det) is int
        if rows > 1:
            i, j = rng.sample(range(rows), 2)
            swapped = [row[:] for row in a]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert det_exact(swapped) == -det
            seen["swap"] += det != 0
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                scaled_inverse(a)
            seen["singular_inverse"] += 1
        else:
            inv = _inverse(a)
            assert inv == frozen_inverse(a)
            assert mat_mul(a, inv) == identity_matrix(rows)
    assert all(seen.values()), seen


_BASE = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]  # det 3
_KERNELS = {
    "charpoly": charpoly,
    "minimal_polynomial": minimal_polynomial,
    "det_exact": det_exact,
    "scaled_inverse": scaled_inverse,
    "rank_exact": rank_exact,
    "kernel_basis": lambda a: kernel_basis(a[:2]),  # two rows: a one-dimensional kernel
    "solve_exact": lambda a: solve_exact(a, [1, 2, 3]),
}


@pytest.mark.parametrize("name", _KERNELS)
def test_exact_kernels_read_integral_rows(name):
    # one boundary for every kernel: integral entries become ints, others are refused
    kernel = _KERNELS[name]

    def with_corner(x):
        return [[x, *_BASE[0][1:]], *_BASE[1:]]

    for rational in (Fraction(1, 2), 1.5):
        with pytest.raises(PreconditionError, match=f"{name} needs integer entries"):
            kernel(with_corner(rational))
    with pytest.raises(ParseError, match="needs integer entries"):
        kernel(with_corner("abc"))
    for integral in (2.0, Fraction(4, 2)):
        assert kernel(with_corner(integral)) == kernel(_BASE)


def test_scaled_ints_and_primitive_match_fraction_arithmetic():
    rng = random.Random(20)
    draws = (
        lambda: rng.randint(-30, 30),
        lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
        lambda: rng.choice([0.5, -0.25, 0.1, 3.0, -7.0, 1e-3, 2.5e10]),
    )
    cases = [[], [0], [0, 0, 0], [-4, 6], [Fraction(-3, 4), Fraction(1, 6)], [0, -0.5, 1.5]]
    cases += [[rng.choice(draws)() for _ in range(rng.randint(1, 6))] for _ in range(300)]
    for v in cases:
        exact = [Fraction(x) for x in v]
        ints, d = scaled_ints(v)
        assert all(type(x) is int for x in ints) and type(d) is int and d > 0, v
        # d is the least positive scale: a common factor of d and d v would give a smaller one
        assert [Fraction(x, d) for x in ints] == exact and gcd(d, *ints) == 1, v
        p = _primitive(v)
        assert all(type(x) is int for x in p), v
        lead = next((i for i, x in enumerate(exact) if x), None)
        if lead is None:
            assert p == [0] * len(v), v
            continue
        ratio = p[lead] / exact[lead]
        assert ratio > 0 and gcd(*p) == 1 and all(x == ratio * y for x, y in zip(p, exact)), v
        signed = primitive_vector(v)
        assert signed in (tuple(p), tuple(-x for x in p)) and signed[lead] > 0, v


def test_hnf_canonical():
    assert hnf([[2, -1, 0], [4, -2, 0]]) == [[2, -1, 0]]
    assert hnf([[0, 1], [1, 0]]) == [[1, 0], [0, 1]]
    assert hnf([[-3, 0], [0, -5]]) == [[3, 0], [0, 5]]


def test_hnf_refuses_non_integral_entries():
    for rows in ([[1.5, 0], [0, 1]], [[Fraction(1, 2), 0], [0, 1]]):
        with pytest.raises(PreconditionError, match="hnf needs integer entries"):
            hnf(rows)
    # an entry that is no number is malformed input, not a precondition violation
    with pytest.raises(ParseError, match="hnf needs integer entries"):
        hnf([["a", 0]])
    assert hnf([[2.0, 0], [Fraction(4, 2), 1]]) == hnf([[2, 0], [2, 1]]) == [[2, 0], [0, 1]]


def test_hnf_refuses_ragged_rows():
    for rows in ([[1, 0, 0], [0, 1]], [[1, 0], [0, 0, 0]]):
        with pytest.raises(PreconditionError, match="hnf needs rows of equal length"):
            hnf(rows)
    # lattice equality invariance under unimodular row mixes
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if rank_exact(rows) != len(rows):
            continue
        mixed = [row[:] for row in rows]
        for _ in range(6):
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                f = rng.randint(-3, 3)
                mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
        assert hnf(rows) == hnf(mixed)


def _lovasz_ok(rows, delta=Fraction(3, 4)):
    # recompute exact Gram-Schmidt data and check the LLL conditions
    n = len(rows)
    ortho, norms, mu = [], [], {}
    for i in range(n):
        v = [Fraction(x) for x in rows[i]]
        for j in range(i):
            m = Fraction(sum(a * b for a, b in zip(rows[i], ortho[j]))) / norms[j]
            mu[i, j] = m
            v = [a - m * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
    for i in range(n):
        for j in range(i):
            if abs(mu[i, j]) > Fraction(1, 2):
                return False
    for k in range(1, n):
        if norms[k] < (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            return False
    return True


def test_lll_reduces_and_preserves_lattice():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 6)
        rows = [[rng.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
        if rank_exact(rows) != n:
            continue
        red = lll_reduce(rows)
        assert hnf(rows) == hnf(red)
        assert _lovasz_ok(red)


def test_lll_finds_planted_short_vector():
    # a relation-style instance: the short vector (1, -2, 1, 0) is planted
    big = 10**12
    rows = [
        [1, 0, 0, 3 * big + 17],
        [0, 1, 0, 2 * big + 5],
        [0, 0, 1, big + ((2 * (2 * big + 5)) - 3 * big - 17)],
    ]
    # arrange so that r0 - 2 r1 + r2 has tiny last coordinate
    red = lll_reduce(rows)
    shortest = min(red, key=lambda r: sum(x * x for x in r))
    assert sum(x * x for x in shortest) < big


def _lll_bases(rng):
    """Random integer bases, relation-style [I | round(x 10^k)] rows and rounding ties."""
    bases = []
    while len(bases) < 200:
        n = rng.randint(2, 7)
        dim = n + rng.randint(0, 2)
        rows = [[rng.randint(-60, 60) for _ in range(dim)] for _ in range(n)]
        if rank_exact(rows) == n:
            bases.append(rows)
    for t in range(240):
        n, k = rng.randint(1, 6), 1 + t % 30
        x = [rng.random() * rng.choice((1, 10, 1000)) for _ in range(n)] + [1]
        bases.append([[int(j == i) for j in range(n + 1)] + [round(v * 10**k)] for i, v in enumerate(x)])
    for num in (3, -3, 5, -5):
        for _ in range(20):
            a, c = rng.randint(1, 9), rng.randint(-9, 9)
            # mu_10 = num / 2 exactly, the tie that half-to-even rounding decides
            bases.append([[2 * a, 0], [num * a, c or 1]])
    return bases


def _planted_relation_bases(rng):
    """Rows [e_i | round(x_i 10^24)] shaped like the hull inputs of the benchmark.

    x is n coordinates at 160 bits in [0, 1) (n = 2..6) with r planted
    relations x_p = sum_j a_j x_j - floor(...) over the other coordinates,
    followed by x_n = 1, so a basis has n + 1 rows of width n + 2.
    """
    bases = []
    for n in range(2, 7):
        for _ in range(12):
            cols = rng.sample(range(n), n)
            r = rng.randint(0, n - 1)
            pivots, free = cols[:r], cols[r:]
            x = [Fraction(rng.getrandbits(160), 2**160) for _ in range(n)]
            for p in pivots:
                y = sum(rng.randint(-7, 7) * x[j] for j in free)
                x[p] = y - floor(y)
            x.append(Fraction(1))
            bases.append([[int(j == i) for j in range(n + 1)] + [round(v * 10**24)]
                          for i, v in enumerate(x)])
    return bases


def test_lll_matches_frozen_fraction_lll():
    bases = _lll_bases(random.Random(11)) + _planted_relation_bases(random.Random(12))
    assert len(bases) >= 560
    for rows in bases:
        red = lll_reduce(rows)
        assert red == frozen_lll(rows), rows
        assert _lovasz_ok(red)


def test_lll_rounds_ties_half_to_even():
    # b_1 - q b_0 with mu = num / 2: q = 2 for 3/2 and 5/2, -2 for -3/2 and -5/2
    assert lll_reduce([[2, 0], [3, 5]]) == [[2, 0], [-1, 5]]
    assert lll_reduce([[2, 0], [5, 9]]) == [[2, 0], [1, 9]]
    assert lll_reduce([[2, 0], [-3, 9]]) == [[2, 0], [1, 9]]
    assert lll_reduce([[2, 0], [-5, 9]]) == [[2, 0], [-1, 9]]


def test_lll_input_contract():
    with pytest.raises(PreconditionError, match="integer entries"):
        lll_reduce([[1.5, 0], [1, 1]])
    with pytest.raises(PreconditionError, match="integer entries"):
        lll_reduce([[Fraction(1, 2), 0], [1, 1]])
    with pytest.raises(PreconditionError, match="equal length"):
        lll_reduce([[1, 0, 0], [0, 1]])
    for dependent in ([[1, 2], [2, 4]], [[0, 0]], [[1, 0], [0, 1], [1, 1]]):
        with pytest.raises(PreconditionError, match="independent"):
            lll_reduce(dependent)
    # relation-style bases whose last row is a combination of earlier ones: the
    # reduction first works (and swaps) among the rows before it, then reaches it
    rng, swapped = random.Random(13), 0
    for m in (2, 3, 4, 5, 6):
        rows = [[int(j == i) for j in range(m)] + [rng.getrandbits(40)] for i in range(m)]
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        coeffs[rng.randrange(m)] = 1
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(m + 1)])
        steps = collections.Counter()
        frozen_lll(rows[:-1], steps=steps)
        swapped += steps["swap"] > 0
        with pytest.raises(PreconditionError, match="independent"):
            lll_reduce(rows)
    assert swapped == 5
    with pytest.raises(ValueError):  # PreconditionError is a ValueError
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(TypeError):
        lll_reduce([[1, 0], [0, 1]], Fraction(3, 4))
    assert lll_reduce([[2.0, 0], [Fraction(4, 2), 1]]) == frozen_lll([[2, 0], [2, 1]]) == [[0, 1], [2, 0]]
    assert lll_reduce([]) == []
