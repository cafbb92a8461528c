import random
from fractions import Fraction

import pytest

from parabolic_lab.errors import PreconditionError
from parabolic_lab.exact import ParseError
from parabolic_lab.linalg_exact import (
    det_exact,
    hnf,
    identity_matrix,
    inverse_exact,
    inverse_unimodular,
    kernel_basis,
    lll_reduce,
    mat_eq,
    mat_mul,
    mat_pow,
    rank_exact,
    solve_exact,
)

from helpers import frozen_det, frozen_inverse, frozen_kernel, frozen_lll, frozen_rank, frozen_solve


def test_det_and_inverse():
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [2, 4]]) == 0
    m = [[2, 1], [1, 1]]
    assert inverse_unimodular(m) == [[1, -1], [-1, 2]]
    inv = inverse_exact([[2, 0], [0, 4]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]
    with pytest.raises(ZeroDivisionError):
        inverse_exact([[1, 1], [1, 1]])


def test_mat_pow():
    m = [[1, 1], [0, 1]]
    assert mat_pow(m, 5) == [[1, 5], [0, 1]]
    assert mat_pow(m, 0) == identity_matrix(2)


def test_kernel_and_rank():
    assert kernel_basis([[1, 2, 3]]) == [[2, -1, 0], [3, 0, -1]]
    assert rank_exact([[1, 2], [2, 4], [0, 1]]) == 2
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_solve():
    assert solve_exact([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
    assert solve_exact([[1, 1], [1, 1]], [0, 1]) is None


def _random_matrix(rng, rows, cols, fractions, rank):
    """rows x cols with rank <= `rank`: integer combinations of `rank` random rows."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if fractions else rng.randint(-9, 9)

    base = [[entry() for _ in range(cols)] for _ in range(rank)]
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
        ("fraction", "non_square", "rank_deficient", "zero_row", "no_free_column",
         "singular_inverse", "inconsistent", "swap"), 0)
    for trial in range(400):
        fractions = trial % 2 == 1
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            cols = rows
        a = _random_matrix(rng, rows, cols, fractions, rng.randint(0, min(rows, cols) + 1))
        rank = rank_exact(a)
        assert rank == frozen_rank(a)
        kernel = kernel_basis(a)
        assert kernel == frozen_kernel(a)
        assert len(kernel) == cols - rank
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for v in kernel for row in a)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        for b in ([sum(r * xi for r, xi in zip(row, x)) for row in a],
                  [rng.randint(-5, 5) for _ in range(rows)]):
            sol = solve_exact(a, b)
            assert sol == frozen_solve(a, b)
            if sol is None:
                seen["inconsistent"] += 1
            else:
                assert [sum(r * xi for r, xi in zip(row, sol)) for row in a] == b
        seen["fraction"] += fractions
        seen["non_square"] += rows != cols
        seen["rank_deficient"] += rank < min(rows, cols)
        seen["zero_row"] += any(not any(row) for row in a)
        seen["no_free_column"] += not kernel
        if rows != cols:
            continue
        det = det_exact(a)
        assert det == frozen_det(a)
        assert isinstance(det, int) or fractions
        if rows > 1:
            i, j = rng.sample(range(rows), 2)
            swapped = [row[:] for row in a]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert det_exact(swapped) == -det
            seen["swap"] += det != 0
        if det == 0:
            with pytest.raises(ZeroDivisionError):
                inverse_exact(a)
            seen["singular_inverse"] += 1
        else:
            inv = inverse_exact(a)
            assert inv == frozen_inverse(a)
            assert mat_eq(mat_mul(a, inv), identity_matrix(rows))
    assert all(seen.values()), seen


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


def test_lll_matches_frozen_fraction_lll():
    bases = _lll_bases(random.Random(11))
    assert len(bases) >= 500
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
    with pytest.raises(ValueError):  # PreconditionError is a ValueError
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(TypeError):
        lll_reduce([[1, 0], [0, 1]], Fraction(3, 4))
    assert lll_reduce([[2.0, 0], [Fraction(4, 2), 1]]) == frozen_lll([[2, 0], [2, 1]]) == [[0, 1], [2, 0]]
    assert lll_reduce([]) == []
