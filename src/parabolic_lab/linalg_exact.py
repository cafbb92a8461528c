"""Exact linear algebra over the integers and rationals.

Matrices are lists (or tuples) of rows; entries are Python ints or
Fractions.  Everything here is deterministic and exact: one fraction-free
(Bareiss) Gauss-Jordan elimination on Python ints behind the determinant,
inverse, rank and kernel routines (Fraction rows are scaled to integers
first, so only the final results are divided; solve reads its answer off
the kernel of [a | -b]), Hermite normal form with extended-gcd row
operations, and an integral, fraction-free LLL reduction (integer
Gram-Schmidt determinants, exact divisions only).
These kernels back the signature, kernel-extraction and integer-relation
machinery, so no floating point is allowed in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import PreconditionError
from .exact import integral_rows

Matrix = list[list]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_pow(a, k: int) -> Matrix:
    if k < 0:
        raise ValueError("use inverse_exact for negative powers")
    result = identity_matrix(len(a))
    base = [list(r) for r in a]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _integer_rows(a) -> tuple[list[list[int]], list[int]]:
    """Rows of `a` scaled to integers, and the scales (lcm of each row's denominators)."""
    rows, scales = [], []
    for row in a:
        row = [x if isinstance(x, int) else Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scales.append(den)
    return rows, scales


def _gauss_jordan(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix, in place.

    Pivots are chosen in the first `ncols` columns, leftmost first; row
    operations act on whole rows, so augmented columns are carried along.
    Each step replaces every other row by (p * row - f * pivot_row) / d,
    where p is the new pivot and d the previous one; the division is exact
    (Sylvester's identity; Bareiss, Math. Comp. 22, 1968), so all entries
    stay integral.  On return every pivot entry equals d, the last pivot,
    and every other entry of a pivot column is 0.  Returns (pivot columns,
    d, sign of the row permutation).
    """
    rows = len(m)
    pivots: list[int] = []
    d, sign = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        p, prow = m[r][col], m[r]
        for i in range(rows):
            if i != r:
                f = m[i][col]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], prow)]
        d = p
        pivots.append(col)
    return pivots, d, sign


def det_exact(a):
    """Determinant by fraction-free elimination; an int for integer input."""
    n = len(a)
    m, scales = _integer_rows(a)
    pivots, d, sign = _gauss_jordan(m, n)
    if len(pivots) < n:
        return 0
    if all(isinstance(x, int) for row in a for x in row):
        return sign * d
    return Fraction(sign * d, prod(scales))


def inverse_exact(a) -> Matrix:
    """Exact inverse (Fractions) via Gauss-Jordan; raises on singular input."""
    n = len(a)
    m, scales = _integer_rows(a)
    # [S a | S] with S the row scales, so the right block ends as d * a^-1
    for i, (row, scale) in enumerate(zip(m, scales)):
        row.extend(scale if j == i else 0 for j in range(n))
    pivots, d, _ = _gauss_jordan(m, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [[Fraction(x, d) for x in row[n:]] for row in m]


def inverse_unimodular(a) -> Matrix:
    """Inverse of an integer matrix with determinant +-1, as integers."""
    inv = inverse_exact(a)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append([x.numerator for x in row])
    return out


def rank_exact(a) -> int:
    if not a:
        return 0
    m, _ = _integer_rows(a)
    return len(_gauss_jordan(m, len(m[0]))[0])


def primitive_vector(v) -> tuple[int, ...]:
    """Clear denominators, divide by the content and make the first nonzero entry positive."""
    v = [x if isinstance(x, int) else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_basis(a) -> list[list[int]]:
    """Basis of the rational null space, as primitive integer vectors.

    Deterministic: reduced row echelon form, one basis vector per free
    column in increasing column order, sign fixed by the first nonzero
    entry.
    """
    if not a:
        return []
    m, _ = _integer_rows(a)
    cols = len(m[0])
    pivots, d, _ = _gauss_jordan(m, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        # row i reads d * x[pivots[i]] + m[i][fc] * x[fc] = 0 once the other free entries are 0
        v = [0] * cols
        v[fc] = d
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(list(primitive_vector(v)))
    return basis


def solve_exact(a, b):
    """One rational solution of a x = b, or None if inconsistent.

    The last `kernel_basis` vector of [a | -b] is t (x, 1) when the last
    column is free (b is consistent) and ends in 0 otherwise.  Nothing in
    the library calls it; bench/tracer.py wraps it by name.
    """
    basis = kernel_basis([list(row) + [-bv] for row, bv in zip(a, b)])
    if not basis or not basis[-1][-1]:
        return None
    *tx, t = basis[-1]
    return [Fraction(x, t) for x in tx]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hnf(rows) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by integer rows.

    Returns the nonzero rows with positive pivots and entries above each
    pivot reduced into [0, pivot).  Two row sets span the same lattice iff
    their HNFs are equal, which is how relation lattices are compared.
    The rows are read by :func:`exact.integral_rows`.
    """
    m = [row for row in integral_rows(rows, "hnf") if any(row)]
    if not m:
        return []
    cols = len(m[0])
    r = 0
    for col in range(cols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            while m[i][col]:
                g, s, t = _xgcd(m[r][col], m[i][col])
                a, b = m[r][col] // g, m[i][col] // g
                new_r = [s * x + t * y for x, y in zip(m[r], m[i])]
                new_i = [a * y - b * x for x, y in zip(m[r], m[i])]
                m[r], m[i] = new_r, new_i
        if m[r][col] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r] if any(row)]


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even, as round() does on a Fraction."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


def lll_reduce(rows) -> list[list[int]]:
    """LLL reduction (delta = 3/4) with integral, fraction-free Gram-Schmidt data.

    Cohen, GTM 138, Alg. 2.6.7 (de Weger 1989): with B_i = |b*_i|^2 and
    mu_ij the Gram-Schmidt coefficients, it keeps the integers
    D[0] = 1, D[i+1] = B_0 ... B_i and lam[i][j] = D[j+1] mu_ij, and every
    division in the bootstrap and the swaps is exact.  The size-reduction
    and Lovasz tests are the classical ones multiplied through by
    positive D's, so the output is that of the rational algorithm.
    The rows are read by :func:`exact.integral_rows` and must be linearly
    independent; dependent rows are a PreconditionError.
    """
    b = integral_rows(rows, "lll_reduce")
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # integral Gram-Schmidt bootstrap
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = dot(b[i], b[j])
            for k in range(j):
                u = (D[k + 1] * u - lam[i][k] * lam[j][k]) // D[k]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise PreconditionError("lll_reduce requires linearly independent rows")
            else:
                D[i + 1] = u

    def size_reduce(k: int, l: int):
        d = D[l + 1]
        if 2 * abs(lam[k][l]) > d:
            q = _round_half_even(lam[k][l], d)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lk, ll = lam[k], lam[l]
            for j in range(l):
                lk[j] -= q * ll[j]
            lk[l] -= q * d

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        t = lam[k][k - 1]
        # B_k >= (3/4 - mu^2) B_{k-1}, times 4 D_k D_{k-1}
        if 4 * (D[k + 1] * D[k - 1] + t * t) >= 3 * D[k] * D[k]:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
        else:
            # swap b_k and b_{k-1} (Cohen's SWAPI); lam[k][k-1] is unchanged
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            dk = (D[k - 1] * D[k + 1] + t * t) // D[k]
            for i in range(k + 1, n):
                li = lam[i]
                s = li[k]
                li[k] = (D[k + 1] * li[k - 1] - t * s) // D[k]
                li[k - 1] = (dk * s + t * li[k]) // D[k + 1]
            D[k] = dk
            k = max(k - 1, 1)
    return b
