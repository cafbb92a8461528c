"""Exact linear algebra over the integers.

Matrices are lists (or tuples) of rows, and everything here is exact and
deterministic.  The elimination, HNF and LLL routines read their matrix
with `exact.integral_rows`: integral entries (2.0, Fraction(4, 2)) become
ints, a rational entry is a PreconditionError and a non-number a
ParseError, and past that boundary all work is in Python ints.  One
fraction-free (Bareiss) Gauss-Jordan elimination runs behind the
determinant, inverse, rank and kernel routines (the inverse is the
integer pair (d a^-1, d), which a lattice caches for its Gram matrix,
and solve reads its rational answer off the kernel of [a | b]), beside
Hermite normal form with extended-gcd row operations and an integral,
fraction-free LLL reduction (integer Gram-Schmidt determinants, exact
divisions only).  For rational data elsewhere in the exact layer,
`scaled_ints` clears denominators (by their lcm) and `_primitive`
divides out the content.  No floating point is allowed in this module.

`mat_mul` (and so `mat_pow`) skips the zero entries of its left factor,
which are most entries of the lattice matrices it multiplies (Gram
matrices of U + E8(-1)^k, transvections and their short words).  For int
and Fraction entries a skipped term 0 * y is exactly 0, so the product is
== the full sum of n^3 terms; with floats it would not be (0 * inf is nan).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import PreconditionError
from .exact import integral_rows

Matrix = list[list]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a, b) -> Matrix:
    """a b row by row (Gustavson, ACM TOMS 4(3), 1978): row i is the sum of
    x b[k] over the nonzero x = a[i][k], started as a fresh list (never a
    row of b); an all-zero row of a gives [0] * width."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                acc = [x * y for y in brow] if acc is None else [s + x * y for s, y in zip(acc, brow)]
        out.append([0] * width if acc is None else acc)
    return out


def mat_vec(a, v) -> list:
    return [sum(map(mul, row, v)) for row in a]


def mat_sub(a, b) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_pow(a, k: int) -> Matrix:
    """a^k (k >= 0), squaring left to right: no I * a product, no square past the last bit."""
    if k < 0:
        raise ValueError("mat_pow takes k >= 0; invert with scaled_inverse first")
    result = [list(r) for r in a] if k else identity_matrix(len(a))
    for bit in bin(k)[3:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(result, a)
    return result


def scaled_ints(values) -> tuple[list[int], int]:
    """(d * values as ints, d), d the lcm of the denominators; a float is read as its exact Fraction."""
    values = [x if isinstance(x, int) else Fraction(x) for x in values]
    d = lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _primitive(v) -> list[int]:
    """`scaled_ints(v)` over its content, sign kept."""
    ints = scaled_ints(v)[0]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


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


def det_exact(a) -> int:
    """Determinant by fraction-free elimination."""
    m = integral_rows(a, "det_exact")
    pivots, d, sign = _gauss_jordan(m, len(m))
    return sign * d if len(pivots) == len(m) else 0


def scaled_inverse(a) -> tuple[list[list[int]], int]:
    """(D, d) with D = d a^-1 an integer matrix, from one elimination of [a | I].

    The right block ends as d a^-1 with d = +-det a, the last Bareiss pivot.
    Raises ZeroDivisionError on singular input.
    """
    m = integral_rows(a, "scaled_inverse")
    n = len(m)
    for i, row in enumerate(m):
        row.extend(int(j == i) for j in range(n))
    pivots, d, _ = _gauss_jordan(m, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in m], d


def rank_exact(a) -> int:
    if not a:
        return 0
    m = integral_rows(a, "rank_exact")
    return len(_gauss_jordan(m, len(m[0]))[0])


def primitive_vector(v) -> tuple[int, ...]:
    """`_primitive(v)` with its first nonzero entry made positive."""
    ints = _primitive(v)
    return tuple(ints) if next((x for x in ints if x), 0) >= 0 else tuple(-x for x in ints)


def kernel_basis(a) -> list[list[int]]:
    """Basis of the rational null space, as primitive integer vectors.

    Deterministic: reduced row echelon form, one basis vector per free
    column in increasing column order, sign fixed by the first nonzero
    entry.
    """
    if not a:
        return []
    m = integral_rows(a, "kernel_basis")
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
    """One rational solution of a x = b for integral a and b, or None if inconsistent.

    The last `kernel_basis` vector of [a | b] is t (x, -1) when the last
    column is free (b is consistent) and ends in 0 otherwise.  Nothing in
    the library calls it; bench/tracer.py wraps it by name.
    """
    basis = kernel_basis(integral_rows([[*row, bv] for row, bv in zip(a, b)], "solve_exact"))
    if not basis or not basis[-1][-1]:
        return None
    *tx, t = basis[-1]
    return [Fraction(-x, t) for x in tx]


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
    division is exact.  The Gram-Schmidt data are incremental: row k's
    lam[k] and D[k+1] are computed from the current basis the first time
    k passes kmax, the largest row reached so far, and a swap at k updates
    only the rows k < i <= kmax.  The size-reduction and Lovasz tests are
    the classical ones multiplied through by positive D's, so the output
    is that of the rational algorithm.  The rows are read by
    :func:`exact.integral_rows` and must be linearly independent; a row in
    the span of the rows before it is a PreconditionError, raised when the
    reduction reaches it.
    """
    b = integral_rows(rows, "lll_reduce")
    n = len(b)
    D = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def size_reduce(k: int, l: int):
        d = D[l + 1]
        if 2 * abs(lam[k][l]) > d:
            q = _round_half_even(lam[k][l], d)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lk, ll = lam[k], lam[l]
            for j in range(l):
                lk[j] -= q * ll[j]
            lk[l] -= q * d

    def gram_schmidt(k: int):
        # lam[k] and D[k + 1] of row k against the current rows 0..k
        bk, lk = b[k], lam[k]
        for j in range(k + 1):
            u = sum(map(mul, bk, b[j]))
            lj = lam[j]
            for i in range(j):
                u = (D[i + 1] * u - lk[i] * lj[i]) // D[i]
            if j < k:
                lk[j] = u
            elif u == 0:
                raise PreconditionError("lll_reduce requires linearly independent rows")
            else:
                D[k + 1] = u

    if n:
        gram_schmidt(0)
    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            gram_schmidt(k)
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
            for i in range(k + 1, kmax + 1):
                li = lam[i]
                s = li[k]
                li[k] = (D[k + 1] * li[k - 1] - t * s) // D[k]
                li[k - 1] = (dk * s + t * li[k]) // D[k + 1]
            D[k] = dk
            k = max(k - 1, 1)
    return b
