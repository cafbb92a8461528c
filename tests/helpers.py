"""Shared test apparatus: independent oracles and generators.

The classification oracle here deliberately takes a different route from
the library: spectral radius by Sturm-sequence root counting off the unit
interval, semisimplicity by evaluating the squarefree part of the
characteristic polynomial on the matrix, elliptic orders by brute-force
powering.  The library's route (cyclotomic factor stripping, then the
Jordan data of N = g^L - I) never enters, and neither do the library's
polynomial and matrix kernels: the oracle runs on frozen copies of them.
The parabolic fixed vector is re-derived by the kernel route (the radical
of the form on ker(g - I)) and the limit direction by exact exponent
doubling, the two routes the library used before it read both off N^2.
The loxodromic payload is frozen as it was before the library read the
eigendirections off one exact vector in Z[x]/(f): the eigenvalue polished
on the whole charpoly, then a Gauss-Jordan elimination on mpf entries.

The exact linear algebra the oracles need (determinant, inverse, rank,
kernel, solve) is a frozen Fraction Gauss-Jordan elimination, kept apart
from the library's fraction-free integer routine so that each checks the
other.  The degree-form oracles are the literal (2n)!-permutation sums.
The characteristic polynomial, the minimal polynomial, the hafnian, the
largest-root isolation, LLL and cyclotomic stripping are frozen in their
plain forms (Fraction Faddeev-LeVerrier, Krylov annihilators over a
Fraction echelon, the (2n-1)!! matching recursion, bisection by Sturm
counts at every step, LLL on rational Gram-Schmidt data, trial division
by Fraction cyclotomics), so the library's integer, memoized, sign-only
and fraction-free kernels are checked against code they do not share.  The fiber-curve cells, the per-step orbit binning
and the Monte Carlo space average are frozen as the scalar loops they were
before the library computed them as arrays.  The fiber orbit, the
random-word and the single-fiber trajectories are frozen as the three
loops they were before the library shared one walker, together with the
involution and root sampling that wrote out their own branch guards,
and they form each quadratic through a point's monomials as the library
did before every surface bound one quadratic former per axis.
The three lattice box scans are frozen as the whole-box loops they were
before the library enumerated only the orthogonal complement of y and
the sign-canonical half of the box.  The surface names only the tests
use (the Fermat-like surface, the residual, the inverse fiber map, the
coordinate replacement) live here too, and so do the two torus
diagnostics only the tests use (the least-squares projection onto a hull
and the box coverage of an orbit).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction
from math import gcd

import mpmath as mp
import numpy as np

from parabolic_lab import surface222 as s2
from parabolic_lab.errors import BranchPointError, ContractError
from parabolic_lab.lattice import QuadLattice, diagonal_lattice, hyperbolic_plane
from parabolic_lab.isometry import (
    LOXODROMIC_EIGENVALUE_DPS,
    LatticeIsometry,
    Loxodromic,
    eichler_transvection,
)
from parabolic_lab.torus import RationalSubspace, TranslationVector, as_translation_vector

MAX_BRUTE_ORDER = 1000


def oracle_tag(g: LatticeIsometry) -> tuple[str, int | None]:
    """(tag, elliptic order or None) by the independent route."""
    m = [list(r) for r in g.matrix]
    n = len(m)
    det = frozen_det(m)
    w = g.lattice.positive_witness
    time_preserving = g.lattice.bbf(g.apply(w), w) > 0
    if det != 1 or not time_preserving:
        return "OutsideSOPlus", None
    p = frozen_charpoly(m)
    bound = _frozen_cauchy_bound(p)
    reflected = _frozen_poly([c * (-1) ** i for i, c in enumerate(p)])
    off_circle = frozen_count_real_roots(p, Fraction(1), bound) + frozen_count_real_roots(
        reflected, Fraction(1), bound
    )
    if off_circle > 0:
        return "Loxodromic", None
    rad_eval = frozen_evaluate_matrix(frozen_squarefree_part(p), m)
    semisimple = all(x == 0 for row in rad_eval for x in row)
    if not semisimple:
        return "Parabolic", None
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    acc = [row[:] for row in m]
    for k in range(1, MAX_BRUTE_ORDER + 1):
        if acc == identity:
            return "Elliptic", k
        acc = frozen_mat_mul(acc, m)
    raise AssertionError("brute-force order search exceeded its bound")


def reference_fixed_vector(g: LatticeIsometry) -> tuple[int, ...]:
    """The parabolic fixed vector by the kernel route: the radical of the
    form restricted to ker(g - I), primitive with positive leading entry."""
    n = g.lattice.rank
    kernel = frozen_kernel([[x - int(i == j) for j, x in enumerate(row)]
                            for i, row in enumerate(g.matrix)])
    gram_k = [[g.lattice.bbf(u, v) for v in kernel] for u in kernel]
    radical = frozen_kernel(gram_k)
    assert len(radical) == 1, "fixed isotropic direction is not unique"
    v = [sum(c * u[j] for c, u in zip(radical[0], kernel)) for j in range(n)]
    content = 0
    for x in v:
        content = gcd(content, abs(x))
    v = [x // content for x in v]
    return tuple(-x for x in v) if next(x for x in v if x) < 0 else tuple(v)


def doubling_limit(g: LatticeIsometry, w, iters: int = 2**40, tol: float = 1e-12):
    """Direction of g^(2^k) w (sup norm, positive leading entry), doubling k
    until two consecutive directions differ by less than tol; None when the
    exponent reaches iters first (the drift converges only like 1/exponent)."""

    def direction(m):
        v = [float(sum(Fraction(a) * x for a, x in zip(row, w))) for row in m]
        sup = max(abs(x) for x in v)
        if next(x for x in v if x) < 0:
            sup = -sup
        return [x / sup for x in v]

    m = [list(r) for r in g.matrix]
    exponent, prev = 1, direction(m)
    while exponent < iters:
        m = frozen_mat_mul(m, m)
        exponent *= 2
        cur = direction(m)
        if max(abs(a - b) for a, b in zip(cur, prev)) < tol:
            return tuple(cur)
        prev = cur
    return None


def parabolic_payload_ok(g: LatticeIsometry, v) -> bool:
    """Property check of a claimed parabolic fixed vector (no re-extraction)."""
    gv = 0
    for x in v:
        gv = gcd(gv, abs(x))
    if gv != 1:
        return False
    lead = next((x for x in v if x), 0)
    if lead <= 0:
        return False
    return g.apply(v) == tuple(v) and g.lattice.q(v) == 0


def frozen_loxodromic_payload(g: LatticeIsometry) -> Loxodromic:
    """The loxodromic payload as the library computed it before it worked in Z[x]/(f).

    The eigenvalue is isolated and polished on the whole charpoly p, and
    each eigendirection is the null direction of (M - lambda I) from a
    Gauss-Jordan elimination on mpf entries, with pivots below
    10^(8 - LOXODROMIC_EIGENVALUE_DPS) skipped and a float isotropy check.
    Where the exact coordinate is 0 it leaves float noise.
    """
    p = frozen_charpoly(g.matrix)
    interval = frozen_isolate(p, Fraction(1))
    if interval is None:
        raise ContractError("loxodromic isometry with no real eigenvalue > 1 (bug)")
    lo, hi = interval
    with mp.workdps(LOXODROMIC_EIGENVALUE_DPS):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p)]
        mid = (mp.mpf(lo.numerator) / lo.denominator + mp.mpf(hi.numerator) / hi.denominator) / 2
        lam = +mp.findroot(lambda x: mp.polyval(coeffs, x), mid)
        expanding = _frozen_eigenvector(g, lam)
        contracting = _frozen_eigenvector(g, 1 / lam)
    scale = max(abs(x) for row in g.lattice.gram for x in row)
    for v in (expanding, contracting):
        qv = _frozen_float_q(g.lattice, v)
        if abs(qv) > 1e-9 * max(1.0, scale):
            raise ContractError("loxodromic eigendirection is not isotropic (bug)")
    return Loxodromic(eigenvalue=lam, expanding=expanding, contracting=contracting)


def frozen_eigen_certificates(g: LatticeIsometry, v, f) -> tuple[bool, bool]:
    """(M v = x v mod f, q(v, v) = 0 mod f) for coordinate polynomials v, over Fractions."""
    def add(p, q):
        return _frozen_poly(a + b for a, b in itertools.zip_longest(p, q, fillvalue=0))

    def zero_mod_f(p):
        return not any(_frozen_divmod(p, _frozen_poly(f))[1])

    vs = [_frozen_poly(vi) for vi in v]
    eigen = all(
        zero_mod_f(functools.reduce(add, (frozen_poly_mul((a,), vj) for a, vj in zip(row, vs)),
                                    frozen_poly_mul((0, -1), vi)))
        for row, vi in zip(g.matrix, vs)
    )
    qvv = functools.reduce(add, (frozen_poly_mul((gij,), frozen_poly_mul(vi, vj))
                                 for row, vi in zip(g.lattice.gram, vs) for gij, vj in zip(row, vs)), ())
    return eigen, zero_mod_f(qvv)


def _frozen_float_q(lattice: QuadLattice, v) -> float:
    gv = [sum(r * x for r, x in zip(row, v)) for row in lattice.gram]
    return float(sum(a * b for a, b in zip(v, gv)))


def _frozen_eigenvector(g: LatticeIsometry, lam: mp.mpf) -> tuple[float, ...]:
    """Null direction of (M - lam I) by high-precision elimination."""
    n = g.lattice.rank
    a = [[mp.mpf(x) for x in row] for row in g.matrix]
    for i in range(n):
        a[i][i] -= lam
    cols = list(range(n))
    row = 0
    pivots = []
    for col in range(n):
        piv = max(range(row, n), key=lambda r: abs(a[r][col]), default=None)
        if piv is None or abs(a[piv][col]) < mp.mpf(10) ** (-LOXODROMIC_EIGENVALUE_DPS + 8):
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    free = [c for c in cols if c not in pivots]
    if not free:
        raise ContractError("no null direction at the computed eigenvalue (bug)")
    fc = free[0]
    v = [mp.mpf(0)] * n
    v[fc] = mp.mpf(1)
    for r, pc in enumerate(pivots):
        v[pc] = -a[r][fc]
    sup = max(abs(x) for x in v)
    v = [x / sup for x in v]
    lead = next(x for x in v if abs(x) > 1e-30)
    if lead < 0:
        v = [-x for x in v]
    return tuple(float(x) for x in v)


# ---------------------------------------------------------------------------
# the five classification lattices and their SO+ generator words
# ---------------------------------------------------------------------------

def classification_lattices() -> list[tuple[QuadLattice, list[LatticeIsometry]]]:
    """Five fixed lattices of signature (1,1)-(1,3) with SO+ generators."""
    out = []

    pell1 = diagonal_lattice(2, -1)
    a1 = LatticeIsometry(pell1, ((3, 2), (4, 3)))
    out.append((pell1, [a1, _inv(a1)]))

    pell2 = diagonal_lattice(3, -1)
    a2 = LatticeIsometry(pell2, ((2, 1), (3, 2)))
    out.append((pell2, [a2, _inv(a2)]))

    u2 = hyperbolic_plane().direct_sum(diagonal_lattice(-2))
    te = eichler_transvection(u2, (1, 0, 0), (0, 0, 1))
    tf = eichler_transvection(u2, (0, 1, 0), (0, 0, 1))
    s = LatticeIsometry(u2, ((0, 1, 0), (1, 0, 0), (0, 0, -1)))
    out.append((u2, [te, _inv(te), tf, _inv(tf), s]))

    from parabolic_lab.lattice import build_parabolic_seed_lattice

    seed = build_parabolic_seed_lattice(2, 5)
    ty1 = eichler_transvection(seed.lattice, seed.y, seed.x)
    ty2 = eichler_transvection(seed.lattice, seed.y, (0, 1, 1))
    out.append((seed.lattice, [ty1, _inv(ty1), ty2, _inv(ty2)]))

    u3 = hyperbolic_plane().direct_sum(diagonal_lattice(-2, -2))
    t1 = eichler_transvection(u3, (1, 0, 0, 0), (0, 0, 1, 0))
    t2 = eichler_transvection(u3, (1, 0, 0, 0), (0, 0, 0, 1))
    t3 = eichler_transvection(u3, (0, 1, 0, 0), (0, 0, 1, 1))
    rot = LatticeIsometry(
        u3, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
    )
    sw = LatticeIsometry(
        u3, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    )
    out.append((u3, [t1, _inv(t1), t2, t3, rot, sw]))
    return out


def _inv(g: LatticeIsometry) -> LatticeIsometry:
    from parabolic_lab.isometry import inverse

    return inverse(g)


def random_word(lattice: QuadLattice, gens, rng: random.Random, max_len: int = 6) -> LatticeIsometry:
    n = lattice.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, max_len)):
        g = gens[rng.randrange(len(gens))]
        m = frozen_mat_mul(m, g.matrix)
    return LatticeIsometry(lattice, tuple(tuple(r) for r in m))


# ---------------------------------------------------------------------------
# planted integer-relation instances
# ---------------------------------------------------------------------------

def planted_relation_instance(rng: random.Random, max_n: int = 6, max_height: int = 1000):
    """(x values as mpf tuple, precision, planted relation lattice rows).

    The relation lattice is saturated by construction (unimodular row
    operations on distinct unit rows), heights stay below max_height, and
    the returned x is already reduced to [0,1)^n with the plant sheared
    to match.
    """
    import mpmath as mp

    from parabolic_lab.linalg_exact import hnf

    while True:
        n = rng.randint(2, max_n)
        r = rng.randint(1, n - 1)
        cols = list(range(n + 1))
        rng.shuffle(cols)
        base = [[1 if j == cols[i] else 0 for j in range(n + 1)] for i in range(r)]
        for _ in range(8):
            i, j = rng.randrange(r), rng.randrange(r)
            if i != j:
                f = rng.randint(-7, 7)
                cand = [a + f * b for a, b in zip(base[i], base[j])]
                if max(abs(c) for c in cand) <= max_height:
                    base[i] = cand
        a = [row[:n] for row in base]
        b = [-row[n] for row in base]
        part = frozen_solve(a, b)
        if part is None:
            continue
        hom = frozen_kernel(a)
        if len(hom) != n - r:
            continue
        with mp.workprec(160):
            x = [mp.mpf(p.numerator) / p.denominator for p in part]
            for hv in hom:
                alpha = mp.mpf(rng.random()) + mp.mpf(rng.random()) * mp.mpf(2) ** -40
                x = [v + alpha * h for v, h in zip(x, hv)]
            shifts = [int(mp.floor(v)) for v in x]
            x = [v - s for v, s in zip(x, shifts)]
        sheared = [
            row[:n] + [row[n] + sum(row[j] * shifts[j] for j in range(n))]
            for row in base
        ]
        want = hnf(sheared)
        if max(abs(c) for row in want for c in row) > max_height:
            continue
        return tuple(x), 160, want


# ---------------------------------------------------------------------------
# torus diagnostics only the tests use
# ---------------------------------------------------------------------------

def frozen_project_to_hull(x, hull: RationalSubspace) -> TranslationVector:
    """Least-squares correct x so the hull's relations hold exactly (in mpf).

    Solves min |x' - x| subject to K x' + c = 0 where (K | c) are the
    relation rows; used to state the idempotence property of
    :func:`rational_hull`.
    """
    tv = as_translation_vector(x)
    if not hull.relation_basis:
        return tv
    with mp.workprec(tv.precision):
        vals = list(tv.mpf_values())
        n = tv.n
        k_rows = [list(r[:n]) for r in hull.relation_basis]
        resid = [
            mp.fsum([mp.mpf(c) * v for c, v in zip(r[:n], vals)]) + r[n]
            for r in hull.relation_basis
        ]
        # normal equations on the small relation system: correction = K^T (K K^T)^-1 resid
        m = len(k_rows)
        kkt = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                kkt[i, j] = mp.fsum(a * b for a, b in zip(k_rows[i], k_rows[j]))
        rv = mp.matrix(resid)
        sol = mp.lu_solve(kkt, rv)
        corrected = [
            v - mp.fsum(sol[i] * k_rows[i][j] for i in range(m))
            for j, v in enumerate(vals)
        ]
        return TranslationVector(tuple(corrected), tv.precision)


def frozen_box_coverage(points, grid_exponent: int) -> float:
    """Fraction of 2^m-per-axis boxes hit by the points (coverage diagnostic)."""
    g = 2**grid_exponent
    cells = set()
    for p in points:
        cells.add(tuple(min(int(float(c) * g), g - 1) for c in p))
    return len(cells) / g ** len(points[0])


# ---------------------------------------------------------------------------
# frozen box scans (oracle for the lattice scans)
# ---------------------------------------------------------------------------
#
# The three lattice scans as whole-box loops: every vector of the
# (2B+1)^n box is visited, signs are normalized per vector and q goes
# through the lattice's checked bilinear form.

def _frozen_is_primitive(v) -> bool:
    return gcd(*v) == 1


def _frozen_canonical_sign(v):
    lead = next((x for x in v if x), 0)
    return v if lead >= 0 else tuple(-x for x in v)


def _frozen_box(rank, bound):
    return itertools.product(range(-bound, bound + 1), repeat=rank)


def frozen_find_isotropic(lattice, coeff_bound):
    out = set()
    for v in _frozen_box(lattice.rank, coeff_bound):
        if not any(v):
            continue
        v = _frozen_canonical_sign(v)
        if v in out or not _frozen_is_primitive(v):
            continue
        if lattice.q(v) == 0:
            out.add(v)
    return sorted(out)


def frozen_represents_in_range(lattice, lo, hi, coeff_bound):
    witnesses = {}
    for v in sorted(_frozen_canonical_sign(w) for w in _frozen_box(lattice.rank, coeff_bound)):
        if not any(v) or not _frozen_is_primitive(v):
            continue
        val = lattice.q(v)
        if lo <= val <= hi and val not in witnesses:
            witnesses[val] = v
    return sorted(witnesses.items())


def frozen_scan_orthogonal_negatives(marked, box_bound=10):
    lat = marked.lattice
    y = lat.check_vector(marked.y)
    gy = [sum(r * x for r, x in zip(row, y)) for row in lat.gram]
    out = []
    for v in _frozen_box(lat.rank, box_bound):
        if not any(v):
            continue
        if sum(a * b for a, b in zip(v, gy)) != 0:
            continue
        qv = lat.q(v)
        if qv < 0:
            out.append((v, qv))
    return out


# ---------------------------------------------------------------------------
# frozen Fraction elimination (oracle for linalg_exact)
# ---------------------------------------------------------------------------

def _fraction_rref(rows, ncols: int):
    """Reduced row echelon form over Fractions, pivots in the first ncols columns.

    Returns (matrix, pivot columns, sign of the row permutation, product of
    the pivots before normalization).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots, sign, pivot_product = [], 1, Fraction(1)
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        pivot_product *= m[r][col]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots, sign, pivot_product


def frozen_det(a):
    n = len(a)
    _, pivots, sign, pivot_product = _fraction_rref(a, n)
    if len(pivots) < n:
        return 0
    det = sign * pivot_product
    if all(isinstance(x, int) for row in a for x in row):
        assert det.denominator == 1
        return det.numerator
    return det


def frozen_inverse(a):
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots, _, _ = _fraction_rref(aug, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in m]


def frozen_rank(a) -> int:
    return len(_fraction_rref(a, len(a[0]))[1]) if a else 0


def frozen_kernel(a) -> list[list[int]]:
    if not a:
        return []
    cols = len(a[0])
    m, pivots, _, _ = _fraction_rref(a, cols)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        den = 1
        for x in v:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        ints = [x // g for x in ints]
        if next(x for x in ints if x) < 0:
            ints = [-x for x in ints]
        basis.append(ints)
    return basis


def frozen_solve(a, b):
    cols = len(a[0])
    m, pivots, _, _ = _fraction_rref([list(row) + [bv] for row, bv in zip(a, b)], cols)
    if any(row[cols] for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][cols]
    return x


# ---------------------------------------------------------------------------
# permutation-sum oracles for the degree forms
# ---------------------------------------------------------------------------

def matching_sum(q):
    """The full permutation sum of paired entries; equals 2^n n! hafnian(q)."""
    m = len(q)
    total = 0
    for sigma in itertools.permutations(range(m)):
        term = 1
        for i in range(0, m, 2):
            term *= q[sigma[i]][sigma[i + 1]]
        total += term
    return total


def fujiki_polarized_bruteforce(structure, etas):
    """K * the permutation sum of paired q-products, by brute force over (2n)!."""
    gram = structure.lattice.gram
    q = [
        [sum(Fraction(u[i]) * gram[i][j] * Fraction(v[j])
             for i in range(len(gram)) for j in range(len(gram)))
         for v in etas]
        for u in etas
    ]
    return structure.k * matching_sum(q)


# ---------------------------------------------------------------------------
# frozen polynomial and matrix arithmetic over Q (the oracles' own kernels)
# ---------------------------------------------------------------------------

def frozen_mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def frozen_mat_vec(a, v):
    """a v as the single column of a times the column matrix v."""
    return [row[0] for row in frozen_mat_mul(a, [[x] for x in v])]


def frozen_mat_pow(a, k):
    """a^k as I * a * ... * a, one factor at a time."""
    acc = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    for _ in range(k):
        acc = frozen_mat_mul(acc, a)
    return acc


def _frozen_poly(coeffs):
    """Ascending Fraction coefficients without trailing zeros."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _frozen_divmod(p, q):
    rem, quo = list(p), [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        f = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = f
        for i, c in enumerate(q):
            rem[shift + i] -= f * c
        rem = list(_frozen_poly(rem[:-1]))
    return _frozen_poly(quo), tuple(rem)


def _frozen_evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _frozen_derivative(p):
    return _frozen_poly([i * c for i, c in enumerate(p)][1:])


def frozen_squarefree_part(p):
    """p / gcd(p, p'), monic, over Fractions (an int p is read as Fractions first)."""
    p = _frozen_poly(p)
    a, b = p, _frozen_derivative(p)
    while b:
        a, b = b, _frozen_divmod(a, b)[1]
    quo = _frozen_divmod(p, a)[0]
    return tuple(c / quo[-1] for c in quo)


def frozen_poly_gcd(p, q):
    """Monic gcd by Euclid's algorithm over Fractions (the zero polynomial for p = q = 0)."""
    a, b = _frozen_poly(p), _frozen_poly(q)
    while b:
        a, b = b, _frozen_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def frozen_sturm_chain(p):
    chain = [_frozen_poly(p), _frozen_derivative(p)]
    while chain[-1]:
        rem = _frozen_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(tuple(-c for c in rem))
    return [c for c in chain if c]


def _frozen_variations(chain, x):
    signs = [v > 0 for v in (_frozen_evaluate(c, x) for c in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def frozen_count_real_roots(p, a, b):
    """Distinct real roots of p in (a, b], by the Sturm chain of its squarefree part."""
    if len(p) < 2:
        return 0
    chain = frozen_sturm_chain(frozen_squarefree_part(p))
    return _frozen_variations(chain, Fraction(a)) - _frozen_variations(chain, Fraction(b))


def _frozen_cauchy_bound(p):
    """1 + max |c_i| / |lead| as a Fraction, also for an int p."""
    p = _frozen_poly(p)
    return 1 + max(abs(c) for c in p[:-1]) / abs(p[-1])


def frozen_evaluate_matrix(p, m):
    """p(M) by Horner's rule."""
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        acc = frozen_mat_mul(acc, m)
        for i in range(n):
            acc[i][i] += c
    return acc


# ---------------------------------------------------------------------------
# frozen plain kernels (oracles for charpoly, the minimal polynomial, hafnian,
# isolation, LLL, stripping)
# ---------------------------------------------------------------------------

def frozen_charpoly(m):
    """det(x I - M), monic, by Faddeev-LeVerrier over Fractions."""
    n = len(m)
    mf = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = [row[:] for row in mf]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = frozen_mat_mul(mf, mk)
    return tuple(coeffs)


def frozen_poly_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _frozen_poly(out)


def frozen_minimal_polynomial(m):
    """Monic minimal polynomial: the lcm of the Krylov annihilators of e_1, e_2, ...

    Each Krylov sequence is reduced against a Fraction echelon of its own,
    the route the library took before it read the polynomial off its
    kernel routine.
    """
    n = len(m)
    mf = [[Fraction(x) for x in row] for row in m]
    result = (Fraction(1),)
    for start in range(n):
        krylov = [[Fraction(int(i == start)) for i in range(n)]]
        ech, piv, combos = [], [], []  # echelon rows, their pivots, their Krylov coordinates
        while True:
            w = krylov[-1]
            reduced = list(w)
            combo = [Fraction(0)] * (len(krylov) - 1) + [Fraction(1)]
            for row, p, cmb in zip(ech, piv, combos):
                f = reduced[p]
                if f:
                    reduced = [x - f * y for x, y in zip(reduced, row)]
                    combo = [x - f * (cmb[i] if i < len(cmb) else 0) for i, x in enumerate(combo)]
            pivot = next((i for i, x in enumerate(reduced) if x), None)
            if pivot is None:
                # 0 = sum combo[i] v_i with combo[-1] = 1: the monic annihilator of this sequence
                ann = _frozen_poly(combo)
                g, b = result, ann
                while b:
                    g, b = b, _frozen_divmod(g, b)[1]
                result = _frozen_divmod(frozen_poly_mul(result, ann), g)[0]
                result = tuple(c / result[-1] for c in result)
                break
            inv = 1 / reduced[pivot]
            ech.append([x * inv for x in reduced])
            piv.append(pivot)
            combos.append([x * inv for x in combo])
            krylov.append([sum(r * x for r, x in zip(row, w)) for row in mf])
        if len(result) - 1 == n:
            break
    return result


def frozen_hafnian(a):
    """Sum over perfect matchings by pairing the first index: (2n-1)!! terms."""
    rows = [list(r) for r in a]

    def rec(idx):
        if not idx:
            return 1
        first, rest = idx[0], idx[1:]
        total = 0
        for pos, j in enumerate(rest):
            total += rows[first][j] * rec(rest[:pos] + rest[pos + 1:])
        return total

    return rec(tuple(range(len(rows))))


def frozen_isolate(p, lower=Fraction(1)):
    """Largest root above `lower` by bisection on Sturm counts down to width 2^-80."""
    chain = frozen_sturm_chain(frozen_squarefree_part(p))

    def roots_in(a, b):
        return _frozen_variations(chain, a) - _frozen_variations(chain, b)

    hi = _frozen_cauchy_bound(p)
    if roots_in(lower, hi) == 0:
        return None
    lo = lower
    while roots_in(lo, hi) > 1:
        mid = (lo + hi) / 2
        if roots_in(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    while hi - lo > Fraction(1, 2**80):
        mid = (lo + hi) / 2
        if roots_in(mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def frozen_lll(rows, delta=Fraction(3, 4)):
    """LLL reduction with exact rational Gram-Schmidt data (mu and B as Fractions)."""
    b = [[int(x) for x in row] for row in rows]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    # full Gram-Schmidt bootstrap: B[i] = |b*_i|^2, mu[i][j] for j < i
    mu = [[Fraction(0)] * n for _ in range(n)]
    B = [Fraction(0)] * n
    r = [[Fraction(0)] * n for _ in range(n)]  # r[i][j] = <b_i, b*_j>
    for i in range(n):
        for j in range(i):
            r[i][j] = Fraction(dot(b[i], b[j])) - sum(
                mu[j][k] * r[i][k] for k in range(j)
            )
            mu[i][j] = r[i][j] / B[j]
        B[i] = Fraction(dot(b[i], b[i])) - sum(mu[i][k] * r[i][k] for k in range(i))
        if B[i] == 0:
            raise ValueError("lll_reduce requires linearly independent rows")

    def size_reduce(k: int, l: int):
        if abs(mu[k][l]) * 2 > 1:
            q = round(mu[k][l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            for j in range(l):
                mu[k][j] -= q * mu[l][j]
            mu[k][l] -= q

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
        else:
            # swap b_k and b_{k-1}, updating mu/B in place
            m_ = mu[k][k - 1]
            B_ = B[k] + m_ * m_ * B[k - 1]
            mu[k][k - 1] = m_ * B[k - 1] / B_
            B[k] = B[k - 1] * B[k] / B_
            B[k - 1] = B_
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m_ * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return b


@functools.lru_cache(maxsize=None)
def frozen_cyclotomic(d):
    """Phi_d over Fractions: x^d - 1 divided by Phi_e for each proper divisor e."""
    num = _frozen_poly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            num = _frozen_divmod(num, frozen_cyclotomic(e))[0]
    return num


def _frozen_phi(d):
    """Euler's phi by trial-division factorization: d times the product of (1 - 1/p)."""
    out, m, p = d, d, 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    return out - out // m if m > 1 else out


@functools.lru_cache(maxsize=None)
def _frozen_cyclotomic_indices(max_phi):
    """All d with phi(d) <= max_phi (phi(d) >= sqrt(d/2) bounds d)."""
    return [d for d in range(1, 2 * max_phi * max_phi + 3) if _frozen_phi(d) <= max_phi]


def frozen_strip(p):
    """Cyclotomic stripping over Fractions: trial division by Phi_d for phi(d) <= deg p."""
    found = {}
    rem = tuple(c / p[-1] for c in p) if p else p
    for d in _frozen_cyclotomic_indices(max(len(p) - 1, 1)):
        phi_d = frozen_cyclotomic(d)
        while len(rem) >= len(phi_d):
            quo, r = _frozen_divmod(rem, phi_d)
            if r:
                break
            found[d] = found.get(d, 0) + 1
            rem = quo
    return rem, found


# ---------------------------------------------------------------------------
# frozen scalar fiber-curve kernels (oracles for the array cell routines)
# ---------------------------------------------------------------------------

_FROZEN_OTHERS = {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y")}


def _frozen_monomials(pair):
    c0, c1 = pair
    return (c0 * c0, c0 * c1, c1 * c1)


def frozen_replace(point, axis, pair, residual):
    """`point` with its `axis` coordinate set to `pair` and the given residual."""
    parts = {"x": point.x, "y": point.y, "z": point.z}
    parts[axis] = pair
    return s2.SurfacePoint(parts["x"], parts["y"], parts["z"], residual)


def frozen_axis_quadratic(surface, point, axis):
    """Coefficients (A, B, C) of F as A t1^2 + B t1 t0 + C t0^2 in `axis`, as
    the library formed them through a point's monomials before each surface
    bound one quadratic former per axis.  The other two coordinates may hold
    arrays."""
    table = [tuple(plane.ravel().tolist())
             for plane in np.moveaxis(surface.coeffs, s2.AXES.index(axis), 0)]
    u, v = _FROZEN_OTHERS[axis]
    mu = _frozen_monomials(point.coord(u))
    mv = _frozen_monomials(point.coord(v))
    prods = (
        mu[0] * mv[0], mu[0] * mv[1], mu[0] * mv[2],
        mu[1] * mv[0], mu[1] * mv[1], mu[1] * mv[2],
        mu[2] * mv[0], mu[2] * mv[1], mu[2] * mv[2],
    )
    coeff = []
    for m in range(3):
        row = table[m]
        coeff.append(
            row[0] * prods[0] + row[1] * prods[1] + row[2] * prods[2]
            + row[3] * prods[3] + row[4] * prods[4] + row[5] * prods[5]
            + row[6] * prods[6] + row[7] * prods[7] + row[8] * prods[8]
        )
    c, b, a = coeff  # monomial index m is the power of t1
    return a, b, c


def frozen_chart_cell(pair, grid):
    """(chart flag, re index, im index) of a P^1 point, one point at a time."""
    c0, c1 = pair
    if abs(c1) <= abs(c0):
        chart, t = 0, c1 / c0
    else:
        chart, t = 1, c0 / c1
    w = t / (1 + abs(t) ** 2)
    ix = min(int((w.real + 0.5) * grid), grid - 1)
    iy = min(int((w.imag + 0.5) * grid), grid - 1)
    return chart, max(ix, 0), max(iy, 0)


def frozen_pair_cell(point, pair, grid):
    first, second = pair
    return frozen_chart_cell(point.coord(first), grid) + frozen_chart_cell(point.coord(second), grid)


def _frozen_stable_roots(a, b, c):
    sq = cmath.sqrt(b * b - 4 * a * c)
    if abs(b + sq) >= abs(b - sq):
        qq = -(b + sq) / 2
    else:
        qq = -(b - sq) / 2
    return (s2._normalize((a, qq)), s2._normalize((qq, c)))


def frozen_fiber_cells(surface, pair, base_pair, grid=16, refine=6, min_hits=3):
    """The fiber's cells by one scalar probe, guard and root solve per grid point."""
    first, second = pair
    (base_axis,) = [a for a in s2.AXES if a not in pair]
    base_pair = s2._normalize(base_pair)
    counts = {}
    m = refine * grid
    for sweep_axis, solve_axis in ((first, second), (second, first)):
        for chart in (0, 1):
            for ia in range(m):
                for ib in range(m):
                    cc = complex(2 * (ia + 0.5) / m - 1, 2 * (ib + 0.5) / m - 1)
                    if abs(cc) > 1:
                        continue
                    moving = (1.0 + 0j, cc) if chart == 0 else (cc, 1.0 + 0j)
                    parts = {base_axis: base_pair, sweep_axis: moving,
                             solve_axis: (1.0 + 0j, 0j)}
                    probe = s2.SurfacePoint(parts["x"], parts["y"], parts["z"])
                    a, b, c = frozen_axis_quadratic(surface, probe, solve_axis)
                    scale = max(abs(a), abs(b), abs(c))
                    if scale == 0 or abs(a) < s2.LEAD_COEFF_REL * scale:
                        continue
                    if abs(b * b - 4 * a * c) < s2.BRANCH_DISC_REL * scale * scale:
                        continue
                    for root in _frozen_stable_roots(a, b, c):
                        point = frozen_replace(probe, solve_axis, root, 0.0)
                        key = frozen_pair_cell(point, pair, grid)
                        counts[key] = counts.get(key, 0) + 1
    return {cell for cell, hits in counts.items() if hits >= min_hits}


def frozen_fiber_orbit(surface, pair, base_pair, start, length, grid, rng, min_hits=3):
    """The coverage fields of ``fiber_orbit`` by binning each traced point with a dict."""
    reference = frozen_fiber_cells(surface, pair, base_pair, grid, min_hits=min_hits)
    visit_counts = {}
    stats = {}
    for _, pt in frozen_orbit_trace(surface, pair, base_pair, start, length, rng, stats):
        key = frozen_pair_cell(pt, pair, grid)
        visit_counts[key] = visit_counts.get(key, 0) + 1
    hit = set(visit_counts) & reference
    ref_visits = [visit_counts.get(cell, 0) for cell in reference]
    return {
        "cells_fiber": len(reference),
        "cells_visited": len(hit),
        "coverage": len(hit) / len(reference),
        "interruptions": stats["interruptions"],
        "min_visits": min(ref_visits),
        "mean_visits": sum(ref_visits) / len(ref_visits),
    }


# the test functions as functions of all three sphere coordinates, the
# form they had before each one named the single coordinate it reads
FROZEN_TEST_FUNCTIONS = {
    "one": lambda wx, wy, wz: 1.0,
    "x_abs2": lambda wx, wy, wz: abs(wx) ** 2,
    "x_re": lambda wx, wy, wz: wx.real,
    "y_abs2": lambda wx, wy, wz: abs(wy) ** 2,
    "z_abs2": lambda wx, wy, wz: abs(wz) ** 2,
}


def frozen_mc_space_average(surface, fid, samples, rng):
    """The importance-sampled space average with its own guard and root solve."""
    c = surface.coeffs
    g = rng.normal(size=(4, samples))
    x = (g[0] + 1j * g[1])
    xden = (g[2] + 1j * g[3])
    g = rng.normal(size=(4, samples))
    y = (g[0] + 1j * g[1])
    yden = (g[2] + 1j * g[3])
    keep = (np.abs(xden) > 1e-8) & (np.abs(yden) > 1e-8)
    x, y = (x / xden)[keep], (y / yden)[keep]
    mx = np.stack([np.ones_like(x), x, x * x])
    my = np.stack([np.ones_like(y), y, y * y])
    abc = []
    for m in range(3):
        acc = np.zeros_like(x)
        for i in range(3):
            for j in range(3):
                cij = c[i, j, m]
                if cij != 0:
                    acc = acc + cij * mx[i] * my[j]
        abc.append(acc)
    cc, bb, aa = abc
    scale = np.maximum(np.maximum(np.abs(aa), np.abs(bb)), np.abs(cc))
    disc = bb * bb - 4 * aa * cc
    ok = (scale > 0) & (np.abs(aa) > s2.LEAD_COEFF_REL * scale)
    ok &= np.abs(disc) > s2.BRANCH_DISC_REL * scale * scale
    x, y, aa, bb, cc, disc = x[ok], y[ok], aa[ok], bb[ok], cc[ok], disc[ok]
    sq = np.sqrt(disc)
    qq = np.where(np.abs(bb + sq) >= np.abs(bb - sq), -(bb + sq) / 2, -(bb - sq) / 2)
    roots = (qq / aa, cc / qq)
    fs_weight = (1 + np.abs(x) ** 2) ** 2 * (1 + np.abs(y) ** 2) ** 2
    wx = x / (1 + np.abs(x) ** 2)
    wy = y / (1 + np.abs(y) ** 2)
    fn = FROZEN_TEST_FUNCTIONS[fid]
    weights = []
    values = []
    for tz in roots:
        fz = 2 * aa * tz + bb
        w = fs_weight / np.abs(fz) ** 2
        wz = tz / (1 + np.abs(tz) ** 2)
        weights.append(w)
        values.append(np.real(fn(wx, wy, wz) + np.zeros_like(w)))
    w = np.concatenate(weights)
    v = np.concatenate(values)
    wsum = float(np.sum(w))
    avg = float(np.sum(w * v) / wsum)
    se = float(np.sqrt(np.sum((w * (v - avg)) ** 2)) / wsum)
    ess = wsum**2 / float(np.sum(w**2))
    return avg, se, ess


# ---------------------------------------------------------------------------
# frozen surface walks (oracles for the shared walker and scalar guard)
# ---------------------------------------------------------------------------
#
# The three trajectory loops, the involution and the fiber sampling as
# they were written out before the library folded them into one walker,
# one branch guard and one quadratic value.  They read the module's
# thresholds at call time, so a test that raises ``s2.BRANCH_DISC_REL``
# drives both sides through the same refusals.

def fermat_like_surface():
    """x^2 + y^2 + z^2 - 1: diagonal, handy for exact sanity checks only."""
    c = np.zeros((3, 3, 3), dtype=complex)
    c[2, 0, 0] = c[0, 2, 0] = c[0, 0, 2] = 1.0
    c[0, 0, 0] = -1.0
    return s2.Surface222(c)


def frozen_quad(a, b, c, pair):
    """A t1^2 + B t1 t0 + C t0^2 at the projective pair (t0 : t1)."""
    t0, t1 = pair
    return a * t1 * t1 + b * t1 * t0 + c * t0 * t0


def frozen_eval_f(surface, point):
    """F at the point's normalized coordinates, as a quadratic in z."""
    return frozen_quad(*frozen_axis_quadratic(surface, point, "z"), point.z)


def residual_of(surface, point):
    return abs(frozen_eval_f(surface, point))


def parabolic_inverse(surface, pair, point):
    first, second = pair
    return s2.involution(surface, first, s2.involution(surface, second, point))


def _frozen_polish(a, b, c, pair):
    c0, c1 = pair
    for _ in range(2):
        if abs(c1) <= abs(c0):
            t = c1 / c0
            df = 2 * a * t + b
            if abs(df) == 0:
                break
            t -= (a * t * t + b * t + c) / df
            c0, c1 = 1.0, t
        else:
            s = c0 / c1
            df = 2 * c * s + b
            if abs(df) == 0:
                break
            s -= (c * s * s + b * s + a) / df
            c0, c1 = s, 1.0
    return s2._normalize((c0, c1))


def frozen_guard(a, b, c):
    """(scale, disc) of A t^2 + B t + C, refusing as the swap's guard does."""
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0:
        raise BranchPointError("quadratic vanished identically at this point")
    if abs(a) < s2.LEAD_COEFF_REL * scale:
        raise BranchPointError("leading coefficient too small; fiber degenerates")
    disc = b * b - 4 * a * c
    if abs(disc) < s2.BRANCH_DISC_REL * scale * scale:
        raise BranchPointError("too close to a branch point")
    return scale, disc


def frozen_involution(surface, axis, point):
    a, b, c = frozen_axis_quadratic(surface, point, axis)
    scale, _ = frozen_guard(a, b, c)
    t0, t1 = point.coord(axis)
    prod = (a * t1, c * t0)
    if max(abs(prod[0]), abs(prod[1])) > 1e-6 * scale * max(abs(t0), abs(t1)):
        image = prod
    else:
        image = (a * t0, -(b * t0 + a * t1))
    image = _frozen_polish(a, b, c, s2._normalize(image))
    z0, z1 = image
    res = abs(a * z1 * z1 + b * z1 * z0 + c * z0 * z0)
    if res > s2.ON_SURFACE_TOL * max(scale, 1.0):
        raise ContractError(f"involution image off surface: residual {res:.3e}")
    return frozen_replace(point, axis, image, res)


def frozen_parabolic_map(surface, pair, point):
    first, second = pair
    return frozen_involution(surface, second, frozen_involution(surface, first, point))


def _frozen_sample_root(surface, probe, axis, rng):
    a, b, c = frozen_axis_quadratic(surface, probe, axis)
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0 or abs(a) < s2.LEAD_COEFF_REL * scale:
        return None
    disc = b * b - 4 * a * c
    if abs(disc) < s2.BRANCH_DISC_REL * scale * scale:
        return None
    sq = cmath.sqrt(disc)
    qq = -(b + sq) / 2 if abs(b + sq) >= abs(b - sq) else -(b - sq) / 2
    root = _frozen_polish(a, b, c, s2._normalize((a, qq) if rng.integers(2) == 0 else (qq, c)))
    r0, r1 = root
    res = abs(a * r1 * r1 + b * r1 * r0 + c * r0 * r0)
    if res < s2.SAMPLE_RESIDUAL_TOL * max(scale, 1.0):
        return frozen_replace(probe, axis, root, res)
    return None


def frozen_sample_point(surface, rng, max_tries=64):
    for _ in range(max_tries):
        x = s2._fs_pair(rng)
        y = s2._fs_pair(rng)
        point = _frozen_sample_root(surface, s2.SurfacePoint(x, y, (1.0 + 0j, 0j)), "z", rng)
        if point is not None:
            return point
    raise ContractError(f"could not sample a surface point in {max_tries} tries")


def frozen_sample_fiber_point(surface, pair, base_pair, rng, max_tries=64):
    first, second = pair
    (base_axis,) = [a for a in s2.AXES if a not in pair]
    base_pair = s2._normalize(base_pair)
    for _ in range(max_tries):
        moving = s2._fs_pair(rng)
        parts = {base_axis: base_pair, first: moving, second: (1.0 + 0j, 0j)}
        point = _frozen_sample_root(surface, s2.SurfacePoint(**parts), second, rng)
        if point is not None:
            return point
    raise ContractError(f"could not sample a fiber point in {max_tries} tries")


def _frozen_move_along_fiber(surface, pair, point, dy):
    first, second = pair
    y = point.affine(first)
    moved = frozen_replace(point, first, s2._normalize((1.0 + 0j, y + dy)), point.residual)
    a, b, c = frozen_axis_quadratic(surface, moved, second)
    sec = _frozen_polish(a, b, c, point.coord(second))
    s0, s1 = sec
    res = abs(a * s1 * s1 + b * s1 * s0 + c * s0 * s0)
    scale = max(abs(a), abs(b), abs(c), 1.0)
    if res > s2.ON_SURFACE_TOL * scale:
        raise BranchPointError("could not track the fiber through the shift")
    return frozen_replace(moved, second, sec, res)


def frozen_orbit_trace(surface, pair, base_pair, start, length, rng=None, stats=None):
    base_pair = s2._normalize(base_pair)
    if rng is None:
        rng = np.random.default_rng(0)
    if stats is None:
        stats = {}
    stats["interruptions"] = 0
    cur = start
    yield 0, cur
    allowed = max(1, length // 1000)
    done = 0
    while done < length:
        try:
            cur = frozen_parabolic_map(surface, pair, cur)
        except BranchPointError:
            stats["interruptions"] += 1
            if stats["interruptions"] > allowed:
                raise ContractError(
                    f"{stats['interruptions']} branch interruptions exceed the 0.1% budget"
                ) from None
            try:
                cur = _frozen_move_along_fiber(
                    surface, pair, cur, 1e-3 * complex(rng.normal(), rng.normal())
                )
            except (BranchPointError, ContractError):
                cur = frozen_sample_fiber_point(surface, pair, base_pair, rng)
            continue
        done += 1
        yield done, cur


def _frozen_random_word_trajectory(surface, maps, start, length, rng, fid):
    total = 0.0
    cur = start
    interruptions = 0
    k = 0
    while k < length:
        m = maps[int(rng.integers(len(maps)))]
        try:
            cur = m(cur)
        except BranchPointError:
            interruptions += 1
            if interruptions > max(1, length // 100):
                raise ContractError("trajectory hit the branch locus too often") from None
            cur = frozen_sample_point(surface, rng)
            continue
        total += s2.eval_test_function(fid, cur)
        k += 1
    return total / length, interruptions


def frozen_birkhoff(surface, fid, word_length=10**4, trials=16, mc_samples=10**6, seed=0,
                    pairs=(("y", "z"), ("x", "z"))):
    """``birkhoff_ergodicity_test`` with the frozen trajectory and MC kernels."""
    maps = [
        (lambda p, pr=pr: frozen_parabolic_map(surface, pr, p)) for pr in pairs
    ]
    trial_means = []
    interruptions = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, 0xB1, t])
        start = frozen_sample_point(surface, rng)
        mean, hits = _frozen_random_word_trajectory(
            surface, maps, start, word_length, rng, fid
        )
        trial_means.append(mean)
        interruptions += hits
    time_avg = float(np.mean(trial_means))
    se_time = float(np.std(trial_means, ddof=1) / math.sqrt(trials))
    rng_mc = np.random.default_rng([seed, 0x5C])
    space_avg, se_space, ess = frozen_mc_space_average(surface, fid, mc_samples, rng_mc)
    se = math.hypot(se_time, se_space)
    z = abs(time_avg - space_avg) / se if se > 0 else 0.0
    return {
        "note": "heuristic consistency check; random-word averages, not a theorem",
        "test_function": fid,
        "time_average": time_avg,
        "time_se": se_time,
        "trial_means": trial_means,
        "space_average": space_avg,
        "space_se": se_space,
        "mc_effective_samples": ess,
        "mc_unstable": bool(ess < 1000),
        "z_score": z,
        "word_length": word_length,
        "trials": trials,
        "mc_samples": mc_samples,
        "branch_interruptions": interruptions,
    }


def frozen_contrast(surface, pair=("y", "z"), fid="y_abs2", n_fibers=10, trials_per_fiber=6,
                    word_length=10**4, seed=0):
    """``ergodicity_contrast`` with its own trajectory loop and sampling."""
    (base_axis,) = [a for a in s2.AXES if a not in pair]

    def trajectory_mean(start, rng):
        total = 0.0
        cur = start
        k = 0
        guard = 0
        while k < word_length:
            try:
                cur = frozen_parabolic_map(surface, pair, cur)
            except BranchPointError:
                guard += 1
                if guard > max(1, word_length // 100):
                    raise ContractError("fiber trajectory stuck at branch locus") from None
                cur = frozen_sample_fiber_point(surface, pair, start.coord(base_axis), rng)
                continue
            total += s2.eval_test_function(fid, cur)
            k += 1
        return total / word_length, guard

    fiber_means = []
    within_vars = []
    interruptions = 0
    for i in range(n_fibers):
        rng = np.random.default_rng([seed, 0xF1, i])
        base = s2._fs_pair(rng)
        means = []
        for t in range(trials_per_fiber):
            rng_t = np.random.default_rng([seed, 0xF2, i, t])
            start = frozen_sample_fiber_point(surface, pair, base, rng_t)
            mean, hits = trajectory_mean(start, rng_t)
            means.append(mean)
            interruptions += hits
        fiber_means.append(float(np.mean(means)))
        within_vars.append(float(np.var(means, ddof=1)))
    cross_var = float(np.var(fiber_means, ddof=1))
    within_var = float(np.mean(within_vars))
    return {
        "note": "heuristic consistency check; single-map trajectories stay on one fiber",
        "pair": list(pair),
        "test_function": fid,
        "fiber_means": fiber_means,
        "cross_fiber_variance": cross_var,
        "within_fiber_variance": within_var,
        "variance_ratio": cross_var / within_var if within_var > 0 else float("inf"),
        "branch_interruptions": interruptions,
    }
